"""Row-program proximity joins: float safety, tie rules and tile purity.

The distance and kNN joins run on row arrays (:mod:`repro.core.proximity`);
this suite pins what that form must not change or lose:

* **Float safety.**  The distance join's MBR pre-test and circle bounds
  are masks over row arrays but must decide exactly as the scalar
  ``math.hypot`` code does, also where ``np.hypot`` differs from it in
  the last place; the kNN bounds are loosened so they only ever add
  candidates.
* **kNN on sharp inputs**, against the nested-loops oracle: axis-aligned
  squares whose nearest points are MBR corners (exact distance =
  MINDIST = the k-th distance), ties at the k-th distance (broken by
  oid), identical and touching polygons (distance-0 ties), holes, and
  ``k >= |B|``, ``|B| = 1`` and empty relations.  The counters of every
  task plan equal the serial join's.
* **No object in a proximity tile.**  Distance and kNN tiles construct
  no ``SpatialObject``, unpack no polygon and look up no approximation,
  in-process and on a pool worker's mapped stores; the shell MBRs of an
  edge table are the columnar MBRs bit for bit.
* **A tile's edge table is a row gather.**  ``EdgeTable.take`` of any
  rows (unsorted, repeated, none, objects with holes) is the table
  built over those objects, bit for bit.
"""

from __future__ import annotations

import math
import random
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    grid_square,
    random_star,
    random_relation_pair,
    run_on_worker_stores,
    scalar_distance_join,
    stats_fingerprint,
)
from repro.approximations.batch import ApproxColumns, BatchApproxArrays
from repro.core.join import JoinConfig, SpatialJoinProcessor
from repro.core.parallel_exec import (
    plan_columnar_tile_tasks,
    run_columnar_tile_task,
)
from repro.core.partition import owning_tile, owning_tiles
from repro.core.proximity import (
    _hypot_gaps,
    brute_force_knn_join,
    knn_probe_bounds,
)
from repro.core.stats import MultiStepStats
from repro.datasets import (
    columnar as columnar_module,
    relations as relations_module,
)
from repro.datasets.columnar import pack_rings
from repro.datasets.relations import SpatialObject, SpatialRelation
from repro.datasets.testseries import canonical_series
from repro.geometry.fastops import EdgeTable, build_edge_table
from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rect

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# Float safety
# ---------------------------------------------------------------------------


def _hypot_mismatches(seed: int, n: int = 200_000):
    """Random ``(dx, dy)`` on which ``np.hypot`` exceeds ``math.hypot``."""
    rng = np.random.default_rng(seed)
    dx, dy = rng.random((2, n))
    exact = np.array([math.hypot(x, y) for x, y in zip(dx.tolist(),
                                                       dy.tolist())])
    above = np.flatnonzero(np.hypot(dx, dy) > exact)
    assert len(above), "no np.hypot / math.hypot mismatch drawn"
    return dx[above], dy[above], exact[above]


def test_hypot_gaps_decide_where_np_hypot_differs():
    """ε set to math.hypot exactly, where np.hypot is one ulp above it:
    the scalar test keeps every pair, and so must the mask."""
    dx, dy, exact = _hypot_mismatches(1)
    zero = np.zeros(len(dx))
    for i in range(min(len(dx), 50)):
        gaps = _hypot_gaps(dx[i:i + 1], dy[i:i + 1], zero[:1], zero[:1],
                           exact[i])
        assert not gaps[0] > exact[i]
        assert np.hypot(dx[i], dy[i]) > exact[i]  # the naive mask drops it


finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                   allow_infinity=False)
radius = st.floats(min_value=0.0, max_value=1e3, allow_nan=False,
                   allow_infinity=False)


@SETTINGS
@given(st.lists(st.tuples(finite, finite, radius, radius), min_size=1,
                max_size=20),
       st.integers(min_value=0, max_value=19),
       st.sampled_from([-1, 0, 1]))
def test_hypot_gaps_match_scalar_decisions(rows, pick, step):
    """Every ``gap > ε`` decision is the scalar ``math.hypot`` one,
    with ε at, just below or just above one row's scalar gap."""
    dx, dy, ra, rb = (np.array(col) for col in zip(*rows))
    scalar = [math.hypot(x, y) - a - b for x, y, a, b in rows]
    epsilon = max(scalar[pick % len(rows)], 0.0)
    if step:
        epsilon = max(math.nextafter(epsilon, step * math.inf), 0.0)
    got = _hypot_gaps(dx, dy, ra, rb, epsilon) > epsilon
    assert got.tolist() == [gap > epsilon for gap in scalar]


def test_distance_pretest_keeps_pairs_exactly_at_epsilon():
    """Squares whose MBR gap is exactly ε by math.hypot but one ulp
    above it by np.hypot stay candidates, as in the scalar join."""
    dx, dy, exact = _hypot_mismatches(2)
    for i in range(5):
        square = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        corner_x, corner_y = 1.0 + dx[i], 1.0 + dy[i]
        gap = math.hypot(corner_x - 1.0, corner_y - 1.0)
        other = Polygon([
            (corner_x, corner_y), (corner_x + 1.0, corner_y),
            (corner_x + 1.0, corner_y + 1.0), (corner_x, corner_y + 1.0),
        ])
        rel_a = SpatialRelation("a", [square])
        rel_b = SpatialRelation("b", [other])
        config = JoinConfig(predicate="distance", epsilon=gap)
        stats = SpatialJoinProcessor(config).join(rel_a, rel_b).stats
        scalar = scalar_distance_join(rel_a, rel_b, gap).stats
        assert stats.candidate_pairs == scalar.candidate_pairs == 1
        assert stats.filter_false_hits == scalar.filter_false_hits


# ---------------------------------------------------------------------------
# Task plans run in-process
# ---------------------------------------------------------------------------


def _run_tasks(rel_a, rel_b, config, around=nullcontext()):
    """Every task of the config's plan, run here (inside ``around``)."""
    tasks, _, session = plan_columnar_tile_tasks(
        rel_a, rel_b, config.grid, config
    )
    try:
        with around:
            return [run_columnar_tile_task(task) for task in tasks]
    finally:
        session.close()


def _run_plan(rel_a, rel_b, config):
    """Every task of the config's plan, run here; merged pairs and stats."""
    outcomes = _run_tasks(rel_a, rel_b, config)
    outcomes.sort(key=lambda outcome: outcome.tile)
    stats = MultiStepStats()
    pairs = []
    for outcome in outcomes:
        stats.merge(outcome.stats)
        pairs.extend(outcome.id_pairs)
    if config.predicate == "knn":
        position = {obj.oid: i for i, obj in enumerate(rel_a)}
        pairs.sort(key=lambda pair: position[pair[0]])
    return pairs, stats


# ---------------------------------------------------------------------------
# kNN on sharp inputs
# ---------------------------------------------------------------------------

#: lattice cell: squares of side 1/4 on a 1/4 lattice touch their
#: neighbours, and every gap and corner offset is a binary fraction.
_CELL = 0.25

cells = st.tuples(st.integers(0, 5), st.integers(0, 5))


def _lattice(name, cells_, holed: bool):
    polys = [grid_square(i * _CELL, j * _CELL, _CELL / 2) for i, j in cells_]
    if holed:
        polys.append(Polygon(
            grid_square(3.0 * _CELL, 3.0 * _CELL, 2.0 * _CELL).shell,
            [grid_square(3.0 * _CELL, 3.0 * _CELL, _CELL).shell],
        ))
    return SpatialRelation(name, polys)


@SETTINGS
@given(st.lists(cells, min_size=0, max_size=10),
       st.lists(cells, min_size=0, max_size=10),
       st.booleans(), st.integers(min_value=1, max_value=12))
def test_knn_on_lattice_squares_matches_oracle(cells_a, cells_b, holed, k):
    """Corner-nearest squares, ties at the k-th distance, duplicates
    (identical polygons), touching squares, a holed polygon around a
    square, ``k >= |B|``, ``|B| <= 1`` and empty sides: pairs and order
    are the oracle's, counters the same in every task plan."""
    rel_a = _lattice("A", cells_a, False)
    rel_b = _lattice("B", cells_b + cells_a[:2], holed)
    config = JoinConfig(predicate="knn", k=k, grid=(2, 2))
    serial = SpatialJoinProcessor(config).join(rel_a, rel_b)
    serial.stats.check_invariants()
    assert serial.id_pairs() == brute_force_knn_join(rel_a, rel_b, k)
    for partitioner in ("grid", "rtree"):
        plan = replace(config, partitioner=partitioner, target_tasks=4)
        pairs, stats = _run_plan(rel_a, rel_b, plan)
        assert pairs == serial.id_pairs()
        assert stats_fingerprint(stats) == stats_fingerprint(serial.stats)
        assert stats.mbr_join.node_pairs == 0


def test_knn_tie_at_the_cap_found_in_round_two():
    """Round 1 takes the triangle (MBR gap 1) at exact distance √2; the
    square at MINDIST = exact = √2 — exactly the cap — ties with it and
    wins on its smaller oid, so round 2 must include MINDIST == cap."""
    rel_a = SpatialRelation("a", [grid_square(0.5, 0.5, 0.5)])
    rel_b = SpatialRelation("b", [
        grid_square(2.5, 2.5, 0.5),
        Polygon([(2.0, 2.0), (4.0, 2.0), (4.0, 0.0)]),
    ])
    result = SpatialJoinProcessor(JoinConfig(predicate="knn", k=1)).join(
        rel_a, rel_b
    )
    assert result.id_pairs() == [(0, 0)]
    assert result.id_pairs() == brute_force_knn_join(rel_a, rel_b, 1)
    assert result.stats.remaining_candidates == 2


def test_knn_single_right_object_and_empty_sides():
    one = SpatialRelation("one", [grid_square(0.0, 0.0, 0.5)])
    many = _lattice("many", [(i, i) for i in range(6)], True)
    empty = SpatialRelation("empty", [])
    for rel_a, rel_b in ((many, one), (one, many), (many, empty),
                         (empty, many), (empty, empty)):
        for k in (1, 3, 20):
            result = SpatialJoinProcessor(
                JoinConfig(predicate="knn", k=k)
            ).join(rel_a, rel_b)
            result.stats.check_invariants()
            assert result.id_pairs() == brute_force_knn_join(rel_a, rel_b, k)


def test_knn_probe_bounds_are_the_scalar_kth_max_distance():
    """Bit for bit the k-th smallest ``np.hypot`` max-distance."""
    rel_a, rel_b = random_relation_pair(5, n_objects=15)
    mbrs_a = rel_a.columnar().mbrs
    mbrs_b = rel_b.columnar().mbrs
    for k in (1, 2, 7, len(rel_b), len(rel_b) + 1):
        want = []
        for a in rel_a:
            tops = sorted(
                float(np.hypot(
                    max(a.mbr.xmax - b.mbr.xmin, b.mbr.xmax - a.mbr.xmin, 0.0),
                    max(a.mbr.ymax - b.mbr.ymin, b.mbr.ymax - a.mbr.ymin, 0.0),
                ))
                for b in rel_b
            )
            want.append(tops[k - 1] if k < len(rel_b) else math.inf)
        got = knn_probe_bounds(mbrs_a, mbrs_b, k)
        assert got.tobytes() == np.array(want).tobytes()


# ---------------------------------------------------------------------------
# The owning-task rule on rows
# ---------------------------------------------------------------------------

coord = st.integers(min_value=-40, max_value=40).map(lambda n: n / 8.0)


@SETTINGS
@given(st.lists(st.tuples(coord, coord, coord, coord, coord, coord, coord,
                          coord), min_size=1, max_size=20),
       st.integers(1, 4), st.integers(1, 4))
def test_owning_tiles_is_owning_tile_per_row(rows, nx, ny):
    rects_a, rects_b = [], []
    for x1, y1, x2, y2, x3, y3, x4, y4 in rows:
        rects_a.append(Rect(min(x1, x2), min(y1, y2), max(x1, x2),
                            max(y1, y2)))
        rects_b.append(Rect(min(x3, x4), min(y3, y4), max(x3, x4),
                            max(y3, y4)))
    space = Rect(-3.0, -2.0, 4.0, 5.0)
    ix, iy = owning_tiles(
        np.array([tuple(r) for r in rects_a]),
        np.array([tuple(r) for r in rects_b]), space, nx, ny,
    )
    want = [owning_tile(a, b, space, nx, ny) for a, b in zip(rects_a,
                                                              rects_b)]
    assert list(zip(ix.tolist(), iy.tolist())) == want


# ---------------------------------------------------------------------------
# No object in a proximity tile
# ---------------------------------------------------------------------------


class _counting:
    """While entered: count object constructions, polygon unpacks and
    approximation builds or scalar lookups (``counts``).  A tile reads
    its gathered circle rows through ``ColumnarRelation.approx``; the
    two ways that call could build a kind (a pack over the objects, a
    kernel-tier build over the edge table) are what is counted of it."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.counts = {"objects": 0, "unpack": 0, "approx": 0}

    def _wrap(self, owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            self.counts[key] += 1
            return original(*args, **kwargs)

        self.monkeypatch.setattr(owner, name, counted)

    def __enter__(self):
        self._wrap(SpatialObject, "__init__", "objects")
        self._wrap(columnar_module, "unpack_polygon", "unpack")
        self._wrap(SpatialObject, "approximation", "approx")
        self._wrap(relations_module, "compute_approximation", "approx")
        self._wrap(BatchApproxArrays, "append", "approx")
        self._wrap(columnar_module, "kernel_approximations", "approx")
        self._wrap(ApproxColumns, "approximation", "approx")
        return self

    def __exit__(self, *exc):
        self.monkeypatch.undo()


@pytest.mark.parametrize("partitioner", ["grid", "rtree"])
@pytest.mark.parametrize("predicate,setting", [("distance", 0.08),
                                               ("knn", 2)])
def test_proximity_tiles_build_no_object(monkeypatch, partitioner,
                                         predicate, setting):
    rel_a, rel_b = random_relation_pair(11, n_objects=14, degenerate=False)
    kwargs = {"epsilon": setting} if predicate == "distance" else {"k": setting}
    config = JoinConfig(predicate=predicate, partitioner=partitioner,
                        grid=(2, 2), target_tasks=4, **kwargs)
    serial = SpatialJoinProcessor(config).join(rel_a, rel_b)
    counting = _counting(monkeypatch)
    tasks, _, session = plan_columnar_tile_tasks(
        rel_a, rel_b, config.grid, config
    )
    try:
        with counting:
            outcomes = [run_columnar_tile_task(task) for task in tasks]
            # A pool worker reads a store over the mapped segments,
            # whose objects would be built on a read: none is.
            on_workers = [run_on_worker_stores(task) for task in tasks]
    finally:
        session.close()
    assert len(outcomes) > 1
    assert counting.counts == {"objects": 0, "unpack": 0, "approx": 0}
    assert on_workers == [(each.id_pairs, each.stats) for each in outcomes]
    pairs = sorted(pair for outcome in outcomes for pair in outcome.id_pairs)
    assert pairs == sorted(serial.id_pairs())


@pytest.mark.parametrize("which", ["Europe A", "Europe B", "BW A", "BW B"])
def test_edge_table_mbrs_are_columnar_mbrs(which):
    series = canonical_series(which, seed=1994, size=30)
    for relation in (series.relation_a, series.relation_b):
        columnar = relation.columnar()
        assert (
            columnar.ring_geometry().table.mbrs.tobytes()
            == columnar.mbrs.tobytes()
        )
        rows = np.arange(len(relation))[::3]
        table = columnar.ring_geometry().table.take(rows)
        assert table.mbrs.tobytes() == columnar.mbrs[rows].tobytes()


def _holed_star(rng: random.Random, cx: float, cy: float) -> Polygon:
    """A star with a square hole around its centre (inside its inner
    radius), or without one."""
    radius = rng.uniform(0.02, 0.2)
    star = random_star(rng, cx, cy, radius, rng.randint(3, 12))
    if rng.random() < 0.5:
        return star
    half = 0.2 * radius
    hole = [(cx - half, cy - half), (cx + half, cy - half),
            (cx + half, cy + half), (cx - half, cy + half)]
    return Polygon(star.shell, holes=[hole])


@SETTINGS
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=0, max_value=12), st.data())
def test_edge_table_take_is_the_table_of_those_objects(seed, count, data):
    rng = random.Random(seed)
    relation = SpatialRelation("t", [
        _holed_star(rng, rng.uniform(0, 1), rng.uniform(0, 1))
        for _ in range(count)
    ])
    table = relation.columnar().ring_geometry().table
    picks = data.draw(st.lists(
        st.integers(min_value=0, max_value=max(count - 1, 0)),
        max_size=2 * count,
    ))
    for rows in (picks, []):
        rows = np.array(rows, dtype=np.intp)
        rings = pack_rings([relation.objects[i] for i in rows.tolist()])
        want = build_edge_table(
            rings.object_rings, rings.ring_offsets, rings.ring_xy
        )
        got = table.take(rows)
        for name, ours, theirs in zip(EdgeTable._fields, got, want):
            assert ours.dtype == theirs.dtype, name
            assert ours.shape == theirs.shape, name
            assert ours.tobytes() == theirs.tobytes(), name
