"""Differential suite: set-at-a-time proximity exact step ≡ per pair.

The distance and kNN pipelines resolve exact distances a round at a time
— one intersects decision and one reach-capped ragged edge-distance
kernel call per round (:mod:`repro.core.proximity`).  The per-pair
pipelines they replaced are kept below, verbatim, as the reference: one
``polygons_intersect_fast`` and one dense ``n_a x n_b`` distance matrix
per pair.  Only the calls into code that has since left ``src/`` are
re-pointed: the dense matrix is the test oracle
``helpers.min_edge_distance_bulk`` (formerly a backend kernel), the
ε-clip is the former ``RingGeometry.edges_within``, inlined, and the
expanded R*-trees and disc gaps are ``helpers.expanded_tree`` and
``helpers.circle_distance`` (formerly in ``repro.core.distance``).

Both must produce the same id pairs in the same order on the catalogue
series (Europe / BW, strategy A / B), on polygons with holes,
containment, touching and identical polygons, and on the adversarial
random pairs of the other differential suites; for k ∈ {1, 2, 3, |B|,
|B| + 2}, ε ∈ {0, exactly a pair's distance, beyond the data space}, and
with the ``owns`` hook of a 2 × 2 grid plan.  The distance join's
:class:`MultiStepStats` equal the reference's (every Figure-1 counter;
kernel telemetry is excluded from equality).  The kNN join's counters
are those of its two-round plan, checked against an independent
nested-loops count of their definitions (:func:`restated_knn_stats`).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    circle_distance,
    expanded_tree,
    grid_square,
    min_edge_distance_bulk,
    random_relation_pair,
)
from repro.core.distance import rect_distance
from repro.core.join import JoinConfig
from repro.core.partition import (
    GridPartitioner,
    joint_space,
    owning_tile,
    owning_tiles,
)
from repro.core.proximity import (
    ProximityRows,
    distance_join_pipeline,
    knn_join_pipeline,
    loosen,
)
from repro.core.stats import MultiStepStats
from repro.datasets.relations import SpatialObject, SpatialRelation
from repro.datasets.testseries import canonical_series
from repro.exact.refine import clip_margins
from repro.geometry.fastops import polygons_intersect_fast
from repro.geometry.polygon import Polygon
from repro.index.join import JoinStats, rstar_join

Pair = Tuple[SpatialObject, SpatialObject]


# ---------------------------------------------------------------------------
# The per-pair reference pipelines
# ---------------------------------------------------------------------------


def _edges_within(geometry, row, rect, reach):
    """The object's edges whose box is within ``reach`` of ``rect``."""
    table = geometry.table
    span = slice(table.offsets[row], table.offsets[row + 1])
    reach = reach + clip_margins(table.bounds[row][None], rect[None])[0]
    xmin, ymin, xmax, ymax = table.boxes[:, span]
    keep = (
        (xmin <= rect[2] + reach)
        & (xmax >= rect[0] - reach)
        & (ymin <= rect[3] + reach)
        & (ymax >= rect[1] - reach)
    )
    return tuple(table.coords[:, span][:, keep])


class _Geometry:
    """A relation's edge table plus the object-to-row lookup the
    per-pair reference needs (the pipelines themselves work on rows)."""

    def __init__(self, relation: SpatialRelation):
        geometry = relation.columnar().ring_geometry()
        self.table = geometry.table
        self.edges = geometry.edges
        self._rows = {id(obj): row for row, obj in enumerate(relation)}

    def row_of(self, obj: SpatialObject) -> int:
        return self._rows[id(obj)]


def _exact_distance(
    obj_a: SpatialObject,
    obj_b: SpatialObject,
    geometry_a,
    geometry_b,
    epsilon: Optional[float] = None,
) -> float:
    if polygons_intersect_fast(obj_a.polygon, obj_b.polygon):
        return 0.0
    row_a = geometry_a.row_of(obj_a)
    row_b = geometry_b.row_of(obj_b)
    if epsilon is None:
        edges_a = geometry_a.edges(row_a)
        edges_b = geometry_b.edges(row_b)
    else:
        edges_a = _edges_within(
            geometry_a, row_a, geometry_b.table.bounds[row_b], epsilon
        )
        edges_b = _edges_within(
            geometry_b, row_b, geometry_a.table.bounds[row_a], epsilon
        )
    return min_edge_distance_bulk(*edges_a, *edges_b)


def reference_distance_join(
    relation_a: SpatialRelation,
    relation_b: SpatialRelation,
    config: JoinConfig,
    stats: MultiStepStats,
    owns: Optional[Callable[[SpatialObject, SpatialObject], bool]] = None,
) -> Iterator[Pair]:
    epsilon = config.epsilon
    geometry_a = _Geometry(relation_a)
    geometry_b = _Geometry(relation_b)
    half = epsilon / 2.0
    tree_a = expanded_tree(relation_a, half, config.rtree_max_entries)
    tree_b = expanded_tree(relation_b, half, config.rtree_max_entries)
    raw = JoinStats()
    for obj_a, obj_b in rstar_join(tree_a, tree_b, None, None, raw):
        if owns is not None and not owns(obj_a, obj_b):
            stats.dedup_dropped += 1
            continue
        stats.mbr_join.mbr_tests += 1
        if rect_distance(obj_a.mbr, obj_b.mbr) > epsilon:
            continue
        stats.candidate_pairs += 1
        stats.mbr_join.output_pairs += 1

        stats.conservative_tests += 1
        circle_a = obj_a.approximation("MBC").circle()
        circle_b = obj_b.approximation("MBC").circle()
        lower = circle_distance(
            circle_a.center, circle_a.radius,
            circle_b.center, circle_b.radius,
        )
        if lower > epsilon:
            stats.filter_false_hits += 1
            continue

        stats.progressive_tests += 1
        disc_a = obj_a.approximation("MEC").circle()
        disc_b = obj_b.approximation("MEC").circle()
        upper = circle_distance(
            disc_a.center, disc_a.radius, disc_b.center, disc_b.radius
        )
        if upper <= epsilon:
            stats.filter_hits_progressive += 1
            yield (obj_a, obj_b)
            continue

        stats.remaining_candidates += 1
        if _exact_distance(
            obj_a, obj_b, geometry_a, geometry_b, epsilon
        ) <= epsilon:
            stats.exact_hits += 1
            yield (obj_a, obj_b)
        else:
            stats.exact_false_hits += 1
    stats.mbr_join.mbr_tests += raw.mbr_tests
    stats.mbr_join.node_pairs += raw.node_pairs


def reference_knn_join(
    relation_a: SpatialRelation,
    relation_b: SpatialRelation,
    config: JoinConfig,
    stats: MultiStepStats,
) -> Iterator[Pair]:
    k = config.k
    geometry_a = _Geometry(relation_a)
    geometry_b = _Geometry(relation_b)
    tree_b = relation_b.rtree(config.rtree_max_entries)
    for obj_a in relation_a:
        if tree_b.size == 0:
            break
        tiebreak = itertools.count()
        heap: List[Tuple[float, int, bool, object]] = [
            (0.0, next(tiebreak), False, tree_b.root)
        ]
        best: List[Tuple[float, float, SpatialObject]] = []
        computed = 0
        while heap:
            mindist, _, is_entry, payload = heapq.heappop(heap)
            if len(best) == k and mindist > -best[0][0]:
                break
            if is_entry:
                stats.candidate_pairs += 1
                stats.mbr_join.output_pairs += 1
                stats.remaining_candidates += 1
                computed += 1
                exact = _exact_distance(
                    obj_a, payload, geometry_a, geometry_b
                )
                heapq.heappush(best, (-exact, -payload.oid, payload))
                if len(best) > k:
                    heapq.heappop(best)
                continue
            node = payload
            stats.mbr_join.node_pairs += 1
            if node.is_leaf:
                for entry in node.entries:
                    stats.mbr_join.mbr_tests += 1
                    heapq.heappush(
                        heap,
                        (
                            rect_distance(obj_a.mbr, entry.rect),
                            next(tiebreak),
                            True,
                            relation_b.objects[entry.item],
                        ),
                    )
            else:
                for child in node.children:
                    stats.mbr_join.mbr_tests += 1
                    heapq.heappush(
                        heap,
                        (
                            rect_distance(obj_a.mbr, child.mbr()),
                            next(tiebreak),
                            False,
                            child,
                        ),
                    )
        emitted = sorted(
            ((-neg, -negoid, obj) for neg, negoid, obj in best),
            key=lambda t: (t[0], t[1]),
        )
        stats.exact_hits += len(emitted)
        stats.exact_false_hits += computed - len(emitted)
        for _, _, obj_b in emitted:
            yield (obj_a, obj_b)


def _mbr_gaps(a, b):
    """Per-axis ``(MINDIST, max-distance)`` separations of two Rects."""
    return (
        (max(a.xmin - b.xmax, 0.0, b.xmin - a.xmax),
         max(a.ymin - b.ymax, 0.0, b.ymin - a.ymax)),
        (max(a.xmax - b.xmin, b.xmax - a.xmin, 0.0),
         max(a.ymax - b.ymin, b.ymax - a.ymin, 0.0)),
    )


def restated_knn_stats(relation_a, relation_b, k) -> MultiStepStats:
    """The kNN counters by their definitions, one pair at a time.

    Per left object: ``d_k`` is the k-th smallest MBR max-distance
    (``inf`` for ``k >= |B|``); round 1 is the k right objects smallest
    by ``(MINDIST, oid)``; ``cap = min(largest round-1 distance, d_k)``;
    round 2 is every other right object with ``MINDIST <= cap``
    (loosened).  Computed pairs are candidates, remaining candidates and
    MBR-join output; ``min(k, |B|)`` of them are hits; ``mbr_tests``
    counts ``MINDIST <= d_k``.
    """
    stats = MultiStepStats()
    geometry_a = _Geometry(relation_a)
    geometry_b = _Geometry(relation_b)
    objects_b = list(relation_b)
    for obj_a in relation_a:
        if not objects_b:
            break
        mind, maxd = {}, []
        for obj_b in objects_b:
            (gx, gy), (sx, sy) = _mbr_gaps(obj_a.mbr, obj_b.mbr)
            mind[obj_b.oid] = float(np.hypot(gx, gy))
            maxd.append(float(np.hypot(sx, sy)))
        d_k = sorted(maxd)[k - 1] if k < len(objects_b) else np.inf
        stats.mbr_join.mbr_tests += sum(d <= d_k for d in mind.values())
        ranked = sorted(objects_b, key=lambda obj: (mind[obj.oid], obj.oid))
        first = ranked[:k]
        exact = max(
            _exact_distance(obj_a, obj_b, geometry_a, geometry_b)
            for obj_b in first
        )
        cap = float(loosen(np.float64(min(exact, d_k))))
        computed = len(first) + sum(
            mind[obj.oid] <= cap for obj in ranked[k:]
        )
        hits = min(k, len(objects_b))
        stats.candidate_pairs += computed
        stats.mbr_join.output_pairs += computed
        stats.remaining_candidates += computed
        stats.exact_hits += hits
        stats.exact_false_hits += computed - hits
    return stats


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

#: catalogue series, scaled down so the dense reference stays affordable
#: (BW objects average ≈ 500 vertices).
CATALOGUE_SIZES = {"Europe A": 12, "Europe B": 12, "BW A": 5, "BW B": 5}


def _catalogue(which: str, seed: int):
    series = canonical_series(which, seed=seed, size=CATALOGUE_SIZES[which])
    return series.relation_a, series.relation_b


def _special(dx: float, dy: float):
    """Holes, containment, touching and identical polygons.

    Relation B is shifted by a snapped ``(dx, dy)``, so the drawn
    offsets also produce shared edges and exact gaps between the rows.
    """
    holed = Polygon(
        grid_square(0.0, 0.0, 1.0).shell, [grid_square(0.0, 0.0, 0.5).shell]
    )
    polys_a = [
        holed,
        grid_square(3.0, 0.0, 1.0),
        grid_square(6.0, 0.0, 0.5),
        grid_square(9.0, 0.0, 0.5),
        Polygon([(0.0, 3.0), (2.0, 3.0), (1.0, 4.5)]),
    ]
    polys_b = [
        grid_square(0.0, 0.0, 0.25),   # inside the hole: distance 0.25
        grid_square(3.0, 0.0, 0.125),  # contained: distance 0
        grid_square(7.0, 0.0, 0.5),    # touching along an edge
        grid_square(9.0, 0.0, 0.5),    # identical
        Polygon([(0.0, 5.0), (2.0, 5.0), (1.0, 6.0)]),
        Polygon(
            grid_square(4.5, 3.0, 1.0).shell,
            [grid_square(4.5, 3.0, 0.5).shell],
        ),
    ]
    return (
        SpatialRelation("special-a", polys_a),
        SpatialRelation(
            "special-b", [p.translated(dx, dy) for p in polys_b]
        ),
    )


snapped = st.integers(min_value=-8, max_value=8).map(lambda n: n / 8.0)

relation_pairs = st.one_of(
    st.builds(
        _catalogue,
        st.sampled_from(sorted(CATALOGUE_SIZES)),
        st.sampled_from([1994, 7]),
    ),
    st.builds(_special, snapped, snapped),
    st.builds(
        lambda seed: random_relation_pair(seed, n_objects=10,
                                          degenerate=False),
        st.integers(min_value=0, max_value=40),
    ),
)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _run(pipeline, relation_a, relation_b, config, **hook):
    """Oid pairs and stats (a pipeline on rows yields oids already)."""
    stats = MultiStepStats()
    pairs = [
        (a, b) if isinstance(a, int) else (a.oid, b.oid)
        for a, b in pipeline(relation_a, relation_b, config, stats, **hook)
    ]
    stats.check_invariants()
    return pairs, stats


def assert_same(reference, batched, relation_a, relation_b, config, **hook):
    want_pairs, want_stats = _run(reference, relation_a, relation_b, config,
                                  **hook)
    got_pairs, got_stats = _run(batched, relation_a, relation_b, config,
                                **hook)
    assert got_pairs == want_pairs, config
    assert got_stats == want_stats, config
    assert got_stats.dedup_dropped == want_stats.dedup_dropped
    return got_pairs, got_stats


def assert_knn(relation_a, relation_b, config):
    """Reference pairs and order; counters of the restated definitions."""
    want_pairs, _ = _run(reference_knn_join, relation_a, relation_b, config)
    got_pairs, got_stats = _run(knn_join_pipeline, relation_a, relation_b,
                                config)
    assert got_pairs == want_pairs, config
    assert got_stats == restated_knn_stats(relation_a, relation_b, config.k)
    assert got_stats.mbr_join.node_pairs == 0
    return got_pairs, got_stats


def _pair_distance(relation_a, relation_b, index):
    """The exact distance of one pair, as both pipelines compute it."""
    obj_a = relation_a[index % len(relation_a)]
    obj_b = relation_b[(index // len(relation_a)) % len(relation_b)]
    return _exact_distance(
        obj_a, obj_b,
        _Geometry(relation_a),
        _Geometry(relation_b),
    )


def _epsilon(relation_a, relation_b, kind, index):
    if kind == "zero":
        return 0.0
    if kind == "pair":
        return _pair_distance(relation_a, relation_b, index)
    space = joint_space(relation_a, relation_b)
    return 2.0 * float(np.hypot(space.width, space.height))


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@SETTINGS
@given(relation_pairs, st.sampled_from(["zero", "pair", "beyond"]),
       st.integers(min_value=0, max_value=10_000))
def test_distance_join_matches_per_pair_reference(relations, kind, index):
    relation_a, relation_b = relations
    epsilon = _epsilon(relation_a, relation_b, kind, index)
    config = JoinConfig(predicate="distance", epsilon=epsilon)
    pairs, _ = assert_same(reference_distance_join, distance_join_pipeline,
                           relation_a, relation_b, config)
    if kind == "beyond":
        assert len(pairs) == len(relation_a) * len(relation_b)


@SETTINGS
@given(relation_pairs, st.sampled_from(["1", "2", "3", "|B|", "|B|+2"]))
def test_knn_join_matches_per_pair_reference(relations, which):
    relation_a, relation_b = relations
    n_b = len(relation_b)
    k = {"|B|": n_b, "|B|+2": n_b + 2}.get(which) or int(which)
    config = JoinConfig(predicate="knn", k=k)
    pairs, _ = assert_knn(relation_a, relation_b, config)
    assert len(pairs) == len(relation_a) * min(k, n_b)


def _tile(relation, rows):
    """A distance task's rows of ``relation`` (gathered from the parent's
    rows, MBC and MEC circles included) and a relation over those rows'
    objects."""
    view = SpatialRelation(relation.name, [])
    view.objects = [relation.objects[i] for i in rows.tolist()]
    return ProximityRows.of(relation.columnar(), "distance").take(rows), view


@SETTINGS
@given(relation_pairs, st.sampled_from(["zero", "pair", "beyond"]),
       st.integers(min_value=0, max_value=10_000))
def test_distance_join_owns_hook_of_grid_plan(relations, kind, index):
    """Each task of a 2 × 2 ε-aware grid plan, with its owning-task hook:
    the hook runs before any counter moves, in both pipelines alike."""
    relation_a, relation_b = relations
    epsilon = _epsilon(relation_a, relation_b, kind, index)
    config = JoinConfig(predicate="distance", epsilon=epsilon)
    plan = GridPartitioner().plan_proximity(
        relation_a, relation_b, (2, 2), config
    )
    nx, ny = plan.grid
    half = epsilon / 2.0
    grow = np.array([-half, -half, half, half])
    for tile, rows_a, rows_b in plan.entries:
        gathered_a, tile_a = _tile(relation_a, rows_a)
        gathered_b, tile_b = _tile(relation_b, rows_b)
        expanded_a = gathered_a.mbrs + grow
        expanded_b = gathered_b.mbrs + grow
        assert gathered_a.mbrs.tobytes() == tile_a.columnar().mbrs.tobytes()

        def owns(obj_a, obj_b, tile=tile):
            return owning_tile(
                obj_a.mbr.expand(half), obj_b.mbr.expand(half),
                plan.space, nx, ny,
            ) == tile

        def owns_rows(ra, rb, tile=tile):
            ix, iy = owning_tiles(
                expanded_a[ra], expanded_b[rb], plan.space, nx, ny
            )
            return (ix == tile[0]) & (iy == tile[1])

        want = _run(reference_distance_join, tile_a, tile_b, config,
                    owns=owns)
        got = _run(distance_join_pipeline, gathered_a, gathered_b, config,
                   owns=owns_rows)
        assert got == want, (tile, config)
        assert got[1].dedup_dropped == want[1].dedup_dropped


@pytest.mark.parametrize("which", sorted(CATALOGUE_SIZES))
def test_catalogue_exact_step_is_exercised(which):
    """The fixed catalogue cases reach the exact step of both pipelines
    (the properties above would pass vacuously otherwise)."""
    relation_a, relation_b = _catalogue(which, 1994)
    space = joint_space(relation_a, relation_b)
    config = JoinConfig(
        predicate="distance", epsilon=0.2 * max(space.width, space.height)
    )
    _, stats = assert_same(reference_distance_join, distance_join_pipeline,
                           relation_a, relation_b, config)
    assert stats.remaining_candidates > 0
    _, stats = assert_knn(relation_a, relation_b,
                          JoinConfig(predicate="knn", k=2))
    assert stats.exact_false_hits > 0
