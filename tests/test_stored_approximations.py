"""Approximations are stored data: byte identity and zero rebuilds.

Four claims, each of which fails at the commit before approximation
columns became part of a relation's stored form:

* **Bit-exact stored form** — for every kind that has one, columns →
  scalar :class:`Approximation` → columns is the identity, and the
  scalar rebuilt from a row equals what ``compute_approximation``
  returns, float for float (hypothesis over stars, slivers and holes).
* **Identical joins** — pairs, order and every Figure-1 counter agree
  between freshly computed, store-seeded and shared-memory-shipped
  approximations, including the false-area test, degenerate (< 3
  vertex) convex rows and polygons with holes.
* **No tile derives** — with ``compute_approximation`` counting across
  the forked workers, every tile task makes 0 calls: both partitioners,
  workers 1, 2 and 3 in a session and 2 without one, both engines, all
  four predicates, cold and warm.
* **No process re-derives** — a fresh ``repro join store:…`` process on
  a store another process has touched makes 0 calls and never imports
  scipy.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.datasets.columnar as columnar_module
import repro.datasets.relations as relations_module
from helpers import (
    random_relation_pair,
    random_star,
    sliver,
    stats_fingerprint,
)
from repro.approximations.batch import (
    ApproxColumns,
    BatchApproxArrays,
    stored_family,
)
from repro.approximations.factory import compute_approximation
from repro.cli import main
from repro.core.filters import FilterConfig
from repro.core.join import JoinConfig, SpatialJoinProcessor
from repro.core.parallel_exec import (
    live_shared_segments,
    parallel_partitioned_join,
    plan_columnar_tile_tasks,
)
from repro.core.partition import partitioned_join
from repro.core.session import JoinSession
from repro.datasets.io import save_relation
from repro.datasets.relations import SpatialObject, SpatialRelation
from repro.datasets.store import RelationStore
from repro.geometry.polygon import Polygon

STORED_KINDS = ("MBR", "4-C", "5-C", "CH", "MER", "MBC", "MEC")
UNSTORED_KINDS = ("RMBR", "MBE")

SRC = str(Path(__file__).resolve().parents[1] / "src")


def signature(appr):
    """Everything observable about a scalar approximation, as plain floats."""
    box = appr.mbr()
    shape = (
        (appr.circle().center, appr.circle().radius)
        if appr.shape_kind == "circle"
        else tuple(appr.convex_vertices())
    )
    rect = getattr(appr, "rect", None)
    return (
        type(appr).__name__,
        appr.kind,
        appr.is_conservative,
        appr.num_parameters,
        appr.area(),
        (box.xmin, box.ymin, box.xmax, box.ymax),
        shape,
        None if rect is None else (rect.xmin, rect.ymin, rect.xmax, rect.ymax),
        getattr(appr, "m", None),
    )


def holed_square(cx: float, cy: float, half: float) -> Polygon:
    """A square with a square hole (ring columns carry two rings)."""
    def ring(h):
        return [(cx - h, cy - h), (cx + h, cy - h),
                (cx + h, cy + h), (cx - h, cy + h)]
    return Polygon(ring(half), holes=[ring(half / 3.0)])


def mixed_polygons(seed: int, count: int):
    """Stars, slivers (degenerate hulls) and holed squares."""
    rng = random.Random(seed)
    polygons = []
    for i in range(count):
        cx, cy = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
        pick = i % 3
        if pick == 0:
            polygons.append(
                random_star(rng, cx, cy, rng.uniform(0.05, 0.2),
                            rng.randint(5, 14))
            )
        elif pick == 1:
            polygons.append(sliver(cx, cy, rng.uniform(0.02, 0.1)))
        else:
            polygons.append(holed_square(cx, cy, rng.uniform(0.04, 0.15)))
    return polygons


def mixed_pair(seed: int, count: int = 9):
    return (
        SpatialRelation(f"MA{seed}", mixed_polygons(seed, count)),
        SpatialRelation(f"MB{seed}", mixed_polygons(seed + 1000, count)),
    )


# ---------------------------------------------------------------------------
# (iv) the stored form is bit-exact both ways
# ---------------------------------------------------------------------------


class TestStoredForm:
    def test_which_kinds_have_a_stored_form(self):
        for kind in STORED_KINDS + ("3-C", "12-C"):
            assert stored_family(kind) in ("convex", "circle"), kind
        for kind in UNSTORED_KINDS + ("2-C", "x-C", "-C", "nope"):
            assert stored_family(kind) is None, kind
        assert BatchApproxArrays("MBE").columns() is None
        with pytest.raises(ValueError, match="no stored form"):
            ApproxColumns("RMBR", {})

    @pytest.mark.parametrize("kind", STORED_KINDS)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           count=st.integers(min_value=1, max_value=6))
    @settings(max_examples=12, deadline=None)
    def test_columns_scalar_columns_round_trip(self, kind, seed, count):
        relation = SpatialRelation("r", mixed_polygons(seed, count))
        columns = relation.columnar().approx(kind).columns()
        assert len(columns) == count

        rebuilt = [columns.approximation(row) for row in range(count)]
        for obj, scalar in zip(relation, rebuilt):
            fresh = compute_approximation(obj.polygon, kind)
            assert signature(scalar) == signature(fresh)

        # Re-pack the rebuilt scalars: the very same bytes come out.
        clones = []
        for obj, scalar in zip(relation, rebuilt):
            clone = SpatialObject(obj.oid, obj.polygon)
            clone._approximations[kind] = scalar
            clones.append(clone)
        repacked = BatchApproxArrays(kind)
        repacked.append(clones)
        again = repacked.columns()
        assert list(again.arrays) == list(columns.arrays)
        for name, array in columns.arrays.items():
            other = again.arrays[name]
            assert other.dtype == array.dtype and other.shape == array.shape
            assert other.tobytes() == array.tobytes(), name

    def test_degenerate_rows_are_stored_and_flagged(self):
        relation = SpatialRelation("s", [sliver(0.5, 0.5, 0.1),
                                         holed_square(0.3, 0.3, 0.1)])
        encoder = relation.columnar().approx("CH")
        columns = encoder.columns()
        assert columns.arrays["counts"].tolist()[0] < 3
        assert encoder.degenerate.tolist() == [True, False]
        adopted = BatchApproxArrays.from_columns(columns, relation.objects)
        assert adopted.degenerate.tolist() == [True, False]
        assert len(columns.approximation(0).convex_vertices()) < 3

    def test_row_count_must_match_the_objects(self):
        relation = SpatialRelation("u", mixed_polygons(6, 4))
        columns = relation.columnar().approx("MBC").columns()
        with pytest.raises(ValueError, match="4 rows for 3 objects"):
            BatchApproxArrays.from_columns(columns, relation.objects[:3])


# ---------------------------------------------------------------------------
# counting compute_approximation, across forked workers too
# ---------------------------------------------------------------------------

#: created before any pool forks, so workers inherit it.
_BUILDS = multiprocessing.get_context("fork").Value("i", 0)


@pytest.fixture()
def builds(monkeypatch):
    """Count every ``compute_approximation`` a ``SpatialObject`` triggers,
    and every row a relation builds in one kernel-tier call."""
    original = relations_module.compute_approximation
    original_rows = columnar_module.kernel_approximations

    def counting(polygon, kind):
        with _BUILDS.get_lock():
            _BUILDS.value += 1
        return original(polygon, kind)

    def counting_rows(kind, table, *args):
        with _BUILDS.get_lock():
            _BUILDS.value += len(table.offsets) - 1
        return original_rows(kind, table, *args)

    monkeypatch.setattr(relations_module, "compute_approximation", counting)
    monkeypatch.setattr(columnar_module, "kernel_approximations", counting_rows)
    _BUILDS.value = 0

    class Counter:
        @property
        def count(self):
            return _BUILDS.value

        def reset(self):
            _BUILDS.value = 0

    return Counter()


# ---------------------------------------------------------------------------
# (iii) fresh == store-seeded == shm-shipped
# ---------------------------------------------------------------------------

IDENTITY_CONFIGS = [
    ("default-batched", JoinConfig(engine="batched", exact_method="vectorized")),
    ("default-streaming", JoinConfig(engine="streaming",
                                     exact_method="vectorized")),
    ("refined", JoinConfig(engine="batched", exact_method="vectorized",
                           exact_batch=16)),
    ("false-area-5C", JoinConfig(
        engine="batched", exact_method="vectorized",
        filter=FilterConfig(conservative="5-C", progressive=None,
                            use_false_area_test=True))),
    ("false-area-CH-MEC", JoinConfig(
        engine="batched", exact_method="vectorized",
        filter=FilterConfig(conservative="CH", progressive="MEC",
                            use_false_area_test=True))),
    ("circles", JoinConfig(
        engine="batched", exact_method="vectorized",
        filter=FilterConfig(conservative="MBC", progressive="MEC"))),
    ("within", JoinConfig(engine="batched", exact_method="vectorized",
                          predicate="within")),
    ("unstored-kinds", JoinConfig(
        engine="batched", exact_method="vectorized",
        filter=FilterConfig(conservative="RMBR", progressive="MER"))),
]


def _touched_store(tmp_path, makers):
    """A store whose sidecars for every stored kind are published."""
    store = RelationStore(tmp_path / "store")
    fingerprints = []
    for relation in makers():
        relation.columnar(eager_kinds=STORED_KINDS)
        fingerprints.append(store.save(relation))
    return store, fingerprints


@pytest.mark.parallel
@pytest.mark.parametrize("maker", [
    lambda: random_relation_pair(611, n_objects=12),
    lambda: mixed_pair(612),
], ids=["slivers-and-squares", "holes"])
@pytest.mark.parametrize("label,config", IDENTITY_CONFIGS,
                         ids=[label for label, _ in IDENTITY_CONFIGS])
def test_fresh_store_seeded_and_shipped_joins_are_identical(
    tmp_path, builds, maker, label, config
):
    fresh_a, fresh_b = maker()
    plain = SpatialJoinProcessor(config).join(fresh_a, fresh_b)
    serial = partitioned_join(fresh_a, fresh_b, grid=(2, 2), config=config)

    store, (fp_a, fp_b) = _touched_store(tmp_path, maker)
    builds.reset()
    seeded_a, seeded_b = store.load_relation(fp_a), store.load_relation(fp_b)
    seeded = SpatialJoinProcessor(config).join(seeded_a, seeded_b)
    assert seeded.id_pairs() == plain.id_pairs()
    assert stats_fingerprint(seeded.stats) == stats_fingerprint(plain.stats)

    for workers in (1, 2):
        shipped = parallel_partitioned_join(
            store.load_relation(fp_a), store.load_relation(fp_b),
            grid=(2, 2), config=config, workers=workers,
        )
        assert shipped.id_pairs() == serial.id_pairs(), workers
        assert stats_fingerprint(shipped.stats) == stats_fingerprint(
            serial.stats
        ), workers
        shipped.stats.check_invariants()

    stored_only = all(
        stored_family(kind) for kind in config.approximation_kinds()
    )
    if stored_only:
        assert builds.count == 0
    else:
        assert builds.count > 0  # RMBR stays on the lazy per-object path


def test_loaded_relation_is_seeded_bit_identically(tmp_path, builds):
    store, (fp_a, _) = _touched_store(tmp_path, lambda: mixed_pair(613))
    fresh, _ = mixed_pair(613)
    builds.reset()
    loaded = store.load_relation(fp_a)
    columnar = loaded.columnar()
    assert sorted(columnar.packed_kinds()) == sorted(STORED_KINDS)
    assert columnar.pack_counts == {}
    for kind in STORED_KINDS:
        encoder = columnar.approx(kind)
        assert not isinstance(encoder.mbrs, np.memmap)
        for mine in loaded:
            assert kind in mine._approximations
    assert builds.count == 0
    for kind in STORED_KINDS:
        for mine, theirs in zip(loaded, fresh):
            assert signature(mine.approximation(kind)) == signature(
                theirs.approximation(kind)
            )
        packed = fresh.columnar().approx(kind).columns()
        for name, array in columnar.approx(kind).columns().arrays.items():
            assert array.tobytes() == packed.arrays[name].tobytes()


# ---------------------------------------------------------------------------
# (ii) no tile task derives an approximation
# ---------------------------------------------------------------------------

PREDICATES = {
    "intersects": {},
    "within": {"predicate": "within"},
    "distance": {"predicate": "distance", "epsilon": 0.05},
    "knn": {"predicate": "knn", "k": 2},
}


@pytest.mark.parallel
@pytest.mark.parametrize("predicate", sorted(PREDICATES))
@pytest.mark.parametrize("engine", ["batched", "streaming"])
@pytest.mark.parametrize("partitioner", ["grid", "rtree"])
def test_tile_tasks_never_compute_an_approximation(
    builds, predicate, engine, partitioner
):
    rel_a, rel_b = random_relation_pair(620, n_objects=12, degenerate=False)
    base = JoinConfig(engine=engine, exact_method="vectorized",
                      partitioner=partitioner, target_tasks=8, grid=(3, 3),
                      **PREDICATES[predicate])
    serial = SpatialJoinProcessor(base).join(rel_a, rel_b)
    # The parent owns the one build per (relation, kind) ...
    for relation in (rel_a, rel_b):
        for kind in base.approximation_kinds():
            relation.columnar().approx(kind)
    builds.reset()
    # ... and from here on nothing may derive: not the parent, not a
    # forked worker (the counter is shared across the fork).
    for workers, in_session in ((1, True), (2, True), (3, True), (2, False)):
        config = replace(base, workers=workers)
        if in_session:
            with JoinSession(config=config) as session:
                cold = session.join(rel_a, rel_b)
                warm = session.join(rel_a, rel_b)
        else:
            cold = parallel_partitioned_join(rel_a, rel_b, config=config)
            warm = parallel_partitioned_join(rel_a, rel_b, config=config)
        label = f"workers={workers} session={in_session}"
        assert cold.tile_tasks > 0, label
        assert sorted(cold.id_pairs()) == sorted(serial.id_pairs()), label
        assert cold.id_pairs() == warm.id_pairs(), label
        assert stats_fingerprint(cold.stats) == stats_fingerprint(
            warm.stats
        ), label
        assert builds.count == 0, label
    assert live_shared_segments() == frozenset()


@pytest.mark.parallel
def test_sessionless_tiles_gather_too(builds):
    rel_a, rel_b = random_relation_pair(621, n_objects=10)
    config = JoinConfig(engine="batched", exact_method="vectorized",
                        exact_batch=8)
    parallel_partitioned_join(rel_a, rel_b, grid=(2, 2), config=config,
                              workers=1)
    first = builds.count
    assert first > 0  # the parent built 5-C and MER once, for shipping
    result = parallel_partitioned_join(rel_a, rel_b, grid=(3, 3),
                                       config=config, workers=2)
    assert builds.count == first
    assert result.approx_cache_misses == 4
    assert result.approx_payload_bytes > 0


@pytest.mark.parallel
def test_unstored_kind_is_derived_only_for_objects_that_reach_the_filter(
    builds,
):
    """RMBR has no block to ride in: it is derived lazily, only for the
    objects that reach the filter, once per object in each process."""
    rel_a, rel_b = random_relation_pair(623, n_objects=14, degenerate=False)
    config = JoinConfig(
        engine="batched", exact_method="vectorized",
        filter=FilterConfig(conservative="RMBR", progressive="MER"))
    grid = (4, 4)
    tasks, _, session = plan_columnar_tile_tasks(rel_a, rel_b, grid, config)
    session.close()
    mbrs_a, mbrs_b = rel_a.columnar().mbrs, rel_b.columnar().mbrs
    reach = in_tiles = 0
    distinct, distinct_b = [], []
    for task in tasks:
        a, b = mbrs_a[task.idx_a][:, None, :], mbrs_b[task.idx_b][None, :, :]
        meet = ((a[..., 0] <= b[..., 2]) & (b[..., 0] <= a[..., 2])
                & (a[..., 1] <= b[..., 3]) & (b[..., 1] <= a[..., 3]))
        reach += int(meet.any(axis=1).sum() + meet.any(axis=0).sum())
        in_tiles += len(task.idx_a) + len(task.idx_b)
        distinct += [int(r) for r in task.idx_a[meet.any(axis=1)]]
        distinct_b += [int(r) for r in task.idx_b[meet.any(axis=0)]]
    distinct = len(set(distinct)) + len(set(distinct_b))
    # Else the counts below prove nothing: some objects reach the filter
    # in several tiles, and some in none.
    assert 0 < distinct < reach < in_tiles
    builds.reset()
    # In-process tiles read the relations' own objects: each derives
    # RMBR once (MER was shipped), and a second join derives nothing.
    for expected in (distinct, 0):
        parallel_partitioned_join(rel_a, rel_b, grid=grid, config=config,
                                  workers=1)
        assert builds.count == expected
        builds.reset()
    # A pool worker builds its own objects, each once for the pool's
    # life: each of the two workers derives RMBR at most once per object.
    parallel_partitioned_join(rel_a, rel_b, grid=grid, config=config,
                              workers=2)
    assert distinct <= builds.count <= min(reach, 2 * distinct)


# ---------------------------------------------------------------------------
# shipping: blocks live and die with the ring segment
# ---------------------------------------------------------------------------


@pytest.mark.parallel
class TestApproximationBlocks:
    def test_blocks_count_as_live_segments(self):
        rel_a, rel_b = random_relation_pair(630, n_objects=6)
        session = JoinSession()
        try:
            session.ship((rel_a, rel_b))
            assert len(live_shared_segments()) == 2
            kinds = ("5-C", "MER", "MBE")  # MBE: no stored form
            (segment_a, _), counters = session.ship((rel_a, rel_b), kinds)
            assert len(live_shared_segments()) == 6
            assert counters["approx_cache_misses"] == 4
            assert counters["segment_cache_hits"] == 2
            spec_a = segment_a.spec_for(kinds)
            assert [kind for kind, _ in spec_a.approx] == ["5-C", "MER"]
        finally:
            session.close()
        assert live_shared_segments() == frozenset()

    def test_session_counts_blocks_apart_from_segments(self):
        rel_a, rel_b = random_relation_pair(631, n_objects=8)
        config = JoinConfig(engine="batched", exact_method="vectorized")
        with JoinSession(config=config) as session:
            first = session.join(rel_a, rel_b, grid=(2, 2))
            assert (first.segment_cache_misses, first.segment_cache_hits) == (2, 0)
            assert (first.approx_cache_misses, first.approx_cache_hits) == (4, 0)
            assert first.approx_payload_bytes == session.cached_approx_bytes > 0
            warm = session.join(rel_a, rel_b, grid=(2, 2))
            assert (warm.segment_cache_misses, warm.segment_cache_hits) == (0, 2)
            assert (warm.approx_cache_misses, warm.approx_cache_hits) == (0, 4)
            assert warm.approx_payload_bytes == 0
            # Another predicate adds its own kinds beside the same rings.
            near = session.join(
                rel_a, rel_b, grid=(2, 2),
                config=replace(config, predicate="distance", epsilon=0.05),
            )
            assert near.segment_cache_hits == 2
            assert near.approx_cache_misses == 4
            stats = session.stats()
            assert stats["approx_cache_misses"] == 8
            assert stats["approx_cache_hits"] == 4
            assert stats["segment_cache_misses"] == 2
            assert stats["cached_segment_bytes"] > stats["cached_approx_bytes"] > 0
            assert len(live_shared_segments()) == 2 + 8
        # Closing takes every relation's blocks with its ring segment.
        assert live_shared_segments() == frozenset()

    def test_warm_from_store_streams_sidecars(self, tmp_path, builds):
        store, (fp_a, fp_b) = _touched_store(
            tmp_path, lambda: random_relation_pair(633, n_objects=8)
        )
        # Relations equal in content but never packed: the blocks must
        # come from the store pages alone.
        rel_a, rel_b = random_relation_pair(633, n_objects=8)
        config = JoinConfig(engine="batched", exact_method="vectorized")
        serial = partitioned_join(rel_a, rel_b, grid=(2, 2), config=config)
        fresh_a, fresh_b = random_relation_pair(633, n_objects=8)
        builds.reset()
        with JoinSession(config=config) as session:
            session.warm_from_store(store, [fp_a, fp_b])
            stats = session.stats()
            assert stats["store_loads"] == 2
            assert stats["approx_store_loads"] == 2 * len(STORED_KINDS)
            assert stats["approx_store_load_bytes"] == (
                stats["cached_approx_bytes"]
            )
            result = session.join(fresh_a, fresh_b, grid=(2, 2))
            assert result.segment_cache_hits == 2
            assert (result.approx_cache_hits, result.approx_cache_misses) == (4, 0)
            assert result.id_pairs() == serial.id_pairs()
            assert stats_fingerprint(result.stats) == stats_fingerprint(
                serial.stats
            )
        assert builds.count == 0
        # Nothing was packed for the fresh relations: their in-process
        # tiles read the blocks streamed from the store pages, adopted
        # bit for bit.
        for fresh, fingerprint in ((fresh_a, fp_a), (fresh_b, fp_b)):
            columnar = fresh.columnar()
            assert columnar.pack_counts == {}
            for kind in columnar.packed_kinds():
                paged = store.load(fingerprint).load_approx(kind)
                for name, array in paged.arrays.items():
                    got = columnar.approx(kind).columns().arrays[name]
                    assert got.tobytes() == array.tobytes(), (kind, name)


# ---------------------------------------------------------------------------
# (i) a second process on a touched store builds nothing
# ---------------------------------------------------------------------------

_COUNTING_JOIN = """
import json, sys
import repro.datasets.columnar as columnar
import repro.datasets.relations as relations
calls = []
original = relations.compute_approximation
def counting(polygon, kind):
    calls.append(kind)
    return original(polygon, kind)
relations.compute_approximation = counting
original_rows = columnar.kernel_approximations
def counting_rows(kind, table, *args):
    calls.extend([kind] * (len(table.offsets) - 1))
    return original_rows(kind, table, *args)
columnar.kernel_approximations = counting_rows
from repro.cli import main
code = main(sys.argv[1:])
print("REPORT " + json.dumps({"exit": code, "builds": len(calls),
                              "scipy": "scipy" in sys.modules}))
"""


def _counting_join(args):
    done = subprocess.run(
        [sys.executable, "-c", _COUNTING_JOIN, *args],
        env={"PYTHONPATH": SRC, "PATH": ""}, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    report = json.loads(lines[-1][len("REPORT "):])
    assert report["exit"] == 0
    return report, lines[:-1]


@pytest.mark.parallel
def test_second_process_on_a_touched_store_builds_nothing(tmp_path, capsys):
    rel_a, rel_b = random_relation_pair(640, n_objects=10, degenerate=False)
    save_relation(rel_a, tmp_path / "a.wkt")
    save_relation(rel_b, tmp_path / "b.wkt")
    store_dir = tmp_path / "store"
    assert main(["store", "pack", str(store_dir),
                 str(tmp_path / "a.wkt"), str(tmp_path / "b.wkt")]) == 0
    refs = ["store:" + line.rsplit("-> ", 1)[1]
            for line in capsys.readouterr().out.splitlines()]
    store = RelationStore(store_dir)
    # `store pack` builds nothing: no sidecars yet.
    assert [store.load(fp).approx_kinds() for fp in store] == [[], []]

    args = ["join", *refs, "--store-dir", str(store_dir),
            "--engine", "batched", "--exact", "vectorized", "--pairs"]
    first, first_out = _counting_join(args)
    assert first["builds"] == 2 * (len(rel_a) + len(rel_b))
    assert [store.load(fp).approx_kinds() for fp in store] == [
        ["5-C", "MER"], ["5-C", "MER"],
    ]
    for fingerprint in store:
        store.load(fingerprint).verify()

    second, second_out = _counting_join(args)
    assert second["builds"] == 0
    assert second["scipy"] is False
    assert second_out == first_out

    # The streaming engine reads the same seeded objects.
    streaming, streaming_out = _counting_join(
        [arg if arg != "batched" else "streaming" for arg in args]
    )
    assert streaming["builds"] == 0
    assert sorted(streaming_out[-10:]) == sorted(first_out[-10:])
