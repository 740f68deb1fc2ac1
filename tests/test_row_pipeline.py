"""The batched join is a program over row indices.

Step 1 emits ``(row_a, row_b)`` pairs, the filter indexes each
relation's own approximation columns with them, and the exact step
refines consecutive ``exact_batch`` chunks of the remaining rows; objects
are attached once, to the result.  These tests count the per-object
Python a warm join may not run, check that the exact step's chunks do
not depend on how the candidate stream is cut into blocks, and check
that the other readers of the
row-item R*-tree (window, point, inside and line-region queries) map
rows back to ``relation.objects`` on a relation whose oids are not its
rows.  Tiles of partitioned joins are rows of their parents' stores: a
task run in-process reads the relations' own objects, a pool worker's
store over the mapped segments builds only the objects the scalar paths
read, and the serial partitioned join runs the executor's tile runner.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.datasets.relations as relations_module
from helpers import random_relation_pair, run_on_worker_stores
from repro.approximations.batch import BatchApproxArrays
from repro.cli import _build_parser
from repro.core.inside import points_in_regions_join
from repro.core.join import JoinConfig, SpatialJoinProcessor
from repro.core.lineregion import (
    brute_force_line_region_join,
    line_region_join,
)
from repro.core.parallel_exec import (
    parallel_partitioned_join,
    plan_columnar_tile_tasks,
    run_columnar_tile_task,
)
from repro.core.partition import partitioned_join
from repro.core.stats import MultiStepStats
from repro.core.window import WindowQueryProcessor
from repro.datasets.relations import SpatialObject, europe
from repro.datasets.store import RelationStore
from repro.datasets.testseries import canonical_series
from repro.engine.base import CANDIDATE, FALSE_HIT, HIT, refine_in_order
from repro.engine.batched import BatchGeometricFilter
from repro.exact.refine import BatchedRefinement
from repro.geometry.fastops import polygon_within_fast, polygons_intersect_fast
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import Polyline
from repro.geometry.rectangle import Rect


@pytest.fixture(scope="module")
def stored_pair(tmp_path_factory):
    """The 40-object Europe A pair, saved and loaded, 5-C and MER built."""
    series = canonical_series("Europe A", size=40)
    store = RelationStore(tmp_path_factory.mktemp("store"))
    fingerprints = [
        store.save(rel) for rel in (series.relation_a, series.relation_b)
    ]
    relations = [store.load_relation(fp) for fp in fingerprints]
    for relation in relations:
        relation.columnar(eager_kinds=("5-C", "MER"))
    return relations


def _counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)
    key = f"{owner.__name__}.{name}"

    def counted(*args, **kwargs):
        calls[key] = calls.get(key, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_warm_batched_join_runs_no_per_object_python(stored_pair, monkeypatch):
    rel_a, rel_b = stored_pair
    config = JoinConfig(engine="batched", exact_batch=64)
    warm = SpatialJoinProcessor(config).join(rel_a, rel_b)
    assert warm.stats.refine_batches and warm.stats.filter_hits
    calls = {}
    _counting(monkeypatch, SpatialObject, "approximation", calls)
    _counting(monkeypatch, SpatialObject, "__init__", calls)
    _counting(monkeypatch, BatchApproxArrays, "_register", calls)
    _counting(monkeypatch, BatchApproxArrays, "__init__", calls)
    result = SpatialJoinProcessor(config).join(rel_a, rel_b)
    assert calls == {}, "a warm join must read columns, not objects"
    assert result.stats.refine_fallback_pairs == 0
    assert result.id_pairs() == warm.id_pairs()
    # The per-join concatenation and the id()-keyed lookups are gone.
    for name in ("rows", "from_columnar", "_row_of"):
        assert not hasattr(BatchApproxArrays, name), name


def test_filter_reads_each_side_by_its_own_rows(stored_pair):
    """``classify`` indexes the two relations separately: the same row
    number means a different object on each side."""
    rel_a, rel_b = stored_pair
    config = JoinConfig()
    candidates = [
        (i, j)
        for i, a in enumerate(rel_a)
        for j, b in enumerate(rel_b)
        if a.mbr.intersects(b.mbr)
    ]
    rows_a, rows_b = np.array(candidates).T
    codes = BatchGeometricFilter(
        config.filter, (rel_a.columnar(), rel_b.columnar())
    ).classify(rows_a, rows_b, MultiStepStats())
    swapped = BatchGeometricFilter(
        config.filter, (rel_b.columnar(), rel_a.columnar())
    ).classify(rows_b, rows_a, MultiStepStats())
    assert codes.tolist() == swapped.tolist()
    assert (codes == CANDIDATE).any()


@pytest.mark.parametrize("exact_batch", (1, 7, 64))
@pytest.mark.parametrize("batch_size", (1, 5, 1024))
def test_refinement_chunks_and_results_equal_the_streaming_engine(
    stored_pair, exact_batch, batch_size
):
    rel_a, rel_b = stored_pair
    streaming = SpatialJoinProcessor(
        JoinConfig(engine="streaming", exact_batch=exact_batch)
    ).join(rel_a, rel_b)
    batched = SpatialJoinProcessor(
        JoinConfig(
            engine="batched", exact_batch=exact_batch, batch_size=batch_size
        )
    ).join(rel_a, rel_b)
    stats = batched.stats
    assert stats.remaining_candidates > 0
    assert stats.refine_batches == math.ceil(
        stats.remaining_candidates / exact_batch
    )
    assert stats.refine_batch_pairs == stats.remaining_candidates
    assert batched.id_pairs() == streaming.id_pairs()
    assert stats == streaming.stats


class _RecordingRefinement:
    """An exact step that qualifies odd ``row_a`` and records its chunks."""

    def __init__(self, batch_capacity):
        self.batch_capacity = batch_capacity
        self.chunks = []

    def resolve_batch(self, pairs, stats):
        self.chunks.append(pairs[:, 0].tolist())
        return pairs[:, 0] % 2 == 1


def _refined(codes, block, capacity):
    rows = np.stack([np.arange(len(codes)), np.zeros(len(codes))], axis=1)
    rows = rows.astype(np.intp)
    blocks = [
        (rows[lo:lo + block], codes[lo:lo + block])
        for lo in range(0, len(codes), block)
    ]
    refinement = _RecordingRefinement(capacity)
    stats = MultiStepStats()
    out = [row_a for row_a, _ in refine_in_order(blocks, stats, refinement)]
    return out, refinement.chunks, stats


@pytest.mark.parametrize("capacity", (1, 3, 64))
def test_refine_in_order_does_not_depend_on_the_block_cut(capacity):
    codes = np.random.default_rng(3).choice(
        np.array([FALSE_HIT, HIT, CANDIDATE], dtype=np.int8), size=200
    )
    candidates = np.flatnonzero(codes == CANDIDATE).tolist()
    expected = [
        row
        for row, code in enumerate(codes.tolist())
        if code == HIT or (code == CANDIDATE and row % 2 == 1)
    ]
    for block in (1, 5, 1024):
        out, chunks, stats = _refined(codes, block, capacity)
        assert out == expected
        assert chunks == [
            candidates[lo:lo + capacity]
            for lo in range(0, len(candidates), capacity)
        ]
        assert stats.remaining_candidates == len(candidates)
        assert stats.exact_hits + stats.exact_false_hits == len(candidates)


def test_classify_of_no_rows_is_empty(stored_pair):
    rel_a, rel_b = stored_pair
    stats = MultiStepStats()
    empty = np.empty(0, dtype=np.intp)
    codes = BatchGeometricFilter(
        JoinConfig().filter, (rel_a.columnar(), rel_b.columnar())
    ).classify(empty, empty, stats)
    assert codes.dtype == np.int8 and codes.size == 0
    assert stats == MultiStepStats()


@pytest.mark.parametrize("backend", ("numpy", "c"))
def test_filter_runs_one_convex_kernel_call_per_step(stored_pair, backend):
    """5-C then MER over one block: two ``convex_intersect_rows`` calls,
    on the backend the join names, over at most the pairs each step
    tested (the MBR pretest drops the rest)."""
    rel_a, rel_b = stored_pair
    config = JoinConfig(engine="batched", batch_size=1024, kernels=backend)
    stats = SpatialJoinProcessor(config).join(rel_a, rel_b).stats
    convex = {
        key: calls for key, calls in stats.kernel_calls.items()
        if key.endswith(".convex_intersect_rows")
    }
    assert convex == {f"{backend}.convex_intersect_rows": 2}
    tested = stats.conservative_tests + stats.progressive_tests
    pairs = stats.kernel_pairs[f"{backend}.convex_intersect_rows"]
    assert 0 < pairs <= tested


@pytest.mark.parametrize("predicate", ("intersects", "within"))
def test_resolve_batch_takes_row_tuples_or_an_array(stored_pair, predicate):
    rel_a, rel_b = stored_pair
    refinement = BatchedRefinement.from_relations(
        JoinConfig(predicate=predicate), rel_a, rel_b
    )
    pairs = [
        (i, j)
        for i, a in enumerate(rel_a)
        for j, b in enumerate(rel_b)
        if a.mbr.intersects(b.mbr)
    ]
    from_tuples = refinement.resolve_batch(pairs, MultiStepStats())
    stats = MultiStepStats()
    from_array = refinement.resolve_batch(np.array(pairs), stats)
    assert from_tuples.tolist() == from_array.tolist()
    assert stats.refine_batches == 1
    assert stats.refine_batch_pairs == len(pairs)
    # Each flag is the predicate on the objects at those rows.
    decide = (
        polygon_within_fast if predicate == "within"
        else polygons_intersect_fast
    )
    assert from_array.tolist() == [
        decide(rel_a[i].polygon, rel_b[j].polygon) for i, j in pairs
    ]
    assert refinement.resolve_batch([], MultiStepStats()).size == 0


@pytest.mark.parametrize("exact_batch", (1, 64))
def test_within_join_equals_the_streaming_engine(stored_pair, exact_batch):
    rel_a, rel_b = stored_pair
    results = [
        SpatialJoinProcessor(
            JoinConfig(
                predicate="within", engine=engine, exact_batch=exact_batch
            )
        ).join(rel_a, rel_b)
        for engine in ("streaming", "batched")
    ]
    streaming, batched = results
    assert batched.id_pairs() == streaming.id_pairs()
    assert batched.stats == streaming.stats


@pytest.fixture
def reversed_relation():
    """A relation whose row ``r`` holds object ``n - 1 - r``: oid != row."""
    relation, _ = random_relation_pair(307, n_objects=12)
    relation.objects = relation.objects[::-1]
    return relation


def test_window_query_maps_rows_to_objects(reversed_relation):
    window = Rect(0.2, 0.2, 0.7, 0.7)
    window_poly = Polygon(window.corners())
    got = WindowQueryProcessor(reversed_relation).window_query(window)
    assert got and {obj.oid for obj in got} == {
        obj.oid for obj in reversed_relation
        if polygons_intersect_fast(obj.polygon, window_poly)
    }


def test_point_query_maps_rows_to_objects(reversed_relation):
    processor = WindowQueryProcessor(reversed_relation)
    probes = [obj.polygon.shell[0] for obj in reversed_relation]
    for point in probes:
        got = processor.point_query(point)
        assert got and {obj.oid for obj in got} == {
            obj.oid for obj in reversed_relation
            if obj.polygon.contains_point(point)
        }


def test_inside_join_maps_rows_to_objects(reversed_relation):
    points = [obj.polygon.shell[0] for obj in reversed_relation]
    result = points_in_regions_join(points, reversed_relation)
    assert sorted((idx, obj.oid) for idx, obj in result.pairs) == sorted(
        (idx, obj.oid)
        for idx, point in enumerate(points)
        for obj in reversed_relation
        if obj.polygon.contains_point(point)
    )


def test_line_region_join_maps_rows_to_objects(reversed_relation):
    lines = [
        Polyline([(0.0, 0.1 * i), (1.0, 1.0 - 0.1 * i)]) for i in range(11)
    ]
    got = line_region_join(lines, reversed_relation)
    assert got.pairs
    assert sorted(got.id_pairs()) == sorted(
        brute_force_line_region_join(lines, reversed_relation)
    )


def test_join_and_serve_default_to_the_batched_engine():
    assert JoinConfig().engine == "batched"
    parser = _build_parser()
    assert parser.parse_args(["join", "a.wkt", "b.wkt"]).engine == "batched"
    assert parser.parse_args(["serve"]).engine == "batched"


# ---------------------------------------------------------------------------
# Tiles: rows of their parents' columns, one runner
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def europe_pair():
    """The 32-object Europe pair of seeds 7 and 8."""
    return europe(seed=7, size=32), europe(seed=8, size=32)


def test_intersects_tile_task_builds_no_object(europe_pair, monkeypatch):
    """A tile task on the default filter reads rows only: in-process and
    on a worker's mapped stores it constructs no object and computes or
    looks up no approximation."""
    rel_a, rel_b = europe_pair
    config = JoinConfig(grid=(4, 4))
    tasks, _, session = plan_columnar_tile_tasks(rel_a, rel_b, (4, 4), config)
    calls = {}
    try:
        _counting(monkeypatch, SpatialObject, "__init__", calls)
        _counting(monkeypatch, SpatialObject, "approximation", calls)
        _counting(monkeypatch, relations_module, "compute_approximation",
                  calls)
        outcomes = [run_columnar_tile_task(task) for task in tasks]
        on_workers = [run_on_worker_stores(task) for task in tasks]
    finally:
        monkeypatch.undo()
        session.close()
    assert len(tasks) > 1
    assert calls == {}
    stats = MultiStepStats()
    for outcome in outcomes:
        stats.merge(outcome.stats)
    assert stats.filter_hits and stats.refine_batches
    pairs = sorted(pair for outcome in outcomes for pair in outcome.id_pairs)
    serial = SpatialJoinProcessor(config).join(rel_a, rel_b)
    assert pairs == sorted(serial.id_pairs())
    assert on_workers == [
        (outcome.id_pairs, outcome.stats) for outcome in outcomes
    ]


def test_within_tile_task_builds_only_the_rows_it_reads(
    europe_pair, monkeypatch
):
    """On a worker's stores a ``within`` tile builds the objects of the
    MBR-contained candidates (what its scalar filter and exact step
    read), each once, and no other; run in-process it reads the
    relations' own objects and builds none."""
    rel_a, rel_b = europe_pair
    config = JoinConfig(predicate="within", grid=(4, 4))
    built = []
    original = SpatialObject.__init__

    def counting(self, oid, polygon):
        built.append((oid, polygon.shell[0]))
        original(self, oid, polygon)

    monkeypatch.setattr(SpatialObject, "__init__", counting)
    tasks, _, session = plan_columnar_tile_tasks(rel_a, rel_b, (4, 4), config)
    spared = 0
    try:
        for task in tasks:
            del built[:]
            in_process = run_columnar_tile_task(task)
            assert built == [], task.tile
            assert run_on_worker_stores(task) == (
                in_process.id_pairs, in_process.stats
            )
            mbrs_a = rel_a.columnar().mbrs[task.idx_a]
            mbrs_b = rel_b.columnar().mbrs[task.idx_b]
            rows_a, rows_b = np.nonzero(
                (mbrs_b[None, :, 0] <= mbrs_a[:, None, 0])
                & (mbrs_b[None, :, 1] <= mbrs_a[:, None, 1])
                & (mbrs_a[:, None, 2] <= mbrs_b[None, :, 2])
                & (mbrs_a[:, None, 3] <= mbrs_b[None, :, 3])
            )
            read = [
                (obj.oid, obj.polygon.shell[0])
                for relation, idx, rows in (
                    (rel_a, task.idx_a, rows_a), (rel_b, task.idx_b, rows_b)
                )
                for obj in (relation.objects[i] for i in idx[np.unique(rows)])
            ]
            assert sorted(built) == sorted(read), task.tile
            spared += len(task.idx_a) + len(task.idx_b) - len(built)
    finally:
        session.close()
    assert spared > 0


@pytest.mark.parametrize("predicate", ["intersects", "within"])
@pytest.mark.parametrize("engine", ["batched", "streaming"])
def test_partitioned_join_equals_the_one_worker_executor(predicate, engine):
    """The serial partitioned join and the executor's in-process tile
    tasks run one tile runner: same pairs, order and counters."""
    rel_a, rel_b = random_relation_pair(42, n_objects=24)
    config = JoinConfig(predicate=predicate, engine=engine, grid=(3, 3))
    serial = partitioned_join(rel_a, rel_b, grid=(3, 3), config=config)
    tiled = parallel_partitioned_join(rel_a, rel_b, config=config, workers=1)
    assert serial.pairs
    assert serial.id_pairs() == tiled.id_pairs()
    assert serial.stats == tiled.stats
    assert serial.partitions == tiled.partitions
