"""Differential suite: the batched exact step at every batch size.

``JoinConfig(exact_batch=N)`` must be a pure execution-strategy toggle:
for every engine, predicate, batch capacity, and worker count, the
refinement pipeline produces *identical* result pairs (same pairs, same
order) and an identical Figure-1 statistics fingerprint as at capacity
1, where every remaining candidate is resolved alone in candidate
order.  The result sets equal the per-pair nested-loops oracle, and the
batch decisions equal every scalar processor of the paper (TR*-tree,
plane sweep, quadratic) pair for pair.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from helpers import (
    grid_square,
    random_relation_pair,
    stats_fingerprint,
)
from repro.core.filters import FilterConfig
from repro.core.join import JoinConfig, SpatialJoinProcessor, nested_loops_join
from repro.core.parallel_exec import (
    live_shared_segments,
    parallel_partitioned_join,
)
from repro.geometry.fastops import polygon_within_fast

#: filter configurations that leave different amounts of exact work:
#: the default (few remaining candidates), a weak filter (many), and
#: no filter at all (every candidate reaches the refinement step).
FILTERS = [
    FilterConfig(),
    FilterConfig(conservative="MBR", progressive=None),
    FilterConfig(conservative=None, progressive=None),
]


def _run(relation_a, relation_b, config):
    result = SpatialJoinProcessor(config).join(relation_a, relation_b)
    result.stats.check_invariants()
    return result


def oracle_pairs(relation_a, relation_b, predicate):
    """The per-pair nested-loops answer, as a set of id pairs."""
    if predicate == "intersects":
        return set(nested_loops_join(relation_a, relation_b))
    return {
        (obj_a.oid, obj_b.oid)
        for obj_a in relation_a
        for obj_b in relation_b
        if polygon_within_fast(obj_a.polygon, obj_b.polygon)
    }


def assert_refinement_equivalent(relation_a, relation_b, config):
    """Any batch size must equal capacity 1 exactly, and the oracle."""
    single = _run(relation_a, relation_b, replace(config, exact_batch=1))
    batched = _run(relation_a, relation_b, config)
    assert single.id_pairs() == batched.id_pairs(), (
        f"result mismatch for {config}: {len(single)} pairs at capacity "
        f"1 vs {len(batched)} batched pairs"
    )
    assert set(single.id_pairs()) == oracle_pairs(
        relation_a, relation_b, config.predicate
    )
    fp_s = stats_fingerprint(single.stats)
    fp_b = stats_fingerprint(batched.stats)
    assert fp_s == fp_b, f"stats mismatch for {config}: {fp_s} != {fp_b}"
    # Capacity 1 resolves every remaining candidate alone; any capacity
    # batches every remaining candidate.
    assert single.stats.refine_batches == single.stats.remaining_candidates
    if batched.stats.remaining_candidates:
        assert batched.stats.refine_batches > 0
        assert (
            batched.stats.refine_batch_pairs
            == batched.stats.remaining_candidates
        )
    return batched


@pytest.mark.parametrize("engine", ("streaming", "batched"))
@pytest.mark.parametrize("exact_batch", (1, 7, 64, 1024))
def test_refine_equivalence_intersects(engine, exact_batch):
    for seed in (1, 5, 9):
        rel_a, rel_b = random_relation_pair(seed, n_objects=14)
        for fc in FILTERS:
            config = JoinConfig(
                filter=fc,
                exact_method="vectorized",
                engine=engine,
                exact_batch=exact_batch,
            )
            assert_refinement_equivalent(rel_a, rel_b, config)


@pytest.mark.parametrize("engine", ("streaming", "batched"))
def test_refine_equivalence_within(engine):
    for seed in (2, 7):
        rel_a, rel_b = random_relation_pair(seed, n_objects=14)
        config = JoinConfig(
            exact_method="vectorized",
            predicate="within",
            engine=engine,
            exact_batch=8,
        )
        batched = assert_refinement_equivalent(rel_a, rel_b, config)
        # 'within' resolves pair by pair inside the batch.
        assert (
            batched.stats.refine_fallback_pairs
            == batched.stats.refine_batch_pairs
        )


@pytest.mark.parametrize("exact_batch", (2, 64, 256))
def test_refine_equivalence_bw_like(exact_batch):
    """≈ 500-vertex objects (the paper's BW relation): one batch holds
    several times the ragged kernel's element budget of edge pairs."""
    from repro.datasets.generators import cartographic_polygons
    from repro.datasets.relations import SpatialRelation
    from repro.geometry import fastops

    rel_a, rel_b = (
        SpatialRelation(name, cartographic_polygons(
            n_objects=10, mean_vertices=500, min_vertices=300,
            max_vertices=900, seed=seed,
        ))
        for name, seed in (("bw_a", 3), ("bw_b", 4))
    )
    config = JoinConfig(
        filter=FilterConfig(conservative=None, progressive=None),
        exact_method="vectorized",
        exact_batch=exact_batch,
        kernels="numpy",
    )
    batched = assert_refinement_equivalent(rel_a, rel_b, config)
    edge_pairs = batched.stats.kernel_pairs["numpy.edge_pairs_intersect_ragged"]
    assert edge_pairs > 4 * fastops._RAGGED_BUDGET


def test_refine_kernel_calls_per_batch():
    """No per-pair kernel call: each batch makes one MBR call, one
    ragged edge-pair call and at most one point-in-polygon call."""
    rel_a, rel_b = random_relation_pair(9, n_objects=30)
    config = JoinConfig(
        filter=FilterConfig(conservative=None, progressive=None),
        exact_method="vectorized",
        exact_batch=8,
        kernels="numpy",
    )
    stats = _run(rel_a, rel_b, config).stats
    assert stats.refine_batches > 1
    assert stats.refine_batch_pairs > 4 * stats.refine_batches
    calls = dict(stats.kernel_calls)
    assert calls.pop("numpy.rects_intersect_bulk") == stats.refine_batches
    batches = stats.refine_batches
    assert 1 <= calls.pop("numpy.edge_pairs_intersect_ragged") <= batches
    assert 1 <= calls.pop("numpy.points_in_polygons_bulk") <= batches
    assert not calls


def test_tile_geometry_over_mapped_rows_matches_whole_relation():
    """A worker's edge table covers its task's rows only, decides like
    the relation's own table, and outlives the shared-memory mapping."""
    import numpy as np

    from repro.core.parallel_exec import SharedRelationSegment, _MappedRelation
    from repro.core.stats import MultiStepStats
    from repro.exact.refine import BatchedRefinement, RingGeometry

    rel_a, rel_b = random_relation_pair(23, n_objects=16)
    config = JoinConfig(exact_method="vectorized", exact_batch=64)
    idx_a = np.array([11, 2, 7, 3, 14])
    idx_b = np.array([0, 9, 4, 15, 8, 1])
    segments = [SharedRelationSegment(rel) for rel in (rel_a, rel_b)]
    mapped = []
    try:
        mapped = [_MappedRelation(seg.spec_for()) for seg in segments]
        tiles = [m.tile(idx) for m, idx in zip(mapped, (idx_a, idx_b))]
        geometry = [
            RingGeometry(m.rings, tile.objects, idx)
            for m, tile, idx in zip(mapped, tiles, (idx_a, idx_b))
        ]
    finally:
        for m in mapped:
            m.close()
        for seg in segments:
            seg.close()
    assert not live_shared_segments()
    for geo, rel, idx in zip(geometry, (rel_a, rel_b), (idx_a, idx_b)):
        assert len(geo.table.offsets) == len(idx) + 1
        whole = rel.columnar().ring_geometry()
        for row, source in enumerate(idx):
            for ours, theirs in zip(geo.edges(row), whole.edges(source)):
                assert np.array_equal(ours, theirs)
            assert geo.bounds(row) == whole.bounds(source)
    tile_pairs = [(a, b) for a in tiles[0].objects for b in tiles[1].objects]
    whole_pairs = [(rel_a[i], rel_b[j]) for i in idx_a for j in idx_b]
    tile_step = BatchedRefinement(config, *geometry)
    whole_step = BatchedRefinement.from_relations(config, rel_a, rel_b)
    tile_stats, whole_stats = MultiStepStats(), MultiStepStats()
    decided = tile_step.resolve_batch(tile_pairs, tile_stats)
    assert decided == whole_step.resolve_batch(whole_pairs, whole_stats)
    assert any(decided) and not all(decided)
    assert tile_stats.refine_fallback_pairs == 0
    assert whole_step.resolve_batch([], whole_stats) == []
    # An object the table has no row for takes the scalar fallback.
    stranger = (rel_a[0], tiles[1].objects[0])
    assert tile_step.resolve_batch([stranger], tile_stats) == (
        whole_step.resolve_batch([(rel_a[0], rel_b[idx_b[0]])], whole_stats)
    )
    assert tile_stats.refine_fallback_pairs == 1


@pytest.mark.slow
@pytest.mark.parametrize("engine", ("streaming", "batched"))
def test_refine_fuzz(engine):
    """Seeded sweep over adversarial relations and batch capacities."""
    for seed in range(30, 45):
        rel_a, rel_b = random_relation_pair(seed)
        for exact_batch in (2, 3, 17, 256):
            config = JoinConfig(
                exact_method="vectorized",
                engine=engine,
                exact_batch=exact_batch,
            )
            assert_refinement_equivalent(rel_a, rel_b, config)


def test_refine_batch_capacity_one_resolves_each_candidate_alone():
    """exact_batch=1 runs one batch per remaining candidate."""
    rel_a, rel_b = random_relation_pair(4)
    result = _run(rel_a, rel_b, JoinConfig(exact_batch=1))
    stats = result.stats
    assert stats.remaining_candidates > 0
    assert stats.refine_batches == stats.remaining_candidates
    assert stats.refine_batch_pairs == stats.remaining_candidates
    assert stats.refine_fallback_pairs == 0


def test_refine_batched_at_large_coordinates():
    """The clip margin scales with coordinate magnitude (soundness)."""
    from repro.datasets.relations import SpatialRelation
    from repro.geometry.polygon import Polygon

    rel_a, rel_b = random_relation_pair(21, n_objects=12)

    def scaled(rel, factor):
        return SpatialRelation(
            rel.name,
            [
                Polygon([(x * factor, y * factor) for x, y in o.polygon.shell])
                for o in rel
            ],
        )

    big_a, big_b = scaled(rel_a, 1e8), scaled(rel_b, 1e8)
    config = JoinConfig(
        filter=FilterConfig(conservative=None, progressive=None),
        exact_method="vectorized",
        exact_batch=32,
    )
    assert_refinement_equivalent(big_a, big_b, config)


@pytest.mark.parallel
@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("predicate", ("intersects", "within"))
def test_refine_parallel_equivalence(workers, predicate):
    """Batched refinement composes with the multi-process tile executor.

    The workers refine directly on the shared-memory mapped ring
    columns, for both refinement predicates: identical pairs, order,
    and stats as capacity 1 on the same grid and worker count — and no
    shared segment may survive.  ``within`` runs
    without the geometric filter, which on this pair decides every
    candidate and would leave nothing to refine.
    """
    rel_a, rel_b = random_relation_pair(13, n_objects=20)
    grid = (3, 3)
    for engine in ("streaming", "batched"):
        config = JoinConfig(
            exact_method="vectorized",
            engine=engine,
            predicate=predicate,
            filter=(
                FilterConfig()
                if predicate == "intersects"
                else FilterConfig(conservative=None, progressive=None)
            ),
            exact_batch=16,
        )
        batched = parallel_partitioned_join(
            rel_a, rel_b, grid=grid, config=config, workers=workers
        )
        single = parallel_partitioned_join(
            rel_a,
            rel_b,
            grid=grid,
            config=replace(config, exact_batch=1),
            workers=workers,
        )
        assert batched.id_pairs() == single.id_pairs()
        assert stats_fingerprint(batched.stats) == stats_fingerprint(
            single.stats
        )
        batched.stats.check_invariants()
        assert 0 < batched.stats.refine_batches < single.stats.refine_batches
        assert single.stats.refine_batches == single.stats.remaining_candidates
    assert not live_shared_segments()


@pytest.mark.parallel
def test_refine_parallel_matches_plain_serial_join():
    """Parallel batched refinement equals the plain serial pipeline."""
    from helpers import assert_parallel_equivalent

    rel_a, rel_b = random_relation_pair(17, n_objects=18)
    config = JoinConfig(
        exact_method="vectorized", engine="batched", exact_batch=64
    )
    assert_parallel_equivalent(rel_a, rel_b, config, grid=(2, 2), workers=2)


def test_cli_exact_batch_flag(tmp_path, capsys):
    """`--exact-batch N` reports the same join, plus the batch counter."""
    from repro.cli import main
    from repro.datasets.io import save_relation

    rel_a, rel_b = random_relation_pair(8)
    path_a = str(tmp_path / "a.wkt")
    path_b = str(tmp_path / "b.wkt")
    save_relation(rel_a, path_a)
    save_relation(rel_b, path_b)

    outputs = []
    for exact_batch in ("1", "32"):
        assert main([
            "join", path_a, path_b, "--exact-batch", exact_batch, "--pairs",
        ]) == 0
        outputs.append(capsys.readouterr().out.splitlines())
    single, batched = (
        [line for line in out if not line.startswith("  refinement batches:")]
        for out in outputs
    )
    assert batched == single
    assert any(line.startswith("  refinement batches:") for line in outputs[1])


def test_cli_rejects_scalar_exact_methods(tmp_path, capsys):
    """`--exact` accepts only the batched step; argparse exits 2."""
    from repro.cli import main

    for method in ("trstar", "planesweep", "quadratic"):
        with pytest.raises(SystemExit) as exit_info:
            main(["join", "a.wkt", "b.wkt", "--exact", method])
        assert exit_info.value.code == 2
        assert "vectorized" in capsys.readouterr().err


def test_engine_builds_the_batched_step():
    """Every engine refines through BatchedRefinement at any capacity."""
    from repro.engine.base import create_engine
    from repro.exact.refine import BatchedRefinement

    rel_a, rel_b = random_relation_pair(1, n_objects=6)
    for engine in ("streaming", "batched"):
        for exact_batch in (1, 64, 128):
            step = create_engine(
                JoinConfig(engine=engine, exact_batch=exact_batch)
            ).build_refinement(rel_a, rel_b)
            assert isinstance(step, BatchedRefinement)
            assert step.batch_capacity == exact_batch


def _special_pair():
    """Holes, containment, touching and identical polygons."""
    from repro.datasets.relations import SpatialRelation
    from repro.geometry.polygon import Polygon

    def holed(cx, cy, outer, inner):
        return Polygon(
            grid_square(cx, cy, outer).shell,
            [grid_square(cx, cy, inner).shell],
        )

    triangle = Polygon([(0.0, 3.0), (2.0, 3.0), (1.0, 4.5)])
    polys_a = [
        holed(0.0, 0.0, 1.0, 0.5),
        grid_square(3.0, 0.0, 1.0),
        grid_square(6.0, 0.0, 0.5),
        triangle,
        grid_square(9.0, 0.0, 0.25),
    ]
    polys_b = [
        grid_square(0.0, 0.0, 0.25),   # inside the hole
        grid_square(0.0, 0.0, 0.75),   # crosses the hole's boundary
        grid_square(3.0, 0.0, 0.125),  # contained
        grid_square(7.0, 0.0, 0.5),    # touching along an edge
        grid_square(7.0, 1.0, 0.5),    # touching at a corner
        triangle,                      # identical
        holed(0.0, 0.0, 2.0, 1.5),     # A's holed square in its hole
        holed(9.0, 0.0, 1.0, 0.5),     # A's square in its hole
    ]
    return (
        SpatialRelation("special-a", polys_a),
        SpatialRelation("special-b", polys_b),
    )


def _cross_processor_pairs():
    from repro.datasets.testseries import canonical_series

    for which, size in (("Europe A", 40), ("Europe B", 12), ("BW B", 4)):
        series = canonical_series(which, seed=3, size=size)
        yield which, series.relation_a, series.relation_b
    yield "special", *_special_pair()
    yield "random", *random_relation_pair(5, n_objects=12, degenerate=False)


@pytest.mark.parametrize(
    "name, rel_a, rel_b",
    [pytest.param(*case, id=case[0]) for case in _cross_processor_pairs()],
)
def test_batched_decisions_equal_every_scalar_processor(name, rel_a, rel_b):
    """Pair for pair on the MBR-join candidates: the batched step decides
    like TR* (capacities 3 and 8), the plane sweep (with and without the
    search-space restriction), the quadratic processor and the per-pair
    vectorized test."""
    from repro.core.stats import MultiStepStats
    from repro.exact.bruteforce import polygons_intersect_quadratic
    from repro.exact.planesweep import polygons_intersect_planesweep
    from repro.exact.refine import BatchedRefinement
    from repro.exact.trstar_test import polygons_intersect_trstar
    from repro.geometry.fastops import polygons_intersect_fast
    from repro.index.join import JoinStats, rstar_join

    candidates = list(
        rstar_join(rel_a.rtree(32), rel_b.rtree(32), None, None, JoinStats())
    )
    stats = MultiStepStats()
    decided = BatchedRefinement.from_relations(
        JoinConfig(), rel_a, rel_b
    ).resolve_batch(candidates, stats)
    assert stats.refine_fallback_pairs == 0
    assert any(decided) and not all(decided), name
    processors = {
        "trstar/3": lambda a, b: polygons_intersect_trstar(
            a.trstar(3), b.trstar(3)),
        "trstar/8": lambda a, b: polygons_intersect_trstar(
            a.trstar(8), b.trstar(8)),
        "planesweep": lambda a, b: polygons_intersect_planesweep(
            a.polygon, b.polygon),
        "planesweep/unrestricted": lambda a, b: polygons_intersect_planesweep(
            a.polygon, b.polygon, restrict_search_space=False),
        "quadratic": lambda a, b: polygons_intersect_quadratic(
            a.polygon, b.polygon),
        "fast": lambda a, b: polygons_intersect_fast(a.polygon, b.polygon),
    }
    for label, processor in processors.items():
        expected = [processor(a, b) for a, b in candidates]
        mismatched = [
            (a.oid, b.oid)
            for (a, b), ours, theirs in zip(candidates, decided, expected)
            if ours != theirs
        ]
        assert not mismatched, f"{name}: {label} differs on {mismatched}"
