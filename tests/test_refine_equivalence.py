"""Differential suite: batched columnar refinement ≡ per-pair refinement.

``JoinConfig(exact_batch=N)`` must be a pure execution-strategy toggle:
for every engine, predicate, batch capacity, and worker count, the
batched refinement pipeline produces *identical* result pairs (same
pairs, same order) and an identical Figure-1 statistics fingerprint as
the scalar per-pair exact step — while actually resolving candidates
through the columnar batch kernels (the refinement counters prove it).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from helpers import (
    random_relation_pair,
    stats_fingerprint,
)
from repro.core import FilterConfig, JoinConfig, SpatialJoinProcessor
from repro.core.parallel_exec import (
    live_shared_segments,
    parallel_partitioned_join,
)

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


def assert_refinement_equivalent(relation_a, relation_b, config):
    """Batched refinement must equal per-pair refinement exactly."""
    scalar = _run(relation_a, relation_b, replace(config, exact_batch=1))
    batched = _run(relation_a, relation_b, config)
    assert scalar.id_pairs() == batched.id_pairs(), (
        f"result mismatch for {config}: {len(scalar)} per-pair vs "
        f"{len(batched)} batched pairs"
    )
    fp_s = stats_fingerprint(scalar.stats)
    fp_b = stats_fingerprint(batched.stats)
    assert fp_s == fp_b, f"stats mismatch for {config}: {fp_s} != {fp_b}"
    # The per-pair run never batches; the batched run must, as soon as
    # there is any exact work at all.
    assert scalar.stats.refine_batches == 0
    if batched.stats.remaining_candidates:
        assert batched.stats.refine_batches > 0
        assert (
            batched.stats.refine_batch_pairs
            == batched.stats.remaining_candidates
        )
    return batched


@pytest.mark.parametrize("engine", ("streaming", "batched"))
@pytest.mark.parametrize("exact_batch", (2, 64, 256))
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
        # 'within' resolves through the scalar backend inside the batch.
        assert (
            batched.stats.refine_fallback_pairs
            == batched.stats.refine_batch_pairs
        )


@pytest.mark.parametrize("exact_batch", (2, 64, 256))
def test_refine_equivalence_bw_like(exact_batch):
    """≈ 500-vertex objects (the paper's BW relation): one batch holds
    several times the ragged kernel's element budget of edge pairs."""
    from repro.datasets import cartographic_polygons
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


def test_refine_batch_capacity_one_equals_scalar_path():
    """exact_batch=1 *is* the scalar path — no refinement counters."""
    rel_a, rel_b = random_relation_pair(4)
    result = _run(
        rel_a, rel_b, JoinConfig(exact_method="vectorized", exact_batch=1)
    )
    assert result.stats.refine_batches == 0
    assert result.stats.refine_batch_pairs == 0


def test_refine_batched_at_large_coordinates():
    """The clip margin scales with coordinate magnitude (soundness)."""
    from repro.datasets.relations import SpatialRelation
    from repro.geometry import Polygon

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
    and stats as the per-pair refinement on the same grid and worker
    count — and no shared segment may survive.  ``within`` runs
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
        scalar = parallel_partitioned_join(
            rel_a,
            rel_b,
            grid=grid,
            config=replace(config, exact_batch=1),
            workers=workers,
        )
        assert batched.id_pairs() == scalar.id_pairs()
        assert stats_fingerprint(batched.stats) == stats_fingerprint(
            scalar.stats
        )
        batched.stats.check_invariants()
        assert batched.stats.refine_batches > 0
        assert scalar.stats.refine_batches == 0
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

    assert main(["join", path_a, path_b, "--exact", "vectorized"]) == 0
    out_scalar = capsys.readouterr().out
    assert main([
        "join", path_a, path_b, "--exact", "vectorized",
        "--exact-batch", "32",
    ]) == 0
    out_batched = capsys.readouterr().out
    scalar_lines = out_scalar.splitlines()
    batched_lines = [
        line for line in out_batched.splitlines()
        if not line.startswith("  refinement batches:")
    ]
    assert batched_lines == scalar_lines
    if len(batched_lines) != len(out_batched.splitlines()):
        assert "refinement batches:" in out_batched

    # Invalid combination: batched refinement needs the vectorized method.
    assert main([
        "join", path_a, path_b, "--exact", "trstar", "--exact-batch", "32",
    ]) == 2


def test_refinement_step_interface():
    """The engine builds the step the config asks for."""
    from repro.engine import PerPairRefinement, create_engine
    from repro.exact.refine import BatchedRefinement

    rel_a, rel_b = random_relation_pair(1, n_objects=6)
    engine = create_engine(JoinConfig(exact_method="vectorized"))
    step = engine.build_refinement(rel_a, rel_b)
    assert isinstance(step, PerPairRefinement)
    assert step.batch_capacity == 1

    engine = create_engine(
        JoinConfig(exact_method="vectorized", exact_batch=128)
    )
    step = engine.build_refinement(rel_a, rel_b)
    assert isinstance(step, BatchedRefinement)
    assert step.batch_capacity == 128
