"""Differential suite: multi-process tile executor vs the serial pipeline.

The guarantee under test (ISSUE 2 acceptance bar): for every generated
relation pair, the parallel executor — at worker counts 1, 2, and 4, on
a grid with more tiles than workers — produces the identical sorted
result-pair list as the plain serial streaming-pipeline join, and merged
``MultiStepStats`` identical to the serial partitioned join on the same
grid, for both the streaming and the batched engine and for both join
predicates.  160 generated cases (10 seeds × 2 predicates × 2 engines ×
4 worker-count/grid combinations); ``REPRO_PAR_QUICK=1`` shrinks the
sweep for the CI quick job.

Serial baselines are computed once per (seed, predicate, engine) and
shared across worker counts, so the suite's wall clock is dominated by
the process pools actually under test.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from helpers import (
    assert_parallel_equivalent,
    random_relation_pair,
    stats_fingerprint,
)
from repro.core import (
    JoinConfig,
    SpatialJoinProcessor,
    partitioned_join,
)
from repro.core.parallel_exec import parallel_partitioned_join
from repro.datasets.relations import SpatialRelation

pytestmark = pytest.mark.parallel

QUICK = os.environ.get("REPRO_PAR_QUICK") == "1"

SEEDS = range(200, 203) if QUICK else range(200, 210)
PREDICATES = ("intersects", "within")
ENGINES = ("streaming", "batched")
#: worker-count / grid combinations: workers=1 degenerate pool, real
#: pools with more tiles than workers (16 > 4, 9 > 2), and more workers
#: than tiles (4 > 1) so idle workers are exercised too.
WORKERS_GRIDS = (
    ((1, (4, 4)), (2, (3, 3)))
    if QUICK
    else ((1, (4, 4)), (2, (3, 3)), (4, (4, 4)), (4, (1, 1)))
)

CASES = [
    pytest.param(
        seed, predicate, engine, workers, grid,
        id=f"s{seed}-{predicate}-{engine}-w{workers}-g{grid[0]}x{grid[1]}",
    )
    for seed in SEEDS
    for predicate in PREDICATES
    for engine in ENGINES
    for workers, grid in WORKERS_GRIDS
]


def _config(predicate: str, engine: str) -> JoinConfig:
    # The vectorized exact oracle keeps 160 joins fast; engine coverage
    # (the thing that must survive pickling into workers) is the axis
    # under test.  Small batches force multiple blocks per tile.
    return JoinConfig(
        exact_method="vectorized",
        predicate=predicate,
        engine=engine,
        batch_size=16,
    )


_relations = {}
_plain = {}
_serial = {}


def _relation_pair(seed: int):
    if seed not in _relations:
        _relations[seed] = random_relation_pair(seed, n_objects=10)
    return _relations[seed]


def _plain_sorted_pairs(seed: int, predicate: str, engine: str):
    key = (seed, predicate, engine)
    if key not in _plain:
        rel_a, rel_b = _relation_pair(seed)
        result = SpatialJoinProcessor(_config(predicate, engine)).join(
            rel_a, rel_b
        )
        _plain[key] = sorted(result.id_pairs())
    return _plain[key]


def _serial_partitioned(seed: int, predicate: str, engine: str, grid):
    key = (seed, predicate, engine, grid)
    if key not in _serial:
        rel_a, rel_b = _relation_pair(seed)
        _serial[key] = partitioned_join(
            rel_a, rel_b, grid=grid, config=_config(predicate, engine)
        )
    return _serial[key]


@pytest.mark.parametrize("seed,predicate,engine,workers,grid", CASES)
def test_parallel_matches_serial(seed, predicate, engine, workers, grid):
    rel_a, rel_b = _relation_pair(seed)
    assert_parallel_equivalent(
        rel_a,
        rel_b,
        _config(predicate, engine),
        grid=grid,
        workers=workers,
        plain_sorted_pairs=_plain_sorted_pairs(seed, predicate, engine),
        serial_partitioned=_serial_partitioned(seed, predicate, engine, grid),
    )


def test_streaming_and_batched_engines_agree_under_parallelism():
    """Cross-engine agreement survives the process boundary."""
    rel_a, rel_b = _relation_pair(201)
    results = {}
    for engine in ENGINES:
        results[engine] = parallel_partitioned_join(
            rel_a, rel_b, grid=(3, 3),
            config=_config("intersects", engine), workers=2,
        )
    assert results["streaming"].id_pairs() == results["batched"].id_pairs()
    assert stats_fingerprint(results["streaming"].stats) == (
        stats_fingerprint(results["batched"].stats)
    )


def test_empty_relations():
    empty_a = SpatialRelation("EA", [])
    empty_b = SpatialRelation("EB", [])
    result = parallel_partitioned_join(
        empty_a, empty_b, grid=(2, 2), workers=2
    )
    assert result.id_pairs() == []
    assert result.tile_tasks == 0
    assert result.stats.candidate_pairs == 0


def test_one_sided_empty_relation():
    rel_a, _ = _relation_pair(205)
    empty = SpatialRelation("EB", [])
    result = parallel_partitioned_join(rel_a, empty, grid=(2, 2), workers=2)
    assert result.id_pairs() == []
    assert result.tile_tasks == 0


def test_workers_argument_overrides_config():
    rel_a, rel_b = _relation_pair(206)
    config = replace(_config("intersects", "streaming"), workers=4)
    result = parallel_partitioned_join(
        rel_a, rel_b, grid=(2, 2), config=config, workers=1
    )
    assert result.workers == 1


def test_partition_stats_match_serial():
    """Per-tile telemetry (not just totals) equals the serial run."""
    rel_a, rel_b = _relation_pair(207)
    config = _config("intersects", "streaming")
    serial = partitioned_join(rel_a, rel_b, grid=(3, 3), config=config)
    parallel = parallel_partitioned_join(
        rel_a, rel_b, grid=(3, 3), config=config, workers=2
    )
    serial_tiles = {
        p.tile: (p.objects_a, p.objects_b, p.candidate_pairs, p.output_pairs)
        for p in serial.partitions
    }
    parallel_tiles = {
        p.tile: (p.objects_a, p.objects_b, p.candidate_pairs, p.output_pairs)
        for p in parallel.partitions
    }
    assert parallel_tiles == serial_tiles
    assert parallel.busy_seconds >= 0.0
    assert set(parallel.tile_seconds) == {
        p.tile for p in parallel.partitions if p.objects_a and p.objects_b
    }
