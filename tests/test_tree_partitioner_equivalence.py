"""Differential suite: tree-guided partitioning vs grid vs serial join.

The tree partitioner (``JoinConfig(partitioner="rtree")``) forms tasks
from the leaf overlaps of a synchronized R*-tree traversal instead of
uniform grid tiles.  This suite is its correctness contract:

* **serial equality** — the rtree-partitioned parallel join returns
  exactly the plain serial join's result pairs (as a set; the tree
  decomposition owns its own deterministic output order);
* **byte-identity across the runtime matrix** — for a given input the
  rtree join's ordered output is identical across worker counts
  {1, 2, 3, 4}, with or without a session (its task
  decomposition depends only on the relations, never on the workers);
* **no duplicates** — tree tasks partition the candidate-pair space
  disjointly, so no pair may be emitted twice (no reference-tile rule
  backs this up: a replication bug would surface as a duplicate);
* **grid agreement** — grid- and rtree-partitioned joins agree
  pairwise on every input.

Roughly 150 cases: predicates x engines (4) x generators (uniform and
clustered hot-tile skew) x seeds x workers, plus the sessionless
zorder-declustering, 1- and 3-worker, plan-shape, and empty-input
checks.  ``REPRO_PAR_QUICK=1`` shrinks the sweep for CI smoke runs.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from helpers import clustered_relation_pair, random_relation_pair
from repro.core.join import JoinConfig, SpatialJoinProcessor
from repro.core.parallel_exec import (
    parallel_partitioned_join,
    plan_columnar_tile_tasks,
)
from repro.core.partition import (
    DECLUSTER_CURVES,
    GridPartitioner,
    TreePartitioner,
    create_partitioner,
)
from repro.core.session import JoinSession

pytestmark = pytest.mark.parallel

QUICK = os.environ.get("REPRO_PAR_QUICK") == "1"
SEEDS = (3, 11) if QUICK else (3, 11, 29)
WORKERS = (1, 2) if QUICK else (1, 2, 4)
GENERATORS = (random_relation_pair, clustered_relation_pair)

PREDICATE_ENGINES = [
    ("intersects", "streaming"),
    ("intersects", "batched"),
    ("within", "streaming"),
    ("within", "batched"),
]

_relations = {}
_serial = {}
_reference = {}


def _pair(generator, seed):
    key = (generator.__name__, seed)
    if key not in _relations:
        _relations[key] = generator(seed, n_objects=10 if QUICK else 14)
    return _relations[key]


def _config(predicate, engine):
    return JoinConfig(
        predicate=predicate,
        engine=engine,
        exact_method="vectorized",
        batch_size=16,
        partitioner="rtree",
    )


def _serial_sorted(generator, seed, predicate, engine):
    key = (generator.__name__, seed, predicate, engine)
    if key not in _serial:
        rel_a, rel_b = _pair(generator, seed)
        result = SpatialJoinProcessor(
            replace(_config(predicate, engine), workers=1)
        ).join(rel_a, rel_b)
        _serial[key] = sorted(result.id_pairs())
    return _serial[key]


def _check(result, generator, seed, predicate, engine, label):
    """Serial set-equality, no duplicates, cross-config byte-identity."""
    got = result.id_pairs()
    assert len(got) == len(set(got)), f"{label}: duplicate pairs"
    assert sorted(got) == _serial_sorted(generator, seed, predicate, engine), (
        f"{label}: pairs diverge from the plain serial join"
    )
    key = (generator.__name__, seed, predicate, engine)
    if key not in _reference:
        _reference[key] = got
    assert got == _reference[key], (
        f"{label}: ordered output diverges from the rtree reference run"
    )
    assert result.partitioner == "rtree"
    result.stats.check_invariants()


@pytest.mark.parametrize("predicate,engine", PREDICATE_ENGINES)
def test_rtree_matches_serial_across_runtime_matrix(predicate, engine):
    for generator in GENERATORS:
        for seed in SEEDS:
            rel_a, rel_b = _pair(generator, seed)
            config = _config(predicate, engine)
            for workers in WORKERS:
                with JoinSession(
                    config=replace(config, workers=workers)
                ) as session:
                    result = session.join(rel_a, rel_b)
                    _check(
                        result, generator, seed, predicate, engine,
                        f"{generator.__name__} seed={seed} workers={workers}",
                    )


@pytest.mark.parametrize("predicate,engine", PREDICATE_ENGINES)
def test_rtree_sessionless(predicate, engine):
    for generator in GENERATORS:
        for seed in SEEDS:
            rel_a, rel_b = _pair(generator, seed)
            config = _config(predicate, engine)
            for workers in (1, 3):
                result = parallel_partitioned_join(
                    rel_a, rel_b, config=replace(config, workers=workers)
                )
                assert result.tile_tasks > 0
                _check(
                    result, generator, seed, predicate, engine,
                    f"sessionless {generator.__name__} seed={seed} "
                    f"workers={workers}",
                )


def test_grid_and_rtree_agree_pairwise():
    for generator in GENERATORS:
        for seed in SEEDS:
            rel_a, rel_b = _pair(generator, seed)
            base = replace(_config("intersects", "batched"), workers=2)
            grid = parallel_partitioned_join(
                rel_a, rel_b, config=replace(base, partitioner="grid")
            )
            rtree = parallel_partitioned_join(rel_a, rel_b, config=base)
            assert sorted(grid.id_pairs()) == sorted(rtree.id_pairs())
            assert grid.partitioner == "grid"
            assert rtree.partitioner == "rtree"


def test_zorder_declustering_same_results():
    rel_a, rel_b = _pair(random_relation_pair, SEEDS[0])
    hilbert = TreePartitioner(decluster="hilbert").plan(rel_a, rel_b, (4, 4))
    zorder = TreePartitioner(decluster="zorder").plan(rel_a, rel_b, (4, 4))
    # Same tasks, possibly in a different dispatch order.
    as_set = lambda plan: {
        (key, tuple(idx_a.tolist()), tuple(idx_b.tolist()))
        for key, idx_a, idx_b in plan.entries
    }
    assert as_set(hilbert) == as_set(zorder)
    for decluster in DECLUSTER_CURVES:
        result = parallel_partitioned_join(
            rel_a, rel_b,
            config=replace(_config("intersects", "batched"), workers=2),
        )
        assert sorted(result.id_pairs()) == _serial_sorted(
            random_relation_pair, SEEDS[0], "intersects", "batched"
        )


def test_tree_tasks_carry_no_dedup_frame():
    rel_a, rel_b = _pair(random_relation_pair, SEEDS[0])
    config = _config("intersects", "batched")
    tasks, partitions, session = plan_columnar_tile_tasks(
        rel_a, rel_b, (4, 4), config
    )
    try:
        assert tasks, "tree plan produced no tasks"
        # Tree plans list no empty tiles.
        assert len(partitions) == len(tasks)
        for task in tasks:
            assert task.space is None and task.grid is None
            assert task.tile[1] == -1  # (ordinal, -1) task keys
            assert task.idx_a.size and task.idx_b.size
            # Row indices ascend, exactly like the grid plan's arrays.
            assert np.all(np.diff(task.idx_a) > 0)
            assert np.all(np.diff(task.idx_b) > 0)
    finally:
        session.close()


def test_grid_tasks_unchanged_by_the_strategy_layer():
    rel_a, rel_b = _pair(random_relation_pair, SEEDS[0])
    config = replace(_config("intersects", "batched"), partitioner="grid")
    tasks, partitions, session = plan_columnar_tile_tasks(
        rel_a, rel_b, (3, 3), config
    )
    session.close()
    assert len(partitions) == 9  # every tile, empty ones included
    assert [p.tile for p in partitions] == sorted(p.tile for p in partitions)
    for task in tasks:
        assert task.grid == (3, 3)
        assert task.space is not None


def test_task_count_independent_of_workers():
    rel_a, rel_b = _pair(clustered_relation_pair, SEEDS[0])
    config = _config("intersects", "batched")
    counts = {
        parallel_partitioned_join(
            rel_a, rel_b, config=replace(config, workers=workers)
        ).tile_tasks
        for workers in WORKERS
    }
    assert len(counts) == 1


def test_empty_relation_yields_empty_plan():
    from repro.datasets.relations import SpatialRelation

    rel_a, _ = _pair(random_relation_pair, SEEDS[0])
    empty = SpatialRelation("empty", [])
    plan = TreePartitioner().plan(rel_a, empty, (4, 4))
    assert plan.entries == []
    result = parallel_partitioned_join(
        rel_a, empty, config=replace(_config("intersects", "batched"),
                                     workers=2),
    )
    assert result.id_pairs() == []
    assert result.tile_tasks == 0


def test_partitioner_registry_consistency():
    from repro.core.join import PARTITIONERS

    for name in PARTITIONERS:
        assert create_partitioner(name).name == name
    with pytest.raises(ValueError, match="unknown partitioner"):
        create_partitioner("voronoi")
    assert isinstance(create_partitioner("grid"), GridPartitioner)
    assert isinstance(create_partitioner("rtree"), TreePartitioner)


def test_tree_partitioner_rejects_bad_arguments():
    with pytest.raises(ValueError, match="target_tasks"):
        TreePartitioner(target_tasks=0)
    with pytest.raises(ValueError, match="declustering curve"):
        TreePartitioner(decluster="peano")
