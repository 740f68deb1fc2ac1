"""Differential suite: ε-aware parallel proximity joins vs serial oracles.

The guarantee under test (ISSUE 9 acceptance bar): ``distance`` and
``knn`` joins through the partitioned executor are **byte-identical** —
pairs, pair order, and every merged ``MultiStepStats`` counter — to the
workers=1 oracle running the *same* ε-aware task plan in-process, for
both partitioners (grid ε/2-expansion with owning-task dedup; tree
ε-pruned synchronized traversal), worker counts 2, 3 and 4, and
tree task budgets 8, 16 and 64.  On top of byte-identity against the plan
oracle, every case is checked against predicate-level ground truth:

* sorted pairs equal the nested-loops oracle
  (:func:`brute_force_distance_join` / :func:`brute_force_knn_join`);
* ``distance`` flow counters (every Figure-1 stage) equal the plain
  serial pipeline exactly — the owning-task rule drops replicated
  candidates *before* any counter moves, so parallelism is invisible
  to the paper's statistics;
* ``knn`` pairs equal the plain serial pipeline **in the exact same
  left-relation order** (the merge re-sorts by left position), and so
  does the full ``stats_fingerprint`` — ``mbr_tests`` included, and
  ``node_pairs`` (zero): the two-round kNN does the same work per left
  object in every plan;
* the merged stats satisfy the Figure-1 flow invariants, and
  ``dedup_dropped`` is plan-deterministic (identical across worker
  counts).

200 generated cases (5 seeds × 5 predicate settings × 8 execution
combinations); ``REPRO_PAR_QUICK=1`` shrinks the sweep for the CI quick
job.  Serial baselines are computed once per (seed, predicate, setting)
and the plan oracle once per (…, partitioner, target budget), shared
across execution combinations so wall clock is dominated by the process
pools actually under test.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from helpers import random_relation_pair, stats_fingerprint
from repro.core.distance import brute_force_distance_join
from repro.core.join import JoinConfig, SpatialJoinProcessor
from repro.core.parallel_exec import parallel_partitioned_join
from repro.core.proximity import brute_force_knn_join

pytestmark = pytest.mark.parallel

QUICK = os.environ.get("REPRO_PAR_QUICK") == "1"

SEEDS = range(300, 302) if QUICK else range(300, 305)

#: predicate settings: ε=0 (tasks degenerate to the intersect
#: decomposition), a small and a large ε (border replication light and
#: heavy), and k below / at the typical neighbour count.
PRED_CASES = (
    (("distance", 0.0), ("distance", 0.07), ("knn", 2))
    if QUICK
    else (
        ("distance", 0.0),
        ("distance", 0.07),
        ("distance", 0.25),
        ("knn", 1),
        ("knn", 3),
    )
)

#: (partitioner, workers, target_tasks) — the grid at 4, 3 and 2
#: workers, the tree at 4, 3 and 2 workers, and non-default tree task
#: budgets (8, 16) so the ``target_tasks`` knob is exercised through
#: the full stack.
EXEC_COMBOS = (
    (
        ("grid", 4, 64),
        ("grid", 2, 64),
        ("rtree", 4, 64),
        ("rtree", 4, 8),
    )
    if QUICK
    else (
        ("grid", 4, 64),
        ("grid", 2, 64),
        ("grid", 3, 64),
        ("rtree", 4, 64),
        ("rtree", 4, 8),
        ("rtree", 2, 64),
        ("rtree", 2, 8),
        ("rtree", 3, 16),
    )
)

CASES = [
    pytest.param(
        seed, predicate, setting, part, workers, target,
        id=f"s{seed}-{predicate}{setting}-{part}-w{workers}-t{target}",
    )
    for seed in SEEDS
    for predicate, setting in PRED_CASES
    for part, workers, target in EXEC_COMBOS
]


def _config(predicate, setting, part, workers, target):
    kwargs = (
        {"epsilon": setting} if predicate == "distance" else {"k": setting}
    )
    return JoinConfig(
        predicate=predicate,
        workers=workers,
        grid=(3, 3),
        partitioner=part,
        target_tasks=target,
        **kwargs,
    )


_relations = {}
_plain = {}
_brute = {}
_oracle = {}


def _relation_pair(seed):
    if seed not in _relations:
        # 12 objects per relation: volume 144 > the serial-routing
        # floor, so every case takes the ε-aware parallel path.
        _relations[seed] = random_relation_pair(
            seed, n_objects=12, degenerate=False
        )
    return _relations[seed]


def _plain_serial(seed, predicate, setting):
    """The ordinary serial pipeline — predicate-level ground truth."""
    key = (seed, predicate, setting)
    if key not in _plain:
        rel_a, rel_b = _relation_pair(seed)
        config = _config(predicate, setting, "grid", 1, 64)
        _plain[key] = SpatialJoinProcessor(
            replace(config, workers=1)
        ).join(rel_a, rel_b)
    return _plain[key]


def _brute_force(seed, predicate, setting):
    key = (seed, predicate, setting)
    if key not in _brute:
        rel_a, rel_b = _relation_pair(seed)
        if predicate == "distance":
            _brute[key] = sorted(
                brute_force_distance_join(rel_a, rel_b, setting)
            )
        else:
            _brute[key] = brute_force_knn_join(rel_a, rel_b, setting)
    return _brute[key]


def _plan_oracle(seed, predicate, setting, part, target):
    """workers=1 running the same ε-aware plan in-process — the
    byte-identity oracle.  The task plan depends only on the relations,
    the partitioner, and the canonical config, so one oracle serves
    every worker count."""
    key = (seed, predicate, setting, part, target)
    if key not in _oracle:
        rel_a, rel_b = _relation_pair(seed)
        _oracle[key] = parallel_partitioned_join(
            rel_a,
            rel_b,
            config=_config(predicate, setting, part, 1, target),
        )
    return _oracle[key]


def _flow_fingerprint(stats):
    """Every counter the serial pipeline's Figure-1 flow determines.

    ``mbr_tests`` is traversal telemetry — the ε-expanded decomposition
    walks different tree shapes than the monolithic serial join — so it
    is the one stats_fingerprint entry excluded here.
    """
    fingerprint = stats_fingerprint(stats)
    del fingerprint["mbr_tests"]
    return fingerprint


@pytest.mark.parametrize(
    "seed,predicate,setting,part,workers,target", CASES
)
def test_parallel_proximity_byte_identical(
    seed, predicate, setting, part, workers, target
):
    rel_a, rel_b = _relation_pair(seed)
    config = _config(predicate, setting, part, workers, target)
    result = parallel_partitioned_join(rel_a, rel_b, config=config)
    oracle = _plan_oracle(seed, predicate, setting, part, target)

    # Byte-identity against the plan oracle: pairs *in order*, every
    # compared stats counter, and the plan-deterministic telemetry.
    assert result.tile_tasks > 0
    assert result.tile_tasks == oracle.tile_tasks
    assert list(result.id_pairs()) == list(oracle.id_pairs())
    assert result.stats == oracle.stats
    assert result.stats.dedup_dropped == oracle.stats.dedup_dropped

    # Predicate-level ground truth.
    plain = _plain_serial(seed, predicate, setting)
    if predicate == "distance":
        assert sorted(result.id_pairs()) == _brute_force(
            seed, predicate, setting
        )
        assert _flow_fingerprint(result.stats) == _flow_fingerprint(
            plain.stats
        )
    else:
        # kNN pairs come back in the serial pipeline's exact order —
        # left objects in relation order, neighbours distance-ranked —
        # which is also the nested-loops oracle's emission order.
        assert list(result.id_pairs()) == _brute_force(
            seed, predicate, setting
        )
        assert list(result.id_pairs()) == plain.id_pairs()
        assert stats_fingerprint(result.stats) == stats_fingerprint(
            plain.stats
        )
        assert result.stats.mbr_join.node_pairs == 0
        assert plain.stats.mbr_join.node_pairs == 0
    result.stats.check_invariants()
