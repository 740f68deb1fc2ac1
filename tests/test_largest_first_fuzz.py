"""Largest-first tile dispatch: its order, and that the result ignores it.

Tiles reach the workers sorted by descending candidate volume
(``idx_a.size * idx_b.size``, a stable sort, so equal-cost tiles keep
plan order).  The first test records the order the runner sees at
``workers=1``.  The hypothesis fuzz runs *skewed* relations — the
clustered hot-tile generator concentrates most candidate pairs into one
tile, the case largest-first dispatch exists for — through a
:class:`JoinSession` at worker counts {1, 2, 4} and requires the serial
:func:`partitioned_join`'s result pairs, pair order and
``MultiStepStats``: the tile-sorted merge must hide dispatch and
completion order completely.

Each example shares one session across its joins so the pool is forked
once per worker count; ``REPRO_PAR_QUICK=1`` shrinks the sweep for the
CI quick job.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import clustered_relation_pair, random_relation_pair, stats_fingerprint
from repro.core import parallel_exec
from repro.core.join import JoinConfig
from repro.core.partition import partitioned_join
from repro.core.session import JoinSession

pytestmark = pytest.mark.parallel

QUICK = os.environ.get("REPRO_PAR_QUICK") == "1"
WORKERS = (1, 2) if QUICK else (1, 2, 4)
MAX_EXAMPLES = 2 if QUICK else 5

BASE = JoinConfig(exact_method="vectorized", engine="batched", batch_size=16)


@pytest.mark.parametrize("partitioner,seed", [("grid", 13), ("rtree", 11)])
def test_workers_1_runs_tasks_largest_first(monkeypatch, partitioner, seed):
    rel_a, rel_b = random_relation_pair(seed, n_objects=12)
    config = JoinConfig(
        exact_method="vectorized", partitioner=partitioner, target_tasks=8,
        grid=(3, 3),
    )
    tasks, _, session = parallel_exec.plan_columnar_tile_tasks(
        rel_a, rel_b, config.grid, config
    )
    session.close()
    cost = {task.tile: task.idx_a.size * task.idx_b.size for task in tasks}
    plan_order = [task.tile for task in tasks]
    # Python's sort is stable with reverse=True too: ties keep plan order.
    expected = sorted(plan_order, key=cost.get, reverse=True)
    # The case must tell the orders apart and hold a tie.
    assert expected != plan_order
    assert len(set(cost.values())) < len(cost)

    seen = []
    real = parallel_exec.run_columnar_tile_task

    def recording(task):
        seen.append(task.tile)
        return real(task)

    monkeypatch.setattr(parallel_exec, "run_columnar_tile_task", recording)
    result = parallel_exec.parallel_partitioned_join(
        rel_a, rel_b, config=config, workers=1
    )
    assert seen == expected
    assert result.tile_tasks == len(tasks)


@pytest.mark.slow
@given(
    seed=st.integers(min_value=0, max_value=10 ** 6),
    hot_fraction=st.sampled_from((0.6, 0.8, 0.9)),
    grid=st.sampled_from(((3, 3), (4, 2))),
)
@settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_largest_first_matches_serial_on_skewed_relations(
    seed, hot_fraction, grid
):
    rel_a, rel_b = clustered_relation_pair(
        seed, grid=grid, n_objects=10, hot_fraction=hot_fraction
    )
    serial = partitioned_join(rel_a, rel_b, grid=grid, config=BASE)
    with JoinSession(config=BASE) as session:
        for workers in WORKERS:
            result = session.join(rel_a, rel_b, grid=grid, workers=workers)
            label = f"seed={seed} workers={workers}"
            assert result.id_pairs() == serial.id_pairs(), label
            assert stats_fingerprint(result.stats) == (
                stats_fingerprint(serial.stats)
            ), label
            result.stats.check_invariants()
            assert result.tile_tasks > 0, label
