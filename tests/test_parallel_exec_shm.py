"""Shared-memory lifecycle of the columnar wire format.

The parent's session owns the segments: a sessionless join opens a
private session, which creates them before dispatch and must unlink
them whatever happens afterwards — success, a worker blowing up, a
worker killed between joins, or a KeyboardInterrupt mid-join.  These
tests track segment names through
:func:`repro.core.parallel_exec.live_shared_segments` and by attempting
to re-attach after the join: a FileNotFoundError proves the
``/dev/shm`` entry is gone.  Pool workers keep their mappings for the
pool's life: each maps a shipped block at most once, and a task run in
the parent maps none.
"""

from __future__ import annotations

import collections
import multiprocessing
import os
import signal
import sys
from concurrent.futures import BrokenExecutor
from multiprocessing import shared_memory
from multiprocessing.connection import wait

import pytest

from helpers import random_relation_pair
from repro.core import parallel_exec
from repro.core.join import JoinConfig, SpatialJoinProcessor
from repro.core.parallel_exec import (
    SharedRelationSegment,
    TileExecutionError,
    live_shared_segments,
    parallel_partitioned_join,
    plan_columnar_tile_tasks,
    run_columnar_tile_task,
)
from repro.core.partition import partitioned_join
from repro.core.session import JoinSession

pytestmark = pytest.mark.parallel


def _config(**overrides) -> JoinConfig:
    return JoinConfig(exact_method="vectorized", engine="batched",
                      batch_size=16, **overrides)


def _capture_segments(monkeypatch):
    """Record every ring segment name any SharedRelationSegment creates."""
    created = []
    original = SharedRelationSegment.__init__

    def spy(self, relation):
        original(self, relation)
        created.append(self.rings.spec.shm_name)

    monkeypatch.setattr(SharedRelationSegment, "__init__", spy)
    return created


def _assert_all_unlinked(names):
    # (The live-set emptiness itself is asserted by the autouse
    # ``no_leaked_shared_segments`` fixture after every test; here we
    # prove the /dev/shm entries are really gone.)
    assert names, "the join must have created shared segments"
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_session_ship_exposes_and_close_unlinks():
    rel_a, rel_b = random_relation_pair(401, n_objects=6)
    session = JoinSession()
    segments, counters = session.ship((rel_a, rel_b))
    names = [segment.rings.spec.shm_name for segment in segments]
    assert len(set(names)) == 2
    assert set(names) <= live_shared_segments()
    assert counters["shared_payload_bytes"] > 0
    # While open, anyone may attach by name.
    probe = shared_memory.SharedMemory(name=names[0])
    probe.close()
    session.close()
    _assert_all_unlinked(names)
    session.close()  # idempotent


def test_segments_unlinked_on_success(monkeypatch):
    created = _capture_segments(monkeypatch)
    rel_a, rel_b = random_relation_pair(402, n_objects=10)
    baseline = SpatialJoinProcessor(_config()).join(rel_a, rel_b)
    result = parallel_partitioned_join(
        rel_a, rel_b, grid=(3, 3), config=_config(), workers=2
    )
    assert result.tile_tasks > 0
    assert result.shared_payload_bytes > 0
    assert sorted(result.id_pairs()) == sorted(baseline.id_pairs())
    _assert_all_unlinked(created)


def test_segments_unlinked_on_workers_1_degenerate_path(monkeypatch):
    created = _capture_segments(monkeypatch)
    rel_a, rel_b = random_relation_pair(403, n_objects=8)
    result = parallel_partitioned_join(
        rel_a, rel_b, grid=(2, 2), config=_config(), workers=1
    )
    assert result.tile_tasks > 0
    _assert_all_unlinked(created)


def test_segments_unlinked_on_worker_failure(monkeypatch):
    created = _capture_segments(monkeypatch)

    def exploding_dispatch(tasks, runner, n_workers, **kwargs):
        raise RuntimeError("worker crashed")

    monkeypatch.setattr(parallel_exec, "_dispatch", exploding_dispatch)
    rel_a, rel_b = random_relation_pair(404, n_objects=8)
    with pytest.raises(RuntimeError, match="worker crashed"):
        parallel_partitioned_join(
            rel_a, rel_b, grid=(3, 3), config=_config(), workers=2
        )
    _assert_all_unlinked(created)


def test_segments_unlinked_on_keyboard_interrupt(monkeypatch):
    created = _capture_segments(monkeypatch)

    def interrupted_dispatch(tasks, runner, n_workers, **kwargs):
        raise KeyboardInterrupt()

    monkeypatch.setattr(parallel_exec, "_dispatch", interrupted_dispatch)
    rel_a, rel_b = random_relation_pair(405, n_objects=8)
    with pytest.raises(KeyboardInterrupt):
        parallel_partitioned_join(
            rel_a, rel_b, grid=(3, 3), config=_config(), workers=2
        )
    _assert_all_unlinked(created)


def _always_crashing_runner(task):
    """Module-level so fork workers can resolve it by reference."""
    raise RuntimeError(f"boom in tile {task.tile}")


def test_worker_crash_attributes_tile_and_unlinks_pool(monkeypatch):
    """A worker exception surfaces the tile index; segments still unlink."""
    created = _capture_segments(monkeypatch)
    monkeypatch.setattr(
        parallel_exec, "run_columnar_tile_task", _always_crashing_runner
    )
    rel_a, rel_b = random_relation_pair(407, n_objects=10)
    with pytest.raises(TileExecutionError) as excinfo:
        parallel_partitioned_join(
            rel_a, rel_b, grid=(3, 3), config=_config(), workers=2
        )
    assert isinstance(excinfo.value.tile, tuple)
    assert str(excinfo.value.tile) in str(excinfo.value)
    assert isinstance(excinfo.value.cause, RuntimeError)
    _assert_all_unlinked(created)


#: the tile :func:`_crash_on_target` fails (set before the pool forks).
_CRASH_TILE = None
_REAL_RUNNER = parallel_exec.run_columnar_tile_task


def _crash_on_target(task):
    """Module-level so fork workers can resolve it by reference."""
    if task.tile == _CRASH_TILE:
        raise RuntimeError("boom")
    return _REAL_RUNNER(task)


@pytest.mark.parametrize("workers", (1, 2))
def test_tile_failure_attribution_is_exact(monkeypatch, workers):
    """Only the crashing tile is blamed — the other tiles run through,
    in-process and on a pool."""
    rel_a, rel_b = random_relation_pair(408, n_objects=10)
    config = _config()
    tasks, _, session = parallel_exec.plan_columnar_tile_tasks(
        rel_a, rel_b, (3, 3), config
    )
    session.close()
    assert len(tasks) >= 2, "need at least two joinable tiles"
    target = tasks[1].tile
    monkeypatch.setattr(sys.modules[__name__], "_CRASH_TILE", target)
    monkeypatch.setattr(
        parallel_exec, "run_columnar_tile_task", _crash_on_target
    )
    created = _capture_segments(monkeypatch)
    with pytest.raises(TileExecutionError) as excinfo:
        parallel_partitioned_join(
            rel_a, rel_b, grid=(3, 3), config=config, workers=workers
        )
    assert excinfo.value.tile == target
    _assert_all_unlinked(created)


def test_columnar_tasks_and_outcomes_are_picklable(monkeypatch):
    """The columnar IPC contract: tasks round-trip while segments live."""
    import pickle

    from repro.core.parallel_exec import (
        plan_columnar_tile_tasks,
        run_columnar_tile_task,
    )

    rel_a, rel_b = random_relation_pair(406, n_objects=10)
    created = _capture_segments(monkeypatch)
    tasks, partitions, session = plan_columnar_tile_tasks(
        rel_a, rel_b, (3, 3), _config()
    )
    try:
        assert tasks, "generator produced no joinable tiles"
        assert len(partitions) == 9
        for task in tasks:
            clone = pickle.loads(pickle.dumps(task))
            assert clone.tile == task.tile
            assert clone.spec_a == task.spec_a
            assert clone.idx_a.tolist() == task.idx_a.tolist()
            assert clone.idx_b.tolist() == task.idx_b.tolist()
            outcome = run_columnar_tile_task(clone)
            again = pickle.loads(pickle.dumps(outcome))
            assert again.tile == task.tile
            assert again.id_pairs == outcome.id_pairs
    finally:
        session.close()
    _assert_all_unlinked(created)


# ---------------------------------------------------------------------------
# Worker-held mappings
# ---------------------------------------------------------------------------

#: segment names this process attached (a forked worker fills its copy).
_ATTACHED: list = []
#: lets two pool calls meet, so they run on two different workers.
_BARRIER = None
_REAL_ATTACH = parallel_exec._attach_segment


def _counting_attach(spec):
    """Module-level so fork workers can resolve it by reference."""
    _ATTACHED.append(spec.shm_name)
    return _REAL_ATTACH(spec)


def _worker_attaches(_):
    _BARRIER.wait()
    return os.getpid(), list(_ATTACHED)


def _count_attaches(monkeypatch):
    """Count attaches from now on, here and in workers forked later."""
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "_ATTACHED", [])
    monkeypatch.setattr(parallel_exec, "_attach_segment", _counting_attach)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="counts are read from forked workers",
)
def test_each_worker_maps_each_shipped_block_at_most_once(monkeypatch):
    """Twenty joins of a two-worker session: every block was mapped by
    some worker, and no worker mapped a block twice."""
    _count_attaches(monkeypatch)
    monkeypatch.setattr(
        sys.modules[__name__], "_BARRIER",
        multiprocessing.get_context("fork").Barrier(2, timeout=60),
    )
    rel_a, rel_b = random_relation_pair(411, n_objects=16)
    config = _config()
    serial = partitioned_join(rel_a, rel_b, grid=(3, 3), config=config)
    with JoinSession(config=config) as session:
        for _ in range(20):
            result = session.join(rel_a, rel_b, grid=(3, 3), workers=2)
            assert result.id_pairs() == serial.id_pairs()
            assert result.stats == serial.stats
        blocks = {
            block.spec.shm_name
            for segment in session._segments.values()
            for block in (segment.rings, *segment.approx.values())
        }
        pool = session._pool
        answers = dict(pool.map(_worker_attaches, range(2), timeout=120))
        assert session.pools_created == 1
    assert _ATTACHED == []  # the parent mapped nothing
    assert len(answers) == 2
    assert len(blocks) > 2  # two ring segments and their approximation blocks
    mapped = set()
    for pid, attached in answers.items():
        counts = collections.Counter(attached)
        assert all(n == 1 for n in counts.values()), (pid, counts)
        assert set(counts) <= blocks
        mapped |= set(counts)
    assert mapped == blocks


def test_in_process_tasks_attach_no_segment(monkeypatch):
    """In the parent a task reads the relations' in-memory stores: no
    segment is attached, for planned tasks and ``workers=1`` joins alike,
    and a task of a closed session fails cleanly."""
    _count_attaches(monkeypatch)
    rel_a, rel_b = random_relation_pair(412, n_objects=12)
    config = _config()
    serial = partitioned_join(rel_a, rel_b, grid=(3, 3), config=config)
    tasks, _, session = plan_columnar_tile_tasks(
        rel_a, rel_b, (3, 3), config
    )
    try:
        outcomes = [run_columnar_tile_task(task) for task in tasks]
    finally:
        session.close()
    one = parallel_partitioned_join(
        rel_a, rel_b, grid=(3, 3), config=config, workers=1
    )
    assert tasks and sum(len(o.id_pairs) for o in outcomes) == len(serial)
    assert one.id_pairs() == serial.id_pairs()
    assert _ATTACHED == []
    with pytest.raises(RuntimeError, match="not held by an open session"):
        run_columnar_tile_task(tasks[0])


def test_killed_worker_fails_one_join_then_the_session_recovers():
    """SIGKILL one pool worker between joins: the next join fails with a
    ``TileExecutionError`` caused by the broken pool, the one after forks
    a fresh pool and is byte-identical to the serial join, and closing
    the session leaves none of its segments in ``/dev/shm``."""
    rel_a, rel_b = random_relation_pair(413, n_objects=14)
    config = _config()
    serial = partitioned_join(rel_a, rel_b, grid=(3, 3), config=config)
    session = JoinSession(config=config)
    try:
        first = session.join(rel_a, rel_b, grid=(3, 3), workers=2)
        assert first.id_pairs() == serial.id_pairs()
        made = {
            block.spec.shm_name
            for segment in session._segments.values()
            for block in (segment.rings, *segment.approx.values())
        }
        pool = session._pool
        victim = pool.submit(os.getpid).result(timeout=60)
        os.kill(victim, signal.SIGKILL)
        assert wait([pool._processes[victim].sentinel], timeout=60)
        with pytest.raises(TileExecutionError) as excinfo:
            session.join(rel_a, rel_b, grid=(3, 3), workers=2)
        assert isinstance(excinfo.value.cause, BrokenExecutor)
        again = session.join(rel_a, rel_b, grid=(3, 3), workers=2)
        assert session.pools_created == 2
        assert again.id_pairs() == serial.id_pairs()
        assert again.stats == serial.stats
        assert again.partitions == serial.partitions
        assert {
            block.spec.shm_name
            for segment in session._segments.values()
            for block in (segment.rings, *segment.approx.values())
        } == made
    finally:
        session.close()
    assert live_shared_segments() == frozenset()
    assert made and made.isdisjoint(os.listdir("/dev/shm"))
