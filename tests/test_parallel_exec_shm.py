"""Shared-memory lifecycle of the columnar wire format.

The parent owns the segments: it creates them before dispatch and must
unlink them whatever happens afterwards — success, a worker blowing up,
or a KeyboardInterrupt mid-join.  These tests track segment names
through :func:`repro.core.parallel_exec.live_shared_segments` and by
attempting to re-attach after the join: a FileNotFoundError proves the
``/dev/shm`` entry is gone.
"""

from __future__ import annotations

import sys
from multiprocessing import shared_memory

import pytest

from helpers import random_relation_pair
from repro.core import parallel_exec
from repro.core.join import JoinConfig, SpatialJoinProcessor
from repro.core.parallel_exec import (
    ColumnarShipment,
    TileExecutionError,
    live_shared_segments,
    parallel_partitioned_join,
)

pytestmark = pytest.mark.parallel


def _config(**overrides) -> JoinConfig:
    return JoinConfig(exact_method="vectorized", engine="batched",
                      batch_size=16, **overrides)


def _capture_segments(monkeypatch):
    """Record every segment name any ColumnarShipment creates."""
    created = []
    original = ColumnarShipment.__init__

    def spy(self, relations):
        original(self, relations)
        created.extend(self.segment_names)

    monkeypatch.setattr(ColumnarShipment, "__init__", spy)
    return created


def _assert_all_unlinked(names):
    # (The live-set emptiness itself is asserted by the autouse
    # ``no_leaked_shared_segments`` fixture after every test; here we
    # prove the /dev/shm entries are really gone.)
    assert names, "the join must have created shared segments"
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_shipment_create_exposes_and_close_unlinks():
    rel_a, rel_b = random_relation_pair(401, n_objects=6)
    shipment = ColumnarShipment((rel_a, rel_b))
    names = shipment.segment_names
    assert len(names) == 2
    assert set(names) <= live_shared_segments()
    assert shipment.total_bytes > 0
    # While open, anyone may attach by name.
    probe = shared_memory.SharedMemory(name=names[0])
    probe.close()
    shipment.close()
    _assert_all_unlinked(names)
    shipment.close()  # idempotent


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
    tasks, _, shipment = parallel_exec.plan_columnar_tile_tasks(
        rel_a, rel_b, (3, 3), config
    )
    shipment.close()
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


def test_columnar_tasks_and_outcomes_are_picklable():
    """The columnar IPC contract: tasks round-trip while segments live."""
    import pickle

    from repro.core.parallel_exec import (
        plan_columnar_tile_tasks,
        run_columnar_tile_task,
    )

    rel_a, rel_b = random_relation_pair(406, n_objects=10)
    tasks, partitions, shipment = plan_columnar_tile_tasks(
        rel_a, rel_b, (3, 3), _config()
    )
    names = list(shipment.segment_names)
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
        shipment.close()
    _assert_all_unlinked(names)
