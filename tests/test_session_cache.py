"""Session segment-cache lifecycle, private sessions and pool resize.

Segments live until the session closes: a relation mutated between
joins gets a fresh fingerprint and a fresh segment, and the stale one
stays cached until :meth:`JoinSession.close`.  The session is the only
owner of worker pools and shared segments: a join without a session
runs in a private one that is closed before the call returns, and
:func:`~repro.core.parallel_exec.plan_columnar_tile_tasks` hands its
private session to the caller.  Regression coverage for one session
bug: ``_discard_pool()`` used ``shutdown(wait=False)``, so a pool
rebuild (worker-count change) returned while old workers could still
be mapping shared segments — racing any subsequent unlink.

The autouse leak fixture in ``conftest.py`` asserts every test below
leaves ``live_shared_segments()`` empty.
"""

import multiprocessing
import threading
import time
from pathlib import Path

import pytest

from helpers import random_relation_pair
from repro.core import parallel_exec
from repro.core.join import JoinConfig, SpatialJoinProcessor
from repro.core.parallel_exec import (
    SharedRelationSegment,
    live_shared_segments,
    parallel_partitioned_join,
    plan_columnar_tile_tasks,
)
from repro.core.session import JoinSession
from repro.service.core import JoinService, SessionPool

SRC = Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.parallel


def _config(workers=1):
    # vectorized exact method: the degenerate slivers in the generated
    # relations are out of scope for the TR*-tree processor.
    return JoinConfig(workers=workers, exact_method="vectorized")


def _plain_sorted(rel_a, rel_b):
    result = SpatialJoinProcessor(_config()).join(rel_a, rel_b)
    return sorted(result.id_pairs())


def _mutate(relation):
    """New object-list identity -> new columnar store -> new fingerprint."""
    relation.objects = relation.objects[:-1]


class TestSegmentLifetime:
    def test_segments_live_until_close(self):
        rel_a, rel_b = random_relation_pair(10)
        with JoinSession(config=_config()) as session:
            for _ in range(3):
                _mutate(rel_b)
                result = session.join(rel_a, rel_b)
                assert sorted(result.id_pairs()) == _plain_sorted(
                    rel_a, rel_b
                )
            assert session.cached_relations == 4  # A + three B versions
        assert session.cached_relations == 0
        assert not live_shared_segments()

    def test_rejoining_an_earlier_version_hits_its_segment(self):
        rel_a, rel_b = random_relation_pair(11)
        _, original_b = random_relation_pair(11)  # same content as rel_b
        with JoinSession(config=_config()) as session:
            session.join(rel_a, rel_b)
            _mutate(rel_b)
            mutated = session.join(rel_a, rel_b)
            assert mutated.segment_cache_hits == 1  # A
            assert mutated.segment_cache_misses == 1  # the new B
            # The first B's segment is still cached: no re-shipping.
            back = session.join(rel_a, original_b)
            assert back.segment_cache_hits == 2
            assert back.shared_payload_bytes == 0
            assert sorted(back.id_pairs()) == _plain_sorted(rel_a, original_b)
        assert not live_shared_segments()

    def test_close_from_another_thread_waits_for_the_running_join(self):
        """A join holds the session lock from planning to merge, so a
        concurrent ``close()`` can never unlink a segment in flight."""
        rel_a, rel_b = random_relation_pair(15)
        expected = _plain_sorted(rel_a, rel_b)
        session = JoinSession(config=_config(workers=2))
        outcomes = []
        started = threading.Event()

        def keep_joining():
            started.set()
            try:
                while True:
                    result = session.join(rel_a, rel_b)
                    outcomes.append(sorted(result.id_pairs()))
            except RuntimeError as exc:
                outcomes.append(str(exc))

        thread = threading.Thread(target=keep_joining)
        thread.start()
        started.wait()
        while not outcomes and thread.is_alive():
            time.sleep(0.005)
        session.close()
        thread.join(timeout=60)
        assert not thread.is_alive()
        *joins, last = outcomes
        assert joins and all(pairs == expected for pairs in joins)
        assert "closed" in last
        assert session.cached_relations == 0
        assert not live_shared_segments()

    def test_stats_keys(self):
        with JoinSession(config=_config()) as session:
            assert set(session.stats()) == {
                "joins_run", "segment_cache_hits", "segment_cache_misses",
                "store_loads", "store_load_bytes", "approx_cache_hits",
                "approx_cache_misses", "approx_store_loads",
                "approx_store_load_bytes", "pools_created",
                "cached_relations", "cached_segment_bytes",
                "cached_approx_bytes",
            }


class TestNoCacheBound:
    """The cache has no byte bound, no eviction and no leases."""

    @pytest.mark.parametrize(
        "owner",
        [JoinSession, lambda **kw: SessionPool(1, **kw), JoinService],
        ids=["JoinSession", "SessionPool", "JoinService"],
    )
    def test_cache_bound_option_is_gone(self, owner):
        with pytest.raises(TypeError, match="max_cache_bytes"):
            owner(max_cache_bytes=1 << 20)

    @pytest.mark.parametrize(
        "name", ["evict", "segment_for", "lease_segments"]
    )
    def test_session_has_no_eviction_surface(self, name):
        assert not hasattr(JoinSession, name)

    def test_process_pool_is_constructed_only_by_the_session(self):
        owners = sorted(
            path.relative_to(SRC).as_posix()
            for path in SRC.rglob("*.py")
            if "ProcessPoolExecutor(" in path.read_text()
        )
        assert owners == ["repro/core/session.py"]


class TestPrivateSession:
    """A join without a session runs in a private one, closed on return."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sessionless_join_equals_a_fresh_session_join(self, workers):
        rel_a, rel_b = random_relation_pair(16)
        config = _config(workers=workers)
        alone = parallel_partitioned_join(rel_a, rel_b, config=config)
        assert not live_shared_segments()
        with JoinSession(config=config) as session:
            first = session.join(rel_a, rel_b)
        assert alone.id_pairs() == first.id_pairs()
        for counter in (
            "segment_cache_hits", "segment_cache_misses",
            "shared_payload_bytes", "reused_payload_bytes",
            "approx_cache_hits", "approx_cache_misses",
            "approx_payload_bytes", "tile_tasks", "workers",
        ):
            assert getattr(alone, counter) == getattr(first, counter), counter
        assert alone.segment_cache_misses == 2
        assert alone.segment_cache_hits == 0

    def test_sessionless_self_join_ships_its_fingerprint_once(
        self, monkeypatch
    ):
        rel_a, _ = random_relation_pair(17)
        shipped = []
        original = SharedRelationSegment.__init__

        def spy(self, relation):
            original(self, relation)
            shipped.append(self.nbytes)

        monkeypatch.setattr(SharedRelationSegment, "__init__", spy)
        config = _config()
        result = parallel_partitioned_join(rel_a, rel_a, config=config)
        assert len(shipped) == 1
        assert result.segment_cache_misses == 1
        assert result.segment_cache_hits == 1
        assert result.shared_payload_bytes == shipped[0]
        kinds = len(config.approximation_kinds())
        assert result.approx_cache_misses == kinds
        assert result.approx_cache_hits == kinds
        assert sorted(result.id_pairs()) == _plain_sorted(rel_a, rel_a)
        assert not live_shared_segments()

    def test_sessionless_join_shuts_its_pool_down(self):
        rel_a, rel_b = random_relation_pair(18)
        before = set(multiprocessing.active_children())
        result = parallel_partitioned_join(
            rel_a, rel_b, config=_config(workers=2)
        )
        assert result.tile_tasks >= 2  # ran on a pool, not in-process
        assert set(multiprocessing.active_children()) <= before
        assert not live_shared_segments()

    def test_plan_handle_is_the_private_session(self):
        rel_a, rel_b = random_relation_pair(19)
        tasks, partitions, session = plan_columnar_tile_tasks(
            rel_a, rel_b, (3, 3), _config()
        )
        try:
            assert isinstance(session, JoinSession)
            assert not session.closed
            assert session.cached_relations == 2
            assert len(live_shared_segments()) >= 2
            assert tasks and len(partitions) == 9
        finally:
            session.close()
        assert session.closed
        assert session.cached_relations == 0
        assert not live_shared_segments()
        session.close()  # idempotent

    def test_plan_failure_closes_the_private_session(self, monkeypatch):
        def broken_plan(*args):
            raise RuntimeError("planner failed")

        monkeypatch.setattr(parallel_exec, "_partition_plan", broken_plan)
        rel_a, rel_b = random_relation_pair(20)
        with pytest.raises(RuntimeError, match="planner failed"):
            plan_columnar_tile_tasks(rel_a, rel_b, (3, 3), _config())
        assert not live_shared_segments()


def _touch_then_sleep(path, value):
    with open(path, "w"):
        pass
    time.sleep(0.4)
    return value


class TestPoolResize:
    def test_resize_waits_for_inflight_futures(self, tmp_path):
        """``pool()`` rebuilds must drain old workers, not race them.

        With the old ``shutdown(wait=False)`` the resize returned while
        the submitted task was still sleeping in the old pool, so the
        future below was not done — and any segment unlink following
        the resize could race the old worker's live mapping.
        """
        started = tmp_path / "started"
        with JoinSession(config=JoinConfig(workers=2)) as session:
            future = session.pool(2).submit(
                _touch_then_sleep, str(started), 42
            )
            deadline = time.monotonic() + 10.0
            while not started.exists():
                assert time.monotonic() < deadline, "worker never started"
                time.sleep(0.005)
            session.pool(4)  # resize: discards and replaces the pool
            assert future.done()
            assert future.result() == 42

    def test_resize_mid_session_keeps_joins_correct(self):
        rel_a, rel_b = random_relation_pair(12)
        with JoinSession(config=_config(workers=2)) as session:
            first = session.join(rel_a, rel_b)
            resized = session.join(rel_a, rel_b, workers=4)
            assert resized.id_pairs() == first.id_pairs()
            assert session.pools_created == 2
            # The resize reused both cached segments: no re-shipping.
            assert resized.segment_cache_hits == 2
            assert resized.segment_cache_misses == 0
        assert not live_shared_segments()
