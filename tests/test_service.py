"""Concurrent differential suite for the asyncio join service.

The service's contract is that concurrency is *invisible* in the
responses: whatever mix of clients, duplicate requests, coalescing,
caching, and timeouts is in flight, every join response is
byte-identical — pairs in serial order, every Figure-1 counter — to a
serial :func:`~repro.core.parallel_exec.parallel_partitioned_join` of
the same relations and canonical config.  The tests here drive the
service through the front door (:meth:`JoinService.submit`) with real
concurrency and compare against that serial oracle; the deterministic
coalescing/backpressure tests use the ``execute_hook`` seam to gate
executions so counters can be asserted exactly.
"""

import asyncio
import threading
from dataclasses import fields, replace

import pytest

from helpers import random_relation_pair
from repro.core.join import JoinConfig
from repro.core.parallel_exec import (
    live_shared_segments,
    parallel_partitioned_join,
)
from repro.core.window import WindowQueryProcessor, WindowQueryStats
from repro.geometry.rectangle import Rect
from repro.index.knn import knn_query
from repro.service.api import (
    JoinRequest,
    KnnRequest,
    ServiceClosedError,
    ServiceOverloadedError,
    ServiceTimeoutError,
    WindowRequest,
    stats_to_dict,
)
from repro.service.core import JoinService

pytestmark = pytest.mark.parallel


#: result-affecting variety: predicates, engines, refinement batch
#: sizes, partitioners, grids.
CONFIGS = [
    JoinConfig(),
    JoinConfig(predicate="within"),
    JoinConfig(engine="streaming"),
    JoinConfig(engine="streaming", exact_batch=1),
    JoinConfig(engine="batched", exact_batch=7, grid=(2, 3)),
    JoinConfig(partitioner="rtree"),
    JoinConfig(predicate="distance", epsilon=0.05),
    JoinConfig(predicate="knn", k=2),
]

#: execution-only variety: must coalesce/cache with the plain default.
EXECUTION_VARIANTS = [
    JoinConfig(workers=2),
    JoinConfig(kernels="numpy", workers=2),
    JoinConfig(kernels="c"),
]


def _relations(seed):
    return random_relation_pair(seed, n_objects=28)


def _oracle(rel_a, rel_b, config):
    """The serial ground truth for one request."""
    serial = replace(config, workers=1)
    result = parallel_partitioned_join(rel_a, rel_b, config=serial)
    return tuple(result.id_pairs()), stats_to_dict(result.stats)


def run(coro):
    return asyncio.run(coro)


class TestConcurrentDifferential:
    def test_mixed_concurrent_clients_match_serial_oracle(self):
        """Many concurrent clients, mixed configs, duplicates included:
        every response byte-identical to the serial oracle."""
        pair_one = _relations(21)
        pair_two = _relations(22)
        requests = []
        for rel_a, rel_b in (pair_one, pair_two):
            for config in CONFIGS:
                requests.append(JoinRequest(rel_a, rel_b, config))
        # Duplicates and execution-only variants ride along.
        rel_a, rel_b = pair_one
        requests.append(JoinRequest(rel_a, rel_b, CONFIGS[0]))
        requests.append(JoinRequest(rel_a, rel_b, CONFIGS[2]))
        for config in EXECUTION_VARIANTS:
            requests.append(JoinRequest(rel_a, rel_b, config))

        async def drive():
            async with JoinService(sessions=3) as service:
                responses = await asyncio.gather(
                    *(service.submit(request) for request in requests)
                )
                return responses, service.telemetry

        responses, telemetry = run(drive())

        for request, response in zip(requests, responses):
            pairs, stats = _oracle(
                request.relation_a, request.relation_b, request.config
            )
            assert response.id_pairs == pairs
            assert response.stats_dict() == stats

        distinct = len({request.cache_key() for request in requests})
        assert telemetry.requests == len(requests)
        assert telemetry.executed_requests == distinct
        assert (
            telemetry.result_cache_hits
            + telemetry.coalesced_requests
            + telemetry.executed_requests
        ) == len(requests)
        assert telemetry.failed_requests == 0
        assert telemetry.rejected_requests == 0
        assert not live_shared_segments()

    def test_sequential_duplicates_hit_the_result_cache(self):
        rel_a, rel_b = _relations(23)

        async def drive():
            async with JoinService(sessions=1) as service:
                first = await service.submit(JoinRequest(rel_a, rel_b))
                second = await service.submit(JoinRequest(rel_a, rel_b))
                # Execution-only fields share the cache key.
                third = await service.submit(
                    JoinRequest(rel_a, rel_b, JoinConfig(workers=2))
                )
                return first, second, third, service.telemetry

        first, second, third, telemetry = run(drive())
        assert second is first
        assert third is first
        assert telemetry.executed_requests == 1
        assert telemetry.result_cache_hits == 2

    def test_result_cache_lru_eviction_and_reexecution(self):
        rel_a, rel_b = _relations(24)

        async def drive():
            async with JoinService(
                sessions=1, result_cache_entries=1
            ) as service:
                first = await service.submit(JoinRequest(rel_a, rel_b))
                await service.submit(JoinRequest(rel_b, rel_a))  # evicts
                again = await service.submit(JoinRequest(rel_a, rel_b))
                return first, again, service.telemetry

        first, again, telemetry = run(drive())
        assert telemetry.result_cache_evictions >= 1
        assert telemetry.executed_requests == 3
        assert again is not first
        # Determinism across executions: value-identical responses.
        assert again == first

    def test_zero_entry_cache_disables_caching(self):
        rel_a, rel_b = _relations(25)

        async def drive():
            async with JoinService(
                sessions=1, result_cache_entries=0
            ) as service:
                first = await service.submit(JoinRequest(rel_a, rel_b))
                second = await service.submit(JoinRequest(rel_a, rel_b))
                return first, second, service.telemetry

        first, second, telemetry = run(drive())
        assert telemetry.executed_requests == 2
        assert telemetry.result_cache_hits == 0
        assert second == first


class TestCoalescing:
    def test_identical_inflight_requests_share_one_execution(self):
        rel_a, rel_b = _relations(26)
        gate = threading.Event()
        started = threading.Event()
        executions = []

        def hook(request):
            executions.append(request)
            started.set()
            assert gate.wait(30)

        async def drive():
            async with JoinService(
                sessions=1, execute_hook=hook
            ) as service:
                tasks = [
                    asyncio.create_task(
                        service.submit(JoinRequest(rel_a, rel_b, config))
                    )
                    for config in (
                        JoinConfig(),
                        JoinConfig(workers=2),  # same cache key
                        JoinConfig(),
                    )
                ]
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, started.wait)
                assert service.queue_depth == 1
                gate.set()
                responses = await asyncio.gather(*tasks)
                return responses, service.telemetry

        responses, telemetry = run(drive())
        assert len(executions) == 1
        assert all(response is responses[0] for response in responses)
        assert telemetry.coalesced_requests == 2
        assert telemetry.executed_requests == 1
        assert telemetry.requests == 3

    def test_coalesced_response_matches_oracle(self):
        rel_a, rel_b = _relations(27)
        pairs, stats = _oracle(rel_a, rel_b, JoinConfig())

        async def drive():
            async with JoinService(sessions=2) as service:
                responses = await asyncio.gather(
                    *(
                        service.submit(JoinRequest(rel_a, rel_b))
                        for _ in range(6)
                    )
                )
                return responses, service.telemetry

        responses, telemetry = run(drive())
        for response in responses:
            assert response.id_pairs == pairs
            assert response.stats_dict() == stats
        # Six identical concurrent requests: exactly one execution.
        assert telemetry.executed_requests == 1


class TestBackpressure:
    def test_queue_full_rejects_distinct_request(self):
        rel_a, rel_b = _relations(28)
        gate = threading.Event()
        started = threading.Event()

        def hook(request):
            started.set()
            assert gate.wait(30)

        async def drive():
            async with JoinService(
                sessions=1, max_pending=1, execute_hook=hook
            ) as service:
                first = asyncio.create_task(
                    service.submit(JoinRequest(rel_a, rel_b))
                )
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, started.wait)
                assert service.queue_depth == 1
                # A *distinct* request is refused outright...
                with pytest.raises(ServiceOverloadedError):
                    await service.submit(JoinRequest(rel_b, rel_a))
                # ...but an identical one still coalesces: coalesced
                # waiters consume no queue slot.
                rider = asyncio.create_task(
                    service.submit(JoinRequest(rel_a, rel_b))
                )
                await asyncio.sleep(0)
                gate.set()
                first_response, rider_response = await asyncio.gather(
                    first, rider
                )
                return first_response, rider_response, service.telemetry

        first_response, rider_response, telemetry = run(drive())
        assert rider_response is first_response
        assert telemetry.rejected_requests == 1
        assert telemetry.coalesced_requests == 1
        assert telemetry.executed_requests == 1
        # The rejected request never reached a session.
        pairs, _ = _oracle(rel_a, rel_b, JoinConfig())
        assert first_response.id_pairs == pairs

    def test_queue_drains_and_accepts_again(self):
        rel_a, rel_b = _relations(29)

        async def drive():
            async with JoinService(sessions=1, max_pending=1) as service:
                await service.submit(JoinRequest(rel_a, rel_b))
                assert service.queue_depth == 0
                # Distinct request accepted now that the queue drained.
                response = await service.submit(JoinRequest(rel_b, rel_a))
                return response, service.telemetry

        response, telemetry = run(drive())
        assert telemetry.rejected_requests == 0
        assert telemetry.executed_requests == 2
        pairs, _ = _oracle(rel_b, rel_a, JoinConfig())
        assert response.id_pairs == pairs


class TestTimeout:
    def test_timeout_abandons_wait_not_execution(self):
        rel_a, rel_b = _relations(30)
        gate = threading.Event()

        def hook(request):
            assert gate.wait(30)

        async def drive():
            async with JoinService(
                sessions=1, request_timeout=0.05, execute_hook=hook
            ) as service:
                with pytest.raises(ServiceTimeoutError):
                    await service.submit(JoinRequest(rel_a, rel_b))
                assert service.telemetry.timed_out_requests == 1
                # The execution kept running; let it finish and land in
                # the result cache.
                gate.set()
                while service.queue_depth:
                    await asyncio.sleep(0.01)
                response = await service.submit(
                    JoinRequest(rel_a, rel_b), timeout=30.0
                )
                return response, service.telemetry

        response, telemetry = run(drive())
        # The post-timeout submit was served from the cache: the timed
        # -out execution still published its response.
        assert telemetry.executed_requests == 1
        assert telemetry.result_cache_hits == 1
        pairs, stats = _oracle(rel_a, rel_b, JoinConfig())
        assert response.id_pairs == pairs
        assert response.stats_dict() == stats

    def test_per_request_timeout_overrides_service_default(self):
        rel_a, rel_b = _relations(31)

        async def drive():
            async with JoinService(
                sessions=1, request_timeout=0.000001
            ) as service:
                # Generous per-request override beats the tiny default.
                return await service.submit(
                    JoinRequest(rel_a, rel_b), timeout=60.0
                )

        response = run(drive())
        pairs, _ = _oracle(rel_a, rel_b, JoinConfig())
        assert response.id_pairs == pairs


class TestLifecycleAndQueries:
    def test_closed_service_rejects_submissions(self):
        rel_a, rel_b = _relations(32)

        async def drive():
            service = JoinService(sessions=1)
            await service.close()
            assert service.closed
            with pytest.raises(ServiceClosedError):
                await service.submit(JoinRequest(rel_a, rel_b))
            await service.close()  # idempotent

        run(drive())
        assert not live_shared_segments()

    def test_close_drains_inflight_executions(self):
        rel_a, rel_b = _relations(33)

        async def drive():
            async with JoinService(sessions=2) as service:
                task = asyncio.create_task(
                    service.submit(JoinRequest(rel_a, rel_b))
                )
                await asyncio.sleep(0)
                # __aexit__ drains the in-flight execution; the waiter
                # still gets its response.
            return await task

        response = run(drive())
        pairs, _ = _oracle(rel_a, rel_b, JoinConfig())
        assert response.id_pairs == pairs
        assert not live_shared_segments()

    def test_window_request_matches_direct_query(self):
        rel_a, _ = _relations(34)
        window = Rect(0.0, 0.0, 400.0, 400.0)
        stats = WindowQueryStats()
        direct = WindowQueryProcessor(rel_a).window_query(window, stats)

        async def drive():
            async with JoinService(sessions=1) as service:
                first = await service.submit(WindowRequest(rel_a, window))
                second = await service.submit(WindowRequest(rel_a, window))
                return first, second, service.telemetry

        first, second, telemetry = run(drive())
        assert first.oids == tuple(obj.oid for obj in direct)
        assert first.candidates == stats.candidates
        assert first.filter_hits == stats.filter_hits
        assert first.exact_tests == stats.exact_tests
        assert second is first  # window responses cache too
        assert telemetry.result_cache_hits == 1

    def test_knn_request_matches_direct_query(self):
        rel_a, _ = _relations(35)
        point = (120.0, 140.0)
        tree = rel_a.build_rtree()
        direct = knn_query(tree, point, 4)

        async def drive():
            async with JoinService(sessions=1) as service:
                return await service.submit(KnnRequest(rel_a, point, 4))

        response = run(drive())
        assert response.neighbours == tuple(
            (rel_a.objects[row].oid, float(dist)) for dist, row in direct
        )

    def test_invalid_constructor_arguments(self):
        with pytest.raises(ValueError, match="max_pending"):
            JoinService(max_pending=0)
        with pytest.raises(ValueError, match="result_cache_entries"):
            JoinService(result_cache_entries=-1)
        with pytest.raises(ValueError, match="session pool size"):
            JoinService(sessions=0)


class TestConfigCanonicalization:
    def test_execution_only_fields_share_fingerprint(self):
        base = JoinConfig()
        for variant in EXECUTION_VARIANTS:
            assert variant.fingerprint() == base.fingerprint()
            assert variant.canonical_key() == base.canonical_key()

    def test_result_affecting_fields_change_fingerprint(self):
        base = JoinConfig()
        fingerprints = {base.fingerprint()}
        for variant in (
            JoinConfig(predicate="within"),
            JoinConfig(engine="streaming"),
            JoinConfig(exact_batch=1),
            JoinConfig(grid=(2, 2)),
            JoinConfig(partitioner="rtree"),
            JoinConfig(rtree_max_entries=8),
            JoinConfig(predicate="distance", epsilon=0.25),
            JoinConfig(predicate="distance", epsilon=0.5),
            JoinConfig(predicate="knn", k=3),
        ):
            fingerprint = variant.fingerprint()
            assert fingerprint != base.fingerprint()
            fingerprints.add(fingerprint)
        assert len(fingerprints) == 10  # all pairwise distinct

    def test_execution_only_fields_are_workers_and_kernels(self):
        """Only the worker count and the kernel backend leave the
        canonical key; a config carries no session."""
        from repro.core.join import EXECUTION_ONLY_FIELDS

        assert EXECUTION_ONLY_FIELDS == ("workers", "kernels")
        variant = JoinConfig(workers=3, kernels="c")
        assert variant.canonical_key() == JoinConfig().canonical_key()
        assert "session" not in {f.name for f in fields(JoinConfig)}

    def test_kernels_field_is_execution_only(self):
        """The kernel backend can never split the result cache: configs
        differing only in ``kernels`` share one canonical fingerprint."""
        from repro.core.join import EXECUTION_ONLY_FIELDS

        assert "kernels" in EXECUTION_ONLY_FIELDS
        base = JoinConfig(kernels="numpy")
        for backend in ("auto", "c"):
            variant = JoinConfig(kernels=backend)
            assert variant.canonical_key() == base.canonical_key()
            assert variant.fingerprint() == base.fingerprint()
        # ...while the proximity parameters (result-affecting) are not
        # stripped even though they arrived in the same change.
        assert JoinConfig(epsilon=0.1).fingerprint() != base.fingerprint()
        assert JoinConfig(k=4).fingerprint() != base.fingerprint()
