"""The asyncio join service: many concurrent clients, few sessions.

:class:`JoinService` is the concurrent front-end over the serving
runtime: it multiplexes any number of in-flight join/window/kNN
requests onto a small pool of :class:`~repro.core.session.JoinSession`
objects (each with its warm worker pool and fingerprint-keyed segment
cache), adding the three things a long-lived query service needs on
top of fast joins:

* a **result cache** — completed responses keyed by
  :meth:`~repro.service.api.JoinRequest.cache_key` (both relations'
  content fingerprints + the canonicalized
  :class:`~repro.core.join.JoinConfig`), LRU-bounded by entry count.
  Layered *on top of* the session segment cache: a segment hit skips
  re-shipping geometry, a result hit skips the join entirely.
* **request coalescing** — a request whose key matches an execution
  already in flight never executes; it awaits the same outcome, so k
  identical concurrent requests cost exactly one join
  (``telemetry.coalesced_requests`` counts the riders).
* **admission control / backpressure** — at most ``max_pending``
  distinct executions may be queued or running; past that,
  :meth:`submit` raises :class:`~repro.service.api.ServiceOverloadedError`
  (the 429-style signal) without touching in-flight work.  A
  per-request timeout abandons the *wait*, never the execution, so
  coalesced waiters and the cache still get the response.

Execution happens on a thread pool of exactly ``sessions`` workers,
each join checking one session out of a queue and returning it after —
a session therefore never runs two joins at once (its lock enforces
this independently), and process-level parallelism stays where it
belongs, inside each session's worker pool.

Responses are **byte-identical to serial joins**: execution goes
through :func:`~repro.core.parallel_exec.parallel_partitioned_join`,
whose output is proven identical to the serial partitioned join across
worker counts —
``tests/test_service.py`` is the concurrent differential suite.
"""

from __future__ import annotations

import asyncio
import queue
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..core.join import JoinConfig
from ..core.session import JoinSession
from ..core.window import WindowQueryProcessor, WindowQueryStats
from ..datasets.store import RelationStore
from ..index.knn import knn_query, validate_k
from .api import (
    BadRequestError,
    JoinRequest,
    JoinResponse,
    KnnRequest,
    KnnResponse,
    ServiceClosedError,
    ServiceOverloadedError,
    ServiceTimeoutError,
    WindowRequest,
    WindowResponse,
    freeze_stats,
)


@dataclass
class ServiceTelemetry:
    """Cumulative service counters (snapshot with :meth:`to_dict`)."""

    #: requests accepted by :meth:`JoinService.submit` (any outcome).
    requests: int = 0
    #: responses served straight from the result cache.
    result_cache_hits: int = 0
    #: requests that had to execute (or join an in-flight execution).
    result_cache_misses: int = 0
    #: requests that rode an identical in-flight execution.
    coalesced_requests: int = 0
    #: executions actually dispatched to a session.
    executed_requests: int = 0
    #: requests refused by admission control (bounded queue full).
    rejected_requests: int = 0
    #: waits abandoned by the per-request timeout.
    timed_out_requests: int = 0
    #: executions that raised.
    failed_requests: int = 0
    #: results dropped from the result cache by the LRU entry bound.
    result_cache_evictions: int = 0
    #: largest number of simultaneously pending executions seen.
    peak_queue_depth: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "requests": self.requests,
            "result_cache_hits": self.result_cache_hits,
            "result_cache_misses": self.result_cache_misses,
            "coalesced_requests": self.coalesced_requests,
            "executed_requests": self.executed_requests,
            "rejected_requests": self.rejected_requests,
            "timed_out_requests": self.timed_out_requests,
            "failed_requests": self.failed_requests,
            "result_cache_evictions": self.result_cache_evictions,
            "peak_queue_depth": self.peak_queue_depth,
        }


class SessionPool:
    """A checkout queue of :class:`JoinSession` objects.

    Sessions are created eagerly (so the first burst of traffic pays
    no per-request session setup beyond its own pool fork) and closed
    on :meth:`close`.  Checkout blocks until a session is free — with
    as many executor threads as sessions, at most briefly.
    """

    def __init__(self, size: int, config: Optional[JoinConfig] = None,
                 max_cache_bytes: Optional[int] = None):
        if size < 1:
            raise ValueError(f"session pool size must be >= 1, got {size}")
        self.size = size
        self._sessions: List[JoinSession] = [
            JoinSession(config=config, max_cache_bytes=max_cache_bytes)
            for _ in range(size)
        ]
        self._free: "queue.Queue[JoinSession]" = queue.Queue()
        for session in self._sessions:
            self._free.put(session)

    def checkout(self) -> JoinSession:
        return self._free.get()

    def checkin(self, session: JoinSession) -> None:
        self._free.put(session)

    def close(self) -> None:
        for session in self._sessions:
            session.close()

    @property
    def sessions(self) -> Tuple[JoinSession, ...]:
        return tuple(self._sessions)


class JoinService:
    """Async front-end multiplexing requests onto a session pool.

    See the module docstring for the model.  All coordination state
    (result cache, in-flight table, admission counters) is touched only
    on the event loop thread; executions run on the thread pool and
    report back via ``call_soon_threadsafe``-scheduled futures, so no
    extra locking is needed on the coordination path.

    ``execute_hook`` is a test seam: when set, it is called with the
    request *inside the executor thread* immediately before execution —
    the differential suite uses it to gate executions so coalescing and
    backpressure can be asserted deterministically.
    """

    def __init__(
        self,
        config: Optional[JoinConfig] = None,
        sessions: int = 2,
        max_pending: int = 32,
        result_cache_entries: int = 256,
        request_timeout: Optional[float] = None,
        max_cache_bytes: Optional[int] = None,
        store_dir: Optional[str] = None,
        execute_hook: Optional[Callable[[object], None]] = None,
    ):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if result_cache_entries < 0:
            raise ValueError(
                f"result_cache_entries must be >= 0, got {result_cache_entries}"
            )
        self.config = config or JoinConfig()
        self.max_pending = max_pending
        self.result_cache_entries = result_cache_entries
        self.request_timeout = request_timeout
        #: persistent relation store backing ``store:<fingerprint>``
        #: relation references and session warm-up (None = no store).
        self.store: Optional[RelationStore] = (
            RelationStore(store_dir) if store_dir is not None else None
        )
        self.telemetry = ServiceTelemetry()
        self._pool = SessionPool(
            sessions, config=self.config, max_cache_bytes=max_cache_bytes
        )
        # Lazy import keeps concurrent.futures out of the hot path
        # modules; thread count == session count so every running
        # execution owns a session without waiting.
        from concurrent.futures import ThreadPoolExecutor

        self._executor = ThreadPoolExecutor(
            max_workers=sessions, thread_name_prefix="join-service"
        )
        self._execute_hook = execute_hook
        #: cache_key -> response, least recently used first.
        self._results: "OrderedDict[Tuple, object]" = OrderedDict()
        #: cache_key -> future of the in-flight execution.
        self._inflight: Dict[Tuple, "asyncio.Future"] = {}
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    async def __aenter__(self) -> "JoinService":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.close()
        return False

    async def close(self) -> None:
        """Drain in-flight executions, then shut sessions down."""
        if self._closed:
            return
        self._closed = True
        pending = [
            future for future in self._inflight.values() if not future.done()
        ]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self._inflight = {}
        self._results = OrderedDict()
        self._executor.shutdown(wait=True)
        self._pool.close()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def queue_depth(self) -> int:
        """Distinct executions currently queued or running."""
        return len(self._inflight)

    @property
    def cached_results(self) -> int:
        return len(self._results)

    @property
    def sessions(self) -> Tuple[JoinSession, ...]:
        return self._pool.sessions

    # -- persistent store ---------------------------------------------------

    def warm_sessions(
        self, fingerprints: Optional[List[str]] = None
    ) -> Dict[str, object]:
        """Warm every pooled session's segment cache from the store.

        The restart-recovery hook: after a cold start, one call streams
        the stored relations' ring pages into each session's shared
        segments (:meth:`JoinSession.warm_from_store`), so the first
        join of any stored relation is already a segment-cache hit.
        Synchronous and blocking — call it before serving traffic, or
        through the server's ``warm`` op (which runs it off the event
        loop).  ``fingerprints`` defaults to the whole store.

        Raises :class:`BadRequestError` when no store is configured and
        propagates store validation errors
        (:class:`~repro.datasets.store.StoreError`) untouched — a
        corrupted store warms nothing.
        """
        if self.store is None:
            raise BadRequestError(
                "no relation store configured (service store_dir / "
                "serve --store-dir)"
            )
        loaded = cached = 0
        warmed: List[str] = []
        for session in self._pool.sessions:
            report = session.warm_from_store(self.store, fingerprints)
            loaded += sum(1 for v in report.values() if v == "loaded")
            cached += sum(1 for v in report.values() if v == "cached")
            warmed = sorted(report)
        return {
            "sessions": self._pool.size,
            "segments_loaded": loaded,
            "segments_cached": cached,
            "fingerprints": warmed,
        }

    def session_stats(self) -> Dict[str, int]:
        """Pool-wide session telemetry: the sum of every session's
        :meth:`JoinSession.stats` (segment cache hits/misses/evictions,
        store loads and bytes, pools forked, live cached segments)."""
        totals: Dict[str, int] = {}
        for session in self._pool.sessions:
            for key, value in session.stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    # -- the front door -----------------------------------------------------

    async def submit(self, request, timeout: Optional[float] = None):
        """One request, one awaitable response.

        Resolution order: result cache, then an identical in-flight
        execution (coalescing), then admission control and a fresh
        execution on the session pool.  Raises
        :class:`ServiceOverloadedError` when ``max_pending`` distinct
        executions are already pending, :class:`ServiceTimeoutError`
        when the effective timeout (``timeout`` or the service default)
        elapses first — the execution itself always runs to completion
        so coalesced waiters and the cache still get the response.
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        self.telemetry.requests += 1
        key = request.cache_key()

        cached = self._cache_get(key)
        if cached is not None:
            self.telemetry.result_cache_hits += 1
            return cached
        self.telemetry.result_cache_misses += 1

        existing = self._inflight.get(key)
        if existing is not None:
            self.telemetry.coalesced_requests += 1
            return await self._await_outcome(existing, timeout)

        if len(self._inflight) >= self.max_pending:
            self.telemetry.rejected_requests += 1
            raise ServiceOverloadedError(
                f"queue full: {len(self._inflight)} executions pending "
                f"(max_pending={self.max_pending}); retry later"
            )

        loop = asyncio.get_running_loop()
        outcome: "asyncio.Future" = loop.create_future()
        self._inflight[key] = outcome
        self.telemetry.peak_queue_depth = max(
            self.telemetry.peak_queue_depth, len(self._inflight)
        )
        self.telemetry.executed_requests += 1
        asyncio.ensure_future(self._drive(key, request, outcome))
        return await self._await_outcome(outcome, timeout)

    async def _await_outcome(self, outcome: "asyncio.Future",
                             timeout: Optional[float]):
        effective = self.request_timeout if timeout is None else timeout
        # shield(): a timed-out waiter must not cancel the shared
        # execution other waiters (and the result cache) depend on.
        if effective is None:
            return await asyncio.shield(outcome)
        try:
            return await asyncio.wait_for(asyncio.shield(outcome), effective)
        except asyncio.TimeoutError:
            self.telemetry.timed_out_requests += 1
            raise ServiceTimeoutError(
                f"request did not finish within {effective}s "
                "(the execution keeps running for coalesced waiters)"
            ) from None

    async def _drive(self, key: Tuple, request, outcome: "asyncio.Future"):
        """Run one execution on the thread pool and publish its result."""
        loop = asyncio.get_running_loop()
        try:
            response = await loop.run_in_executor(
                self._executor, self._execute, request
            )
        except BaseException as exc:  # noqa: BLE001 — published, not lost
            self.telemetry.failed_requests += 1
            self._inflight.pop(key, None)
            if not outcome.done():
                outcome.set_exception(exc)
            return
        # Publish to the cache *before* dropping the in-flight entry so
        # a concurrent duplicate always finds one of the two.
        self._cache_put(key, response)
        self._inflight.pop(key, None)
        if not outcome.done():
            outcome.set_result(response)

    # -- result cache -------------------------------------------------------

    def _cache_get(self, key: Tuple):
        response = self._results.get(key)
        if response is not None:
            self._results.move_to_end(key)
        return response

    def _cache_put(self, key: Tuple, response) -> None:
        if self.result_cache_entries == 0:
            return
        self._results[key] = response
        self._results.move_to_end(key)
        while len(self._results) > self.result_cache_entries:
            self._results.popitem(last=False)
            self.telemetry.result_cache_evictions += 1

    # -- executor-side execution --------------------------------------------

    def _execute(self, request):
        """Resolve one request on a checked-out session (worker thread)."""
        if self._execute_hook is not None:
            self._execute_hook(request)
        if isinstance(request, JoinRequest):
            return self._execute_join(request)
        if isinstance(request, WindowRequest):
            return self._execute_window(request)
        if isinstance(request, KnnRequest):
            return self._execute_knn(request)
        raise BadRequestError(f"unknown request type {type(request).__name__}")

    def _execute_join(self, request: JoinRequest) -> JoinResponse:
        config = request.config
        if config.session is not None:
            config = replace(config, session=None)
        session = self._pool.checkout()
        try:
            result = session.join(
                request.relation_a, request.relation_b, config=config
            )
        finally:
            self._pool.checkin(session)
        return JoinResponse(
            op="join",
            id_pairs=tuple(result.id_pairs()),
            stats=freeze_stats(result.stats),
        )

    def _execute_window(self, request: WindowRequest) -> WindowResponse:
        stats = WindowQueryStats()
        processor = WindowQueryProcessor(request.relation)
        results = processor.window_query(request.window, stats)
        return WindowResponse(
            op="window",
            oids=tuple(obj.oid for obj in results),
            candidates=stats.candidates,
            filter_hits=stats.filter_hits,
            exact_tests=stats.exact_tests,
        )

    def _execute_knn(self, request: KnnRequest) -> KnnResponse:
        k = validate_k(request.k)
        tree = request.relation.rtree()
        neighbours = knn_query(tree, request.point, k)
        return KnnResponse(
            op="knn",
            neighbours=tuple(
                (obj.oid, float(dist)) for dist, obj in neighbours
            ),
        )
