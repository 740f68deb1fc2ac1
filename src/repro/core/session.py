"""Join sessions: a serving-oriented runtime for repeated parallel joins.

The paper's §6 outlook motivates parallel multi-step joins; the
one-shot executor in :mod:`repro.core.parallel_exec` realises it, but
pays the full setup on every call — a fresh
:class:`~concurrent.futures.ProcessPoolExecutor` is forked, each
relation's ring columns are copied into fresh shared-memory segments,
and everything is torn down again when the join returns.  Serving
workloads (many joins against a slowly-changing set of relations) are
session-oriented: the setup should be paid once and amortised.

:class:`JoinSession` is that context.  It owns

* a **persistent worker pool**, created lazily on the first join that
  needs one and reused by every following join at the same worker
  count (a join with a different count transparently rebuilds it, and
  a pool broken by a dead worker process is replaced on next use);
* a **shared-segment cache** keyed by relation *fingerprint*
  (:attr:`repro.datasets.columnar.ColumnarRelation.fingerprint`, a
  content digest of the packed ring columns): the first join of a
  relation copies its geometry into a
  :class:`~repro.core.parallel_exec.SharedRelationSegment`, and every
  later join of the same content ships **zero redundant bytes** — the
  tile tasks simply reference the cached segment.  A relation whose
  object list changed gets a fresh fingerprint (and so a fresh
  segment); the stale segment stays cached until evicted.
* **approximation blocks** beside each cached segment, keyed by
  ``(fingerprint, kind)``: when a join first reads a kind
  (:meth:`JoinConfig.approximation_kinds`), the lease takes
  ``relation.columnar().approx(kind)`` — memory, then store pages,
  then one build that is published — and places its stored columns in
  shared memory; every later join of that content finds the block.
  Blocks are owned by their segment: leased, counted into the byte
  bound, evicted and unlinked with it, and
  :meth:`JoinSession.warm_from_store` streams stored sidecar pages into
  them beside the ring pages.  They have their own counters
  (``approx_cache_hits`` / ``approx_cache_misses`` /
  ``approx_store_loads`` / ``approx_store_load_bytes`` /
  ``cached_approx_bytes`` in :meth:`JoinSession.stats`); the
  ``segment_cache_*`` and ``store_load*`` counters keep counting ring
  payloads only.

The cache is **byte-bounded LRU** when ``max_cache_bytes`` is set:
whenever the cached bytes exceed the bound, least-recently-joined
segments are unlinked first (``segment_cache_evictions`` counts them)
until the cache fits.  Unbounded sessions (the default) keep the old
keep-everything behaviour plus manual :meth:`evict`.  Segments of the
join *currently running* are never evicted: the executor takes a
:class:`SegmentLease` over both relations, which pins their
fingerprints until the join's outcomes are merged — without the pin,
shipping a large second relation could unlink the first relation's
segment while tile tasks still reference it.

Lifecycle is explicit: use the session as a context manager (or call
:meth:`close`), after which the pool is shut down and every cached
segment is unlinked — ``live_shared_segments()`` is empty again, the
same leak-free guarantee the one-shot path has
(``tests/test_parallel_exec_shm.py`` and the autouse leak fixture in
``tests/conftest.py`` enforce it).

Results are untouched by any of this: a warm session join is
byte-identical — pairs, order, and merged
:class:`~repro.core.stats.MultiStepStats` — to the serial partitioned
join (``tests/test_session_equivalence.py`` is the
differential suite).

Usage::

    with JoinSession(config=JoinConfig(workers=4)) as session:
        first = session.join(rel_a, rel_b)    # forks pool, ships segments
        warm = session.join(rel_a, rel_b)     # reuses both: 0 new bytes
        other = session.join(rel_a, rel_c)    # ships only rel_c

    python -m repro join-batch a.wkt b.wkt --repeat 5 --workers 4

``benchmarks/bench_session.py`` measures the first-join vs warm-join
latency (report: ``benchmarks/reports/session.txt``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..datasets.relations import SpatialRelation
from ..geometry.kernels import warm_up
from .join import JoinConfig
from .parallel_exec import (
    ParallelPartitionedJoinResult,
    SegmentLayout,
    SharedColumns,
    SharedRelationSegment,
    _pool_context,
    _warm_worker_kernels,
    parallel_partitioned_join,
)


class SegmentLease:
    """Pins one join's shared segments in the session cache.

    Acquiring the lease resolves (or creates) the segment of every
    relation — and beside it the approximation blocks of the kinds the
    join reads — and marks its fingerprint as *leased*: LRU eviction skips
    leased fingerprints, so a bounded cache can never unlink a segment
    the in-flight join's tile tasks still reference.  :meth:`release`
    unpins and then re-applies the byte bound, so the post-join
    invariant ``cached_segment_bytes <= max_cache_bytes`` holds (unless
    the just-joined segments alone exceed the bound, which no eviction
    policy could fix).
    """

    def __init__(self, session: "JoinSession",
                 relations: Sequence[SpatialRelation],
                 kinds: Sequence[str] = ()):
        self._session = session
        self._fingerprints: List[str] = []
        #: the relations' segments, in ``relations`` order.
        self.segments: List[SharedRelationSegment] = []
        #: per segment: True when served from the cache (no new bytes).
        self.reused: List[bool] = []
        #: approximation blocks of ``kinds`` found beside the segments /
        #: newly placed there by this lease, and the new ones' bytes.
        self.approx_hits = self.approx_misses = self.approx_bytes = 0
        try:
            with session._lock:
                for relation in relations:
                    fingerprint = relation.columnar().fingerprint
                    segment, reused = session._acquire(relation, fingerprint)
                    session._leased[fingerprint] = (
                        session._leased.get(fingerprint, 0) + 1
                    )
                    self._fingerprints.append(fingerprint)
                    self.segments.append(segment)
                    self.reused.append(reused)
                    hits, misses, shipped = segment.ensure_approx(
                        relation, kinds
                    )
                    self.approx_hits += hits
                    self.approx_misses += misses
                    self.approx_bytes += shipped
                session.approx_cache_hits += self.approx_hits
                session.approx_cache_misses += self.approx_misses
                session._evict_to_bound()
        except BaseException:
            self.release()
            raise

    def release(self) -> None:
        """Unpin the leased segments and re-apply the cache bound."""
        with self._session._lock:
            fingerprints, self._fingerprints = self._fingerprints, []
            leased = self._session._leased
            for fingerprint in fingerprints:
                count = leased.get(fingerprint, 0) - 1
                if count <= 0:
                    leased.pop(fingerprint, None)
                else:
                    leased[fingerprint] = count
            if fingerprints and not self._session.closed:
                self._session._evict_to_bound()


def _stream_page(job: Tuple[object, SharedColumns, int, int]) -> None:
    """Read one store page file into its slice of a shared segment.

    One unit of the warm loader's I/O parallelism: ``readinto`` drops
    the GIL while the kernel fills the shared-memory slice, so a small
    thread pool genuinely overlaps page reads.  The exported buffer
    view is released before returning — segment teardown must never
    trip over a dangling export (``BufferError``).
    """
    from ..datasets.store import StoreCorruptionError

    path, segment, offset, nbytes = job
    view = memoryview(segment.buf)[offset:offset + nbytes]
    try:
        with open(path, "rb", buffering=0) as page:
            read = page.readinto(view)
        if read != nbytes:
            raise StoreCorruptionError(
                f"short read from store page {path}: got {read} of "
                f"{nbytes} bytes (page changed after validation?)"
            )
    finally:
        view.release()


def _pages_layout(pages) -> SegmentLayout:
    """The segment layout that holds the given store pages back to back.

    Derived from the page descriptors the store validated, so page
    extents and segment slices agree by construction.
    """
    return SegmentLayout(
        tuple((page.column, page.dtype, page.shape) for page in pages)
    )


def _stream_jobs(
    pages, target: SharedColumns
) -> List[Tuple[object, SharedColumns, int, int]]:
    """One :func:`_stream_page` job per page of a freshly allocated segment."""
    return [
        (page.path, target, offset, nbytes)
        for page, (_, offset, nbytes) in zip(
            pages, target.spec.layout.extents()
        )
    ]


class JoinSession:
    """Long-lived context amortising parallel-join setup across joins.

    See the module docstring for the model.  All state lives in the
    creating process; worker processes stay stateless.  Cache, pool and
    telemetry mutation is guarded by a reentrant lock and :meth:`join`
    holds it end-to-end, so a session can be handed between threads (the
    :class:`repro.service.JoinService` executor does) and still runs
    exactly one join at a time — concurrency comes from a *pool* of
    sessions, not from sharing one.
    """

    def __init__(
        self,
        config: Optional[JoinConfig] = None,
        workers: Optional[int] = None,
        max_cache_bytes: Optional[int] = None,
    ):
        config = config or JoinConfig()
        if workers is not None:
            config = replace(config, workers=workers)
        if config.session is not None:
            # A session's default config must not point at another
            # session (or itself) — joins run inside *this* one.
            config = replace(config, session=None)
        if max_cache_bytes is not None and max_cache_bytes < 0:
            raise ValueError(
                f"max_cache_bytes must be >= 0, got {max_cache_bytes}"
            )
        self.config = config
        #: byte bound of the segment cache (None = unbounded).
        self.max_cache_bytes = max_cache_bytes
        #: serialises joins and cache/pool mutation across threads: a
        #: session runs **one join at a time** — concurrency comes from
        #: using several sessions (see :mod:`repro.service`).  Reentrant
        #: because the executor calls back into :meth:`pool` /
        #: :meth:`lease_segments` while :meth:`join` holds the lock.
        self._lock = threading.RLock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0
        self._pool_kernels: Optional[str] = None
        #: fingerprint -> segment, least-recently-joined first.
        self._segments: "OrderedDict[str, SharedRelationSegment]" = (
            OrderedDict()
        )
        #: fingerprints pinned by in-flight joins (lease reference counts).
        self._leased: Dict[str, int] = {}
        self._closed = False
        #: telemetry, cumulative over the session's lifetime.
        self.joins_run = 0
        self.segment_cache_hits = 0
        self.segment_cache_misses = 0
        self.segment_cache_evictions = 0
        self.pools_created = 0
        #: segments populated from persistent-store pages
        #: (:meth:`warm_from_store`) and the bytes they streamed in.
        self.store_loads = 0
        self.store_load_bytes = 0
        #: approximation blocks, counted apart from the ring segments
        #: above: found beside a leased segment / placed there by a
        #: join, and streamed in from store sidecars.
        self.approx_cache_hits = 0
        self.approx_cache_misses = 0
        self.approx_store_loads = 0
        self.approx_store_load_bytes = 0

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "JoinSession":
        self._ensure_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Shut the pool down and unlink every cached segment (idempotent)."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
            self._pool_workers = 0
            self._pool_kernels = None
            if pool is not None:
                pool.shutdown(wait=True)
            segments, self._segments = self._segments, OrderedDict()
            self._leased = {}
            for segment in segments.values():
                segment.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "JoinSession is closed; create a new session to keep joining"
            )

    # -- joins --------------------------------------------------------------

    def join(
        self,
        relation_a: SpatialRelation,
        relation_b: SpatialRelation,
        grid: Optional[Tuple[int, int]] = None,
        config: Optional[JoinConfig] = None,
        workers: Optional[int] = None,
    ) -> ParallelPartitionedJoinResult:
        """One partitioned join inside this session.

        Defaults come from the session's config; ``grid``, ``config``
        and ``workers`` override per call.  Identical results to the
        sessionless :func:`~repro.core.parallel_exec.parallel_partitioned_join`
        — only the resource lifecycle differs.

        Thread-safe: the session lock is held for the whole join, so a
        session handed between threads (the :mod:`repro.service`
        executor does this) runs one join at a time and its cache/pool
        state never interleaves mid-join.
        """
        with self._lock:
            self._ensure_open()
            cfg = config or self.config
            if workers is not None:
                cfg = replace(cfg, workers=workers)
            if cfg.session is not None:
                cfg = replace(cfg, session=None)
            return parallel_partitioned_join(
                relation_a, relation_b, grid=grid, config=cfg, session=self
            )

    # -- pooled resources ---------------------------------------------------

    def pool(
        self, n_workers: int, kernels: str = "numpy"
    ) -> ProcessPoolExecutor:
        """The persistent worker pool, (re)built for ``n_workers``.

        Reused as long as consecutive joins ask for the same worker
        count *and* kernel backend; a different count (or backend —
        the parent warms ``kernels`` before forking and each worker once
        at start-up, so a backend switch needs fresh workers) shuts the
        old pool down and forks a fresh one.  A pool broken by a dying
        worker process is discarded by the executor when the
        ``BrokenExecutor`` surfaces (see ``parallel_exec._dispatch``), so
        the next join rebuilds it here; the private broken flag is only
        probed as an extra belt-and-braces check.
        """
        with self._lock:
            self._ensure_open()
            broken = self._pool is not None and getattr(
                self._pool, "_broken", False
            )
            if self._pool is not None and (
                broken
                or self._pool_workers != n_workers
                or self._pool_kernels != kernels
            ):
                self._discard_pool()
            if self._pool is None:
                warm_up(kernels)  # in the parent: workers inherit it
                self._pool = ProcessPoolExecutor(
                    max_workers=n_workers,
                    mp_context=_pool_context(),
                    initializer=_warm_worker_kernels,
                    initargs=(kernels,),
                )
                self._pool_workers = n_workers
                self._pool_kernels = kernels
                self.pools_created += 1
            return self._pool

    def _discard_pool(self) -> None:
        """Drop the current pool so the next join forks a fresh one.

        Shuts down with ``wait=True`` (cancelling still-queued tasks):
        a fire-and-forget ``wait=False`` returned while old workers
        could still be mapping shared segments, so a rebuild (or
        :meth:`close`) racing an in-flight future could unlink a
        segment under a live mapping — spurious ``FileNotFoundError``
        / ``BufferError`` on teardown.  Waiting drains the workers
        before any segment lifecycle decision can follow.
        """
        with self._lock:
            pool, self._pool = self._pool, None
            self._pool_workers = 0
            self._pool_kernels = None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def segment_for(
        self, relation: SpatialRelation
    ) -> Tuple[SharedRelationSegment, bool]:
        """The cached shared segment for the relation's current content.

        Returns ``(segment, reused)``: ``reused`` is False exactly when
        this call copied the relation's ring columns into a fresh
        segment.  The segment's lifecycle belongs to the session — do
        not close it; it is unlinked by LRU eviction, :meth:`evict` or
        :meth:`close`.  (The executor uses :meth:`lease_segments`
        instead, which additionally pins the segments for the join's
        duration.)
        """
        with self._lock:
            self._ensure_open()
            fingerprint = relation.columnar().fingerprint
            segment, reused = self._acquire(relation, fingerprint)
            self._evict_to_bound(protect=frozenset((fingerprint,)))
            return segment, reused

    def lease_segments(
        self, relations: Sequence[SpatialRelation], kinds: Sequence[str] = ()
    ) -> SegmentLease:
        """Acquire (and pin) the segments of one join's relations.

        ``kinds`` are the approximation kinds the join reads; their
        stored columns are placed beside each relation's ring segment
        (once per fingerprint and kind) under the same lease.  The
        returned :class:`SegmentLease` keeps the fingerprints safe
        from LRU eviction until :meth:`SegmentLease.release` — call it
        in a ``finally`` once the join's outcomes are merged.
        """
        self._ensure_open()
        return SegmentLease(self, relations, kinds)

    # -- persistent-store warm-up -------------------------------------------

    def warm_from_store(
        self,
        store,
        fingerprints: Optional[Iterable[str]] = None,
        io_workers: int = 4,
    ) -> Dict[str, str]:
        """Populate the segment cache straight from persistent-store pages.

        The cold-start shortcut: for every requested fingerprint not
        already cached, an uninitialised shared segment is allocated
        (:meth:`SharedRelationSegment.allocate`) and the relation's ring
        pages from ``store`` (a
        :class:`~repro.datasets.store.RelationStore`) are streamed
        directly into its buffer — ``readinto`` on the raw page files,
        no WKT parsing, no :func:`~repro.datasets.columnar.pack_rings`,
        no digesting.  Every approximation sidecar the store holds for
        the relation is streamed into a block beside it the same way
        (``approx_store_loads``), so the first join of a warmed
        relation finds its approximation blocks too.  Page reads run
        concurrently on a small thread pool (``io_workers``;
        ``readinto`` releases the GIL, so the reads genuinely overlap),
        across columns *and* relations.

        Returns ``{fingerprint: "loaded" | "cached"}``.  ``fingerprints``
        defaults to everything in the store.  On any failure all freshly
        allocated segments are unlinked and the cache is exactly as
        before — a corrupted store warms nothing rather than something
        wrong (the store validates manifests and page sizes up front,
        and short reads fail here).

        A later :meth:`join` whose relation content matches a warmed
        fingerprint ships zero bytes: the lease finds the segment in the
        cache (a ``segment_cache_hit``), exactly as if a previous join
        had shipped it.  Warm loads are counted separately
        (``store_loads`` / ``store_load_bytes``) so warm-start wins stay
        observable in :meth:`stats`.
        """
        with self._lock:
            self._ensure_open()
            wanted = (
                list(fingerprints)
                if fingerprints is not None
                else store.fingerprints()
            )
            report: Dict[str, str] = {}
            fresh: "OrderedDict[str, SharedRelationSegment]" = OrderedDict()
            jobs: List[Tuple[object, SharedColumns, int, int]] = []
            try:
                for fingerprint in wanted:
                    if fingerprint in report:
                        continue
                    if fingerprint in self._segments:
                        self._segments.move_to_end(fingerprint)
                        report[fingerprint] = "cached"
                        continue
                    stored = store.load(fingerprint)
                    ring_pages = stored.ring_pages()
                    segment = SharedRelationSegment.allocate(
                        stored.name, fingerprint, _pages_layout(ring_pages)
                    )
                    fresh[fingerprint] = segment
                    report[fingerprint] = "loaded"
                    jobs += _stream_jobs(ring_pages, segment.rings)
                    for kind in stored.approx_kinds():
                        pages = stored.approx_pages(kind)
                        if pages is not None:
                            block = segment.allocate_approx(
                                kind, _pages_layout(pages)
                            )
                            jobs += _stream_jobs(pages, block)
                if len(jobs) > 1 and io_workers > 1:
                    with ThreadPoolExecutor(
                        max_workers=min(io_workers, len(jobs))
                    ) as io_pool:
                        # list() re-raises the first worker exception.
                        list(io_pool.map(_stream_page, jobs))
                else:
                    for job in jobs:
                        _stream_page(job)
            except BaseException:
                for fingerprint, segment in fresh.items():
                    report.pop(fingerprint, None)
                    segment.close()
                raise
            for fingerprint, segment in fresh.items():
                self._segments[fingerprint] = segment
                self.store_loads += 1
                self.store_load_bytes += segment.nbytes
                self.approx_store_loads += len(segment.approx)
                self.approx_store_load_bytes += segment.approx_nbytes
            self._evict_to_bound(protect=frozenset(fresh))
            return report

    def _acquire(
        self, relation: SpatialRelation, fingerprint: str
    ) -> Tuple[SharedRelationSegment, bool]:
        """Cache lookup/insert without applying the byte bound."""
        segment = self._segments.get(fingerprint)
        if segment is not None:
            self._segments.move_to_end(fingerprint)
            self.segment_cache_hits += 1
            return segment, True
        segment = SharedRelationSegment(relation)
        self._segments[fingerprint] = segment
        self.segment_cache_misses += 1
        return segment, False

    def _evict_to_bound(self, protect: frozenset = frozenset()) -> None:
        """Unlink least-recently-joined segments until the cache fits.

        Leased (in-flight) and explicitly protected fingerprints are
        never victims; if only those remain, the cache is allowed to
        exceed the bound until the leases release.
        """
        if self.max_cache_bytes is None:
            return
        while self.cached_segment_bytes > self.max_cache_bytes:
            victim = next(
                (
                    fingerprint
                    for fingerprint in self._segments
                    if fingerprint not in protect
                    and fingerprint not in self._leased
                ),
                None,
            )
            if victim is None:
                return
            self._segments.pop(victim).close()
            self.segment_cache_evictions += 1

    def evict(self, relation: SpatialRelation) -> bool:
        """Unlink the cached segment of this relation's current content.

        Returns True when a segment was cached (and is now gone); use
        it to bound the cache when a relation will not be joined again.

        A fingerprint pinned by an in-flight join's
        :class:`SegmentLease` is **refused** (returns False): unlinking
        it would pull shared memory out from under live tile tasks.
        (An earlier version popped and closed the segment regardless of
        leases — an explicit evict racing a join could corrupt it.)
        Call again once the join has finished if the segment should
        still go.
        """
        with self._lock:
            self._ensure_open()
            fingerprint = relation.columnar().fingerprint
            if fingerprint in self._leased:
                return False
            segment = self._segments.pop(fingerprint, None)
            if segment is None:
                return False
            segment.close()
            return True

    # -- telemetry ----------------------------------------------------------

    @property
    def cached_relations(self) -> int:
        """Number of relations with a live cached segment."""
        return len(self._segments)

    @property
    def cached_segment_bytes(self) -> int:
        """Total shared-memory bytes currently cached (rings + blocks)."""
        return sum(
            segment.nbytes + segment.approx_nbytes
            for segment in self._segments.values()
        )

    @property
    def cached_approx_bytes(self) -> int:
        """The approximation blocks' share of :attr:`cached_segment_bytes`."""
        return sum(
            segment.approx_nbytes for segment in self._segments.values()
        )

    def stats(self) -> Dict[str, int]:
        """Cumulative telemetry, one flat JSON-safe dict.

        The observable record of warm-start wins: cache ``hits`` count
        joins that shipped zero redundant bytes, ``store_loads`` /
        ``store_load_bytes`` count segments streamed from persistent
        store pages (:meth:`warm_from_store`), ``evictions`` count
        byte-bound LRU victims — all of them ring segments.  The
        ``approx_*`` counters say the same about approximation blocks
        (found beside a leased segment, placed there by a join,
        streamed from store sidecars); ``cached_segment_bytes`` is
        what the byte bound applies to, rings and blocks together.
        The service status endpoint aggregates these across its
        session pool.
        """
        with self._lock:
            return {
                "joins_run": self.joins_run,
                "segment_cache_hits": self.segment_cache_hits,
                "segment_cache_misses": self.segment_cache_misses,
                "segment_cache_evictions": self.segment_cache_evictions,
                "store_loads": self.store_loads,
                "store_load_bytes": self.store_load_bytes,
                "approx_cache_hits": self.approx_cache_hits,
                "approx_cache_misses": self.approx_cache_misses,
                "approx_store_loads": self.approx_store_loads,
                "approx_store_load_bytes": self.approx_store_load_bytes,
                "pools_created": self.pools_created,
                "cached_relations": self.cached_relations,
                "cached_segment_bytes": self.cached_segment_bytes,
                "cached_approx_bytes": self.cached_approx_bytes,
            }

    def _note_join(self) -> None:
        with self._lock:
            self.joins_run += 1

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"JoinSession({state}, joins={self.joins_run}, "
            f"cached_relations={self.cached_relations}, "
            f"pool_workers={self._pool_workers or None})"
        )
