"""Join sessions: the owner of worker pools and shared segments.

The paper's §6 outlook motivates parallel multi-step joins; the tile
executor in :mod:`repro.core.parallel_exec` realises it, and every
resource it runs on belongs to a :class:`JoinSession`.  A session owns

* a **persistent worker pool**, created lazily on the first join that
  needs one and reused by every following join at the same worker
  count (a join with a different count transparently rebuilds it; a
  pool broken by a dead worker process fails the join that meets it
  and is replaced by the next).  Its workers keep the segments they map
  until it shuts down, always before any segment is unlinked;
* a **shared-segment cache** keyed by relation *fingerprint*
  (:attr:`repro.datasets.columnar.ColumnarRelation.fingerprint`, a
  content digest of the packed ring columns): the first join of a
  relation copies its geometry into a
  :class:`~repro.core.parallel_exec.SharedRelationSegment`, and every
  later join of the same content ships **zero redundant bytes** — the
  tile tasks simply reference the cached segment.  A relation whose
  object list changed gets a fresh fingerprint (and so a fresh
  segment); every segment lives until :meth:`JoinSession.close`.
* **approximation blocks** beside each cached segment, keyed by
  ``(fingerprint, kind)``: when a join first reads a kind
  (:meth:`JoinConfig.approximation_kinds`), :meth:`JoinSession.ship`
  takes ``relation.columnar().approx(kind)`` — memory, then store
  pages, then one build that is published — and places its stored
  columns in shared memory; every later join of that content finds the
  block.  Blocks are owned by their segment and unlinked with it, and
  :meth:`JoinSession.warm_from_store` streams stored sidecar pages into
  them beside the ring pages.  They have their own counters
  (``approx_cache_hits`` / ``approx_cache_misses`` /
  ``approx_store_loads`` / ``approx_store_load_bytes`` /
  ``cached_approx_bytes`` in :meth:`JoinSession.stats`); the
  ``segment_cache_*`` and ``store_load*`` counters keep counting ring
  payloads only.

A join call without a session
(:func:`~repro.core.parallel_exec.parallel_partitioned_join` with no
``session``) opens a private session and closes it before returning,
so the pool and segments are created and torn down around that call.

Lifecycle is explicit: use the session as a context manager (or call
:meth:`close`), after which the pool is shut down and every cached
segment is unlinked — ``live_shared_segments()`` is empty again
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
from concurrent.futures import ProcessPoolExecutor
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


def _pages_layout(pages) -> SegmentLayout:
    """The segment layout that holds the given store pages back to back.

    Derived from the page descriptors the store validated, so page
    extents and segment slices agree by construction.
    """
    return SegmentLayout(
        tuple((page.column, page.dtype, page.shape) for page in pages)
    )


def _stream_pages(pages, target: SharedColumns) -> None:
    """Read store page files into a freshly allocated segment, in order.

    ``readinto`` fills each page's slice of the segment directly.  Each
    exported buffer view is released before the next page — segment
    teardown must never trip over a dangling export (``BufferError``).
    """
    from ..datasets.store import StoreCorruptionError

    for page, (_, offset, nbytes) in zip(pages, target.spec.layout.extents()):
        view = memoryview(target.buf)[offset:offset + nbytes]
        try:
            with open(page.path, "rb", buffering=0) as handle:
                read = handle.readinto(view)
            if read != nbytes:
                raise StoreCorruptionError(
                    f"short read from store page {page.path}: got {read} "
                    f"of {nbytes} bytes (page changed after validation?)"
                )
        finally:
            view.release()


class JoinSession:
    """Owner of the tile executor's worker pool and shared segments.

    See the module docstring for the model.  All state lives in the
    creating process, except the mappings each pool worker keeps of the
    segments its tasks named (dropped with the pool).  Cache, pool and
    telemetry mutation is guarded by a reentrant lock, and the executor
    holds it for a whole join, so a session can be handed between
    threads (the :class:`repro.service.JoinService` executor does) and
    still runs exactly one join at a time — concurrency comes from a
    *pool* of sessions, not from sharing one.  The segment cache has no
    bound: segments live until :meth:`close`.
    """

    def __init__(
        self,
        config: Optional[JoinConfig] = None,
        workers: Optional[int] = None,
    ):
        config = config or JoinConfig()
        if workers is not None:
            config = replace(config, workers=workers)
        self.config = config
        #: serialises joins and cache/pool mutation across threads: a
        #: session runs **one join at a time** — concurrency comes from
        #: using several sessions (see :mod:`repro.service`).  Reentrant
        #: because the executor calls back into :meth:`pool` /
        #: :meth:`ship` while it holds the lock.
        self._lock = threading.RLock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0
        self._pool_kernels: Optional[str] = None
        #: fingerprint -> segment.
        self._segments: Dict[str, SharedRelationSegment] = {}
        self._closed = False
        #: telemetry, cumulative over the session's lifetime.
        self.joins_run = 0
        self.segment_cache_hits = 0
        self.segment_cache_misses = 0
        self.pools_created = 0
        #: segments populated from persistent-store pages
        #: (:meth:`warm_from_store`) and the bytes they streamed in.
        self.store_loads = 0
        self.store_load_bytes = 0
        #: approximation blocks, counted apart from the ring segments
        #: above: found beside a cached segment / placed there by a
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
            segments, self._segments = self._segments, {}
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

        Thread-safe: the executor holds the session lock for the whole
        join, so a session handed between threads (the
        :mod:`repro.service` executor does this) runs one join at a
        time and its cache/pool state never interleaves mid-join.
        """
        return parallel_partitioned_join(
            relation_a, relation_b, grid=grid, config=config or self.config,
            workers=workers, session=self,
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
        worker process fails the join that meets it with a
        ``TileExecutionError`` and is discarded there (see
        ``parallel_exec._dispatch``), so the next join rebuilds it here.
        """
        with self._lock:
            self._ensure_open()
            if self._pool is not None and (
                self._pool_workers != n_workers
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

    def ship(
        self, relations: Sequence[SpatialRelation], kinds: Sequence[str] = ()
    ) -> Tuple[List[SharedRelationSegment], Dict[str, int]]:
        """The segments of one join's relations, cached or freshly shipped.

        ``kinds`` are the approximation kinds the join reads; their
        stored columns are placed beside each relation's ring segment
        (once per fingerprint and kind).  Returns the segments in
        ``relations`` order and the join's counters, keyed by their
        :class:`~repro.core.parallel_exec.ParallelPartitionedJoinResult`
        field names.  The segments belong to the session: they are
        unlinked by :meth:`close`.
        """
        counters = dict.fromkeys(
            (
                "segment_cache_hits", "segment_cache_misses",
                "shared_payload_bytes", "reused_payload_bytes",
                "approx_cache_hits", "approx_cache_misses",
                "approx_payload_bytes",
            ),
            0,
        )
        segments: List[SharedRelationSegment] = []
        with self._lock:
            self._ensure_open()
            for relation in relations:
                segment, reused = self._acquire(relation)
                segment.serve(relation.columnar())
                segments.append(segment)
                if reused:
                    counters["segment_cache_hits"] += 1
                    counters["reused_payload_bytes"] += segment.nbytes
                else:
                    counters["segment_cache_misses"] += 1
                    counters["shared_payload_bytes"] += segment.nbytes
                hits, misses, shipped = segment.ensure_approx(relation, kinds)
                counters["approx_cache_hits"] += hits
                counters["approx_cache_misses"] += misses
                counters["approx_payload_bytes"] += shipped
            self.approx_cache_hits += counters["approx_cache_hits"]
            self.approx_cache_misses += counters["approx_cache_misses"]
        return segments, counters

    def _acquire(
        self, relation: SpatialRelation
    ) -> Tuple[SharedRelationSegment, bool]:
        """Cache lookup/insert: ``(segment, reused)``."""
        fingerprint = relation.columnar().fingerprint
        segment = self._segments.get(fingerprint)
        if segment is not None:
            self.segment_cache_hits += 1
            return segment, True
        segment = SharedRelationSegment(relation)
        self._segments[fingerprint] = segment
        self.segment_cache_misses += 1
        return segment, False

    # -- persistent-store warm-up -------------------------------------------

    def warm_from_store(
        self,
        store,
        fingerprints: Optional[Iterable[str]] = None,
    ) -> Dict[str, str]:
        """Populate the segment cache straight from persistent-store pages.

        The cold-start shortcut: for every requested fingerprint not
        already cached, an uninitialised shared segment is allocated
        (:meth:`SharedRelationSegment.allocate`) and the relation's ring
        pages from ``store`` (a
        :class:`~repro.datasets.store.RelationStore`) are read directly
        into its buffer, one page after another — ``readinto`` on the
        raw page files, no WKT parsing, no
        :func:`~repro.datasets.columnar.pack_rings`, no digesting.  Every
        approximation sidecar the store holds for the relation is read
        into a block beside it the same way (``approx_store_loads``), so
        the first join of a warmed relation finds its approximation
        blocks too.

        Returns ``{fingerprint: "loaded" | "cached"}``.  ``fingerprints``
        defaults to everything in the store.  On any failure all freshly
        allocated segments are unlinked and the cache is exactly as
        before — a corrupted store warms nothing rather than something
        wrong (the store validates manifests and page sizes up front,
        and short reads fail here).

        A later :meth:`join` whose relation content matches a warmed
        fingerprint ships zero bytes: it finds the segment in the cache
        (a ``segment_cache_hit``), exactly as if a previous join had
        shipped it.  Warm loads are counted separately
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
            fresh: Dict[str, SharedRelationSegment] = {}
            try:
                for fingerprint in wanted:
                    if fingerprint in report:
                        continue
                    if fingerprint in self._segments:
                        report[fingerprint] = "cached"
                        continue
                    stored = store.load(fingerprint)
                    ring_pages = stored.ring_pages()
                    segment = SharedRelationSegment.allocate(
                        stored.name, fingerprint, _pages_layout(ring_pages)
                    )
                    fresh[fingerprint] = segment
                    report[fingerprint] = "loaded"
                    _stream_pages(ring_pages, segment.rings)
                    for kind in stored.approx_kinds():
                        pages = stored.approx_pages(kind)
                        if pages is not None:
                            block = segment.allocate_approx(
                                kind, _pages_layout(pages)
                            )
                            _stream_pages(pages, block)
            except BaseException:
                for segment in fresh.values():
                    segment.close()
                raise
            for fingerprint, segment in fresh.items():
                self._segments[fingerprint] = segment
                self.store_loads += 1
                self.store_load_bytes += segment.nbytes
                self.approx_store_loads += len(segment.approx)
                self.approx_store_load_bytes += segment.approx_nbytes
            return report

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
        store pages (:meth:`warm_from_store`) — all of them ring
        segments.  The ``approx_*`` counters say the same about
        approximation blocks (found beside a cached segment, placed
        there by a join, streamed from store sidecars);
        ``cached_segment_bytes`` counts rings and blocks together.
        The service status endpoint aggregates these across its
        session pool.
        """
        with self._lock:
            return {
                "joins_run": self.joins_run,
                "segment_cache_hits": self.segment_cache_hits,
                "segment_cache_misses": self.segment_cache_misses,
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

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"JoinSession({state}, joins={self.joins_run}, "
            f"cached_relations={self.cached_relations}, "
            f"pool_workers={self._pool_workers or None})"
        )
