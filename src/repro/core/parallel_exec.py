"""Real multi-process parallel execution of partitioned spatial joins.

:mod:`repro.core.parallel` *models* the paper's §6 CPU/I-O-parallelism
outlook with a deterministic LPT-scheduling simulator; this module runs
it for real.  The tasks produced by a :mod:`repro.core.partition`
strategy — uniform grid tiles (``JoinConfig(partitioner="grid")``) or
tree-guided leaf-overlap tasks from the synchronized R*-tree traversal
(``partitioner="rtree"``) — are shipped to a
:class:`concurrent.futures.ProcessPoolExecutor`, joined locally in each
worker with the configured engine (streaming or batched),
de-duplicated where the strategy requires it (grid tiles use the
reference-tile rule of the serial partitioned join; tree tasks are
disjoint by construction and skip it), and merged back into one
deterministic result.

One wire format carries a tile to its worker: the parent writes each
relation's packed ring columns
(:class:`repro.datasets.columnar.RingColumns`) into one
:class:`multiprocessing.shared_memory.SharedMemory` segment, once per
session, and beside it one block per stored approximation kind the join
reads (:meth:`JoinConfig.approximation_kinds`) holding that kind's
columns (:class:`repro.approximations.batch.ApproxColumns`, taken from
``relation.columnar().approx(kind)`` — the get-or-build point, so a
build happens at most once, in the parent).  A :class:`ColumnarTileTask`
then pickles only the segment descriptors plus two per-tile index
arrays: a tile is those rows of its parents' stores, run by
:func:`repro.core.partition.run_tile`, the runner of the serial
partitioned join's tiles too.  Replicated objects cost nothing extra on
the wire (the columns ship once, indices are cheap).

**Resolve once per process.**  A task names each relation by its ring
segment, and nothing is mapped, cut or rebuilt per task.  In the parent
(``workers=1``, or planned tasks run in-process) the name resolves to
the relation's in-memory ``relation.columnar()``, registered when
:meth:`JoinSession.ship` shipped it: no segment is attached.  In a pool
worker the first task naming a segment maps it, and the worker keeps
one store over the mapped columns (:class:`_MappedRelation`) for the
pool's life; blocks shipped later are mapped when a task first names
them.  Keeping the mappings is safe because :meth:`JoinSession.close`
and :meth:`JoinSession._discard_pool` shut the pool down, waiting for
its workers, *before* any segment is unlinked, and a session unlinks
segments only in ``close``.

**Segment layout.**  A segment's interior is described in exactly one
place: the :class:`SegmentLayout` — ``(name, dtype, shape)`` per column,
back to back — carried by its picklable descriptor
(:class:`SharedColumnsSpec`).  The layout is derived from the data
(the arrays being shipped, or the page descriptors of the persistent
store when :meth:`JoinSession.warm_from_store` streams page files in),
and parent, warm loader and workers all compute offsets and views from
that one object.  A relation's descriptor (:class:`SharedRelationSpec`)
is its ring segment plus ``(kind, block)`` pairs.

**Dispatch.**  Tasks reach the pool largest-first: sorted by descending
candidate volume (``|idx_a| * |idx_b|``, a stable sort, so equal-cost
tasks keep plan order), so the probable stragglers start first, and an
idle worker pulls the next queued task the moment it finishes.  A worker
exception is re-raised in the parent as :class:`TileExecutionError`
carrying the failing tile's index, and the shared segments are still
unlinked.

**One owner.**  :class:`repro.core.session.JoinSession` is the only
owner of worker pools and shared segments.  A session keeps its pool
and a cache of segments keyed by relation fingerprint across joins, so
repeated joins of the same relations fork no new workers and ship zero
redundant bytes; a call without a session opens a private session and
closes it before returning.  The guarantees are the same either way:

* **Result transparency** — the merged pair list equals the serial
  partitioned join's (and therefore the plain multi-step join's up to
  order); outcomes are folded in tile-key order regardless of dispatch
  order or which worker finished first, so the output order is
  byte-identical to :func:`repro.core.partition.partitioned_join`.
* **Stats transparency** — every worker returns its tile's full
  :class:`~repro.core.stats.MultiStepStats`; the parent folds them with
  the associative :meth:`MultiStepStats.merge`, so the merged counters
  equal the serial partitioned join's exactly.
* **Degenerate pool** — ``workers=1`` runs the identical task objects
  in-process, in the same largest-first order, with no pool, no
  pickling and no mapping (the wire format is exercised by every
  ``workers >= 2`` join).
* **Segment lifecycle** — shared segments are unlinked by
  :meth:`JoinSession.close` (for a private session in a ``finally``
  block, after its pool has shut down), so success, worker failure,
  and KeyboardInterrupt all leave ``/dev/shm`` clean
  (``tests/test_parallel_exec_shm.py`` enforces it;
  :func:`live_shared_segments` exposes the tracking set).
  Approximation blocks are owned by their relation's
  :class:`SharedRelationSegment`, tracked in the same set, and
  unlinked with it.
* **Counters** — ``segment_cache_hits`` / ``segment_cache_misses`` /
  ``shared_payload_bytes`` / ``reused_payload_bytes`` count ring
  payloads; approximation blocks are reported apart as
  ``approx_cache_hits`` / ``approx_cache_misses`` /
  ``approx_payload_bytes``.

**Proximity predicates** (``predicate="distance"`` / ``"knn"``) ride
the same machinery through ε-aware task plans
(:meth:`~repro.core.partition.Partitioner.plan_proximity`): grid tasks
replicate objects by their ε/2-expanded MBRs and workers apply the
owning-task rule on the expanded MBRs *before any counter moves* (the
drop lands in ``MultiStepStats.dedup_dropped``), so merged distance
flow counters equal the plain serial pipeline's; tree tasks prune the
synchronized traversal by rectangle distance and stay disjoint; kNN
tasks carry disjoint left rows plus the right rows within each
member's k-th-neighbour upper bound, and merged pairs are re-sorted to
the serial left-relation order.  A proximity tile gathers its rows
from the parent store's rows (:meth:`~repro.core.proximity.ProximityRows.take`,
one ragged gather of the memoised edge table), building no object.
Only tiny joins — candidate volume
below :data:`PROXIMITY_SERIAL_VOLUME`, a rule that never reads
execution-only fields, keeping the service result cache coherent —
route to the plain serial pipeline instead.

``tests/test_parallel_exec_equivalence.py`` is the differential suite
that enforces the transparency guarantees across engines, predicates,
and worker counts; ``tests/test_proximity_parallel_equivalence.py``
extends them to the ε-aware proximity plans.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from concurrent.futures import BrokenExecutor, Executor
from dataclasses import dataclass, field, replace
from multiprocessing import shared_memory
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..approximations.batch import ApproxColumns, BatchApproxArrays, stored_family
from ..datasets.columnar import ColumnarRelation, RingColumns, _LazyObjects
from ..datasets.relations import SpatialRelation
from ..geometry.kernels import resolve_backend, warm_up
from ..geometry.rectangle import Rect
from .join import JoinConfig, SpatialJoinProcessor, validate_grid
from .partition import (
    PartitionedJoinResult,
    PartitionPlan,
    PartitionStats,
    create_partitioner,
    fold_tiles,
    owning_tiles,
    run_tile,
)
from .stats import MultiStepStats

if TYPE_CHECKING:
    from .session import JoinSession


@dataclass(frozen=True)
class SegmentLayout:
    """What one shared segment holds: ``(name, dtype, shape)`` per column.

    The single description of a segment's interior.  It is derived from
    the data itself — the arrays about to be shipped (:meth:`of`) or
    the page descriptors of a persistent store — and travels inside the
    pickled spec, so parent, warm loader and workers all compute byte
    offsets (:meth:`extents`) and numpy views (:meth:`views`) from the
    same object.  Columns sit back to back in the order listed; every
    column the executor ships is 8 bytes per item, so all are aligned.
    """

    columns: Tuple[Tuple[str, str, Tuple[int, ...]], ...]

    @classmethod
    def of(cls, arrays: Mapping[str, np.ndarray]) -> "SegmentLayout":
        return cls(
            tuple(
                (name, array.dtype.str, tuple(array.shape))
                for name, array in arrays.items()
            )
        )

    def extents(self) -> List[Tuple[str, int, int]]:
        """``(column, byte_offset, nbytes)`` in segment order."""
        out: List[Tuple[str, int, int]] = []
        offset = 0
        for name, dtype, shape in self.columns:
            nbytes = math.prod(shape) * np.dtype(dtype).itemsize
            out.append((name, offset, nbytes))
            offset += nbytes
        return out

    @property
    def nbytes(self) -> int:
        return sum(nbytes for _, _, nbytes in self.extents())

    def views(self, buf) -> Dict[str, np.ndarray]:
        """Map the layout onto a segment buffer as numpy column views."""
        return {
            name: np.ndarray(shape, dtype=dtype, buffer=buf, offset=offset)
            for (name, dtype, shape), (_, offset, _) in zip(
                self.columns, self.extents()
            )
        }


@dataclass(frozen=True)
class SharedColumnsSpec:
    """Descriptor of one shared segment: its name and column layout.

    ``origin_pid`` lets attachers distinguish the creating process
    (which keeps its resource-tracker registration) from workers (which
    must unregister theirs — the parent owns the unlink).
    """

    shm_name: str
    layout: SegmentLayout
    origin_pid: int


@dataclass(frozen=True)
class SharedRelationSpec:
    """Everything a worker needs to remap one relation's shipped columns.

    ``rings`` is the ring-geometry segment; ``approx`` lists, per
    approximation kind the join reads, the block holding that kind's
    stored columns (:class:`repro.approximations.batch.ApproxColumns`).
    """

    relation_name: str
    rings: SharedColumnsSpec
    approx: Tuple[Tuple[str, SharedColumnsSpec], ...] = ()


@dataclass(frozen=True, eq=False)
class ColumnarTileTask:
    """Picklable unit of work: segment descriptors + one tile's indices.

    Pickling this ships ~tens of bytes of segment descriptors plus two
    index arrays; the geometry itself travels through shared memory.
    Also carried: the task key, the reference-tile de-duplication frame
    (``space``/``grid`` — both ``None`` for tree-guided tasks, whose
    candidate sets are disjoint by construction), and the full
    :class:`JoinConfig`.
    """

    tile: Tuple[int, int]
    spec_a: SharedRelationSpec
    spec_b: SharedRelationSpec
    idx_a: np.ndarray
    idx_b: np.ndarray
    space: Optional[Rect]
    grid: Optional[Tuple[int, int]]
    config: JoinConfig


@dataclass
class TileOutcome:
    """What a worker sends back: owned pairs by oid, plus full stats."""

    tile: Tuple[int, int]
    id_pairs: List[Tuple[int, int]]
    stats: MultiStepStats
    elapsed_seconds: float


@dataclass
class ParallelPartitionedJoinResult(PartitionedJoinResult):
    """Serial-identical join result plus parallel-execution telemetry."""

    workers: int = 1
    tile_tasks: int = 0
    elapsed_seconds: float = 0.0
    #: per-tile wall-clock seconds measured inside the workers.
    tile_seconds: Dict[Tuple[int, int], float] = field(default_factory=dict)
    #: bytes newly placed in shared memory by this join (0 when a warm
    #: session reused every segment).
    shared_payload_bytes: int = 0
    #: tile-formation strategy that produced the tasks: "grid" or
    #: "rtree" (tree-guided leaf-overlap tasks).
    partitioner: str = "grid"
    #: shared segments served from / added to the segment cache by this
    #: join: a warm session join reports ``hits=2, misses=0``; a
    #: sessionless join runs in a fresh private session and ships both
    #: (``hits=0, misses=2``; a self-join ships its one relation once).
    segment_cache_hits: int = 0
    segment_cache_misses: int = 0
    #: bytes served from the session's segment cache instead of being
    #: re-shipped (inside a warm session).
    reused_payload_bytes: int = 0
    #: approximation blocks (one per relation and kind the join reads)
    #: found beside the ring segments / newly placed there, and the
    #: bytes of the new ones.  Counted apart from the ring payloads
    #: above, which keep their meaning.
    approx_cache_hits: int = 0
    approx_cache_misses: int = 0
    approx_payload_bytes: int = 0

    @property
    def busy_seconds(self) -> float:
        """Total worker-side join time (the parallelisable work)."""
        return sum(self.tile_seconds.values())


# ---------------------------------------------------------------------------
# Shared-memory segments.
# ---------------------------------------------------------------------------

#: names of segments created by this process and not yet unlinked.
_LIVE_SEGMENTS: Set[str] = set()

#: ring segment name -> the in-memory store tasks read in the process
#: that made the segment (:meth:`SharedRelationSegment.serve`).
_SERVED: Dict[str, ColumnarRelation] = {}
#: ring segment name -> a pool worker's store over the mapped segment,
#: kept for the pool's life (the parent adds none for a fork to inherit).
_MAPPED: Dict[str, "_MappedRelation"] = {}


def live_shared_segments() -> frozenset:
    """Names of shared segments this process still owns (for tests)."""
    return frozenset(_LIVE_SEGMENTS)


class SharedColumns:
    """Named numpy columns in one owned shared-memory segment.

    Tracked in :func:`live_shared_segments` from creation until
    :meth:`close` unlinks it.  Created uninitialised; :meth:`of` fills
    it from arrays, the session's warm loader streams store pages into
    :attr:`buf` at the layout's extents.
    """

    def __init__(self, layout: SegmentLayout):
        self._shm: Optional[shared_memory.SharedMemory] = (
            shared_memory.SharedMemory(create=True, size=max(8, layout.nbytes))
        )
        _LIVE_SEGMENTS.add(self._shm.name)
        self.nbytes = self._shm.size
        self.spec = SharedColumnsSpec(
            shm_name=self._shm.name, layout=layout, origin_pid=os.getpid()
        )

    @classmethod
    def of(cls, arrays: Mapping[str, np.ndarray]) -> "SharedColumns":
        """A segment holding copies of ``arrays`` (in mapping order)."""
        segment = cls(SegmentLayout.of(arrays))
        try:
            views = segment.spec.layout.views(segment.buf)
            for name, array in arrays.items():
                views[name][...] = array
            del views
        except BaseException:
            segment.close()
            raise
        return segment

    @property
    def buf(self):
        """The segment's raw buffer (fill target of the warm loader)."""
        if self._shm is None:
            raise RuntimeError("segment is closed")
        return self._shm.buf

    @property
    def closed(self) -> bool:
        return self._shm is None

    def close(self) -> None:
        """Unlink the segment (idempotent)."""
        shm, self._shm = self._shm, None
        if shm is None:
            return
        try:
            shm.close()
        finally:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
            _LIVE_SEGMENTS.discard(shm.name)


class SharedRelationSegment:
    """One relation's shipped columns: a ring segment plus approximation blocks.

    The unit of segment ownership: created once per relation content,
    attached (read-only) by any number of tile tasks, and unlinked
    exactly once by the :class:`repro.core.session.JoinSession` segment
    cache that holds it, which keys reuse on :attr:`fingerprint`.
    Approximation blocks are keyed by kind under that fingerprint
    (:attr:`approx`), added as joins need them (:meth:`ensure_approx`)
    and unlinked together with the rings.
    """

    def __init__(self, relation: SpatialRelation):
        store = relation.columnar()
        self.fingerprint = store.fingerprint
        self.relation_name = relation.name
        self.approx: Dict[str, SharedColumns] = {}
        #: the ring-geometry segment (its ``buf`` is the warm loader's
        #: fill target for an :meth:`allocate`-d segment).
        self.rings = SharedColumns.of(store.rings._asdict())

    @classmethod
    def allocate(
        cls, relation_name: str, fingerprint: str, layout: SegmentLayout
    ) -> "SharedRelationSegment":
        """An uninitialised ring segment, ready to be filled.

        The store warm-up path: the caller streams the relation's ring
        pages into :attr:`rings` ``.buf`` at the layout's extents
        (byte-identical to what :meth:`__init__` would have copied from
        a packed :class:`~repro.datasets.columnar.RingColumns`) before
        handing the segment to any consumer.  Lifecycle is identical to
        a packed segment.
        """
        segment = cls.__new__(cls)
        segment.fingerprint = fingerprint
        segment.relation_name = relation_name
        segment.approx = {}
        segment.rings = SharedColumns(layout)
        return segment

    @property
    def nbytes(self) -> int:
        """Ring payload bytes (approximation blocks: :attr:`approx_nbytes`)."""
        return self.rings.nbytes

    @property
    def approx_nbytes(self) -> int:
        return sum(block.nbytes for block in self.approx.values())

    def allocate_approx(self, kind: str, layout: SegmentLayout) -> SharedColumns:
        """An uninitialised block for ``kind`` (filled by the warm loader)."""
        block = self.approx[kind] = SharedColumns(layout)
        return block

    def ensure_approx(
        self, relation: SpatialRelation, kinds: Sequence[str]
    ) -> Tuple[int, int, int]:
        """Place the kinds' stored columns beside the rings, once each.

        A missing block is filled from ``relation.columnar().approx(kind)``
        — the get-or-build point, so the build (if any) happens here in
        the parent, once, and never in a tile.  Kinds without a stored
        form are skipped: tiles derive those lazily, as before.
        Returns ``(blocks reused, blocks shipped, bytes shipped)``.
        """
        hits = misses = shipped = 0
        for kind in kinds:
            if stored_family(kind) is None:
                continue
            if kind in self.approx:
                hits += 1
                continue
            columns = relation.columnar().approx(kind).columns()
            block = self.approx[kind] = SharedColumns.of(columns.arrays)
            misses += 1
            shipped += block.nbytes
        return hits, misses, shipped

    def serve(self, store: ColumnarRelation) -> None:
        """Let in-process tasks read ``store``, the shipped relation's own.

        A block the store lacks (streamed from store pages, or shipped
        for another relation object of this content) is adopted as a
        copy, so no in-process task builds a kind the session holds.
        """
        for kind, block in self.approx.items():
            if kind not in store.packed_kinds():
                views = block.spec.layout.views(block.buf).items()
                store.install_approx(ApproxColumns(
                    kind, {name: view.copy() for name, view in views}
                ))
        _SERVED[self.rings.spec.shm_name] = store

    def spec_for(self, kinds: Sequence[str] = ()) -> SharedRelationSpec:
        """The descriptor tile tasks carry: rings plus the given kinds' blocks."""
        return SharedRelationSpec(
            relation_name=self.relation_name,
            rings=self.rings.spec,
            approx=tuple(
                (kind, self.approx[kind].spec)
                for kind in kinds
                if kind in self.approx
            ),
        )

    @property
    def closed(self) -> bool:
        return self.rings.closed

    def close(self) -> None:
        """Unlink the ring segment and every approximation block (idempotent)."""
        _SERVED.pop(self.rings.spec.shm_name, None)
        blocks, self.approx = self.approx, {}
        try:
            for block in blocks.values():
                block.close()
        finally:
            self.rings.close()


def _attach_segment(spec: SharedColumnsSpec) -> shared_memory.SharedMemory:
    """Attach to a parent-owned segment without adopting its lifecycle.

    Attaching registers the segment with the resource tracker.  Under
    the ``fork`` start method (what :func:`_pool_context` prefers, and
    the only method on the Linux targets) workers share the parent's
    tracker process, so the duplicate registration is a set no-op and
    the parent's unlink balances it — nothing to undo here.  Only a
    *spawned* worker runs its own tracker; there the registration is
    unregistered again so the worker's tracker does not report (and try
    to clean) segments whose lifecycle the parent owns.
    """
    shm = shared_memory.SharedMemory(name=spec.shm_name)
    if (
        os.getpid() != spec.origin_pid
        and multiprocessing.current_process().name != "MainProcess"
        and _pool_context() is None
    ):
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
    return shm


# ---------------------------------------------------------------------------
# Task planning.
# ---------------------------------------------------------------------------


#: candidate-volume floor below which proximity joins skip task
#: formation and run the serial pipeline in-process: with fewer than
#: this many ``|A| * |B|`` candidate pairs the ε-expansion bookkeeping
#: costs more than the join.  Data-dependent only (never the worker
#: count), so two requests with equal cache keys always route the same
#: way — the service result-cache contract.
PROXIMITY_SERIAL_VOLUME = 64


def _proximity_runs_serial(
    relation_a: SpatialRelation, relation_b: SpatialRelation
) -> bool:
    """Tiny-relation fallback for the proximity predicates."""
    return len(relation_a) * len(relation_b) < PROXIMITY_SERIAL_VOLUME


def _partition_plan(
    relation_a: SpatialRelation,
    relation_b: SpatialRelation,
    grid: Tuple[int, int],
    config: JoinConfig,
) -> PartitionPlan:
    """Run the configured tile-formation strategy (grid or rtree)."""
    strategy = create_partitioner(
        config.partitioner, target_tasks=config.target_tasks
    )
    if config.predicate in ("distance", "knn"):
        return strategy.plan_proximity(relation_a, relation_b, grid, config)
    return strategy.plan(relation_a, relation_b, grid)


def _plan_in_session(
    session: "JoinSession",
    relation_a: SpatialRelation,
    relation_b: SpatialRelation,
    grid: Tuple[int, int],
    config: JoinConfig,
) -> Tuple[List[ColumnarTileTask], List[PartitionStats], Dict[str, int]]:
    """Ship both relations into ``session`` and cut the tile tasks.

    Returns the tasks (non-empty only, in plan order), a
    :class:`PartitionStats` shell for every plan entry in key order
    (grid plans list empty tiles at zero counts, exactly as the serial
    partitioned join does), and the join's segment counters from
    :meth:`JoinSession.ship`.
    """
    kinds = config.approximation_kinds()
    (segment_a, segment_b), counters = session.ship(
        (relation_a, relation_b), kinds
    )
    spec_a, spec_b = segment_a.spec_for(kinds), segment_b.spec_for(kinds)
    plan = _partition_plan(relation_a, relation_b, grid, config)
    tasks: List[ColumnarTileTask] = []
    for key, idx_a, idx_b in plan.entries:
        if idx_a.size == 0 or idx_b.size == 0:
            continue
        tasks.append(
            ColumnarTileTask(
                tile=key,
                spec_a=spec_a,
                spec_b=spec_b,
                idx_a=idx_a,
                idx_b=idx_b,
                space=plan.space,
                grid=plan.grid,
                config=config,
            )
        )
    return tasks, plan.partition_shells(), counters


def plan_columnar_tile_tasks(
    relation_a: SpatialRelation,
    relation_b: SpatialRelation,
    grid: Tuple[int, int],
    config: JoinConfig,
) -> Tuple[List[ColumnarTileTask], List[PartitionStats], "JoinSession"]:
    """Decompose a join into shared segments + per-task index arrays.

    The configured :class:`~repro.core.partition.Partitioner` forms the
    tasks; each references the relations' shared ring columns and the
    stored columns of every approximation kind the join reads
    (:meth:`JoinConfig.approximation_kinds`).  Returns the tasks, the
    :class:`PartitionStats` shells (see :func:`_plan_in_session`) and
    the private :class:`~repro.core.session.JoinSession` holding the
    segments.  The caller owns that session and must
    :meth:`~repro.core.session.JoinSession.close` it once the outcomes
    are in — in a ``finally`` block.
    """
    from .session import JoinSession

    session = JoinSession()
    try:
        tasks, partitions, _ = _plan_in_session(
            session, relation_a, relation_b, grid, config
        )
        return tasks, partitions, session
    except BaseException:
        session.close()
        raise


# ---------------------------------------------------------------------------
# Worker-side execution.
# ---------------------------------------------------------------------------


class _MappedRelation(ColumnarRelation):
    """A pool worker's store over one relation's shared segments.

    Made by the first task that names the ring segment and kept for the
    pool's life (:func:`_task_store`).  Its edge table is built once,
    and its MBR rows are that table's shell MBRs (the floats of
    ``obj.mbr``); its objects are built on first read; each
    approximation block is mapped when a task first names it and
    installed as it is, so no worker derives a stored kind.
    """

    def __init__(self, spec: SharedRelationSpec):
        self._segments: List[shared_memory.SharedMemory] = []
        rings = RingColumns(**self._map(spec.rings))
        objects = _LazyObjects(rings)
        self._fill(spec.relation_name, objects, objects, rings.oids, None,
                   rings=rings)
        self.mbrs = self.ring_geometry().table.mbrs
        self.map_blocks(spec.approx)

    def _map(self, block: SharedColumnsSpec) -> Dict[str, np.ndarray]:
        shm = _attach_segment(block)
        self._segments.append(shm)
        return block.layout.views(shm.buf)

    def map_blocks(self, blocks: Sequence[Tuple[str, SharedColumnsSpec]]) -> None:
        """Map and install the approximation blocks not mapped yet."""
        for kind, block in blocks:
            if kind not in self._approx:
                columns = ApproxColumns(kind, self._map(block))
                self.objects.add(columns)
                self._approx[kind] = BatchApproxArrays.from_columns(
                    columns, self.objects
                )

    def close(self) -> None:
        """Unmap the segments (a worker keeps its stores until it exits)."""
        segments = self._segments
        self.__dict__.clear()  # the column views export the buffers
        for shm in segments:
            try:
                shm.close()
            except BufferError:
                pass  # a view outlives the store; the mapping goes with it


def _task_store(spec: SharedRelationSpec) -> ColumnarRelation:
    """The store a task reads for one relation, resolved once per process:
    the parent's in-memory store, or a pool worker's mapped one."""
    name = spec.rings.shm_name
    if os.getpid() == spec.rings.origin_pid:
        if name not in _SERVED:
            raise RuntimeError(f"segment {name} is not held by an open session")
        return _SERVED[name]
    store = _MAPPED.get(name)
    if store is None:
        store = _MAPPED[name] = _MappedRelation(spec)
    store.map_blocks(spec.approx)
    return store


def _tile_pairs(
    task: ColumnarTileTask, store_a: ColumnarRelation, store_b: ColumnarRelation
) -> Tuple[List[Tuple[int, int]], MultiStepStats]:
    """The task's owned oid pairs and stats, on its rows of the two stores.

    ``intersects``/``within`` tiles run :func:`run_tile` with the grid
    task's reference-tile frame.  Proximity tiles run the row pipelines
    on their rows of the stores' :class:`~repro.core.proximity.ProximityRows`;
    for ε-expanded *grid*
    distance tasks the owning-task rule runs on the ε/2-**expanded** MBR
    rows — the frame the replication used — and *before* any counter
    moves, so each global candidate is processed by exactly one task and
    the merged flow statistics equal the serial pipeline's (non-owned
    replicas only count into ``stats.dedup_dropped``).  Tree-guided
    tasks and every kNN task are disjoint by construction and need no
    hook.
    """
    config = task.config
    frame = None if task.grid is None else (task.space, task.grid, task.tile)
    if config.predicate not in ("distance", "knn"):
        return run_tile(
            config, store_a, store_b, task.idx_a, task.idx_b, frame
        )
    from .proximity import (
        ProximityRows,
        distance_join_pipeline,
        knn_join_pipeline,
    )

    stats = MultiStepStats()
    rows_a = ProximityRows.of(store_a, config.predicate).take(task.idx_a)
    rows_b = ProximityRows.of(store_b, config.predicate).take(task.idx_b)
    if config.predicate == "knn":
        return list(knn_join_pipeline(rows_a, rows_b, config, stats)), stats
    owns = None
    if frame is not None:
        space, (nx, ny), key = frame
        grow = np.array([-1.0, -1.0, 1.0, 1.0]) * (config.epsilon / 2.0)
        expanded_a = rows_a.mbrs + grow
        expanded_b = rows_b.mbrs + grow

        def owns(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
            ix, iy = owning_tiles(
                expanded_a[ra], expanded_b[rb], space, nx, ny
            )
            return (ix == key[0]) & (iy == key[1])

    pairs = distance_join_pipeline(rows_a, rows_b, config, stats, owns=owns)
    return list(pairs), stats


def run_columnar_tile_task(task: ColumnarTileTask) -> TileOutcome:
    """Execute one tile task (in a pool worker, or in-process).

    Joins the task's rows of this process's two stores
    (:func:`_task_store`, :func:`_tile_pairs`).  De-duplication runs
    *in the worker*, so only owned pairs cross the process boundary.
    """
    start = time.perf_counter()
    id_pairs, stats = _tile_pairs(
        task, _task_store(task.spec_a), _task_store(task.spec_b)
    )
    return TileOutcome(
        tile=task.tile,
        id_pairs=id_pairs,
        stats=stats,
        elapsed_seconds=time.perf_counter() - start,
    )


def _pool_context():
    """Prefer fork (cheap, Linux default); fall back to the platform default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def _warm_worker_kernels(backend: str) -> None:
    """Pool initializer: exercise the kernel backend once per worker.

    Runs at worker start-up, before any tile task.  The parent already
    warmed the backend before forking (see :func:`_dispatch`), so
    a forked worker inherits the loaded C library and this only runs
    each kernel once; a spawned worker loads the library the parent
    built from the on-disk cache.  No worker ever runs the compiler.
    The warm-up is recorded in :func:`repro.geometry.kernels.warm_events`
    so tests can assert it ran without timing anything.
    """
    warm_up(backend)


# ---------------------------------------------------------------------------
# Dispatch: how tile tasks reach the workers.
# ---------------------------------------------------------------------------


class TileExecutionError(RuntimeError):
    """A tile's worker raised; carries the tile index for attribution.

    Every future is mapped back to its tile, so a crashing worker
    surfaces as ``TileExecutionError(tile=(i, j))`` with the original
    exception as ``cause`` (and ``__cause__``), while the shared
    segments are still unlinked by the caller's ``finally``.
    """

    def __init__(self, tile: Tuple[int, int], cause: BaseException):
        super().__init__(f"tile {tile} failed in worker: {cause!r}")
        self.tile = tile
        self.cause = cause


def _task_cost(task: ColumnarTileTask) -> int:
    """Candidate-volume proxy that orders dispatch (largest first)."""
    return int(task.idx_a.size) * int(task.idx_b.size)


def _execute(
    tasks: Sequence[ColumnarTileTask],
    runner: Callable,
    pool: Optional[Executor],
) -> List[TileOutcome]:
    """Run the tasks largest-first on ``pool`` (in-process when None).

    The stable sort keeps equal-cost tasks in plan order.  Outcomes are
    collected in dispatch order; the caller folds them in tile-key
    order, so neither order reaches the result.
    """
    ordered = sorted(tasks, key=_task_cost, reverse=True)
    futures: List = []
    outcomes: List[TileOutcome] = []
    try:
        if pool is not None:
            for task in ordered:
                try:
                    futures.append(pool.submit(runner, task))
                except BrokenExecutor as exc:  # found broken already
                    raise TileExecutionError(task.tile, exc) from exc
        for position, task in enumerate(ordered):
            try:
                outcomes.append(
                    runner(task) if pool is None else futures[position].result()
                )
            except Exception as exc:
                raise TileExecutionError(task.tile, exc) from exc
    finally:
        for future in futures:
            future.cancel()
    return outcomes


def _dispatch(
    tasks: Sequence[ColumnarTileTask],
    runner: Callable,
    n_workers: int,
    session: "JoinSession",
    kernels: str,
) -> List[TileOutcome]:
    """Run the tasks on the session's pool (in-process for one worker).

    The pool warms the resolved ``kernels`` backend in the parent
    before forking and in every worker at start-up
    (:func:`_warm_worker_kernels`).
    """
    if n_workers == 1 or not tasks:
        return _execute(tasks, runner, None)
    try:
        return _execute(tasks, runner, session.pool(n_workers, kernels=kernels))
    except BaseException as exc:
        # A pool whose worker process died is unusable for every later
        # join; discard it so the session's next join forks a fresh one
        # (public-API detection — no reliance on the executor's private
        # broken flag).
        cause = getattr(exc, "cause", None)
        if isinstance(exc, BrokenExecutor) or isinstance(cause, BrokenExecutor):
            session._discard_pool()
        raise


def parallel_partitioned_join(
    relation_a: SpatialRelation,
    relation_b: SpatialRelation,
    grid: Optional[Tuple[int, int]] = None,
    config: Optional[JoinConfig] = None,
    workers: Optional[int] = None,
    session: Optional["JoinSession"] = None,
    partitioner: Optional[str] = None,
) -> ParallelPartitionedJoinResult:
    """Partitioned multi-step join on a real process pool.

    ``workers`` overrides ``config.workers``, ``grid`` overrides
    ``config.grid`` and ``partitioner`` overrides ``config.partitioner``
    when given.  ``config.partitioner`` selects the tile-formation
    strategy (uniform grid tiles or tree-guided leaf-overlap tasks, see
    :mod:`repro.core.partition`); tasks reach the workers largest-first
    (see module docstring).  Outcomes are folded in task-key order, so
    the merged output is deterministic regardless of which worker
    finishes first — for the grid strategy identical pairs, order, and
    merged statistics as the serial :func:`partitioned_join` on the
    same grid, and for the tree strategy identical across every worker
    count (its task decomposition depends only on the relations).

    ``session`` runs the join inside a
    :class:`repro.core.session.JoinSession`: the worker pool persists
    across joins and shared segments are served from the session's
    fingerprint-keyed cache, so repeated joins of the same relations
    ship zero redundant bytes.  Without a session the join runs in a
    private session that is closed before this call returns.
    """
    if session is None:
        from .session import JoinSession

        with JoinSession() as private:
            return parallel_partitioned_join(
                relation_a, relation_b, grid, config, workers, private,
                partitioner,
            )
    config = config or JoinConfig()
    if workers is not None:
        config = replace(config, workers=workers)
    if partitioner is not None:
        config = replace(config, partitioner=partitioner)
    grid = config.grid if grid is None else validate_grid(grid)
    # ``kernels`` is resolved here, once: workers receive (and pre-warm)
    # a concrete backend name instead of each re-resolving "auto".
    resolved_kernels = resolve_backend(config.kernels)
    if config.kernels != resolved_kernels:
        config = replace(config, kernels=resolved_kernels)
    # The session runs one join at a time: its lock is held until the
    # outcomes are merged, so no close() can unlink a segment in flight.
    with session._lock:
        session._ensure_open()
        return _join_in_session(session, relation_a, relation_b, grid, config)


def _join_in_session(
    session: "JoinSession",
    relation_a: SpatialRelation,
    relation_b: SpatialRelation,
    grid: Tuple[int, int],
    config: JoinConfig,
) -> ParallelPartitionedJoinResult:
    """The executor body: plan, dispatch and merge inside ``session``."""
    if config.predicate in ("distance", "knn") and _proximity_runs_serial(
        relation_a, relation_b
    ):
        # Tiny-relation fallback: below PROXIMITY_SERIAL_VOLUME
        # candidate pairs the ε-aware task formation costs more than
        # the join itself, so both proximity predicates run the
        # dedicated serial pipeline (repro.core.proximity) as a single
        # in-process task.  The routing predicate depends only on the
        # relations — never on the worker count — so configs that
        # differ only in execution fields still produce byte-identical
        # results (the service cache contract).  Everything larger
        # flows through the ε-expanded partition plan below, with
        # workers=1 executing the same tasks in-process.
        start = time.perf_counter()
        serial = SpatialJoinProcessor(
            replace(config, workers=1)
        ).join(relation_a, relation_b)
        session.joins_run += 1
        return ParallelPartitionedJoinResult(
            pairs=serial.pairs,
            partitions=[],
            stats=serial.stats,
            workers=1,
            tile_tasks=0,
            elapsed_seconds=time.perf_counter() - start,
            partitioner=config.partitioner,
        )

    start = time.perf_counter()
    tasks, partitions, counters = _plan_in_session(
        session, relation_a, relation_b, grid, config
    )
    outcomes = _dispatch(
        tasks, run_columnar_tile_task, config.workers,
        session=session, kernels=config.kernels,
    )

    # Deterministic merge: fold outcomes in tile-key order, not the
    # largest-first dispatch order.
    pairs, merged = fold_tiles(
        relation_a, relation_b, partitions,
        [(each.tile, each.id_pairs, each.stats) for each in outcomes],
    )
    tile_seconds = {each.tile: each.elapsed_seconds for each in outcomes}
    if config.predicate == "knn":
        # Tasks partition the left relation, so the task-key fold
        # groups neighbour lists by task; the serial pipeline emits
        # left objects in relation order.  A stable re-sort by left
        # position restores it exactly (each left object's whole top-k
        # comes from one task, already in ascending (distance, oid)
        # order), making the merged output byte-identical to the
        # serial pipeline's.
        position = {obj.oid: i for i, obj in enumerate(relation_a)}
        pairs.sort(key=lambda pair: position[pair[0].oid])
    session.joins_run += 1
    return ParallelPartitionedJoinResult(
        pairs=pairs,
        partitions=partitions,
        stats=merged,
        workers=config.workers,
        tile_tasks=len(tasks),
        elapsed_seconds=time.perf_counter() - start,
        tile_seconds=tile_seconds,
        partitioner=config.partitioner,
        **counters,
    )
