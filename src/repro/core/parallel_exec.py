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
join, and beside it one block per stored approximation kind the join
reads (:meth:`JoinConfig.approximation_kinds`) holding that kind's
columns (:class:`repro.approximations.batch.ApproxColumns`, taken from
``relation.columnar().approx(kind)`` — the get-or-build point, so a
build happens at most once, in the parent).  A :class:`ColumnarTileTask`
then pickles only the segment descriptors plus two per-tile index
arrays; workers map the segments, rebuild polygons bit-identically via
:meth:`Polygon.from_normalized`, and *gather* the tile's approximation
rows by the same indices (:func:`repro.core.partition.tile_relation`,
the helper the serial partitioned join cuts its tiles with) — workers
gather, they never derive a stored kind.  Replicated objects cost
nothing extra on the wire (the columns ship once, indices are cheap).

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

Setup costs can be amortised across joins with a
:class:`repro.core.session.JoinSession`: the session owns a long-lived
worker pool and a cache of shared-memory segments keyed by relation
fingerprint, so repeated joins of the same relations fork no new
workers and ship zero redundant bytes.  Sessionless calls keep the
one-shot lifecycle (segments created before dispatch, unlinked in
``finally``).

Either way the guarantees are the same:

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
  in-process, in the same largest-first order, with no pool and no
  pickling (the wire format is exercised by every ``workers >= 2``
  join).
* **Segment lifecycle** — shared segments are created before dispatch
  and unlinked in a ``finally`` block, so success, worker failure, and
  KeyboardInterrupt all leave ``/dev/shm`` clean
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
the serial left-relation order.  Proximity tiles gather their rows
(:class:`~repro.core.proximity.ProximityRows`) from the segments and
build no object.  Only tiny joins — candidate volume
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
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from multiprocessing import shared_memory
from typing import (
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

from ..approximations.batch import ApproxColumns, stored_family
from ..datasets.columnar import RingColumns, unpack_polygon
from ..datasets.relations import SpatialObject, SpatialRelation
from ..geometry.fastops import build_edge_table
from ..geometry.kernels import resolve_backend, warm_up
from ..geometry.rectangle import Rect
from .join import JoinConfig, SpatialJoinProcessor, validate_grid
from .partition import (
    PartitionedJoinResult,
    PartitionPlan,
    PartitionStats,
    create_partitioner,
    owning_tile,
    owning_tiles,
    tile_relation,
)
from .stats import MultiStepStats

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
    space: Optional[Tuple[float, float, float, float]]
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
    #: sessionless join always creates both segments fresh
    #: (``hits=0, misses=2``).
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
    exactly once by whoever owns it — a per-join
    :class:`ColumnarShipment` or a cross-join
    :class:`repro.core.session.JoinSession` segment cache, which keys
    reuse on :attr:`fingerprint`.  Approximation blocks are keyed by
    kind under that fingerprint (:attr:`approx`), added as joins need
    them (:meth:`ensure_approx`) and unlinked together with the rings.
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
        blocks, self.approx = self.approx, {}
        try:
            for block in blocks.values():
                block.close()
        finally:
            self.rings.close()


class ColumnarShipment:
    """Parent-side owner of one join's per-relation shared segments.

    Creating the shipment copies each relation's packed ring columns
    into one :class:`SharedRelationSegment`; :meth:`ship_approx` adds
    the approximation blocks the join reads; :meth:`close` unlinks them
    all.  Callers must close in a ``finally`` block — the lifecycle
    tests assert that no ``/dev/shm`` entry survives success, worker
    failure, or interrupt.  (Session-cached segments are not wrapped in
    a shipment: their lifecycle belongs to the session.)
    """

    def __init__(self, relations: Sequence[SpatialRelation]):
        self._relations = tuple(relations)
        self._segments: List[SharedRelationSegment] = []
        #: approximation blocks shipped and their bytes.
        self.approx_blocks = 0
        self.approx_bytes = 0
        try:
            for relation in self._relations:
                self._segments.append(SharedRelationSegment(relation))
        except BaseException:
            self.close()
            raise

    def ship_approx(self, kinds: Sequence[str]) -> None:
        """Ship the given approximation kinds of every relation."""
        for relation, segment in zip(self._relations, self._segments):
            _, misses, shipped = segment.ensure_approx(relation, kinds)
            self.approx_blocks += misses
            self.approx_bytes += shipped

    def specs_for(self, kinds: Sequence[str] = ()) -> List[SharedRelationSpec]:
        return [segment.spec_for(kinds) for segment in self._segments]

    @property
    def segment_names(self) -> Tuple[str, ...]:
        """Names of the ring segments, in relation order."""
        return tuple(
            segment.rings.spec.shm_name for segment in self._segments
        )

    @property
    def total_bytes(self) -> int:
        """Ring payload bytes shipped through shared memory."""
        return sum(segment.nbytes for segment in self._segments)

    def close(self) -> None:
        """Unlink every segment (idempotent)."""
        segments, self._segments = self._segments, []
        for segment in segments:
            segment.close()


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


def _columnar_tasks_for_specs(
    relation_a: SpatialRelation,
    relation_b: SpatialRelation,
    grid: Tuple[int, int],
    config: JoinConfig,
    spec_a: SharedRelationSpec,
    spec_b: SharedRelationSpec,
) -> Tuple[List[ColumnarTileTask], List[PartitionStats]]:
    """Build the tile tasks against already-shipped segments.

    Shared by the one-shot path (segments in a fresh
    :class:`ColumnarShipment`) and the session path (segments served
    from the :class:`~repro.core.session.JoinSession` cache) — one task
    format either way.
    """
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
                space=plan.space_tuple,
                grid=plan.grid,
                config=config,
            )
        )
    return tasks, plan.partition_shells()


def plan_columnar_tile_tasks(
    relation_a: SpatialRelation,
    relation_b: SpatialRelation,
    grid: Tuple[int, int],
    config: JoinConfig,
) -> Tuple[List[ColumnarTileTask], List[PartitionStats], ColumnarShipment]:
    """Decompose a join into shared segments + per-task index arrays.

    The configured :class:`~repro.core.partition.Partitioner` forms the
    tasks; each references the relations' shared ring columns and the
    stored columns of every approximation kind the join reads
    (:meth:`JoinConfig.approximation_kinds`).  Returns the tasks
    (non-empty only, in plan order), a :class:`PartitionStats` shell
    for every plan entry in key order (grid plans list empty tiles at
    zero counts, exactly as the serial partitioned join does), and the
    shipment.  The caller owns the returned
    :class:`ColumnarShipment` and must :meth:`~ColumnarShipment.close`
    it once the outcomes are in — in a ``finally`` block.
    """
    shipment = ColumnarShipment((relation_a, relation_b))
    try:
        kinds = config.approximation_kinds()
        shipment.ship_approx(kinds)
        spec_a, spec_b = shipment.specs_for(kinds)
        tasks, partitions = _columnar_tasks_for_specs(
            relation_a, relation_b, grid, config, spec_a, spec_b
        )
        return tasks, partitions, shipment
    except BaseException:
        shipment.close()
        raise


# ---------------------------------------------------------------------------
# Worker-side execution.
# ---------------------------------------------------------------------------


def _objects_from_columns(
    columns: RingColumns, indices: np.ndarray
) -> List[SpatialObject]:
    """Rebuild the indexed objects from mapped ring columns.

    Polygons copy their coordinates out of the columns (bit-identically,
    via :meth:`Polygon.from_normalized`), so the returned objects hold
    no references into the backing buffer.
    """
    return [
        SpatialObject(int(columns.oids[i]), unpack_polygon(columns, int(i)))
        for i in indices
    ]


class _MappedRelation:
    """A worker's read-only mapping of one relation's shared segments.

    Attaches the ring segment and every approximation block named by
    the spec.  :meth:`tile` copies a tile's rows out; everything it
    returns is free of references into the mapped buffers, and so is
    the edge table batched refinement gathers from :attr:`rings`, so
    :meth:`close` can unmap at any time.
    """

    def __init__(self, spec: SharedRelationSpec):
        self.name = spec.relation_name
        self._segments: List[shared_memory.SharedMemory] = []
        self.rings: Optional[RingColumns] = None
        self.approx: List[ApproxColumns] = []
        try:
            self.rings = RingColumns(**self._map(spec.rings))
            self.approx = [
                ApproxColumns(kind, self._map(block))
                for kind, block in spec.approx
            ]
        except BaseException:
            self.close()
            raise

    def _map(self, block: SharedColumnsSpec) -> Dict[str, np.ndarray]:
        shm = _attach_segment(block)
        self._segments.append(shm)
        return block.layout.views(shm.buf)

    def tile(self, indices: np.ndarray) -> SpatialRelation:
        """The tile's relation slice, approximations gathered — never derived.

        Objects are rebuilt from the ring columns; the rows of every
        shipped approximation kind are gathered by the same indices
        (:func:`~repro.core.partition.tile_relation`, which cuts the
        serial partitioned join's tiles too).
        """
        return tile_relation(
            self.name,
            _objects_from_columns(self.rings, indices),
            self.approx,
            indices,
        )

    def proximity_rows(self, indices: np.ndarray, predicate: str):
        """The task's :class:`~repro.core.proximity.ProximityRows`, gathered.

        Edge table, oids and (``distance`` only) the shipped MBC/MEC
        circle rows of ``indices`` — copies, and no object, polygon or
        approximation is built on the way.
        """
        from .proximity import ProximityRows

        rings = self.rings
        table = build_edge_table(
            rings.object_rings, rings.ring_offsets, rings.ring_xy, indices
        )
        circles = {
            columns.kind: columns.arrays["circles"][indices]
            for columns in self.approx
            if columns.kind in ("MBC", "MEC")
        }
        return ProximityRows(
            rings.oids[indices], table.mbrs, table,
            circles.get("MBC"), circles.get("MEC"),
        )

    def close(self) -> None:
        # Release the exported buffers (the column views) before closing.
        self.rings = None
        self.approx = []
        segments, self._segments = self._segments, []
        for shm in segments:
            try:
                shm.close()
            except BufferError:
                # The traceback of a failing tile still references a
                # view; the mapping is dropped with it.  The parent
                # owns the unlink either way.
                pass


def _finish_tile(task, rel_a, rel_b, start: float, refinement) -> TileOutcome:
    """Tile-local join + reference-tile de-duplication.

    The relation slices arrive with their stored approximation columns
    gathered from shared memory (:meth:`_MappedRelation.tile`), so the
    batched filter reads them as they are.  ``refinement`` is the exact
    step, built from the mapped ring columns so it reads the shipped
    geometry directly.
    """
    config = replace(task.config, workers=1)
    result = SpatialJoinProcessor(config).join(
        rel_a, rel_b, refinement=refinement
    )
    if task.grid is None:
        # Tree-guided tasks partition the candidate-pair space
        # disjointly (each object lives in exactly one leaf), so every
        # pair this task emits is owned by it — no reference-tile rule.
        owned = [
            (obj_a.oid, obj_b.oid) for obj_a, obj_b in result.pairs
        ]
    else:
        space = Rect(*task.space)
        nx, ny = task.grid
        owned = [
            (obj_a.oid, obj_b.oid)
            for obj_a, obj_b in result.pairs
            if owning_tile(obj_a.mbr, obj_b.mbr, space, nx, ny) == task.tile
        ]
    return TileOutcome(
        tile=task.tile,
        id_pairs=owned,
        stats=result.stats,
        elapsed_seconds=time.perf_counter() - start,
    )


def _finish_proximity_tile(task, rows_a, rows_b, start: float) -> TileOutcome:
    """Task-local proximity join on gathered rows.

    Runs the proximity pipeline on the task's
    :class:`~repro.core.proximity.ProximityRows`, which yields oid pairs
    directly.  For ε-expanded *grid* distance tasks
    (``task.space``/``task.grid`` set) the owning-task rule runs on the
    ε/2-**expanded** MBR rows — the frame the replication used — and
    runs *before* any counter moves, so each global candidate is
    processed by exactly one task and the merged flow statistics equal
    the serial pipeline's; non-owned replicas only count into
    ``stats.dedup_dropped``.  Tree-guided distance tasks and every kNN
    task are disjoint by construction and need no hook.
    """
    from .proximity import distance_join_pipeline, knn_join_pipeline

    config = replace(task.config, workers=1)
    stats = MultiStepStats()
    if config.predicate == "distance":
        owns = None
        if task.grid is not None:
            space = Rect(*task.space)
            nx, ny = task.grid
            grow = np.array([-1.0, -1.0, 1.0, 1.0]) * (config.epsilon / 2.0)
            expanded_a = rows_a.mbrs + grow
            expanded_b = rows_b.mbrs + grow

            def owns(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
                ix, iy = owning_tiles(
                    expanded_a[ra], expanded_b[rb], space, nx, ny
                )
                return (ix == task.tile[0]) & (iy == task.tile[1])

        pairs = list(
            distance_join_pipeline(rows_a, rows_b, config, stats, owns=owns)
        )
    else:
        pairs = list(knn_join_pipeline(rows_a, rows_b, config, stats))
    return TileOutcome(
        tile=task.tile,
        id_pairs=pairs,
        stats=stats,
        elapsed_seconds=time.perf_counter() - start,
    )


def run_columnar_tile_task(task: ColumnarTileTask) -> TileOutcome:
    """Execute one tile task (runs inside a worker).

    The local join is the ordinary multi-step pipeline with the task's
    engine configuration; de-duplication applies the reference-tile rule
    *in the worker*, so only owned pairs cross the process boundary.
    Objects are rebuilt from the shared ring columns and their
    approximations are *gathered* from the shared approximation blocks
    by the task's row indices — no tile computes an approximation of a
    shipped kind.  (A filter kind without a stored form is packed per
    join by the batched filter, for the objects that reach it.)  The
    exact step reads a
    :class:`~repro.exact.refine.RingGeometry` edge table gathered from
    the mapped ring columns for the task's rows only (copies, so the
    mapping can be closed whenever the join ends).
    Proximity tasks never build an object: they gather their
    :class:`~repro.core.proximity.ProximityRows` from the mapped
    segments (:meth:`_MappedRelation.proximity_rows`) and run the row
    pipelines on them.
    """
    start = time.perf_counter()
    mapped: List[_MappedRelation] = []
    try:
        map_a = _MappedRelation(task.spec_a)
        mapped.append(map_a)
        map_b = _MappedRelation(task.spec_b)
        mapped.append(map_b)
        predicate = task.config.predicate
        if predicate in ("distance", "knn"):
            return _finish_proximity_tile(
                task,
                map_a.proximity_rows(task.idx_a, predicate),
                map_b.proximity_rows(task.idx_b, predicate),
                start,
            )
        rel_a = map_a.tile(task.idx_a)
        rel_b = map_b.tile(task.idx_b)
        from ..exact.refine import BatchedRefinement, RingGeometry

        refinement = BatchedRefinement(
            task.config,
            RingGeometry(map_a.rings, rel_a.objects, task.idx_a),
            RingGeometry(map_b.rings, rel_b.objects, task.idx_b),
        )
        return _finish_tile(task, rel_a, rel_b, start, refinement)
    finally:
        for relation in mapped:
            relation.close()


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
    pool: Optional[ProcessPoolExecutor],
) -> List[TileOutcome]:
    """Run the tasks largest-first on ``pool`` (in-process when None).

    The stable sort keeps equal-cost tasks in plan order.  Outcomes are
    collected in dispatch order; the caller folds them in tile-key
    order, so neither order reaches the result.
    """
    ordered = sorted(tasks, key=_task_cost, reverse=True)
    futures = (
        [] if pool is None else [pool.submit(runner, task) for task in ordered]
    )
    outcomes: List[TileOutcome] = []
    try:
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
    session=None,
    kernels: str = "numpy",
) -> List[TileOutcome]:
    """Run the tasks on a pool (or in-process for one worker).

    ``session`` supplies a persistent pool when given; otherwise a
    one-shot pool is created and torn down around the join.  Either
    pool warms the resolved ``kernels`` backend in the parent before
    forking and in every worker at start-up (:func:`_warm_worker_kernels`).
    """
    if n_workers == 1 or not tasks:
        return _execute(tasks, runner, None)
    if session is not None:
        try:
            pool = session.pool(n_workers, kernels=kernels)
            return _execute(tasks, runner, pool)
        except BaseException as exc:
            # A pool whose worker process died is unusable for every
            # later join; discard it so the session's next join forks a
            # fresh one (public-API detection — no reliance on the
            # executor's private broken flag).
            cause = getattr(exc, "cause", None)
            if isinstance(exc, BrokenExecutor) or isinstance(
                cause, BrokenExecutor
            ):
                session._discard_pool()
            raise
    # Warm in the parent first: the first use of the C backend builds
    # its library once here, and the forked workers inherit it loaded.
    warm_up(kernels)
    with ProcessPoolExecutor(
        max_workers=min(n_workers, len(tasks)),
        mp_context=_pool_context(),
        initializer=_warm_worker_kernels,
        initargs=(kernels,),
    ) as pool:
        return _execute(tasks, runner, pool)


def parallel_partitioned_join(
    relation_a: SpatialRelation,
    relation_b: SpatialRelation,
    grid: Optional[Tuple[int, int]] = None,
    config: Optional[JoinConfig] = None,
    workers: Optional[int] = None,
    session=None,
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

    ``session`` (or ``config.session``) runs the join inside a
    :class:`repro.core.session.JoinSession`: the worker pool persists
    across joins and shared segments are served from the session's
    fingerprint-keyed cache, so repeated joins of the same relations
    ship zero redundant bytes.  The segments are leased (pinned) for
    the duration of the join, so a byte-bounded session cache can never
    evict them mid-flight.  Without a session every resource is created
    and torn down around this one call.
    """
    config = config or JoinConfig()
    if workers is not None:
        config = replace(config, workers=workers)
    if partitioner is not None:
        config = replace(config, partitioner=partitioner)
    if session is None:
        session = config.session
    if session is not None:
        session._ensure_open()
    grid = config.grid if grid is None else validate_grid(grid)
    n_workers = config.workers
    # Tasks ship the config to worker processes; a live session must
    # stay behind in the parent.  ``kernels`` is resolved here, once:
    # workers receive (and pre-warm) a concrete backend name instead of
    # each re-resolving "auto".
    resolved_kernels = resolve_backend(config.kernels)
    wire_config = (
        config if config.session is None else replace(config, session=None)
    )
    if wire_config.kernels != resolved_kernels:
        wire_config = replace(wire_config, kernels=resolved_kernels)

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
            replace(wire_config, workers=1)
        ).join(relation_a, relation_b)
        if session is not None:
            session._note_join()
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
    shipment: Optional[ColumnarShipment] = None
    lease = None
    shipped_bytes = reused_bytes = 0
    cache_hits = cache_misses = 0
    approx_hits = approx_misses = approx_bytes = 0
    try:
        if session is not None:
            kinds = wire_config.approximation_kinds()
            lease = session.lease_segments((relation_a, relation_b), kinds)
            for segment, reused in zip(lease.segments, lease.reused):
                if reused:
                    cache_hits += 1
                    reused_bytes += segment.nbytes
                else:
                    cache_misses += 1
                    shipped_bytes += segment.nbytes
            approx_hits = lease.approx_hits
            approx_misses = lease.approx_misses
            approx_bytes = lease.approx_bytes
            tasks, partitions = _columnar_tasks_for_specs(
                relation_a, relation_b, grid, wire_config,
                lease.segments[0].spec_for(kinds),
                lease.segments[1].spec_for(kinds),
            )
        else:
            tasks, partitions, shipment = plan_columnar_tile_tasks(
                relation_a, relation_b, grid, wire_config
            )
            shipped_bytes = shipment.total_bytes
            cache_misses = 2
            approx_misses = shipment.approx_blocks
            approx_bytes = shipment.approx_bytes
        outcomes = _dispatch(
            tasks,
            run_columnar_tile_task,
            n_workers,
            session=session,
            kernels=resolved_kernels,
        )
    finally:
        if shipment is not None:
            shipment.close()
        if lease is not None:
            lease.release()

    # Deterministic merge: fold outcomes in tile-key order, not the
    # largest-first dispatch order.
    outcomes.sort(key=lambda outcome: outcome.tile)
    by_id_a = {obj.oid: obj for obj in relation_a}
    by_id_b = {obj.oid: obj for obj in relation_b}
    by_tile = {p.tile: p for p in partitions}
    pairs: List[Tuple[SpatialObject, SpatialObject]] = []
    merged = MultiStepStats()
    tile_seconds: Dict[Tuple[int, int], float] = {}
    for outcome in outcomes:
        pstats = by_tile[outcome.tile]
        pstats.candidate_pairs = outcome.stats.candidate_pairs
        pstats.output_pairs = len(outcome.id_pairs)
        merged.merge(outcome.stats)
        tile_seconds[outcome.tile] = outcome.elapsed_seconds
        pairs.extend(
            (by_id_a[oid_a], by_id_b[oid_b])
            for oid_a, oid_b in outcome.id_pairs
        )
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
    if session is not None:
        session._note_join()
    return ParallelPartitionedJoinResult(
        pairs=pairs,
        partitions=partitions,
        stats=merged,
        workers=n_workers,
        tile_tasks=len(tasks),
        elapsed_seconds=time.perf_counter() - start,
        tile_seconds=tile_seconds,
        shared_payload_bytes=shipped_bytes,
        partitioner=config.partitioner,
        segment_cache_hits=cache_hits,
        segment_cache_misses=cache_misses,
        reused_payload_bytes=reused_bytes,
        approx_cache_hits=approx_hits,
        approx_cache_misses=approx_misses,
        approx_payload_bytes=approx_bytes,
    )
