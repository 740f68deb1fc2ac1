"""Columnar relation store: one numpy-backed representation per relation.

The paper's storage model computes approximations once per object at
insertion time and *stores* them in the SAM; :class:`ColumnarRelation`
is the set-oriented equivalent.  For one :class:`SpatialRelation` it
materialises, once, every numpy column the rest of the system consumes:

* ``oids`` — ``(n,)`` object identifiers,
* ``mbrs`` — ``(n, 4)`` object MBRs (xmin, ymin, xmax, ymax), the input
  of the vectorized grid partitioner (:mod:`repro.core.partition`),
* ``areas`` — ``(n,)`` exact object areas,
* per-kind approximation arrays via :meth:`approx` — fully packed
  :class:`~repro.approximations.batch.BatchApproxArrays` (approximation
  MBRs, stored false areas, circle parameters, padded convex vertex
  matrices) reused by the batched engine across joins,
* ``rings`` — the flattened ring geometry (:class:`RingColumns`) that
  the multi-process executor ships to workers through
  :mod:`multiprocessing.shared_memory`.

Every column is copied bit-for-bit from the scalar accessors
(``obj.mbr``, ``appr.area()``, vertex tuples), never re-derived, so
array consumers see exactly the floats the scalar code paths see
(``tests/test_columnar.py`` proves the round trip).  m-corner, MER
and MEC objects a relation lacks are built for all its rows at once by
the kernel tier, the same floats as a build per object, and then
packed like every other kind.  Row
index ``i`` always refers to ``relation.objects[i]``; tile
decomposition and the worker wire format are therefore plain index
arrays into these columns.

Columns are built lazily by group — ``oids``/``mbrs`` eagerly (they are
cheap and every consumer needs them), approximation arrays per kind on
first use, ring geometry on first shipment — and cached on the store,
which :meth:`SpatialRelation.columnar` in turn caches on the relation.

Approximation columns are **stored data**, keyed by relation content:
:meth:`ColumnarRelation.approx` is the single get-or-build point and
resolves a kind from memory, then from the pages of the persistent
store the relation was loaded from, and only then builds it — and
publishes what it built back to that store, so an approximation is
computed at most once per (relation content, kind) across joins,
sessions and processes.  Columns that arrive already packed from store
pages are adopted with :meth:`ColumnarRelation.install_approx`, which
also seeds every object's scalar approximation cache from the same rows:
nothing downstream of a stored kind ever calls ``compute_approximation``.

A **tile** of a partitioned join is two row-index arrays over its
parents' stores (:func:`repro.core.partition.run_tile`), never a store
of its own.  A pool worker reads one store over a relation's mapped
shared segments for the pool's life (:mod:`repro.core.parallel_exec`).
"""

from __future__ import annotations

import hashlib
import threading
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from ..approximations.batch import (
    ApproxColumns,
    BatchApproxArrays,
    kernel_approximations,
    kernel_built,
    stored_family,
)
from ..geometry.polygon import Polygon

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .relations import SpatialRelation


class RingColumns(NamedTuple):
    """Flattened ring geometry of one relation (the shipping format).

    ``object_rings[i] : object_rings[i + 1]`` is the ring range of object
    ``i`` (ring 0 is the shell, the rest are holes);
    ``ring_offsets[r] : ring_offsets[r + 1]`` is ring ``r``'s point range
    in ``ring_xy``.  Four contiguous arrays — exactly what one
    shared-memory segment holds.
    """

    oids: np.ndarray  #: ``(n,)`` int64 object ids
    object_rings: np.ndarray  #: ``(n + 1,)`` int64 ring ranges per object
    ring_offsets: np.ndarray  #: ``(n_rings + 1,)`` int64 point ranges
    ring_xy: np.ndarray  #: ``(n_points, 2)`` float64 vertex coordinates

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self)


def pack_rings(
    objects: Sequence[object], oids: Optional[np.ndarray] = None
) -> RingColumns:
    """Flatten the objects' normalised rings into :class:`RingColumns`.

    ``oids`` lets callers that already hold the id column (e.g.
    :class:`ColumnarRelation`) reuse it instead of rebuilding it.
    """
    if oids is None:
        oids = np.array([obj.oid for obj in objects], dtype=np.int64)
    object_rings = np.empty(len(objects) + 1, dtype=np.int64)
    object_rings[0] = 0
    ring_lengths: List[int] = []
    coords: List[tuple] = []
    for i, obj in enumerate(objects):
        rings = (obj.polygon.shell,) + obj.polygon.holes
        for ring in rings:
            ring_lengths.append(len(ring))
            coords.extend(ring)
        object_rings[i + 1] = object_rings[i] + len(rings)
    ring_offsets = np.zeros(len(ring_lengths) + 1, dtype=np.int64)
    np.cumsum(ring_lengths, out=ring_offsets[1:])
    ring_xy = np.array(coords, dtype=np.float64).reshape(-1, 2)
    return RingColumns(oids, object_rings, ring_offsets, ring_xy)


def ring_fingerprint(name: str, n_objects: int, columns: RingColumns) -> str:
    """Blake2b content digest over a relation's packed ring columns.

    The single fingerprint definition shared by the in-memory store
    (:attr:`ColumnarRelation.fingerprint`) and the persistent store
    (:mod:`repro.datasets.store`, which re-derives it from disk pages to
    verify integrity): relation name, object count, then each ring
    column's contiguous bytes — exactly the bytes a shared-memory
    segment carries.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(name.encode("utf-8"))
    digest.update(int(n_objects).to_bytes(8, "little"))
    for column in columns:
        digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


def unpack_polygon(columns: RingColumns, index: int) -> Polygon:
    """Rebuild object ``index``'s polygon from packed ring columns.

    The packed rings are the already-normalised ``Polygon.shell`` /
    ``Polygon.holes`` tuples, so reconstruction goes through
    :meth:`Polygon.from_normalized` and the result is bit-identical to
    the source polygon — re-running the constructor's normalisation
    would flip the vertex order of zero-area (degenerate) rings.
    """
    first = int(columns.object_rings[index])
    last = int(columns.object_rings[index + 1])
    rings = []
    for r in range(first, last):
        span = columns.ring_xy[columns.ring_offsets[r]:columns.ring_offsets[r + 1]]
        rings.append([(x, y) for x, y in span.tolist()])
    return Polygon.from_normalized(rings[0], rings[1:])


class _LazyObjects(Sequence):
    """The objects of packed ring columns, each built on its first read.

    Object ``i`` is rebuilt from row ``i`` of the rings
    (:func:`unpack_polygon`, bit-identical) with row ``i`` of every
    stored kind :meth:`add`-ed in its approximation cache: reading an
    object derives nothing, and an object no scalar path reads is never
    built.  The objects of a pool worker's store.
    """

    def __init__(self, rings: RingColumns):
        self._rings = rings
        self._stored: List[ApproxColumns] = []
        self._built: Dict[int, object] = {}

    def __len__(self) -> int:
        return len(self._rings.oids)

    def __getitem__(self, row):
        row = int(row)
        obj = self._built.get(row)
        if obj is None:
            from .relations import SpatialObject  # lazy: import cycle

            obj = SpatialObject(
                int(self._rings.oids[row]), unpack_polygon(self._rings, row)
            )
            for columns in self._stored:
                obj._approximations[columns.kind] = columns.approximation(row)
            self._built[row] = obj
        return obj

    def add(self, columns: ApproxColumns) -> None:
        """Serve a stored kind's rows to the objects built so far and later."""
        self._stored.append(columns)
        for row, obj in self._built.items():
            if columns.kind not in obj._approximations:
                obj._approximations[columns.kind] = columns.approximation(row)


class ColumnarRelation:
    """The numpy column store of one relation (see module docstring)."""

    def __init__(self, relation: "SpatialRelation"):
        objects = list(relation.objects)
        self._fill(
            relation.name, relation.objects, objects,
            np.array([obj.oid for obj in objects], dtype=np.int64),
            np.array(
                [
                    (m.xmin, m.ymin, m.xmax, m.ymax)
                    for m in (obj.mbr for obj in objects)
                ],
                dtype=np.float64,
            ).reshape(-1, 4),
        )

    def _fill(self, name, source, objects, oids, mbrs, areas=None,
              rings=None, fingerprint=None, approx_store=None) -> None:
        """Install the base columns; everything built on them starts empty."""
        self.name = name
        #: the relation's live object list — identity is the cache key
        #: (:meth:`SpatialRelation.columnar` rebuilds when it changes).
        self._source = source
        #: snapshot of the objects at build time; row ``i`` describes
        #: ``objects[i]``.  A snapshot, so lazily-built column groups
        #: stay consistent with the eager ones even if the relation's
        #: list is resized afterwards (which invalidates the cache).
        self.objects = objects
        self.oids = oids
        self.mbrs = mbrs
        self._areas: Optional[np.ndarray] = areas
        self._rings: Optional[RingColumns] = rings
        self._fingerprint: Optional[str] = fingerprint
        self._approx: Dict[str, BatchApproxArrays] = {}
        #: where stored approximation columns are read from and
        #: published to (a :class:`repro.datasets.store.StoredRelation`);
        #: ``None`` for a relation that came from no store.
        self._approx_store = approx_store
        #: serialises the get-or-build of :meth:`approx`: two service
        #: threads joining the same relation must not both build a kind.
        self._approx_lock = threading.Lock()
        self._ring_geometry = None
        self._partition_trees: Dict[int, object] = {}
        #: packing events per approximation kind; stays at 1 per kind
        #: no matter how many joins read the store (regression-tested),
        #: and at 0 for kinds adopted from stored columns.
        self.pack_counts: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.objects)

    @property
    def areas(self) -> np.ndarray:
        """``(n,)`` exact object areas (``polygon.area()``)."""
        if self._areas is None:
            self._areas = np.array(
                [obj.polygon.area() for obj in self.objects], dtype=np.float64
            )
        return self._areas

    @property
    def rings(self) -> RingColumns:
        """Packed ring geometry (built once, on first shipment)."""
        if self._rings is None:
            self._rings = pack_rings(self.objects, self.oids)
        return self._rings

    @property
    def fingerprint(self) -> str:
        """Content digest identifying this relation's shipped geometry.

        A blake2b digest over the relation name and the packed ring
        columns — exactly the bytes a shared-memory segment would carry.
        Two stores with equal fingerprints ship byte-identical segments,
        which is what the session-level segment cache
        (:class:`repro.core.session.JoinSession`) keys on; a relation
        whose object list changed gets a fresh store (see
        :meth:`SpatialRelation.columnar`) and therefore a fresh
        fingerprint.
        """
        if self._fingerprint is None:
            self._fingerprint = ring_fingerprint(
                self.name, len(self.objects), self.rings
            )
        return self._fingerprint

    @classmethod
    def from_stored(
        cls,
        relation: "SpatialRelation",
        *,
        mbrs: np.ndarray,
        areas: np.ndarray,
        rings: RingColumns,
        fingerprint: str,
        approx_store=None,
    ) -> "ColumnarRelation":
        """A store over ``relation`` seeded with already-packed columns.

        The persistent store (:mod:`repro.datasets.store`) uses this to
        reconstruct a relation's columnar representation straight from
        its disk pages — zero re-packing: ``mbrs``/``areas``/``rings``
        are installed verbatim (memmap-backed views are fine; every
        consumer either reads or copies them) and ``fingerprint`` is
        trusted from the manifest, so neither :func:`pack_rings` nor the
        digest ever runs.  The caller guarantees the columns describe
        ``relation.objects`` row for row — the store's round-trip tests
        prove its pages do.

        ``approx_store`` (the :class:`~repro.datasets.store.StoredRelation`
        the columns came from) backs :meth:`approx`: every kind it
        already holds is installed now, kinds built later are published
        to it.
        """
        store = cls.__new__(cls)
        store._fill(
            relation.name, relation.objects, list(relation.objects),
            np.ascontiguousarray(rings.oids),
            np.asarray(mbrs, dtype=np.float64).reshape(-1, 4),
            np.asarray(areas, dtype=np.float64), rings, fingerprint,
            approx_store,
        )
        if approx_store is not None:
            for kind in approx_store.approx_kinds():
                columns = approx_store.load_approx(kind)
                if columns is not None:
                    store.install_approx(columns)
        return store

    def partition_tree(self, max_entries: int = 8):
        """A bulk-loaded R*-tree over the MBR column, items = row indices.

        The tree-guided partitioner
        (:class:`repro.core.partition.TreePartitioner`) traverses two of
        these to form leaf-overlap tasks; because the tree stores *row
        indices* into this store's columns, tasks remain plain index
        arrays exactly like the grid partitioner's.  Built once per
        (store, capacity) — repeated joins of the same relation content
        (e.g. inside a :class:`repro.core.session.JoinSession`) reuse
        the tree just like they reuse the shipped ring columns.
        """
        tree = self._partition_trees.get(max_entries)
        if tree is None:
            from ..index.rstar import rtree_over  # lazy: avoid an import cycle

            tree = rtree_over(self.mbrs, max_entries, bulk=True)
            self._partition_trees[max_entries] = tree
        return tree

    def approx(self, kind: str) -> BatchApproxArrays:
        """The fully-packed approximation columns of ``kind``.

        The single get-or-build point: memory, then the backing store's
        pages, then a build from the objects — which is published to
        the backing store so no later join, session or process builds
        it again.  Repeated joins — and sweeps over filter
        configurations naming the same kinds — reuse the arrays.  Row
        indices equal object indices.  m-corners, MER and MEC missing
        from some object's cache are built for all objects at once on
        the edge table, by one kernel-tier call
        (:func:`kernel_approximations`), and seed the objects' caches
        before the pack; they are bit-identical to per-object builds.
        """
        encoder = self._approx.get(kind)
        if encoder is not None:
            return encoder
        with self._approx_lock:
            encoder = self._approx.get(kind)
            if encoder is not None:
                return encoder
            backing = self._approx_store if stored_family(kind) else None
            columns = (
                backing.load_approx(kind) if backing is not None else None
            )
            if columns is not None:
                return self.install_approx(columns)
            if kernel_built(kind) and any(
                kind not in obj._approximations for obj in self.objects
            ):
                # One kernel call over the whole edge table, not per
                # object; objects that already hold the kind keep theirs.
                built = kernel_approximations(
                    kind, self.ring_geometry().table,
                    self.rings.object_rings, self.rings.ring_offsets,
                )
                for obj, appr in zip(self.objects, built):
                    obj._approximations.setdefault(kind, appr)
            encoder = BatchApproxArrays(kind)
            encoder.append(self.objects)
            encoder.mbrs  # materialise now: the pack cost belongs here
            self._approx[kind] = encoder
            self.pack_counts[kind] = self.pack_counts.get(kind, 0) + 1
            if backing is not None:
                backing.publish_approx(encoder.columns())
            return encoder

    def install_approx(self, columns: ApproxColumns) -> BatchApproxArrays:
        """Adopt already-packed columns of one kind (row ``i`` = object ``i``).

        Also seeds each object's scalar approximation cache from its
        row, so the filter's scalar fallbacks and every per-object code
        path read the stored approximation instead of computing one.
        """
        kind = columns.kind
        encoder = BatchApproxArrays.from_columns(columns, self.objects)
        self._approx[kind] = encoder
        for row, obj in enumerate(self.objects):
            if kind not in obj._approximations:
                obj._approximations[kind] = columns.approximation(row)
        return encoder

    def packed_kinds(self) -> List[str]:
        """Kinds whose columns are in memory right now."""
        return list(self._approx)

    def ring_geometry(self):
        """The relation's edge table over the ring columns, memoised.

        What batched refinement and the proximity predicates' exact
        step read edges from; built once, vectorised, and kept for the
        life of this store.
        """
        if self._ring_geometry is None:
            from ..exact.refine import RingGeometry  # lazy: import cycle

            self._ring_geometry = RingGeometry(self.rings)
        return self._ring_geometry
