"""Batch encoders: pack stored approximations into numpy arrays.

The batched join engine (:mod:`repro.engine.batched`) evaluates the
geometric filter set-at-a-time.  For that it needs each approximation
kind of the objects flowing through a join laid out as flat arrays: MBRs
as ``(n, 4)`` rows, circles as ``(n, 3)`` rows, convex vertex lists as
padded ``(n, W + 1)`` matrices, plus the stored false areas of §3.3.

:class:`BatchApproxArrays` is that encoder.  It mirrors the paper's
storage model — approximations are computed once per object (via the
``SpatialObject`` cache) and then *stored*; here the store is a growing
column layout instead of SAM pages.  Values are copied bit-for-bit from
the scalar approximation objects (``mbr()``, ``area()``, vertex tuples),
never re-derived, so bulk kernels operating on these arrays see exactly
the floats the scalar filter sees.

Columnar layout
---------------
The relation-level owner of these columns is
:class:`repro.datasets.columnar.ColumnarRelation`: it packs one encoder
per (relation, approximation kind) exactly once and caches it on the
relation, so repeated joins — and sweeps over filter configurations —
never re-pack.  Row ``i`` of a relation's encoder is the relation's
object ``i``.  A join spans two relations, and the batched filter reads
each side's own arrays with that side's row indices: nothing is
concatenated per join and no object is looked up.  That holds for every
kind with a stored form (:func:`stored_family`); a kind without one
(RMBR, MBE) is appended per join and side, only for the rows that reach
the filter (the one rule, :meth:`repro.engine.batched.BatchGeometricFilter.side`).

Stored form
-----------
:class:`ApproxColumns` is the one definition of how a kind is *stored*:
the packed arrays above under fixed column names, written verbatim as
store pages (:mod:`repro.datasets.store`), copied verbatim into shared
memory (:mod:`repro.core.parallel_exec`) and gathered by row index in
tile workers.  It has one reader each way — columns to the bulk
encoder (:meth:`BatchApproxArrays.from_columns`) and one row to the
scalar :class:`~repro.approximations.base.Approximation`
(:meth:`ApproxColumns.approximation`) — and both are bit-identical to
what :func:`~repro.approximations.factory.compute_approximation` plus
the packing above produce, because every scalar class re-derives its
MBR and area from the same vertex / circle floats the columns hold.
Kinds whose scalar object holds more than those floats (RMBR's angle,
MBE's matrix) have no stored form (:func:`stored_family` is ``None``)
and stay on the lazy per-object path.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..geometry.circle import Circle
from ..geometry.fastops import EdgeTable, pack_convex_rows
from ..geometry.rectangle import Rect
from .base import Approximation
from .hull import ConvexHullApproximation
from .mbc import MBCApproximation
from .mbr import MBRApproximation
from .mcorner import MCornerApproximation
from .mec import MECApproximation
from .mer import MERApproximation

#: column names of the stored form, per shape family, in page order.
STORED_COLUMNS = {
    "convex": ("vx", "vy", "counts", "mbrs", "false_areas"),
    "circle": ("circles", "mbrs", "false_areas"),
}


def _corner_count(kind: str) -> Optional[int]:
    """``m`` of an m-corner kind name (``"5-C"`` -> 5), else ``None``."""
    if kind.endswith("-C") and kind[:-2].isdigit() and int(kind[:-2]) >= 3:
        return int(kind[:-2])
    return None


def stored_family(kind: str) -> Optional[str]:
    """Shape family of a kind that has a stored form, else ``None``."""
    if kind in ("MBR", "CH", "MER") or _corner_count(kind) is not None:
        return "convex"
    if kind in ("MBC", "MEC"):
        return "circle"
    return None


class ApproxColumns:
    """One approximation kind over a relation's rows, as stored columns.

    Convex family: ``vx``/``vy`` ``float64[n, W]`` vertex rows padded
    with copies of each row's first vertex, ``counts`` ``int64[n]`` true
    vertex counts; circle family: ``circles`` ``float64[n, 3]`` (cx, cy,
    r); both: ``mbrs`` ``float64[n, 4]`` approximation MBRs and
    ``false_areas`` ``float64[n]`` (``area(appr) - area(object)``, §3.3).
    Row ``i`` describes object ``i`` of the relation the columns were
    packed from.
    """

    def __init__(self, kind: str, arrays: Mapping[str, np.ndarray]):
        family = stored_family(kind)
        if family is None:
            raise ValueError(f"approximation kind {kind!r} has no stored form")
        self.kind = kind
        self.family = family
        self.arrays: Dict[str, np.ndarray] = {
            name: arrays[name] for name in STORED_COLUMNS[family]
        }

    def __len__(self) -> int:
        return len(self.arrays["mbrs"])

    def approximation(self, row: int) -> Approximation:
        """Row ``row`` as the scalar approximation object.

        Goes through the same constructors as ``compute_approximation``
        with the floats that constructor call produced, so vertices,
        MBR, area and circle are bit-identical to a fresh build.
        """
        kind = self.kind
        if self.family == "circle":
            cx, cy, r = self.arrays["circles"][row].tolist()
            circle = Circle((cx, cy), r)
            if kind == "MBC":
                return MBCApproximation(circle)
            return MECApproximation(circle)
        count = int(self.arrays["counts"][row])
        vertices = list(
            zip(
                self.arrays["vx"][row, :count].tolist(),
                self.arrays["vy"][row, :count].tolist(),
            )
        )
        if kind in ("MBR", "MER"):
            # Stored as Rect.corners(): lower-left first, upper-right third.
            rect = Rect(*vertices[0], *vertices[2])
            return (MBRApproximation if kind == "MBR" else MERApproximation)(rect)
        if kind == "CH":
            return ConvexHullApproximation(vertices)
        return MCornerApproximation(vertices, _corner_count(kind))


def kernel_built(kind: str) -> bool:
    """Whether a relation builds ``kind`` with :func:`kernel_approximations`
    (m-corners, MER, MEC) rather than object by object (MBR, CH, MBC)."""
    return kind in ("MER", "MEC") or _corner_count(kind) is not None


def kernel_approximations(
    kind: str, table: EdgeTable, object_rings: np.ndarray,
    ring_offsets: np.ndarray,
) -> List[Approximation]:
    """Every row's approximation of a :func:`kernel_built` ``kind``, from
    one kernel-tier call over the rows of ``table``.

    Bit-identical to ``compute_approximation`` of each row's polygon.
    """
    if kind == "MEC":
        return MECApproximation.of_rows(table)
    if kind == "MER":
        return MERApproximation.of_rows(table, object_rings, ring_offsets)
    return MCornerApproximation.of_rows(
        table, object_rings, ring_offsets, _corner_count(kind)
    )


def _widen_convex_rows(matrix: np.ndarray, width: int) -> np.ndarray:
    """Pad a packed vertex matrix to ``width`` columns.

    Packed rows end in copies of their first vertex (column 0), so
    widening appends more of the same — the padding invariant of
    :func:`~repro.geometry.fastops.pack_convex_rows` is preserved.
    """
    pad = np.repeat(matrix[:, :1], width - matrix.shape[1], axis=1)
    return np.concatenate([matrix, pad], axis=1)


def _widen_concat(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Stack packed vertex matrices, padding all to the widest one."""
    width = max(m.shape[1] for m in matrices)
    return np.concatenate(
        [
            m if m.shape[1] == width else _widen_convex_rows(m, width)
            for m in matrices
        ]
    )


class BatchApproxArrays:
    """Array store for one approximation kind over many objects.

    :meth:`append` packs objects as new rows, in order; readers index
    the arrays with those rows.  Matrices are rebuilt lazily after new
    rows, so appending a join's objects batch by batch pays the packing
    cost once per object, not once per candidate pair.
    """

    def __init__(self, kind: str):
        self.kind = kind
        #: shape family of the kind: "convex", "circle" or "ellipse".
        self.family: Optional[str] = None
        self._count = 0
        # Rows appended since the last flush (cleared when packed).
        self._pending_mbr_rows: List[tuple] = []
        self._pending_fa_rows: List[float] = []
        self._pending_circle_rows: List[tuple] = []
        self._pending_vertex_rows: List[list] = []
        self._dirty = False
        self._mbrs = np.empty((0, 4))
        self._false_areas = np.empty(0)
        self._circles = np.empty((0, 3))
        self._vx = np.empty((0, 1))
        self._vy = np.empty((0, 1))
        self._counts = np.empty(0, dtype=np.int64)
        self._degenerate = np.empty(0, dtype=bool)

    def __len__(self) -> int:
        return self._count

    # -- the stored form ------------------------------------------------------

    @classmethod
    def from_columns(
        cls, columns: ApproxColumns, objects: Sequence[object]
    ) -> "BatchApproxArrays":
        """Encoder over already-packed columns; row ``i`` is ``objects[i]``.

        Installs the arrays as they are (store memmaps and a worker's
        mapped shared blocks alike) — no approximation is computed and
        nothing is packed.
        """
        if len(columns) != len(objects):
            raise ValueError(
                f"{columns.kind} columns hold {len(columns)} rows for "
                f"{len(objects)} objects"
            )
        out = cls(columns.kind)
        if not objects:
            return out
        out.family = columns.family
        out._count = len(objects)
        arrays = columns.arrays
        out._mbrs = arrays["mbrs"]
        out._false_areas = arrays["false_areas"]
        if out.family == "circle":
            out._circles = arrays["circles"]
        else:
            out._vx = arrays["vx"]
            out._vy = arrays["vy"]
            out._counts = arrays["counts"]
            out._degenerate = out._counts < 3
        return out

    def columns(self) -> Optional[ApproxColumns]:
        """The packed arrays as the kind's stored form.

        ``None`` for kinds without one (:func:`stored_family`).  An
        empty encoder has registered no object and so knows no family;
        its columns are the family's empty arrays.
        """
        family = stored_family(self.kind)
        if family is None:
            return None
        self._flush()
        return ApproxColumns(
            self.kind,
            {
                "vx": self._vx,
                "vy": self._vy,
                "counts": self._counts,
                "circles": self._circles,
                "mbrs": self._mbrs,
                "false_areas": self._false_areas,
            },
        )

    # -- packing ------------------------------------------------------------

    def append(self, objects: Sequence[object]) -> np.ndarray:
        """Pack ``objects`` as new rows, in order; returns their rows."""
        first = self._count
        for obj in objects:
            self._register(obj)
        return np.arange(first, self._count, dtype=np.intp)

    def _register(self, obj) -> None:
        appr = obj.approximation(self.kind)
        if self.family is None:
            self.family = appr.shape_kind
        self._count += 1
        m = appr.mbr()
        self._pending_mbr_rows.append((m.xmin, m.ymin, m.xmax, m.ymax))
        # Stored false area of §3.3: area(Appr(obj)) - area(obj).  Summing
        # two stored values is the exact arithmetic of the scalar test.
        self._pending_fa_rows.append(appr.area() - obj.polygon.area())
        if self.family == "circle":
            c = appr.circle()
            self._pending_circle_rows.append(
                (c.center[0], c.center[1], c.radius)
            )
        elif self.family == "convex":
            self._pending_vertex_rows.append(list(appr.convex_vertices()))
        self._dirty = True

    def _flush(self) -> None:
        """Materialise rows registered since the last flush.

        Only the pending tail is converted from Python values — a join
        that drains candidates batch-by-batch keeps appending objects
        between classify calls, and rebuilding the full arrays each time
        would make the packing cost quadratic in the object count.
        """
        if not self._dirty:
            return
        new_mbrs = np.array(
            self._pending_mbr_rows, dtype=float
        ).reshape(-1, 4)
        new_fas = np.array(self._pending_fa_rows, dtype=float)
        self._mbrs = np.concatenate([self._mbrs, new_mbrs])
        self._false_areas = np.concatenate([self._false_areas, new_fas])
        self._pending_mbr_rows = []
        self._pending_fa_rows = []
        if self.family == "circle":
            new_circles = np.array(
                self._pending_circle_rows, dtype=float
            ).reshape(-1, 3)
            self._circles = np.concatenate([self._circles, new_circles])
            self._pending_circle_rows = []
        elif self.family == "convex":
            new_vx, new_vy, counts = pack_convex_rows(
                self._pending_vertex_rows
            )
            self._pending_vertex_rows = []
            self._vx = _widen_concat([self._vx, new_vx])
            self._vy = _widen_concat([self._vy, new_vy])
            self._counts = np.concatenate(
                [self._counts, counts.astype(np.int64)]
            )
            self._degenerate = self._counts < 3
        self._dirty = False

    # -- packed columns -----------------------------------------------------

    @property
    def mbrs(self) -> np.ndarray:
        """``(n, 4)`` approximation MBRs (xmin, ymin, xmax, ymax)."""
        self._flush()
        return self._mbrs

    @property
    def false_areas(self) -> np.ndarray:
        """``(n,)`` stored false areas ``area(appr) - area(object)``."""
        self._flush()
        return self._false_areas

    @property
    def circles(self) -> np.ndarray:
        """``(n, 3)`` circle parameters (cx, cy, r); circle family only."""
        self._flush()
        return self._circles

    @property
    def vx(self) -> np.ndarray:
        """``(n, W + 1)`` padded vertex x-coordinates; convex family only."""
        self._flush()
        return self._vx

    @property
    def vy(self) -> np.ndarray:
        """``(n, W + 1)`` padded vertex y-coordinates; convex family only."""
        self._flush()
        return self._vy

    @property
    def degenerate(self) -> np.ndarray:
        """``(n,)`` mask of shapes with < 3 vertices (scalar fallback)."""
        self._flush()
        return self._degenerate
