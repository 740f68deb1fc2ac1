"""Batched, columnar-native refinement of remaining candidates.

The filter step has been set-at-a-time since the batched engine landed;
this module makes the *exact* step (step 3, paper §4) set-at-a-time too.
Candidates that survive the geometric filter are accumulated by the
:class:`~repro.engine.base.RefinementPipeline` into batches of
``JoinConfig.exact_batch`` and resolved here against the **flattened
ring geometry already present in the columnar relation store**
(:class:`~repro.datasets.columnar.RingColumns`) — no per-call
``EdgeArrays`` rebuild, no per-pair Python edge loops:

* per-object edge arrays are gathered from the ring columns once and
  cached for the whole join (:class:`RingGeometry`);
* each pair's edge sets are pruned against the (margin-inflated)
  intersection of the two object MBRs before the ``n1 x n2``
  segment-intersection matrix runs
  (:func:`~repro.geometry.fastops.edges_overlapping_rect_mask` +
  :func:`~repro.geometry.fastops.edge_matrix_intersect_any`);
* the containment fallback for edge-disjoint pairs runs as one bulk
  numpy point-in-polygon call over the whole batch
  (:func:`~repro.geometry.fastops.points_in_polygons_bulk`).

Decisions are identical to the per-pair ``vectorized`` processor
(:func:`~repro.geometry.fastops.polygons_intersect_fast`): the matrix
kernel is the same function evaluated on a pruned subset, pruning is
sound by construction (an edge whose bounding box misses the inflated
clip rectangle cannot satisfy the eps-tolerant edge-pair predicate),
and the point-in-polygon kernel replicates ``Polygon.contains_point``
operation for operation.  ``tests/test_refine_equivalence.py`` is the
differential harness.

The ``within`` predicate and objects without a ring-column row fall
back to the scalar per-pair code inside the batch (counted by
``MultiStepStats.refine_fallback_pairs``), so the pipeline composes
with every predicate.

In the multi-process tile executor the worker builds a
:class:`RingGeometry` directly over the shared-memory mapped ring
columns (:func:`repro.core.parallel_exec.run_columnar_tile_task`),
so the exact step reads vertex coordinates straight out of the shipped
segments instead of re-deriving edges from rebuilt polygons.  All
cached per-object arrays are copies, never views, so the segment can be
unmapped as soon as the tile's join finishes.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.join import JoinConfig
from ..core.stats import MultiStepStats
from ..datasets.columnar import ColumnarRelation, RingColumns
from ..engine.base import Pair, PerPairRefinement, RefinementStep
from ..geometry.fastops import polygons_intersect_fast
from ..geometry.kernels import KernelDispatcher, get_kernels

#: clip-rectangle inflation for the edge pruning pretest.  Must exceed
#: the eps-tolerance of the edge-pair predicate (2 x 1e-12) by a wide
#: margin so pruning can never drop a decisive edge; scaled with the
#: coordinate magnitude because orientation-sign noise grows ~quadratic
#: in it (same reasoning as the batched filter's circle margin).
_CLIP_MARGIN = 1e-9
_CLIP_MARGIN_REL = 1e-13

EdgeSet = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class RingGeometry:
    """Per-object edge arrays gathered lazily from packed ring columns.

    One instance wraps one relation's :class:`RingColumns` plus a map
    from live object identity to column row.  ``edges(row)`` returns the
    object's edges — all rings, ``start -> end``, the exact vertex order
    of ``Polygon.edges()`` — as four flat float arrays; ``bounds(row)``
    the bounding box over *all* rings (holes included, unlike the
    shell-only object MBR, because pruning must cover hole edges too).
    Gathered arrays are cached per row and are always copies of the
    column data, so a shared-memory backed instance can be
    :meth:`release`-d and the segment unmapped once the join is done.
    """

    def __init__(self, columns: RingColumns, rows: Mapping[int, int]):
        self._columns: Optional[RingColumns] = columns
        self._rows: Dict[int, int] = dict(rows)
        self._edges: Dict[int, EdgeSet] = {}
        self._bounds: Dict[int, Tuple[float, float, float, float]] = {}

    @classmethod
    def from_store(cls, store: ColumnarRelation) -> "RingGeometry":
        """Geometry over a relation's cached columnar store."""
        rows = {id(obj): i for i, obj in enumerate(store.objects)}
        return cls(store.rings, rows)

    def row_of(self, obj) -> Optional[int]:
        """Column row of a live object, or ``None`` if unmapped."""
        return self._rows.get(id(obj))

    def edges(self, row: int) -> EdgeSet:
        """``(x1, y1, x2, y2)`` arrays of the object's edges (cached)."""
        cached = self._edges.get(row)
        if cached is None:
            cols = self._columns
            first = int(cols.object_rings[row])
            last = int(cols.object_rings[row + 1])
            xs: List[np.ndarray] = []
            ys: List[np.ndarray] = []
            xe: List[np.ndarray] = []
            ye: List[np.ndarray] = []
            for r in range(first, last):
                span = cols.ring_xy[cols.ring_offsets[r]:cols.ring_offsets[r + 1]]
                xs.append(span[:, 0])
                ys.append(span[:, 1])
                xe.append(np.roll(span[:, 0], -1))
                ye.append(np.roll(span[:, 1], -1))
            # np.concatenate always allocates, so the cache never holds
            # views into a (possibly shared-memory) column buffer.
            cached = (
                np.concatenate(xs),
                np.concatenate(ys),
                np.concatenate(xe),
                np.concatenate(ye),
            )
            self._edges[row] = cached
        return cached

    def bounds(self, row: int) -> Tuple[float, float, float, float]:
        """Bounding box over all of the object's rings (cached)."""
        cached = self._bounds.get(row)
        if cached is None:
            cols = self._columns
            first = int(cols.ring_offsets[cols.object_rings[row]])
            last = int(cols.ring_offsets[cols.object_rings[row + 1]])
            span = cols.ring_xy[first:last]
            cached = (
                float(span[:, 0].min()),
                float(span[:, 1].min()),
                float(span[:, 0].max()),
                float(span[:, 1].max()),
            )
            self._bounds[row] = cached
        return cached

    def release(self) -> None:
        """Drop the column reference (caches are copies and survive)."""
        self._columns = None


class BatchedRefinement(RefinementStep):
    """Vectorized exact step over batches of remaining candidates.

    Implements the ``vectorized`` exact semantics
    (:func:`polygons_intersect_fast`) for the ``intersects`` predicate;
    the ``within`` predicate and pairs whose objects are missing from
    the ring columns resolve through the scalar per-pair backend inside
    the batch.
    """

    def __init__(
        self,
        config: JoinConfig,
        geometry_a: RingGeometry,
        geometry_b: RingGeometry,
    ):
        self.config = config
        self.batch_capacity = config.exact_batch
        self._geometry = (geometry_a, geometry_b)
        self._scalar = PerPairRefinement(config)
        # All bulk kernels route through the configured backend; every
        # backend decides identically (repro.geometry.kernels).
        self._kernels = KernelDispatcher(get_kernels(config.kernels))

    @classmethod
    def from_relations(
        cls, config: JoinConfig, relation_a, relation_b
    ) -> "BatchedRefinement":
        """Refinement bound to the relations' cached columnar stores."""
        return cls(
            config,
            relation_a.columnar().ring_geometry(),
            relation_b.columnar().ring_geometry(),
        )

    def release(self) -> None:
        """Unbind tile-local geometry from its shared-memory columns.

        Only for instances built over mapped segments; the memoised
        geometry of :meth:`from_relations` is never released.
        """
        for geometry in self._geometry:
            geometry.release()

    # -- batch resolution ---------------------------------------------------

    def resolve_batch(
        self, pairs: Sequence[Pair], stats: MultiStepStats
    ) -> List[bool]:
        stats.refine_batches += 1
        stats.refine_batch_pairs += len(pairs)
        self._kernels.bind(stats)
        if self.config.predicate == "within":
            stats.refine_fallback_pairs += len(pairs)
            return self._scalar.resolve_batch(pairs, stats)
        return self._resolve_intersects(pairs, stats)

    def _resolve_intersects(
        self, pairs: Sequence[Pair], stats: MultiStepStats
    ) -> List[bool]:
        geometry_a, geometry_b = self._geometry
        n = len(pairs)
        results = np.zeros(n, dtype=bool)
        mbr_a = np.empty((n, 4))
        mbr_b = np.empty((n, 4))
        for i, (obj_a, obj_b) in enumerate(pairs):
            m = obj_a.mbr
            mbr_a[i] = (m.xmin, m.ymin, m.xmax, m.ymax)
            m = obj_b.mbr
            mbr_b[i] = (m.xmin, m.ymin, m.xmax, m.ymax)
        overlap = self._kernels.rects_intersect_bulk(mbr_a, mbr_b)
        #: bulk point-in-polygon queries: (pair idx, geometry, row, point).
        contains: List[Tuple[int, RingGeometry, int, Tuple[float, float]]] = []
        contain_mbrs: List[np.ndarray] = []
        for i, (obj_a, obj_b) in enumerate(pairs):
            row_a = geometry_a.row_of(obj_a)
            row_b = geometry_b.row_of(obj_b)
            if row_a is None or row_b is None:
                stats.refine_fallback_pairs += 1
                results[i] = polygons_intersect_fast(
                    obj_a.polygon, obj_b.polygon
                )
                continue
            if not overlap[i]:
                continue
            if self._edges_intersect(
                geometry_a, row_a, geometry_b, row_b
            ):
                results[i] = True
                continue
            # Containment fallback: same MBR-containment guards and the
            # same probe vertex (the other shell's first) as the scalar
            # polygons_intersect_fast.
            if _rect_contains_row(mbr_b[i], mbr_a[i]):
                contains.append(
                    (i, geometry_b, row_b, obj_a.polygon.shell[0])
                )
                contain_mbrs.append(mbr_b[i])
            if _rect_contains_row(mbr_a[i], mbr_b[i]):
                contains.append(
                    (i, geometry_a, row_a, obj_b.polygon.shell[0])
                )
                contain_mbrs.append(mbr_a[i])
        if contains:
            inside = _contains_bulk(
                contains, np.array(contain_mbrs), self._kernels
            )
            for (i, _, _, _), hit in zip(contains, inside):
                if hit:
                    results[i] = True
        return [bool(r) for r in results]

    def _edges_intersect(
        self,
        geometry_a: RingGeometry,
        row_a: int,
        geometry_b: RingGeometry,
        row_b: int,
    ) -> bool:
        """MBR-clipped edge-pair matrix test for one candidate pair."""
        ax1, ay1, ax2, ay2 = geometry_a.edges(row_a)
        bx1, by1, bx2, by2 = geometry_b.edges(row_b)
        bounds_a = geometry_a.bounds(row_a)
        bounds_b = geometry_b.bounds(row_b)
        scale = max(
            abs(bounds_a[0]), abs(bounds_a[2]),
            abs(bounds_b[0]), abs(bounds_b[2]),
            abs(bounds_a[1]), abs(bounds_a[3]),
            abs(bounds_b[1]), abs(bounds_b[3]),
            1.0,
        )
        margin = max(_CLIP_MARGIN, scale * scale * _CLIP_MARGIN_REL)
        xmin = max(bounds_a[0], bounds_b[0]) - margin
        ymin = max(bounds_a[1], bounds_b[1]) - margin
        xmax = min(bounds_a[2], bounds_b[2]) + margin
        ymax = min(bounds_a[3], bounds_b[3]) + margin
        mask_a = self._kernels.edges_overlapping_rect_mask(
            ax1, ay1, ax2, ay2, xmin, ymin, xmax, ymax
        )
        if not mask_a.any():
            return False
        mask_b = self._kernels.edges_overlapping_rect_mask(
            bx1, by1, bx2, by2, xmin, ymin, xmax, ymax
        )
        if not mask_b.any():
            return False
        return self._kernels.edge_matrix_intersect_any(
            ax1[mask_a], ay1[mask_a], ax2[mask_a], ay2[mask_a],
            bx1[mask_b], by1[mask_b], bx2[mask_b], by2[mask_b],
        )


def _rect_contains_row(outer: np.ndarray, inner: np.ndarray) -> bool:
    """Scalar ``Rect.contains_rect`` on two ``(xmin, ymin, xmax, ymax)`` rows."""
    return bool(
        outer[0] <= inner[0]
        and outer[1] <= inner[1]
        and inner[2] <= outer[2]
        and inner[3] <= outer[3]
    )


def _contains_bulk(
    queries: Sequence[Tuple[int, RingGeometry, int, Tuple[float, float]]],
    mbrs: np.ndarray,
    kernels: KernelDispatcher,
) -> np.ndarray:
    """One bulk point-in-polygon call over the batch's containment queries."""
    px = np.array([point[0] for _, _, _, point in queries])
    py = np.array([point[1] for _, _, _, point in queries])
    edge_parts: List[List[np.ndarray]] = [[], [], [], []]
    qidx_parts: List[np.ndarray] = []
    for q, (_, geometry, row, _) in enumerate(queries):
        edge_set = geometry.edges(row)
        for part, arr in zip(edge_parts, edge_set):
            part.append(arr)
        qidx_parts.append(np.full(len(edge_set[0]), q, dtype=np.intp))
    ex1, ey1, ex2, ey2 = (np.concatenate(p) for p in edge_parts)
    qidx = np.concatenate(qidx_parts)
    return kernels.points_in_polygons_bulk(
        px, py, qidx, ex1, ey1, ex2, ey2, mbrs
    )
