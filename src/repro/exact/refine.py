"""Batched, columnar-native refinement of remaining candidates.

This module is the *exact* step (step 3, paper §4) of every
``intersects`` and ``within`` join, set-at-a-time like the batched
filter.  Its currency is the row index: a batch is ``(row_a, row_b)``
pairs of the two relations (rows of ``relation.objects``, of the
relation's columns and of its edge table alike), so no object is mapped
back to a row and no ``id()``-keyed map exists.  The engines hand it
consecutive chunks of ``JoinConfig.exact_batch`` remaining candidates in
candidate order, and each chunk is resolved by **one array program** —
no Python step per pair:

* **Edge table.**  :class:`RingGeometry` holds a relation's
  :class:`~repro.geometry.fastops.EdgeTable`: every edge of every object
  as flat ``x1, y1, x2, y2`` columns in ``Polygon.edges()`` order, each
  edge's bounding box, an edge-offset column per object, and per object
  the bounds over all rings and the shell MBR.  It is built once per
  relation content, by index arithmetic over the
  :class:`~repro.datasets.columnar.RingColumns` (memoised by
  ``ColumnarRelation.ring_geometry()``), and only read afterwards.
* **Ragged gather.**  A batch's ``(row_a, row_b)`` arrays select edge
  ranges from the two tables; offsets + ``repeat`` turn them into flat
  per-pair edge lists, clipped to the (margin-inflated) intersection of
  the two objects' bounds — the paper's restriction of the search space.
* **Box pruning, then the orientation test.**
  :func:`~repro.geometry.fastops.edge_pairs_intersect_ragged` forms each
  pair's cross product of clipped edges as flat index arrays, drops the
  edge pairs whose own margin-inflated boxes are disjoint (the array
  form of the plane sweep never comparing edges with disjoint extents;
  about two edge pairs in a hundred survive on 84-vertex cartographic
  polygons, fewer on longer rings), and
  evaluates the orientation / proper-crossing / endpoint-touch
  expressions of ``edge_matrix_intersect_any`` on the survivors only.
  Both prunings rest on one lemma — an edge pair whose boxes are more
  than the margin apart cannot satisfy the eps-tolerant predicate; the
  kernel's docstring has the argument, ``tests/test_ragged_kernel_fuzz.py``
  checks it against the unpruned edge matrix.
* **Element budget.**  The kernel materialises at most ``2**16`` edge
  pairs at a time (split along one side's edges, so a single pair of
  2 000-vertex objects is bounded too): temporaries stay at a few MB
  whatever the batch holds.
* **Containment** for overlapping, edge-disjoint pairs is one bulk
  point-in-polygon call per batch
  (:func:`~repro.geometry.fastops.points_in_polygons_bulk`) on edges
  sliced from the same tables, with the scalar code's MBR guards and
  probe vertex.

Per batch that is one ``rects_intersect_bulk``, one ragged-kernel call
and at most one ``points_in_polygons_bulk`` call through the configured
kernel backend — the row-level decision :func:`intersects_rows`, which
the proximity predicates (:mod:`repro.core.proximity`) share as their
zero-distance test.  Decisions are identical to the per-pair
:func:`~repro.geometry.fastops.polygons_intersect_fast`: same
expressions on the same floats, sound pruning, and a point-in-polygon
kernel that replicates ``Polygon.contains_point`` operation for
operation.  They also equal the paper's scalar processors (TR*-tree,
plane sweep, quadratic; :mod:`repro.exact`), which the §4 benchmarks
call directly.  ``tests/test_refine_equivalence.py`` is the
differential harness.

What still resolves pair by pair inside a batch (counted by
``MultiStepStats.refine_fallback_pairs``): the ``within`` predicate,
through :func:`~repro.geometry.fastops.polygon_within_fast` on the
rows' objects.

A tile of a partitioned join is rows of its parents' stores, so its
exact step reads the parents' memoised tables with parent rows: in
memory, or in a pool worker the one table built over the relation's
mapped ring columns for the pool's life
(:mod:`repro.core.parallel_exec`).  No tile builds a table.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..core.join import JoinConfig
from ..core.stats import MultiStepStats
from ..datasets.columnar import RingColumns
from ..geometry.fastops import (
    EdgeTable,
    build_edge_table,
    gather_edges,
    polygon_within_fast,
    rects_contain_bulk,
)
from ..geometry.kernels import KernelDispatcher, get_kernels

#: clip-rectangle inflation for the edge pruning pretests.  Must exceed
#: the eps-tolerance of the edge-pair predicate (2 x 1e-12) by a wide
#: margin so pruning can never drop a decisive edge; scaled with the
#: coordinate magnitude because orientation-sign noise grows ~quadratic
#: in it (same reasoning as the batched filter's circle margin).
_CLIP_MARGIN = 1e-9
_CLIP_MARGIN_REL = 1e-13

EdgeSet = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def clip_margins(bounds_a: np.ndarray, bounds_b: np.ndarray) -> np.ndarray:
    """Per-row pruning margin for ``(k, 4)`` bounds of the two sides."""
    scale = np.maximum(
        np.maximum(np.abs(bounds_a).max(axis=1), np.abs(bounds_b).max(axis=1)),
        1.0,
    )
    return np.maximum(_CLIP_MARGIN, scale * scale * _CLIP_MARGIN_REL)


def clip_rects(
    bounds_a: np.ndarray, bounds_b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row search rectangle and margin of two ``(k, 4)`` bounds columns.

    The rectangle is the intersection of the two objects' bounds grown
    by the margin: only edges meeting it can take part in an
    intersection of the two objects.
    """
    margin = clip_margins(bounds_a, bounds_b)
    clip = np.column_stack(
        (
            np.maximum(bounds_a[:, :2], bounds_b[:, :2]) - margin[:, None],
            np.minimum(bounds_a[:, 2:], bounds_b[:, 2:]) + margin[:, None],
        )
    )
    return clip, margin


class RingGeometry:
    """The edge table of packed ring columns.

    ``table`` (:class:`~repro.geometry.fastops.EdgeTable`) is built once,
    in the constructor, from packed :class:`RingColumns`: column row
    ``i`` becomes table row ``i``.
    """

    def __init__(self, columns: RingColumns):
        self.table: EdgeTable = build_edge_table(
            columns.object_rings, columns.ring_offsets, columns.ring_xy
        )

    def edges(self, row: int) -> EdgeSet:
        """The object's edges as ``(x1, y1, x2, y2)``, ``Polygon.edges()`` order."""
        offsets = self.table.offsets
        return tuple(self.table.coords[:, offsets[row]:offsets[row + 1]])

    def bounds(self, row: int) -> Tuple[float, float, float, float]:
        """Bounding box over all of the object's rings.

        Holes included, unlike the shell-only object MBR, because
        pruning must cover hole edges too.
        """
        return tuple(self.table.bounds[row].tolist())


class BatchedRefinement:
    """The exact step: batches of remaining candidates, one array program each.

    Decides the ``intersects`` predicate on table rows as
    :func:`~repro.geometry.fastops.polygons_intersect_fast` does; the
    ``within`` predicate resolves pair by pair on the rows' objects
    (``objects_a[row_a]``, ``objects_b[row_b]``).  ``batch_capacity`` is
    how many remaining candidates an engine hands to one
    :meth:`resolve_batch` call.
    """

    def __init__(
        self,
        config: JoinConfig,
        geometry_a: RingGeometry,
        geometry_b: RingGeometry,
        objects_a: Sequence[object],
        objects_b: Sequence[object],
    ):
        self.config = config
        self.batch_capacity = config.exact_batch
        self._geometry = (geometry_a, geometry_b)
        self._objects = (objects_a, objects_b)
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
            relation_a.objects,
            relation_b.objects,
        )

    # -- batch resolution ---------------------------------------------------

    def resolve_batch(self, pairs, stats: MultiStepStats) -> np.ndarray:
        """Exact-test each ``(row_a, row_b)`` pair; qualified flags in input order.

        ``pairs`` is a sequence of row pairs or an ``(n, 2)`` int array.
        """
        rows = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        stats.refine_batches += 1
        stats.refine_batch_pairs += len(rows)
        self._kernels.bind(stats)
        if self.config.predicate == "within":
            stats.refine_fallback_pairs += len(rows)
            objects_a, objects_b = self._objects
            return np.array(
                [
                    polygon_within_fast(
                        objects_a[row_a].polygon, objects_b[row_b].polygon
                    )
                    for row_a, row_b in rows.tolist()
                ],
                dtype=bool,
            )
        geometry_a, geometry_b = self._geometry
        return intersects_rows(
            self._kernels, geometry_a.table, geometry_b.table,
            rows[:, 0], rows[:, 1],
        )


def intersects_rows(
    kernels: KernelDispatcher,
    table_a: EdgeTable,
    table_b: EdgeTable,
    rows_a: np.ndarray,
    rows_b: np.ndarray,
) -> np.ndarray:
    """Do objects ``rows_a[p]`` of ``table_a`` and ``rows_b[p]`` of ``table_b`` intersect?

    The ``vectorized`` exact decision
    (:func:`~repro.geometry.fastops.polygons_intersect_fast`) for a whole
    batch of table rows: one ``rects_intersect_bulk`` over the shell
    MBRs, one ``edge_pairs_intersect_ragged`` over the overlapping
    pairs, and at most one ``points_in_polygons_bulk`` for the
    containment of overlapping, edge-disjoint pairs.  Shared by
    :class:`BatchedRefinement` and the proximity predicates' zero-distance
    test (:mod:`repro.core.proximity`).
    """
    results = np.zeros(len(rows_a), dtype=bool)
    overlap = kernels.rects_intersect_bulk(
        table_a.mbrs[rows_a], table_b.mbrs[rows_b]
    )
    # ``live`` indexes the pairs; row_a / row_b follow it from here on.
    live = np.flatnonzero(overlap)
    if len(live) == 0:
        return results
    row_a = rows_a[live]
    row_b = rows_b[live]
    clip, margin = clip_rects(table_a.bounds[row_a], table_b.bounds[row_b])
    crossing = kernels.edge_pairs_intersect_ragged(
        table_a, table_b, row_a, row_b, clip, margin
    )
    results[live[crossing]] = True
    # Containment fallback for overlapping, edge-disjoint pairs: same
    # MBR-containment guards and the same probe vertex (the other
    # shell's first) as the scalar polygons_intersect_fast.
    rest = np.flatnonzero(~crossing)
    mbr_a = table_a.mbrs[row_a[rest]]
    mbr_b = table_b.mbrs[row_b[rest]]
    a_in_b = rest[rects_contain_bulk(mbr_b, mbr_a)]
    b_in_a = rest[rects_contain_bulk(mbr_a, mbr_b)]
    if len(a_in_b) or len(b_in_a):
        inside = _contains_bulk(
            kernels,
            (table_b, row_b[a_in_b], table_a, row_a[a_in_b]),
            (table_a, row_a[b_in_a], table_b, row_b[b_in_a]),
        )
        results[live[np.concatenate((a_in_b, b_in_a))[inside]]] = True
    return results


def _contains_bulk(kernels: KernelDispatcher, *groups) -> np.ndarray:
    """One bulk point-in-polygon call over a batch's containment queries.

    Each group is ``(polygon table, polygon rows, probe table, probe
    rows)``: query ``k`` asks whether the first shell vertex of the
    probe object lies in the polygon object.
    """
    probes = []
    edges = []
    owners = []
    mbrs = []
    first_query = 0
    for table, rows, probe_table, probe_rows in groups:
        probes.append(
            probe_table.coords[:2, probe_table.offsets[probe_rows]]
        )
        index, owner = gather_edges(table.offsets, rows)
        edges.append(table.coords[:, index])
        owners.append(owner + first_query)
        mbrs.append(table.mbrs[rows])
        first_query += len(rows)
    px, py = np.concatenate(probes, axis=1)
    ex1, ey1, ex2, ey2 = np.concatenate(edges, axis=1)
    return kernels.points_in_polygons_bulk(
        px, py, np.concatenate(owners), ex1, ey1, ex2, ey2,
        np.concatenate(mbrs),
    )
