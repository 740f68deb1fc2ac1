"""Vectorised per-polygon geometry (numpy) for data-scale workloads.

The paper's BW relation averages 527 vertices per object; pure-Python
per-edge loops make relation-scale preprocessing (MEC/MER construction,
trapezoid decomposition, brute-force matrices) infeasible.
:class:`EdgeArrays` keeps a polygon's edges in numpy arrays and offers
vectorised predicates.  Results are identical to the scalar predicates
in this package (property-tested); only the evaluation strategy differs.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .polygon import Polygon
from .predicates import EPSILON, Coord


class EdgeArrays:
    """All edges of a polygon (shell + holes) as flat numpy arrays."""

    __slots__ = ("polygon", "x1", "y1", "x2", "y2", "hole_probes")

    def __init__(self, polygon: Polygon):
        self.polygon = polygon
        x1: List[float] = []
        y1: List[float] = []
        x2: List[float] = []
        y2: List[float] = []
        for a, b in polygon.edges():
            x1.append(a[0])
            y1.append(a[1])
            x2.append(b[0])
            y2.append(b[1])
        self.x1 = np.array(x1)
        self.y1 = np.array(y1)
        self.x2 = np.array(x2)
        self.y2 = np.array(y2)
        self.hole_probes = [h[0] for h in polygon.holes]

    def __len__(self) -> int:
        return len(self.x1)

    # -- predicates ---------------------------------------------------------

    def contains_point(self, x: float, y: float) -> bool:
        """Even-odd containment (boundary behaviour unspecified)."""
        crosses = (self.y1 > y) != (self.y2 > y)
        if not crosses.any():
            return False
        y1c = self.y1[crosses]
        y2c = self.y2[crosses]
        x1c = self.x1[crosses]
        x2c = self.x2[crosses]
        x_cross = (x2c - x1c) * (y - y1c) / (y2c - y1c) + x1c
        return bool(np.count_nonzero(x < x_cross) % 2)

    def contains_points(self, pts: np.ndarray) -> np.ndarray:
        """Even-odd containment of each of the ``(k, 2)`` points (a mask)."""
        px = pts[:, 0][:, None]
        py = pts[:, 1][:, None]
        crosses = (self.y1[None, :] > py) != (self.y2[None, :] > py)
        dy = self.y2 - self.y1
        dy = np.where(dy == 0, 1.0, dy)
        x_cross = (self.x2 - self.x1)[None, :] * (py - self.y1[None, :]) / dy[
            None, :
        ] + self.x1[None, :]
        counts = np.count_nonzero(crosses & (px < x_cross), axis=1)
        return counts % 2 == 1

    def boundary_distances(self, pts: np.ndarray) -> np.ndarray:
        """Distances from each of the ``(k, 2)`` points to the boundary."""
        dx = self.x2 - self.x1
        dy = self.y2 - self.y1
        seg_len_sq = dx * dx + dy * dy
        seg_len_sq = np.where(seg_len_sq <= 0, 1.0, seg_len_sq)
        px = pts[:, 0][:, None]
        py = pts[:, 1][:, None]
        t = ((px - self.x1) * dx + (py - self.y1) * dy) / seg_len_sq
        t = np.clip(t, 0.0, 1.0)
        cx = self.x1 + t * dx
        cy = self.y1 + t * dy
        d2 = (px - cx) ** 2 + (py - cy) ** 2
        return np.sqrt(d2.min(axis=1))

    def boundary_distance(self, x: float, y: float) -> float:
        """Distance from ``(x, y)`` to the nearest edge."""
        dx = self.x2 - self.x1
        dy = self.y2 - self.y1
        seg_len_sq = dx * dx + dy * dy
        seg_len_sq = np.where(seg_len_sq <= 0, 1.0, seg_len_sq)
        t = ((x - self.x1) * dx + (y - self.y1) * dy) / seg_len_sq
        t = np.clip(t, 0.0, 1.0)
        cx = self.x1 + t * dx
        cy = self.y1 + t * dy
        d2 = (x - cx) ** 2 + (y - cy) ** 2
        return float(np.sqrt(d2.min()))

    def any_edge_intersects_rect_interior(
        self, xmin: float, ymin: float, xmax: float, ymax: float
    ) -> bool:
        """SAT: does any edge intersect the *open* rectangle?"""
        return bool(
            segments_cross_open_rects(
                self.x1, self.y1, self.x2, self.y2, xmin, ymin, xmax, ymax
            ).any()
        )

    def rect_inside(
        self, xmin: float, ymin: float, xmax: float, ymax: float
    ) -> bool:
        """True if the rectangle lies inside the polygon.

        Shrinks the rectangle by a relative epsilon first so candidate
        rectangles whose border lies on polygon edges pass.
        """
        pad = max(xmax - xmin, ymax - ymin, 1e-9) * 1e-7
        xmin += pad
        ymin += pad
        xmax -= pad
        ymax -= pad
        if xmin >= xmax or ymin >= ymax:
            return False
        probes = np.array(
            [
                (xmin, ymin),
                (xmax, ymin),
                (xmax, ymax),
                (xmin, ymax),
                ((xmin + xmax) / 2, (ymin + ymax) / 2),
            ]
        )
        if not self.contains_points(probes).all():
            return False
        if self.any_edge_intersects_rect_interior(xmin, ymin, xmax, ymax):
            return False
        for hx, hy in self.hole_probes:
            if xmin < hx < xmax and ymin < hy < ymax:
                return False
        return True

    def horizontal_crossings(self, ys: Sequence[float]) -> np.ndarray:
        """Sorted x-coordinates where edges cross each horizontal line.

        Row ``r`` holds the crossings of the line at ``ys[r]`` in
        ascending order, padded with ``+inf`` to the longest row (so a
        row without crossings is all ``+inf``, and the matrix has no
        column at all when no line is crossed).
        """
        y = np.asarray(ys, dtype=float)
        row, edge = np.nonzero(
            (self.y1 > y[:, None]) != (self.y2 > y[:, None])
        )
        x1, y1 = self.x1[edge], self.y1[edge]
        x_cross = (self.x2[edge] - x1) * (y[row] - y1) / (self.y2[edge] - y1) + x1
        counts = np.bincount(row, minlength=len(y))
        out = np.full((len(y), int(counts.max(initial=0))), np.inf)
        # ``row`` ascends, so a crossing's column is its index in its row.
        column = np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)
        out[row, column] = x_cross
        out.sort(axis=1)
        return out


def segments_cross_open_rects(
    x1: np.ndarray,
    y1: np.ndarray,
    x2: np.ndarray,
    y2: np.ndarray,
    xmin,
    ymin,
    xmax,
    ymax,
) -> np.ndarray:
    """SAT, broadcast: does segment ``x1, y1 -> x2, y2`` meet the open rectangle?

    Segment and rectangle arguments broadcast against each other, so one
    call decides one rectangle against every edge (scalar bounds, as in
    :meth:`EdgeArrays.any_edge_intersects_rect_interior`), a column of
    rectangles against a row of edges, or gathered (rectangle, edge)
    pairs (the MER cell grid).  A segment meets the open rectangle iff
    its box overlaps the rectangle's open box and its line strictly
    separates two of the rectangle's corners.
    """
    overlap = (
        (np.maximum(x1, x2) > xmin)
        & (np.minimum(x1, x2) < xmax)
        & (np.maximum(y1, y2) > ymin)
        & (np.minimum(y1, y2) < ymax)
    )
    dx = x2 - x1
    dy = y2 - y1
    s1 = dx * (ymin - y1) - dy * (xmin - x1)
    s2 = dx * (ymin - y1) - dy * (xmax - x1)
    s3 = dx * (ymax - y1) - dy * (xmax - x1)
    s4 = dx * (ymax - y1) - dy * (xmin - x1)
    smin = np.minimum(np.minimum(s1, s2), np.minimum(s3, s4))
    smax = np.maximum(np.maximum(s1, s2), np.maximum(s3, s4))
    return overlap & (smin < 0) & (smax > 0)


def edges_intersect_matrix_any(poly1: Polygon, poly2: Polygon) -> bool:
    """Vectorised brute-force test: does *any* edge pair intersect?

    Evaluates all ``n1 x n2`` edge pairs with broadcasting — the
    vectorised counterpart of the quadratic algorithm's first step
    (identical results, used for data-scale runs).
    """
    e1 = EdgeArrays(poly1)
    e2 = EdgeArrays(poly2)
    return edge_matrix_intersect_any(
        e1.x1, e1.y1, e1.x2, e1.y2, e2.x1, e2.y1, e2.x2, e2.y2
    )


def _orientations(p1x, p1y, p2x, p2y, q1x, q1y, q2x, q2y):
    """The four raw orientation cross products of an edge pair ``p``/``q``.

    ``(o1, o2)`` place ``q``'s endpoints against the line of ``p`` and
    ``(o3, o4)`` place ``p``'s endpoints against the line of ``q``.
    Inputs broadcast, so the same expressions serve the ``n1 x n2``
    matrix and the flat survivor lists of the ragged kernel.
    """

    def orient(ax, ay, bx, by, cx, cy):
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)

    return (
        orient(p1x, p1y, p2x, p2y, q1x, q1y),
        orient(p1x, p1y, p2x, p2y, q2x, q2y),
        orient(q1x, q1y, q2x, q2y, p1x, p1y),
        orient(q1x, q1y, q2x, q2y, p2x, p2y),
    )


def _proper_crossing(o1, o2, o3, o4, eps=1e-12):
    """Both endpoint pairs strictly (beyond ``eps``) straddle the other line."""
    return (
        ((o1 > eps) & (o2 < -eps) | (o1 < -eps) & (o2 > eps))
        & ((o3 > eps) & (o4 < -eps) | (o3 < -eps) & (o4 > eps))
    )


def _endpoint_touch(o1, o2, o3, o4, p1x, p1y, p2x, p2y, q1x, q1y, q2x, q2y,
                    eps=1e-12):
    """Degenerate cases: a collinear endpoint in the other edge's eps-box."""

    def on_seg(px, py, qx, qy, rx, ry):
        return (
            (qx >= np.minimum(px, rx) - eps)
            & (qx <= np.maximum(px, rx) + eps)
            & (qy >= np.minimum(py, ry) - eps)
            & (qy <= np.maximum(py, ry) + eps)
        )

    return (
        ((np.abs(o1) <= eps) & on_seg(p1x, p1y, q1x, q1y, p2x, p2y))
        | ((np.abs(o2) <= eps) & on_seg(p1x, p1y, q2x, q2y, p2x, p2y))
        | ((np.abs(o3) <= eps) & on_seg(q1x, q1y, p1x, p1y, q2x, q2y))
        | ((np.abs(o4) <= eps) & on_seg(q1x, q1y, p2x, p2y, q2x, q2y))
    )


def edge_matrix_intersect_any(
    ax1: np.ndarray,
    ay1: np.ndarray,
    ax2: np.ndarray,
    ay2: np.ndarray,
    bx1: np.ndarray,
    by1: np.ndarray,
    bx2: np.ndarray,
    by2: np.ndarray,
) -> bool:
    """``n1 x n2`` edge-pair test on raw coordinate arrays.

    The arithmetic core of :func:`edges_intersect_matrix_any`.  The
    batched refinement's :func:`edge_pairs_intersect_ragged` evaluates
    the same three expression helpers on its pruned edge pairs, so both
    decide every edge pair by the exact same operations.
    """
    points = (
        ax1[:, None], ay1[:, None], ax2[:, None], ay2[:, None],
        bx1[None, :], by1[None, :], bx2[None, :], by2[None, :],
    )
    orients = _orientations(*points)
    if _proper_crossing(*orients).any():
        return True
    return bool(_endpoint_touch(*orients, *points).any())


def polygon_within_fast(inner: Polygon, outer: Polygon) -> bool:
    """Vectorised *within* test: is ``inner`` entirely inside ``outer``?

    Semantics: every point of ``inner`` lies in the closed ``outer``, and
    the boundaries do not cross (boundary-touching pairs are classified
    as not-within; the paper's inclusion predicate on maps concerns
    objects in general position).
    """
    if not outer.mbr().contains_rect(inner.mbr()):
        return False
    if edges_intersect_matrix_any(inner, outer):
        return False
    outer_edges = EdgeArrays(outer)
    first = inner.shell[0]
    if not outer_edges.contains_point(first[0], first[1]):
        return False
    # A hole of the outer polygon strictly inside the inner one would
    # carve area out of it (hole boundaries crossing inner are already
    # excluded by the edge test above).
    inner_edges = EdgeArrays(inner)
    for hx, hy in outer_edges.hole_probes:
        if inner_edges.contains_point(hx, hy):
            return False
    return True


# ---------------------------------------------------------------------------
# Bulk (set-at-a-time) kernels for the batched join engine.
#
# Each kernel is the array counterpart of one scalar predicate used by the
# geometric filter and replicates its arithmetic operation-for-operation, so
# the batched engine classifies every candidate pair exactly as the
# streaming engine does (see ``repro.engine``).  Rectangles are rows of
# ``(xmin, ymin, xmax, ymax)``; circles are rows of ``(cx, cy, r)``.
# ---------------------------------------------------------------------------


def rects_intersect_bulk(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise closed-rectangle overlap — bulk ``Rect.intersects``."""
    return (
        (a[:, 0] <= b[:, 2])
        & (b[:, 0] <= a[:, 2])
        & (a[:, 1] <= b[:, 3])
        & (b[:, 1] <= a[:, 3])
    )


def rects_contain_bulk(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Row-wise rectangle containment — bulk ``Rect.contains_rect``."""
    return (
        (outer[:, 0] <= inner[:, 0])
        & (outer[:, 1] <= inner[:, 1])
        & (inner[:, 2] <= outer[:, 2])
        & (inner[:, 3] <= outer[:, 3])
    )


def rects_intersection_area_bulk(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise intersection area — bulk ``Rect.intersection_area``."""
    w = np.minimum(a[:, 2], b[:, 2]) - np.maximum(a[:, 0], b[:, 0])
    h = np.minimum(a[:, 3], b[:, 3]) - np.maximum(a[:, 1], b[:, 1])
    return np.where((w > 0.0) & (h > 0.0), w * h, 0.0)


def circle_slack_bulk(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``(r_a + r_b) - centre_distance`` for circle rows.

    The circles of row ``i`` intersect iff ``slack[i] >= 0`` (the scalar
    test is ``distance <= r_a + r_b``).  ``numpy.hypot`` may differ from
    ``math.hypot`` in the last few ulps, so callers that need decisions
    identical to the scalar predicate must re-check rows where ``|slack|``
    is below a small margin with the scalar code.
    """
    dist = np.hypot(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1])
    return (a[:, 2] + b[:, 2]) - dist


def _orient_sign_bulk(
    ax: np.ndarray,
    ay: np.ndarray,
    bx: np.ndarray,
    by: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
) -> np.ndarray:
    """Bulk ``predicates.orientation``: per-element sign in {-1, 0, +1}.

    Same formula and the same :data:`~repro.geometry.predicates.EPSILON`
    thresholding as the scalar predicate, so decisions are identical.
    """
    cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return np.where(cross > EPSILON, 1, np.where(cross < -EPSILON, -1, 0))


def _on_segment_bulk(
    px: np.ndarray,
    py: np.ndarray,
    qx: np.ndarray,
    qy: np.ndarray,
    rx: np.ndarray,
    ry: np.ndarray,
) -> np.ndarray:
    """Bulk ``predicates.on_segment``: ``q`` in the eps-closed box of ``p-r``."""
    return (
        (np.minimum(px, rx) - EPSILON <= qx)
        & (qx <= np.maximum(px, rx) + EPSILON)
        & (np.minimum(py, ry) - EPSILON <= qy)
        & (qy <= np.maximum(py, ry) + EPSILON)
    )


def segments_intersect_bulk(
    p1: np.ndarray, p2: np.ndarray, q1: np.ndarray, q2: np.ndarray
) -> np.ndarray:
    """Row-wise closed-segment intersection — bulk ``segments_intersect``.

    Inputs are ``(n, 2)`` endpoint rows: row ``i`` tests segment
    ``p1[i]-p2[i]`` against ``q1[i]-q2[i]``.  Replicates the scalar
    predicate's orientation/``on_segment`` arithmetic operation for
    operation (including the collinear-overlap and endpoint-touching
    branches), so every row decides exactly as
    :func:`repro.geometry.segment.segments_intersect`.
    """
    p1x, p1y = p1[:, 0], p1[:, 1]
    p2x, p2y = p2[:, 0], p2[:, 1]
    q1x, q1y = q1[:, 0], q1[:, 1]
    q2x, q2y = q2[:, 0], q2[:, 1]
    o1 = _orient_sign_bulk(p1x, p1y, p2x, p2y, q1x, q1y)
    o2 = _orient_sign_bulk(p1x, p1y, p2x, p2y, q2x, q2y)
    o3 = _orient_sign_bulk(q1x, q1y, q2x, q2y, p1x, p1y)
    o4 = _orient_sign_bulk(q1x, q1y, q2x, q2y, p2x, p2y)
    result = (o1 != o2) & (o3 != o4)
    result |= (o1 == 0) & _on_segment_bulk(p1x, p1y, q1x, q1y, p2x, p2y)
    result |= (o2 == 0) & _on_segment_bulk(p1x, p1y, q2x, q2y, p2x, p2y)
    result |= (o3 == 0) & _on_segment_bulk(q1x, q1y, p1x, p1y, q2x, q2y)
    result |= (o4 == 0) & _on_segment_bulk(q1x, q1y, p2x, p2y, q2x, q2y)
    return result


#: pair rows evaluated per chunk by :func:`ring_self_intersects_bulk`
#: (bounds the temporary endpoint matrices to a few dozen MB).
_SELF_INTERSECT_CHUNK = 262_144


def ring_self_intersects_bulk(ring: Sequence[Coord]) -> bool:
    """True if any two non-adjacent edges of the ring intersect.

    The vectorised core of :meth:`Polygon.is_simple`: every non-adjacent
    edge pair (``j >= i + 2``, minus the closing edge's wraparound
    adjacency) runs through :func:`segments_intersect_bulk`, which
    decides exactly like the scalar ``segments_intersect`` loop it
    replaces.
    """
    n = len(ring)
    if n < 4:
        # A triangle has no non-adjacent edge pairs.
        return False
    pts = np.asarray(ring, dtype=float)
    i_idx, j_idx = np.triu_indices(n, k=2)
    keep = ~((i_idx == 0) & (j_idx == n - 1))
    i_idx = i_idx[keep]
    j_idx = j_idx[keep]
    nxt = np.arange(1, n + 1) % n
    for lo in range(0, len(i_idx), _SELF_INTERSECT_CHUNK):
        i = i_idx[lo:lo + _SELF_INTERSECT_CHUNK]
        j = j_idx[lo:lo + _SELF_INTERSECT_CHUNK]
        hits = segments_intersect_bulk(
            pts[i], pts[nxt[i]], pts[j], pts[nxt[j]]
        )
        if hits.any():
            return True
    return False


def points_in_polygons_bulk(
    px: np.ndarray,
    py: np.ndarray,
    qidx: np.ndarray,
    ex1: np.ndarray,
    ey1: np.ndarray,
    ex2: np.ndarray,
    ey2: np.ndarray,
    mbrs: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Bulk ``Polygon.contains_point`` over many (point, polygon) queries.

    ``px``/``py`` hold ``k`` query points; the flattened edge arrays hold
    every queried polygon's edges as ``start -> end`` rows (all rings,
    shell and holes), with ``qidx[e]`` naming the query edge ``e``
    belongs to.  ``mbrs`` (``(k, 4)`` rows) adds the scalar method's MBR
    pretest.  Per query: boundary points count as inside (the scalar
    orientation/``on_segment`` boundary check, in bulk) and interior
    containment is the even-odd crossing parity over all rings — the
    same crossing condition and ``x_cross`` arithmetic as the scalar
    loop, so decisions are identical.
    """
    k = len(px)
    epx = px[qidx]
    epy = py[qidx]
    # Boundary: orientation(start, p, end) == 0 and on_segment(start, p, end).
    o = _orient_sign_bulk(ex1, ey1, epx, epy, ex2, ey2)
    boundary = (o == 0) & _on_segment_bulk(ex1, ey1, epx, epy, ex2, ey2)
    # Even-odd ray crossings.  The scalar loop walks edges as
    # (prev=start, cur=end): crossing iff (y_end > y) != (y_start > y),
    # with x_cross = (x_start - x_end) * (y - y_end) / (y_start - y_end)
    # + x_end; the divisor is nonzero wherever ``crosses`` holds.
    crosses = (ey2 > epy) != (ey1 > epy)
    dy = np.where(crosses, ey1 - ey2, 1.0)
    x_cross = (ex1 - ex2) * (epy - ey2) / dy + ex2
    toggles = crosses & (epx < x_cross)
    inside = np.bincount(qidx[toggles], minlength=k) % 2 == 1
    inside |= np.bincount(qidx[boundary], minlength=k) > 0
    if mbrs is not None:
        inside &= (
            (mbrs[:, 0] <= px)
            & (px <= mbrs[:, 2])
            & (mbrs[:, 1] <= py)
            & (py <= mbrs[:, 3])
        )
    return inside


def edges_overlapping_rect_mask(
    x1: np.ndarray,
    y1: np.ndarray,
    x2: np.ndarray,
    y2: np.ndarray,
    xmin: float,
    ymin: float,
    xmax: float,
    ymax: float,
) -> np.ndarray:
    """Edges whose bounding box meets the closed clip rectangle.

    The clip pretest for one object of one candidate pair: an edge
    whose own bounding box misses the (margin-inflated) intersection
    rectangle of the pair's bounds cannot take part in any edge-pair
    intersection.  :func:`edge_pairs_intersect_ragged` applies the same
    comparisons to a whole batch's stored edge boxes.
    """
    return (
        (np.minimum(x1, x2) <= xmax)
        & (np.maximum(x1, x2) >= xmin)
        & (np.minimum(y1, y2) <= ymax)
        & (np.maximum(y1, y2) >= ymin)
    )


# ---------------------------------------------------------------------------
# The edge table: one flat, offset-addressed edge layout per relation, and
# the ragged kernel that decides a whole batch of candidate pairs on it.
# ---------------------------------------------------------------------------


class EdgeTable(NamedTuple):
    """Every edge of a set of objects in one flat, offset-addressed layout.

    Edges ``offsets[i] : offsets[i + 1]`` belong to object ``i`` and
    follow ``Polygon.edges()`` exactly (ring by ring, shell first,
    ``vertex -> next vertex`` with the closing edge last), so a slice of
    the table is float-for-float the object's ``EdgeArrays``.
    """

    coords: np.ndarray  #: ``(4, E)`` rows ``x1, y1, x2, y2``
    boxes: np.ndarray  #: ``(4, E)`` rows ``xmin, ymin, xmax, ymax`` per edge
    offsets: np.ndarray  #: ``(n + 1,)`` int64 edge ranges per object
    bounds: np.ndarray  #: ``(n, 4)`` box over *all* rings of each object
    mbrs: np.ndarray  #: ``(n, 4)`` box over each shell (the object MBR)


def ragged_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + l) for s, l in zip(starts, lengths)])``."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - (ends - lengths), lengths)


def build_edge_table(
    object_rings: np.ndarray,
    ring_offsets: np.ndarray,
    ring_xy: np.ndarray,
    rows: Optional[np.ndarray] = None,
) -> EdgeTable:
    """The :class:`EdgeTable` of packed ring columns, or of some ``rows``.

    Inputs are the ``RingColumns`` arrays.  With ``rows`` the table
    covers exactly those objects, in that order, at a cost proportional
    to their points (a tile worker passes its task's rows).  Built by
    index arithmetic alone — no per-object or per-ring Python step — and
    every output array is a fresh copy, never a view of ``ring_xy``, so
    a shared-memory segment behind it can be unmapped afterwards.
    """
    if rows is None:
        rows = np.arange(len(object_rings) - 1)
    first_ring = object_rings[rows]
    ring_counts = object_rings[rows + 1] - first_ring
    rings = ragged_arange(first_ring, ring_counts)
    ring_first = ring_offsets[rings]
    ring_lengths = ring_offsets[rings + 1] - ring_first
    start = ragged_arange(ring_first, ring_lengths)
    # Each vertex starts one edge; the edge ends at the next vertex of
    # the ring, the ring's last edge at its first (Polygon.edges()).
    ring_ends = np.cumsum(ring_lengths)
    end = start + 1
    end[ring_ends - 1] = ring_first
    coords = np.stack(
        (ring_xy[start, 0], ring_xy[start, 1], ring_xy[end, 0], ring_xy[end, 1])
    )
    boxes = np.stack(
        (
            np.minimum(coords[0], coords[2]),
            np.minimum(coords[1], coords[3]),
            np.maximum(coords[0], coords[2]),
            np.maximum(coords[1], coords[3]),
        )
    )
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    if len(rows) == 0:
        empty = np.empty((0, 4))
        return EdgeTable(coords, boxes, offsets, empty, empty)
    ring_starts = ring_ends - ring_lengths
    object_first = np.cumsum(ring_counts) - ring_counts
    np.cumsum(np.add.reduceat(ring_lengths, object_first), out=offsets[1:])
    # Every vertex is the start of exactly one edge, so reducing the
    # start columns per ring, then per object, covers all points.
    reducers = (np.minimum, np.minimum, np.maximum, np.maximum)
    ring_boxes = [
        reduce.reduceat(start_column, ring_starts)
        for reduce, start_column in zip(reducers, coords[[0, 1, 0, 1]])
    ]
    bounds = np.stack(
        [
            reduce.reduceat(column, object_first)
            for reduce, column in zip(reducers, ring_boxes)
        ],
        axis=1,
    )
    mbrs = np.stack([column[object_first] for column in ring_boxes], axis=1)
    return EdgeTable(coords, boxes, offsets, bounds, mbrs)


def gather_edges(
    offsets: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Edge indices of ``rows`` and, per edge, its position in ``rows``."""
    first = offsets[rows]
    lengths = offsets[rows + 1] - first
    return (
        ragged_arange(first, lengths),
        np.repeat(np.arange(len(rows)), lengths),
    )


#: edge pairs materialised per evaluation of the ragged kernel.  Bounds
#: the kernel's temporaries to a few MB however many vertices the
#: batch's objects have (a 527 x 527-edge pair alone is 278k pairs).
_RAGGED_BUDGET = 1 << 16


def edge_pairs_intersect_ragged(
    table_a: EdgeTable,
    table_b: EdgeTable,
    rows_a: np.ndarray,
    rows_b: np.ndarray,
    clip: np.ndarray,
    margin: np.ndarray,
) -> Tuple[np.ndarray, int]:
    """Per candidate pair: does any edge of ``a`` meet any edge of ``b``?

    Pair ``p`` is object ``rows_a[p]`` of ``table_a`` against object
    ``rows_b[p]`` of ``table_b``; ``clip[p]`` is the pair's search
    rectangle (the intersection of the two objects' bounds, already
    inflated by ``margin[p]``).  One array program for the whole batch:

    1. gather every pair's edges and keep those whose box meets
       ``clip[p]`` (the paper's restriction of the search space);
    2. form each pair's ``clipped a x clipped b`` cross product as flat
       index arrays, at most :data:`_RAGGED_BUDGET` edge pairs at a time
       (split along the a-edges, so even one huge pair is bounded);
    3. drop edge pairs whose boxes, the a-side inflated by ``margin[p]``,
       are disjoint — the array form of the plane sweep never comparing
       edges with disjoint extents;
    4. evaluate the orientation / proper-crossing / endpoint-touch
       expressions of :func:`edge_matrix_intersect_any` on the survivors;
    5. mark the pairs that own a hit.

    Returns the per-pair booleans and the number of edge pairs step 2
    enumerated (telemetry; identical across backends).

    **Soundness of 1 and 3** is one lemma: an edge pair whose boxes are
    more than the margin apart cannot satisfy the eps-tolerant predicate.
    The touch branch needs an endpoint inside the other edge's box grown
    by ``eps = 1e-12``, so the boxes are at most ``eps`` apart — far
    below any margin.  The proper branch needs, in exact arithmetic, a
    common point, hence overlapping boxes; a computed orientation can
    only take the wrong sign beyond ``eps`` when rounding noise (about
    ``2e-15 * scale**2``) exceeds ``eps``, which is why the margin grows
    with ``scale**2`` and stays some fifty times above that noise.
    Step 1 is the lemma applied to an edge against the other object's
    bounds.  ``tests/test_ragged_kernel_fuzz.py`` checks every decision
    against the unpruned ``edge_matrix_intersect_any``.
    """
    hits = np.zeros(len(rows_a), dtype=bool)
    edges_a, pair_a = _clipped_edges(table_a, rows_a, clip)
    edges_b, pair_b = _clipped_edges(table_b, rows_b, clip)
    evaluated, chunks = _box_pruned_pairs(
        table_a, table_b, edges_a, pair_a, edges_b, pair_b, margin
    )
    xy_a = table_a.coords[:, edges_a]
    xy_b = table_b.coords[:, edges_b]
    for ea, eb in chunks:
        points = (*xy_a[:, ea], *xy_b[:, eb])
        orients = _orientations(*points)
        hit = _proper_crossing(*orients)
        hit |= _endpoint_touch(*orients, *points)
        hits[pair_a[ea[hit]]] = True
    return hits, evaluated


def _box_pruned_pairs(
    table_a: EdgeTable,
    table_b: EdgeTable,
    edges_a: np.ndarray,
    pair_a: np.ndarray,
    edges_b: np.ndarray,
    pair_b: np.ndarray,
    grow: np.ndarray,
):
    """Steps 2 and 3 of the ragged kernels: budgeted cross product, box pruning.

    ``edges_a``/``pair_a`` and ``edges_b``/``pair_b`` are the two sides'
    clipped edges, pair-major (:func:`_clipped_edges`).  Returns the
    number of edge pairs in every pair's ``clipped a x clipped b`` and
    an iterator over chunks of at most :data:`_RAGGED_BUDGET` of them:
    per chunk, positions ``(ea, eb)`` into the two edge lists of the
    edge pairs whose boxes, the a-side grown by ``grow[pair]``, overlap.
    ``ea`` ascends, so each chunk's pairs ``pair_a[ea]`` come in runs.
    """
    count_b = np.bincount(pair_b, minlength=len(grow))
    #: per clipped a-edge: how many b-edges it meets, and where they start.
    partners = count_b[pair_a]
    first_partner = (np.cumsum(count_b) - count_b)[pair_a]
    done = np.cumsum(partners)
    total = int(done[-1]) if len(done) else 0

    def chunks():
        box_a = table_a.boxes[:, edges_a]
        box_a[:2] -= grow[pair_a]
        box_a[2:] += grow[pair_a]
        box_b = table_b.boxes[:, edges_b]
        lo = 0
        while lo < len(partners):
            before = done[lo - 1] if lo else 0
            hi = max(
                lo + 1,
                int(np.searchsorted(done, before + _RAGGED_BUDGET, side="right")),
            )
            repeats = partners[lo:hi]
            eb = ragged_arange(first_partner[lo:hi], repeats)
            # x-extents first: most edge pairs end here, before any a-side
            # index or y-extent is gathered for them.
            near = np.repeat(box_a[0, lo:hi], repeats) <= box_b[2, eb]
            near &= box_b[0, eb] <= np.repeat(box_a[2, lo:hi], repeats)
            ea = np.repeat(np.arange(lo, hi), repeats)[near]
            eb = eb[near]
            near = (box_a[1, ea] <= box_b[3, eb]) & (box_b[1, eb] <= box_a[3, ea])
            if near.any():
                yield ea[near], eb[near]
            lo = hi

    return total, chunks()


def _clipped_edges(
    table: EdgeTable, rows: np.ndarray, clip: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Edges of ``rows`` whose box meets their pair's clip rectangle.

    Returns table edge indices and the pair each belongs to, pair-major.
    Same comparisons as :func:`edges_overlapping_rect_mask`.
    """
    edges, pair = gather_edges(table.offsets, rows)
    xmin, ymin, xmax, ymax = table.boxes[:, edges]
    keep = (
        (xmin <= clip[pair, 2])
        & (xmax >= clip[pair, 0])
        & (ymin <= clip[pair, 3])
        & (ymax >= clip[pair, 1])
    )
    return edges[keep], pair[keep]


def _point_segment_distance_bulk(
    px: np.ndarray,
    py: np.ndarray,
    ax: np.ndarray,
    ay: np.ndarray,
    bx: np.ndarray,
    by: np.ndarray,
) -> np.ndarray:
    """Broadcast point-to-closed-segment distance.

    Same expressions (and ``sqrt`` instead of ``hypot``) as the loop
    kernel ``_kernels_loops._point_seg_dist``, so all backends compute
    bit-identical distances.
    """
    dx = bx - ax
    dy = by - ay
    seg_len_sq = dx * dx + dy * dy
    degenerate = seg_len_sq <= EPSILON * EPSILON
    safe = np.where(degenerate, 1.0, seg_len_sq)
    t = np.clip(((px - ax) * dx + (py - ay) * dy) / safe, 0.0, 1.0)
    cx = ax + t * dx
    cy = ay + t * dy
    ddx = px - cx
    ddy = py - cy
    dist = np.sqrt(ddx * ddx + ddy * ddy)
    ddx0 = px - ax
    ddy0 = py - ay
    dist0 = np.sqrt(ddx0 * ddx0 + ddy0 * ddy0)
    return np.where(degenerate, dist0, dist)


def _edge_pair_distances(p1x, p1y, p2x, p2y, q1x, q1y, q2x, q2y):
    """Closed-segment distance of edge pairs ``p``/``q`` (inputs broadcast).

    ``core.distance.segment_distance`` semantics: 0 for a properly
    crossing pair (the raw-sign crossing test, no epsilon), else the
    minimum of the four endpoint-to-segment distances.  The loop kernel
    ``_kernels_loops._edge_pair_distance`` evaluates the same
    expressions, so every backend computes bit-identical distances.
    """
    proper = _proper_crossing(
        *_orientations(p1x, p1y, p2x, p2y, q1x, q1y, q2x, q2y), eps=0.0
    )
    dist = np.minimum(
        np.minimum(
            _point_segment_distance_bulk(p1x, p1y, q1x, q1y, q2x, q2y),
            _point_segment_distance_bulk(p2x, p2y, q1x, q1y, q2x, q2y),
        ),
        np.minimum(
            _point_segment_distance_bulk(q1x, q1y, p1x, p1y, p2x, p2y),
            _point_segment_distance_bulk(q2x, q2y, p1x, p1y, p2x, p2y),
        ),
    )
    return np.where(proper, 0.0, dist)


def _box_gap_sq(box_a: np.ndarray, box_b: np.ndarray) -> np.ndarray:
    """Squared Euclidean gap of ``(4, n)`` boxes, column by column.

    0 where the boxes meet; a lower bound of the squared distance of any
    two segments inside them.
    """
    gap_x = np.maximum(np.maximum(box_a[0] - box_b[2], box_b[0] - box_a[2]), 0.0)
    gap_y = np.maximum(np.maximum(box_a[1] - box_b[3], box_b[1] - box_a[3]), 0.0)
    return gap_x * gap_x + gap_y * gap_y


def _edges_near(
    table: EdgeTable, rows: np.ndarray, other: np.ndarray, grow_sq: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Edges of ``rows`` whose box lies within ``sqrt(grow_sq[p])`` of ``other[p]``.

    ``other`` holds one ``(xmin, ymin, xmax, ymax)`` box per pair.
    Returns table edge indices and the pair each belongs to, pair-major.
    """
    edges, pair = gather_edges(table.offsets, rows)
    near = _box_gap_sq(table.boxes[:, edges], other[pair].T) <= grow_sq[pair]
    return edges[near], pair[near]


def min_edge_distance_ragged(
    table_a: EdgeTable,
    table_b: EdgeTable,
    rows_a: np.ndarray,
    rows_b: np.ndarray,
    reach: np.ndarray,
    margin: np.ndarray,
) -> Tuple[np.ndarray, int]:
    """Per candidate pair: the minimum edge distance, if within ``reach[p]``.

    Pair ``p`` is object ``rows_a[p]`` of ``table_a`` against object
    ``rows_b[p]`` of ``table_b``, over all their edges (shell and
    holes).  **Contract:** ``dist[p]`` is the minimum over every edge
    pair of :func:`_edge_pair_distances` — the value an unpruned
    ``n_a x n_b`` matrix reduces to, bit for bit — when that minimum is
    ``<= reach[p]``, and ``inf`` otherwise.  The result is therefore
    fully determined by the inputs, whatever pruning a backend does.
    One array program for the whole round, in the shape of
    :func:`edge_pairs_intersect_ragged`:

    1. keep each side's edges whose box lies within ``reach[p] +
       margin[p]`` (Euclidean) of the other object's bounds;
    2. form each pair's ``clipped a x clipped b`` cross product as flat
       index arrays, at most :data:`_RAGGED_BUDGET` edge pairs at a time
       (split along the a-edges);
    3. drop edge pairs whose boxes, the a-side grown by
       ``reach[p] + margin[p]``, are disjoint (x-extents first), then
       those whose boxes are more than ``reach[p] + margin[p]`` apart
       in Euclidean distance (the per-axis test alone keeps a square
       where the distance keeps a disc — on objects several edge lengths
       apart, most edge pairs of the facing boundaries);
    4. evaluate :func:`_edge_pair_distances` on the survivors;
    5. reduce per pair and map values ``> reach[p]`` to ``inf``.

    Returns the distances and the number of edge pairs step 2
    enumerated (telemetry; identical across backends).

    **Soundness of 1 and 3:** two segments are at least as far apart as
    their boxes, so an edge pair at computed distance ``d <= reach`` has
    a Euclidean box gap of at most ``d`` plus the rounding of the
    distance and gap expressions (a few ulps of the coordinates), so at
    most ``reach + margin`` — it is never pruned, and neither is either
    edge against the other object's bounds, which contain the other edge.
    So if the true minimum is ``<= reach`` the edge pair attaining it
    survives and the reduction returns it exactly; otherwise every
    survivor is ``> reach`` too and the pair maps to ``inf``.  ``margin``
    is the intersects kernel's (``exact.refine.clip_margins``).
    """
    dist = np.full(len(rows_a), np.inf)
    grow = reach + margin
    grow_sq = grow * grow
    edges_a, pair_a = _edges_near(
        table_a, rows_a, table_b.bounds[rows_b], grow_sq
    )
    edges_b, pair_b = _edges_near(
        table_b, rows_b, table_a.bounds[rows_a], grow_sq
    )
    evaluated, chunks = _box_pruned_pairs(
        table_a, table_b, edges_a, pair_a, edges_b, pair_b, grow
    )
    box_a = table_a.boxes[:, edges_a]
    box_b = table_b.boxes[:, edges_b]
    xy_a = table_a.coords[:, edges_a]
    xy_b = table_b.coords[:, edges_b]
    for ea, eb in chunks:
        owner = pair_a[ea]
        near = _box_gap_sq(box_a[:, ea], box_b[:, eb]) <= grow_sq[owner]
        if not near.any():
            continue
        ea = ea[near]
        eb = eb[near]
        owner = owner[near]
        values = _edge_pair_distances(*xy_a[:, ea], *xy_b[:, eb])
        starts = np.flatnonzero(np.diff(owner, prepend=-1))
        runs = owner[starts]
        dist[runs] = np.minimum(
            dist[runs], np.minimum.reduceat(values, starts)
        )
    dist[dist > reach] = np.inf
    return dist, evaluated


def vertex_distance_bounds(
    table_a: EdgeTable,
    table_b: EdgeTable,
    rows_a: np.ndarray,
    rows_b: np.ndarray,
) -> np.ndarray:
    """Per pair, an upper bound of the minimum edge distance from two vertices.

    Takes the ``a`` vertex nearest the centre of ``b``'s bounds, then
    the ``b`` vertex nearest that one, and returns the
    :func:`_edge_pair_distances` value of the two edges starting there —
    at most the vertex-to-vertex distance, and one of the values the
    pair's minimum runs over, so never below it, bit for bit.  A cheap
    ``reach`` for :func:`min_edge_distance_ragged` that never cuts off
    the exact value.  Objects have at least one edge each.
    """
    bounds_b = table_b.bounds[rows_b]
    centre_x = (bounds_b[:, 0] + bounds_b[:, 2]) / 2.0
    centre_y = (bounds_b[:, 1] + bounds_b[:, 3]) / 2.0
    edges_a, pair_a = gather_edges(table_a.offsets, rows_a)
    ax, ay = table_a.coords[:2, edges_a]
    near_a = edges_a[_first_argmin(
        (ax - centre_x[pair_a]) ** 2 + (ay - centre_y[pair_a]) ** 2, pair_a
    )]
    vx, vy = table_a.coords[:2, near_a]
    edges_b, pair_b = gather_edges(table_b.offsets, rows_b)
    bx, by = table_b.coords[:2, edges_b]
    near_b = edges_b[_first_argmin(
        (bx - vx[pair_b]) ** 2 + (by - vy[pair_b]) ** 2, pair_b
    )]
    return _edge_pair_distances(
        *table_a.coords[:, near_a], *table_b.coords[:, near_b]
    )


def _first_argmin(values: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Position of the first minimum of each run of equal, ascending ``owner``."""
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    hits = np.flatnonzero(values == np.minimum.reduceat(values, starts)[owner])
    return hits[np.diff(owner[hits], prepend=-1) != 0]


#: cap on the temporary projection-tensor size of the bulk SAT kernel.
_SAT_CHUNK_ELEMS = 4_000_000


def convex_intersect_bulk(
    avx: np.ndarray,
    avy: np.ndarray,
    bvx: np.ndarray,
    bvy: np.ndarray,
    eps: float = EPSILON,
) -> np.ndarray:
    """Row-wise separating-axis test — bulk ``convex_intersect``.

    Inputs are padded vertex matrices: row ``i`` of ``avx``/``avy`` holds
    the CCW vertices of polygon ``a_i`` followed by copies of its *first*
    vertex up to the matrix width.  That padding closes the ring (the last
    real edge ends at the first vertex) and makes every surplus edge
    degenerate with a zero normal, which can never certify a separation;
    surplus vertex columns duplicate the first vertex and so never change
    a min/max projection.  The arithmetic per axis is identical to the
    scalar SAT (products, sums, ``min_b > max_a + eps``), hence so are the
    decisions.  Rows must describe polygons with >= 3 distinct vertices —
    degenerate shapes take the scalar fallback path in the caller, exactly
    like ``convex_intersect`` itself does.
    """
    n = len(avx)
    out = np.empty(n, dtype=bool)
    width = max(avx.shape[1], bvx.shape[1], 1)
    chunk = max(1, _SAT_CHUNK_ELEMS // (width * width))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        sep = _sat_separated(avx[lo:hi], avy[lo:hi], bvx[lo:hi], bvy[lo:hi], eps)
        sep |= _sat_separated(bvx[lo:hi], bvy[lo:hi], avx[lo:hi], avy[lo:hi], eps)
        out[lo:hi] = ~sep
    return out


def _sat_separated(
    px: np.ndarray, py: np.ndarray, qx: np.ndarray, qy: np.ndarray, eps: float
) -> np.ndarray:
    """True per row if some edge normal of ``p`` separates ``q`` from ``p``."""
    # Outward normal of CCW edge (a->b) is (by - ay, ax - bx).
    nx = py[:, 1:] - py[:, :-1]
    ny = px[:, :-1] - px[:, 1:]
    proj_p = px[:, None, :] * nx[:, :, None] + py[:, None, :] * ny[:, :, None]
    proj_q = qx[:, None, :] * nx[:, :, None] + qy[:, None, :] * ny[:, :, None]
    return (proj_q.min(axis=2) > proj_p.max(axis=2) + eps).any(axis=1)


def pack_convex_rows(
    vertex_lists: List[List[Coord]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack variable-length vertex lists for :func:`convex_intersect_bulk`.

    Returns ``(vx, vy, counts)`` where ``vx``/``vy`` are ``(n, W + 1)``
    matrices (``W`` = longest list) padded by repeating each row's first
    vertex, and ``counts`` holds the true vertex counts.
    """
    n = len(vertex_lists)
    counts = np.array([len(v) for v in vertex_lists], dtype=np.intp)
    width = int(counts.max()) + 1 if n else 1
    vx = np.zeros((n, width))
    vy = np.zeros((n, width))
    for i, verts in enumerate(vertex_lists):
        c = len(verts)
        if c == 0:
            continue
        row = np.asarray(verts, dtype=float)
        vx[i, :c] = row[:, 0]
        vy[i, :c] = row[:, 1]
        vx[i, c:] = row[0, 0]
        vy[i, c:] = row[0, 1]
    return vx, vy, counts


def polygons_intersect_fast(poly1: Polygon, poly2: Polygon) -> bool:
    """Vectorised exact intersection test (edge matrix + containment).

    Oracle-grade reference used by the dataset pipeline and the test
    suite; semantics match
    :func:`repro.exact.bruteforce.polygons_intersect_quadratic`.
    """
    if not poly1.mbr().intersects(poly2.mbr()):
        return False
    if edges_intersect_matrix_any(poly1, poly2):
        return True
    if poly2.mbr().contains_rect(poly1.mbr()):
        if poly2.contains_point(poly1.shell[0]):
            return True
    if poly1.mbr().contains_rect(poly2.mbr()):
        if poly1.contains_point(poly2.shell[0]):
            return True
    return False
