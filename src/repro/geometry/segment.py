"""Line-segment intersection primitives.

The exact-geometry processors (:mod:`repro.exact`) reduce polygon
intersection to edge-pair tests; these are the edge-level predicates the
paper counts as *edge intersection test* and *edge-rectangle intersection
test* in its cost model (Table 6).
"""

from __future__ import annotations

from typing import Optional

from .predicates import EPSILON, Coord, on_segment, orientation


def segments_intersect(p1: Coord, p2: Coord, q1: Coord, q2: Coord) -> bool:
    """True if closed segments ``p1-p2`` and ``q1-q2`` share a point.

    Handles all degeneracies (collinear overlap, endpoint touching).
    """
    o1 = orientation(p1, p2, q1)
    o2 = orientation(p1, p2, q2)
    o3 = orientation(q1, q2, p1)
    o4 = orientation(q1, q2, p2)

    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and on_segment(p1, q1, p2):
        return True
    if o2 == 0 and on_segment(p1, q2, p2):
        return True
    if o3 == 0 and on_segment(q1, p1, q2):
        return True
    if o4 == 0 and on_segment(q1, p2, q2):
        return True
    return False


def line_intersection(
    p1: Coord, p2: Coord, q1: Coord, q2: Coord
) -> Optional[Coord]:
    """Intersection of the two *infinite lines* through the segments.

    Returns ``None`` for (near-)parallel lines.  Used by the m-corner
    construction where adjacent hull edges are extended until they meet.
    """
    d1x = p2[0] - p1[0]
    d1y = p2[1] - p1[1]
    d2x = q2[0] - q1[0]
    d2y = q2[1] - q1[1]
    denom = d1x * d2y - d1y * d2x
    if abs(denom) <= EPSILON:
        return None
    t = ((q1[0] - p1[0]) * d2y - (q1[1] - p1[1]) * d2x) / denom
    return (p1[0] + t * d1x, p1[1] + t * d1y)


def segment_y_at(p1: Coord, p2: Coord, x: float) -> float:
    """y-coordinate of the (non-vertical) segment's line at abscissa ``x``.

    This is the *position test* primitive of the plane-sweep status
    structure (Table 6).  Vertical segments return the lower endpoint's y.
    """
    dx = p2[0] - p1[0]
    if abs(dx) <= EPSILON:
        return min(p1[1], p2[1])
    t = (x - p1[0]) / dx
    return p1[1] + t * (p2[1] - p1[1])


def segment_intersects_rect(
    p1: Coord,
    p2: Coord,
    xmin: float,
    ymin: float,
    xmax: float,
    ymax: float,
) -> bool:
    """True if segment ``p1-p2`` intersects the closed axis-aligned box.

    Cohen–Sutherland style trivial accept/reject followed by a
    Liang–Barsky clip.  This is the *edge-rectangle intersection test* of
    the paper's cost model.
    """
    x1, y1 = p1
    x2, y2 = p2
    # Trivial accept: either endpoint inside.
    if xmin <= x1 <= xmax and ymin <= y1 <= ymax:
        return True
    if xmin <= x2 <= xmax and ymin <= y2 <= ymax:
        return True
    # Trivial reject: both endpoints strictly one side.
    if (x1 < xmin and x2 < xmin) or (x1 > xmax and x2 > xmax):
        return False
    if (y1 < ymin and y2 < ymin) or (y1 > ymax and y2 > ymax):
        return False
    # Liang–Barsky parametric clip.
    dx = x2 - x1
    dy = y2 - y1
    t0, t1 = 0.0, 1.0
    for p, q in (
        (-dx, x1 - xmin),
        (dx, xmax - x1),
        (-dy, y1 - ymin),
        (dy, ymax - y1),
    ):
        if abs(p) <= EPSILON:
            if q < -EPSILON:
                return False
            continue
        r = q / p
        if p < 0:
            if r > t1:
                return False
            if r > t0:
                t0 = r
        else:
            if r < t0:
                return False
            if r < t1:
                t1 = r
    return t0 <= t1
