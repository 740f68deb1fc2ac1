"""Low-level geometric predicates.

These are the primitives everything else in :mod:`repro.geometry` is built
on.  They operate on plain ``(x, y)`` tuples so that callers never pay an
object-construction cost in inner loops (the exact-geometry processors of
the paper execute millions of them).

All predicates use a relative/absolute epsilon scheme rather than exact
arithmetic; the data spaces used in this reproduction are unit-scaled, so
a fixed absolute epsilon is adequate and mirrors the float arithmetic the
original system used.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

Coord = Tuple[float, float]

#: Absolute tolerance used by the predicates.  The data space is the unit
#: square; 1e-12 is far below any meaningful feature size while staying
#: well above double-precision noise for coordinates of magnitude ~1.
EPSILON = 1e-12


def orientation(p: Coord, q: Coord, r: Coord) -> int:
    """Return the orientation of the ordered triple ``(p, q, r)``.

    * ``+1`` — counter-clockwise (left turn)
    * ``-1`` — clockwise (right turn)
    * ``0``  — collinear (within :data:`EPSILON`)
    """
    cross = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    if cross > EPSILON:
        return 1
    if cross < -EPSILON:
        return -1
    return 0


def cross(o: Coord, a: Coord, b: Coord) -> float:
    """Signed cross product of vectors ``o->a`` and ``o->b``."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def distance(a: Coord, b: Coord) -> float:
    """Euclidean distance between two points."""
    return math.hypot(b[0] - a[0], b[1] - a[1])


def on_segment(p: Coord, q: Coord, r: Coord) -> bool:
    """True if collinear point ``q`` lies on the closed segment ``p-r``.

    Callers must have established collinearity first (``orientation`` == 0);
    this only checks the bounding-interval condition.
    """
    return (
        min(p[0], r[0]) - EPSILON <= q[0] <= max(p[0], r[0]) + EPSILON
        and min(p[1], r[1]) - EPSILON <= q[1] <= max(p[1], r[1]) + EPSILON
    )


def point_segment_distance(p: Coord, a: Coord, b: Coord) -> float:
    """Distance from point ``p`` to the closed segment ``a-b``."""
    ax, ay = a
    bx, by = b
    px, py = p
    dx = bx - ax
    dy = by - ay
    seg_len_sq = dx * dx + dy * dy
    if seg_len_sq <= EPSILON * EPSILON:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / seg_len_sq
    t = max(0.0, min(1.0, t))
    cx = ax + t * dx
    cy = ay + t * dy
    return math.hypot(px - cx, py - cy)


def polygon_signed_area(points: Sequence[Coord]) -> float:
    """Signed area of the (closed) ring described by ``points``.

    Positive for counter-clockwise rings (the shoelace formula).  The ring
    must not repeat its first vertex at the end.
    """
    n = len(points)
    if n < 3:
        return 0.0
    total = 0.0
    for i in range(n):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total / 2.0


def is_ccw(points: Sequence[Coord]) -> bool:
    """True if the ring is counter-clockwise oriented."""
    return polygon_signed_area(points) > 0.0
