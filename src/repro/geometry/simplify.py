"""Polyline / polygon simplification (Douglas-Peucker).

The paper's §4 measurements hinge on object complexity: "the more
complex the object, the more significant is the quality of the object
representation", and Figure 16 shows exact-test cost growing with edge
count.  Simplification is the standard cartographic tool for controlling
that complexity; the repository uses it for

* the complexity-sweep ablation (exact-step cost vs vertex count on the
  *same* shapes at different tolerances), and
* dataset preprocessing in the examples.

Note that a simplified polygon is neither a conservative nor a
progressive approximation (vertices move to both sides of the original
boundary), so it must never be used as a *filter* in the join pipeline —
only as a data transformation.
"""

from __future__ import annotations

from typing import List, Sequence

from .polygon import Polygon
from .predicates import Coord, point_segment_distance


def simplify_polyline(
    points: Sequence[Coord], tolerance: float
) -> List[Coord]:
    """Douglas-Peucker simplification of an open polyline.

    Keeps the first and last points; a point survives when it deviates
    more than ``tolerance`` from the simplified chain.  Runs iteratively
    (explicit stack) so deep recursions on long cartographic boundaries
    cannot overflow.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    n = len(points)
    if n <= 2:
        return list(points)
    keep = [False] * n
    keep[0] = keep[-1] = True
    stack = [(0, n - 1)]
    while stack:
        first, last = stack.pop()
        if last - first < 2:
            continue
        anchor = points[first]
        floater = points[last]
        worst_dist = -1.0
        worst_idx = first
        for i in range(first + 1, last):
            d = point_segment_distance(points[i], anchor, floater)
            if d > worst_dist:
                worst_dist = d
                worst_idx = i
        if worst_dist > tolerance:
            keep[worst_idx] = True
            stack.append((first, worst_idx))
            stack.append((worst_idx, last))
    return [p for p, k in zip(points, keep) if k]


def simplify_ring(points: Sequence[Coord], tolerance: float) -> List[Coord]:
    """Simplify a closed ring; guarantees at least a triangle survives.

    The ring is cut at its two mutually farthest-in-index extreme points
    so Douglas-Peucker's fixed endpoints do not bias one vertex.
    """
    pts = list(points)
    if len(pts) <= 3:
        return pts
    # Anchor at the two vertices farthest apart along x (stable split).
    i_min = min(range(len(pts)), key=lambda i: pts[i])
    pts = pts[i_min:] + pts[:i_min]
    split = max(range(len(pts)), key=lambda i: pts[i])
    if split == 0:
        split = len(pts) // 2
    first = simplify_polyline(pts[: split + 1], tolerance)
    second = simplify_polyline(pts[split:] + pts[:1], tolerance)
    ring = first[:-1] + second[:-1]
    if len(ring) < 3:
        # Tolerance flattened the ring; keep the anchor triangle.
        third = len(pts) * 2 // 3
        ring = [pts[0], pts[split], pts[third % len(pts)]]
    return ring


def simplify_polygon(polygon: Polygon, tolerance: float) -> Polygon:
    """Simplified copy of a polygon (shell and holes independently).

    Holes whose remaining area falls below ``tolerance**2`` are dropped —
    the cartographic convention for generalisation (features smaller than
    the tolerance footprint disappear from the map).
    """
    shell = simplify_ring(list(polygon.shell), tolerance)
    min_hole_area = tolerance * tolerance
    holes = []
    for hole in polygon.holes:
        simplified = simplify_ring(list(hole), tolerance)
        if len(simplified) >= 3 and _ring_area(simplified) > min_hole_area:
            holes.append(simplified)
    return Polygon(shell, holes=holes or None)


def _ring_area(ring: Sequence[Coord]) -> float:
    area = 0.0
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        area += x1 * y2 - x2 * y1
    return abs(area) / 2.0
