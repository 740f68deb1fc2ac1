"""Convex geometry: hulls, intersection tests, clipping, calipers.

The geometric filter of the paper works almost entirely on convex
conservative approximations (§3.2), so fast convex–convex predicates are
the workhorse of step 2.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from .predicates import EPSILON, Coord, cross, polygon_signed_area


def convex_hull(points: Sequence[Coord]) -> List[Coord]:
    """Convex hull in CCW order (Andrew's monotone chain, O(n log n)).

    Collinear points on the hull boundary are dropped; the result has at
    least one point (degenerate inputs collapse to fewer than 3 vertices).
    """
    pts = sorted(set((float(x), float(y)) for x, y in points))
    if len(pts) <= 2:
        return list(pts)

    lower: List[Coord] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= EPSILON:
            lower.pop()
        lower.append(p)
    upper: List[Coord] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= EPSILON:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def convex_contains_point(hull: Sequence[Coord], p: Coord) -> bool:
    """True if ``p`` is inside or on the CCW convex polygon ``hull``."""
    n = len(hull)
    if n == 0:
        return False
    if n == 1:
        return (
            abs(p[0] - hull[0][0]) <= EPSILON and abs(p[1] - hull[0][1]) <= EPSILON
        )
    if n == 2:
        from .predicates import on_segment, orientation

        return orientation(hull[0], p, hull[1]) == 0 and on_segment(
            hull[0], p, hull[1]
        )
    for i in range(n):
        a = hull[i]
        b = hull[(i + 1) % n]
        if cross(a, b, p) < -EPSILON:
            return False
    return True


def convex_intersect(poly1: Sequence[Coord], poly2: Sequence[Coord]) -> bool:
    """Separating-axis intersection test for two convex CCW polygons.

    Returns True iff the closed polygons share at least one point.  This
    is the O(n+m)-axes test used for every conservative-approximation
    filter predicate (RMBR, 4-C, 5-C, CH pairs).
    """
    if len(poly1) < 3 or len(poly2) < 3:
        # Degenerate: fall back to clipping-based area test via bounding box.
        return _degenerate_intersect(poly1, poly2)
    for poly_a, poly_b in ((poly1, poly2), (poly2, poly1)):
        n = len(poly_a)
        for i in range(n):
            ax, ay = poly_a[i]
            bx, by = poly_a[(i + 1) % n]
            # Outward normal of CCW edge (a->b) is (dy, -dx).
            nx = by - ay
            ny = ax - bx
            # poly_a lies entirely on <= side of max projection of itself;
            # separation if min projection of poly_b exceeds max of poly_a.
            max_a = max(px * nx + py * ny for px, py in poly_a)
            min_b = min(px * nx + py * ny for px, py in poly_b)
            if min_b > max_a + EPSILON:
                return False
    return True


def _degenerate_intersect(poly1: Sequence[Coord], poly2: Sequence[Coord]) -> bool:
    from .segment import segments_intersect

    if not poly1 or not poly2:
        return False
    if len(poly1) == 1:
        return convex_contains_point(poly2, poly1[0])
    if len(poly2) == 1:
        return convex_contains_point(poly1, poly2[0])
    if len(poly1) == 2 and len(poly2) == 2:
        return segments_intersect(poly1[0], poly1[1], poly2[0], poly2[1])
    seg, poly = (poly1, poly2) if len(poly1) == 2 else (poly2, poly1)
    if convex_contains_point(poly, seg[0]) or convex_contains_point(poly, seg[1]):
        return True
    n = len(poly)
    return any(
        segments_intersect(seg[0], seg[1], poly[i], poly[(i + 1) % n])
        for i in range(n)
    )


def clip_convex(subject: Sequence[Coord], clip: Sequence[Coord]) -> List[Coord]:
    """Sutherland–Hodgman clip of convex ``subject`` by convex CCW ``clip``.

    Returns the intersection polygon (possibly empty).  Both inputs must
    be convex; the result is convex.
    """
    output = list(subject)
    n = len(clip)
    for i in range(n):
        if not output:
            return []
        a = clip[i]
        b = clip[(i + 1) % n]
        input_pts = output
        output = []
        m = len(input_pts)
        for j in range(m):
            cur = input_pts[j]
            nxt = input_pts[(j + 1) % m]
            cur_in = cross(a, b, cur) >= -EPSILON
            nxt_in = cross(a, b, nxt) >= -EPSILON
            if cur_in:
                output.append(cur)
                if not nxt_in:
                    ip = _line_seg_intersection(a, b, cur, nxt)
                    if ip is not None:
                        output.append(ip)
            elif nxt_in:
                ip = _line_seg_intersection(a, b, cur, nxt)
                if ip is not None:
                    output.append(ip)
    return output


def _line_seg_intersection(
    a: Coord, b: Coord, p: Coord, q: Coord
) -> Optional[Coord]:
    """Intersection of infinite line ``a-b`` with segment ``p-q``."""
    dax = b[0] - a[0]
    day = b[1] - a[1]
    dpx = q[0] - p[0]
    dpy = q[1] - p[1]
    denom = dpx * day - dpy * dax
    if abs(denom) <= EPSILON:
        return None
    t = ((a[0] - p[0]) * day - (a[1] - p[1]) * dax) / denom
    return (p[0] + t * dpx, p[1] + t * dpy)


def convex_intersection_area(
    poly1: Sequence[Coord], poly2: Sequence[Coord]
) -> float:
    """Area of the intersection of two convex CCW polygons."""
    if len(poly1) < 3 or len(poly2) < 3:
        return 0.0
    inter = clip_convex(poly1, poly2)
    if len(inter) < 3:
        return 0.0
    return abs(polygon_signed_area(inter))


def min_area_rotated_rect(
    points: Sequence[Coord],
) -> Tuple[List[Coord], float, float]:
    """Minimum-area enclosing rotated rectangle by rotating calipers.

    Returns ``(corners_ccw, area, angle)`` where ``angle`` is the rotation
    of the rectangle's base edge.  The optimal rectangle has one side
    collinear with a hull edge, so scanning the hull edges suffices.
    """
    hull = convex_hull(points)
    if len(hull) == 0:
        raise ValueError("min_area_rotated_rect: no points")
    if len(hull) == 1:
        p = hull[0]
        return [p, p, p, p], 0.0, 0.0
    if len(hull) == 2:
        (x1, y1), (x2, y2) = hull
        return [(x1, y1), (x2, y2), (x2, y2), (x1, y1)], 0.0, math.atan2(
            y2 - y1, x2 - x1
        )

    best_area = math.inf
    best: Tuple[List[Coord], float] = ([], 0.0)
    n = len(hull)
    for i in range(n):
        ax, ay = hull[i]
        bx, by = hull[(i + 1) % n]
        theta = math.atan2(by - ay, bx - ax)
        cos_t = math.cos(-theta)
        sin_t = math.sin(-theta)
        xs: List[float] = []
        ys: List[float] = []
        for px, py in hull:
            xs.append(px * cos_t - py * sin_t)
            ys.append(px * sin_t + py * cos_t)
        xmin, xmax = min(xs), max(xs)
        ymin, ymax = min(ys), max(ys)
        area = (xmax - xmin) * (ymax - ymin)
        if area < best_area:
            best_area = area
            cos_b = math.cos(theta)
            sin_b = math.sin(theta)
            corners = [
                (x * cos_b - y * sin_b, x * sin_b + y * cos_b)
                for x, y in (
                    (xmin, ymin),
                    (xmax, ymin),
                    (xmax, ymax),
                    (xmin, ymax),
                )
            ]
            best = (corners, theta)
    return best[0], best_area, best[1]


def convex_area(poly: Sequence[Coord]) -> float:
    """Area of a convex CCW polygon."""
    return abs(polygon_signed_area(poly))
