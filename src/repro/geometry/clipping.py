"""Polygon-polygon intersection (clipping) for the map-overlay operation.

The paper motivates spatial joins as the building block of the GIS *map
overlay* (§2: "they serve as building blocks for more complex and
application-defined operations, e.g. for the map overlay").  The join
finds the intersecting pairs; the overlay then needs the actual
intersection *regions* of each pair.  This module computes them with the
Greiner-Hormann algorithm on simple rings, made robust by a
perturbation-and-retry scheme for degenerate inputs (shared vertices,
vertices on edges, collinear overlapping edges).

For polygons with holes, :func:`polygon_intersection_area` applies
inclusion-exclusion over the rings; region output
(:func:`polygon_intersection`) operates on exterior rings.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from .polygon import Polygon
from .predicates import Coord, polygon_signed_area

#: retries with growing perturbation before giving up on degeneracies.
MAX_PERTURB_RETRIES = 6

#: relative tolerance classifying an intersection parameter as degenerate.
_PARAM_EPS = 1e-12


class ClippingError(RuntimeError):
    """Raised when clipping fails even after perturbation retries."""


class _Vertex:
    """Node of the circular doubly-linked vertex list used by the clipper."""

    __slots__ = (
        "x",
        "y",
        "next",
        "prev",
        "neighbor",
        "intersect",
        "entry",
        "alpha",
        "visited",
    )

    def __init__(self, x: float, y: float, alpha: float = 0.0):
        self.x = x
        self.y = y
        self.next: Optional["_Vertex"] = None
        self.prev: Optional["_Vertex"] = None
        self.neighbor: Optional["_Vertex"] = None
        self.intersect = False
        self.entry = False
        self.alpha = alpha
        self.visited = False


class _Degenerate(Exception):
    """Internal: the configuration needs perturbation."""


def intersect_rings(
    subject: Sequence[Coord], clip: Sequence[Coord]
) -> List[List[Coord]]:
    """Intersection region(s) of two simple rings.

    Returns a list of counter-clockwise rings; empty when the rings are
    disjoint.  Degenerate configurations are resolved by translating the
    clip ring by a tiny deterministic offset and retrying — the area
    error is on the order of ``perimeter * 1e-9`` per retry step.
    """
    return _clip_rings(subject, clip, op="intersection")


def _clip_rings(
    subject: Sequence[Coord], clip: Sequence[Coord], op: str
) -> List[List[Coord]]:
    subject = _ensure_ccw(list(subject))
    clip_pts = _ensure_ccw(list(clip))
    scale = _extent(subject) + _extent(clip_pts)
    for attempt in range(MAX_PERTURB_RETRIES + 1):
        try:
            return _greiner_hormann(subject, clip_pts, op)
        except _Degenerate:
            step = scale * 1e-9 * (attempt + 1)
            angle = 0.7548776662 * (attempt + 1)  # deterministic direction
            dx = step * math.cos(angle)
            dy = step * math.sin(angle)
            clip_pts = [(x + dx, y + dy) for x, y in clip_pts]
    raise ClippingError(
        "clipping failed after perturbation retries (degenerate input)"
    )


def polygon_intersection(a: Polygon, b: Polygon) -> List[Polygon]:
    """Intersection regions of two polygons (exterior rings).

    Each returned region is a hole-free polygon.  Raises
    :class:`ClippingError` when degeneracies survive all retries.
    """
    rings = intersect_rings(a.shell, b.shell)
    return [Polygon(r) for r in rings if len(r) >= 3]


def polygon_intersection_area(a: Polygon, b: Polygon) -> float:
    """Area of the intersection of two polygons, holes included.

    Inclusion-exclusion over the rings:
    ``|A ∩ B| = |EA∩EB| - Σ|EA∩HB| - Σ|HA∩EB| + ΣΣ|HA∩HB|``
    which is exact when each polygon's holes are disjoint and contained
    in its exterior ring (guaranteed by :meth:`Polygon.validate`).
    """
    total = _rings_area(a.shell, b.shell)
    for hole_b in b.holes:
        total -= _rings_area(a.shell, hole_b)
    for hole_a in a.holes:
        total -= _rings_area(hole_a, b.shell)
        for hole_b in b.holes:
            total += _rings_area(hole_a, hole_b)
    return max(0.0, total)


def _rings_area(ring_a: Sequence[Coord], ring_b: Sequence[Coord]) -> float:
    return sum(
        abs(polygon_signed_area(r)) for r in intersect_rings(ring_a, ring_b)
    )


# ---------------------------------------------------------------------------
# Greiner-Hormann proper
# ---------------------------------------------------------------------------


def _greiner_hormann(
    subject: List[Coord], clip: List[Coord], op: str = "intersection"
) -> List[List[Coord]]:
    subj_list = _build_list(subject)
    clip_list = _build_list(clip)

    found_any = _insert_intersections(subj_list, clip_list)

    if not found_any:
        return _no_crossing_result(subject, clip, op)

    # Entry/exit flags relative to the other ring; the boolean operation
    # is selected by inverting flags (Greiner-Hormann's operation table):
    # intersection = (as computed, as computed), union = (inverted,
    # inverted), difference A\B = (inverted, as computed).
    invert_subject = op in ("union", "difference")
    invert_clip = op == "union"
    _mark_entries(subj_list, subject, clip, invert=invert_subject)
    _mark_entries(clip_list, clip, subject, invert=invert_clip)
    return _orient_results(_trace(subj_list), subject, clip, op)


def _orient_results(
    rings: List[List[Coord]], subject: List[Coord], clip: List[Coord], op: str
) -> List[List[Coord]]:
    """Orient traced rings: regions CCW, enclosed holes CW.

    A traced ring is a *region* of the result when a point of its
    interior belongs to the result set, a *hole* otherwise (union can
    enclose gaps; difference can carve cavities).
    """
    out: List[List[Coord]] = []
    for ring in rings:
        p = _interior_point(ring)
        in_subject = _point_in_ring(p, subject)
        in_clip = _point_in_ring(p, clip)
        if op == "union":
            is_region = in_subject or in_clip
        elif op == "difference":
            is_region = in_subject and not in_clip
        else:
            is_region = True
        ccw = polygon_signed_area(ring) > 0
        if is_region != ccw:
            ring = list(reversed(ring))
        out.append(ring)
    return out


def _interior_point(ring: List[Coord]) -> Coord:
    """A point strictly inside a simple ring (classic construction)."""
    n = len(ring)
    i = min(range(n), key=lambda k: (ring[k][1], ring[k][0]))
    a = ring[(i - 1) % n]
    v = ring[i]
    b = ring[(i + 1) % n]
    inside = [
        p
        for p in ring
        if p not in (a, v, b) and _point_in_triangle(p, a, v, b)
    ]
    if not inside:
        return ((a[0] + v[0] + b[0]) / 3, (a[1] + v[1] + b[1]) / 3)
    q = max(inside, key=lambda p: _line_distance(p, a, b))
    return ((v[0] + q[0]) / 2, (v[1] + q[1]) / 2)


def _point_in_triangle(p: Coord, a: Coord, b: Coord, c: Coord) -> bool:
    d1 = _side(p, a, b)
    d2 = _side(p, b, c)
    d3 = _side(p, c, a)
    has_neg = d1 < 0 or d2 < 0 or d3 < 0
    has_pos = d1 > 0 or d2 > 0 or d3 > 0
    return not (has_neg and has_pos)


def _side(p: Coord, a: Coord, b: Coord) -> float:
    return (p[0] - b[0]) * (a[1] - b[1]) - (a[0] - b[0]) * (p[1] - b[1])


def _line_distance(p: Coord, a: Coord, b: Coord) -> float:
    dx, dy = b[0] - a[0], b[1] - a[1]
    norm = math.hypot(dx, dy)
    if norm == 0:
        return math.hypot(p[0] - a[0], p[1] - a[1])
    return abs(dx * (p[1] - a[1]) - dy * (p[0] - a[0])) / norm


def _no_crossing_result(
    subject: List[Coord], clip: List[Coord], op: str
) -> List[List[Coord]]:
    """Containment / disjointness cases (no boundary crossings)."""
    subject_inside = _point_in_ring(subject[0], clip)
    clip_inside = _point_in_ring(clip[0], subject)
    if op == "intersection":
        if subject_inside:
            return [list(subject)]
        if clip_inside:
            return [list(clip)]
        return []
    if op == "union":
        if subject_inside:
            return [list(clip)]
        if clip_inside:
            return [list(subject)]
        return [list(subject), list(clip)]
    # difference (subject minus clip)
    if subject_inside:
        return []
    if clip_inside:
        # annulus: CCW outer boundary plus the clip as a CW hole ring
        return [list(subject), list(reversed(clip))]
    return [list(subject)]


def _build_list(points: List[Coord]) -> _Vertex:
    head: Optional[_Vertex] = None
    prev: Optional[_Vertex] = None
    for x, y in points:
        v = _Vertex(x, y)
        if head is None:
            head = v
        else:
            prev.next = v
            v.prev = prev
        prev = v
    prev.next = head
    head.prev = prev
    return head


def _iter_ring(head: _Vertex):
    v = head
    while True:
        yield v
        v = v.next
        # Skip over intersection vertices inserted later: the caller
        # iterating original vertices uses the snapshot list instead.
        if v is head:
            break


def _original_edges(head: _Vertex) -> List[Tuple[_Vertex, _Vertex]]:
    """Edges between consecutive *original* (non-intersection) vertices."""
    originals = [v for v in _iter_ring(head) if not v.intersect]
    return [
        (originals[i], originals[(i + 1) % len(originals)])
        for i in range(len(originals))
    ]


def _insert_intersections(subj_head: _Vertex, clip_head: _Vertex) -> bool:
    found = False
    for sa, sb in _original_edges(subj_head):
        for ca, cb in _original_edges(clip_head):
            hit = _edge_intersection(
                (sa.x, sa.y), (sb.x, sb.y), (ca.x, ca.y), (cb.x, cb.y)
            )
            if hit is None:
                continue
            t, u, (ix, iy) = hit
            vs = _Vertex(ix, iy, alpha=t)
            vc = _Vertex(ix, iy, alpha=u)
            vs.intersect = vc.intersect = True
            vs.neighbor = vc
            vc.neighbor = vs
            _insert_sorted(sa, sb, vs)
            _insert_sorted(ca, cb, vc)
            found = True
    return found


def _edge_intersection(
    p1: Coord, p2: Coord, q1: Coord, q2: Coord
) -> Optional[Tuple[float, float, Coord]]:
    """Proper crossing of two edges, or raise _Degenerate on touching."""
    rx, ry = p2[0] - p1[0], p2[1] - p1[1]
    sx, sy = q2[0] - q1[0], q2[1] - q1[1]
    denom = rx * sy - ry * sx
    qpx, qpy = q1[0] - p1[0], q1[1] - p1[1]
    if denom == 0.0:
        # Parallel.  Collinear overlapping edges are degenerate.
        if qpx * ry - qpy * rx == 0.0 and _collinear_overlap(p1, p2, q1, q2):
            raise _Degenerate
        return None
    t = (qpx * sy - qpy * sx) / denom
    u = (qpx * ry - qpy * rx) / denom
    if t < -_PARAM_EPS or t > 1 + _PARAM_EPS or u < -_PARAM_EPS or u > 1 + _PARAM_EPS:
        return None
    eps = 1e-9
    if t < eps or t > 1 - eps or u < eps or u > 1 - eps:
        # Endpoint touching / vertex-on-edge: perturb and retry.
        raise _Degenerate
    return t, u, (p1[0] + t * rx, p1[1] + t * ry)


def _collinear_overlap(p1: Coord, p2: Coord, q1: Coord, q2: Coord) -> bool:
    if abs(p2[0] - p1[0]) >= abs(p2[1] - p1[1]):
        lo_p, hi_p = sorted((p1[0], p2[0]))
        lo_q, hi_q = sorted((q1[0], q2[0]))
    else:
        lo_p, hi_p = sorted((p1[1], p2[1]))
        lo_q, hi_q = sorted((q1[1], q2[1]))
    return hi_p > lo_q and hi_q > lo_p


def _insert_sorted(start: _Vertex, end: _Vertex, vertex: _Vertex) -> None:
    """Insert an intersection vertex between start..end ordered by alpha."""
    pos = start
    while pos.next is not end and pos.next.intersect and pos.next.alpha < vertex.alpha:
        pos = pos.next
    nxt = pos.next
    pos.next = vertex
    vertex.prev = pos
    vertex.next = nxt
    nxt.prev = vertex


def _mark_entries(
    head: _Vertex, own: List[Coord], other: List[Coord], invert: bool = False
) -> None:
    status = not _point_in_ring(own[0], other)
    if invert:
        status = not status
    # status == True means the next intersection is an *entry* into other.
    v = head
    while True:
        if v.intersect:
            v.entry = status
            status = not status
        v = v.next
        if v is head:
            break


def _trace(subj_head: _Vertex) -> List[List[Coord]]:
    out: List[List[Coord]] = []
    while True:
        current = _first_unvisited(subj_head)
        if current is None:
            break
        ring: List[Coord] = []
        v = current
        while not v.visited:
            v.visited = True
            if v.neighbor is not None:
                v.neighbor.visited = True
            if v.entry:
                while True:
                    v = v.next
                    ring.append((v.x, v.y))
                    if v.intersect:
                        break
            else:
                while True:
                    v = v.prev
                    ring.append((v.x, v.y))
                    if v.intersect:
                        break
            v = v.neighbor
        ring = _dedup_ring(ring)
        if len(ring) >= 3:
            out.append(ring)
    return out


def _first_unvisited(head: _Vertex) -> Optional[_Vertex]:
    v = head
    while True:
        if v.intersect and not v.visited:
            return v
        v = v.next
        if v is head:
            return None


def _dedup_ring(ring: List[Coord]) -> List[Coord]:
    out: List[Coord] = []
    for p in ring:
        if not out or (
            abs(p[0] - out[-1][0]) > 1e-15 or abs(p[1] - out[-1][1]) > 1e-15
        ):
            out.append(p)
    while len(out) > 1 and (
        abs(out[0][0] - out[-1][0]) <= 1e-15
        and abs(out[0][1] - out[-1][1]) <= 1e-15
    ):
        out.pop()
    return out


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _ensure_ccw(points: List[Coord]) -> List[Coord]:
    if polygon_signed_area(points) < 0:
        return list(reversed(points))
    return points


def _extent(points: List[Coord]) -> float:
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return max(max(xs) - min(xs), max(ys) - min(ys), 1e-12)


def _point_in_ring(p: Coord, ring: Sequence[Coord]) -> bool:
    """Even-odd point-in-ring test (boundary points count as inside)."""
    x, y = p
    inside = False
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < x_cross:
                inside = not inside
    return inside
