"""Polygons and polygons with holes — the paper's spatial objects (§2.1).

A :class:`Polygon` is an outer ring plus zero or more hole rings, each a
sequence of ``(x, y)`` vertices without a repeated closing vertex.  Rings
are normalised on construction: the outer ring to counter-clockwise
orientation, holes to clockwise, duplicate consecutive vertices removed.

Containment uses the even-odd rule, which treats holes uniformly: a point
is inside iff a ray from it crosses the union of all rings an odd number
of times.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence, Tuple

from .predicates import (
    EPSILON,
    Coord,
    is_ccw,
    on_segment,
    orientation,
    point_segment_distance,
    polygon_signed_area,
)
from .rectangle import Rect

Edge = Tuple[Coord, Coord]


def _clean_ring(points: Sequence[Coord]) -> List[Coord]:
    """Drop duplicate consecutive vertices (incl. wraparound duplicates)."""
    cleaned: List[Coord] = []
    for p in points:
        if not cleaned or abs(p[0] - cleaned[-1][0]) > EPSILON or abs(
            p[1] - cleaned[-1][1]
        ) > EPSILON:
            cleaned.append((float(p[0]), float(p[1])))
    while (
        len(cleaned) > 1
        and abs(cleaned[0][0] - cleaned[-1][0]) <= EPSILON
        and abs(cleaned[0][1] - cleaned[-1][1]) <= EPSILON
    ):
        cleaned.pop()
    return cleaned


class Polygon:
    """Simple polygon, optionally with holes.

    Parameters
    ----------
    shell:
        Outer ring vertices.  Any orientation; normalised to CCW.
    holes:
        Hole rings; normalised to CW.  Holes must lie inside the shell
        (validated only by :meth:`validate`, not on construction, because
        the synthetic data generator produces polygons by the thousands).
    """

    __slots__ = ("shell", "holes", "_mbr", "_area")

    def __init__(
        self,
        shell: Sequence[Coord],
        holes: Optional[Sequence[Sequence[Coord]]] = None,
    ):
        ring = _clean_ring(shell)
        if len(ring) < 3:
            raise ValueError(f"polygon shell needs >= 3 vertices, got {len(ring)}")
        if not is_ccw(ring):
            ring.reverse()
        self.shell: Tuple[Coord, ...] = tuple(ring)
        cleaned_holes: List[Tuple[Coord, ...]] = []
        for hole in holes or ():
            hring = _clean_ring(hole)
            if len(hring) < 3:
                raise ValueError("polygon hole needs >= 3 vertices")
            if is_ccw(hring):
                hring.reverse()
            cleaned_holes.append(tuple(hring))
        self.holes: Tuple[Tuple[Coord, ...], ...] = tuple(cleaned_holes)
        self._mbr: Optional[Rect] = None
        self._area: Optional[float] = None

    @classmethod
    def from_normalized(
        cls,
        shell: Sequence[Coord],
        holes: Sequence[Sequence[Coord]] = (),
    ) -> "Polygon":
        """Adopt already-normalised rings without re-running normalisation.

        For rings that came out of an existing polygon (``poly.shell``,
        ``poly.holes``) and travelled through a lossless representation —
        e.g. the columnar ring store shipped to worker processes.  The
        constructor's cleaning is idempotent for such rings *except* for
        zero-area rings, whose orientation normalisation would flip the
        vertex order on every round trip; adopting verbatim keeps the
        rebuilt polygon bit-identical to the source.  Callers must not
        pass rings that violate the construction invariants.
        """
        poly = cls.__new__(cls)
        poly.shell = tuple((float(x), float(y)) for x, y in shell)
        poly.holes = tuple(
            tuple((float(x), float(y)) for x, y in hole) for hole in holes
        )
        poly._mbr = None
        poly._area = None
        return poly

    # -- basic accessors ----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Total vertex count over all rings (the paper's *m*)."""
        return len(self.shell) + sum(len(h) for h in self.holes)

    @property
    def num_edges(self) -> int:
        return self.num_vertices

    def rings(self) -> Iterator[Tuple[Coord, ...]]:
        yield self.shell
        yield from self.holes

    def edges(self) -> Iterator[Edge]:
        """All edges of all rings as ``(p, q)`` pairs."""
        for ring in self.rings():
            n = len(ring)
            for i in range(n):
                yield ring[i], ring[(i + 1) % n]

    def vertices(self) -> Iterator[Coord]:
        for ring in self.rings():
            yield from ring

    # -- measures -------------------------------------------------------------

    def area(self) -> float:
        """Area of the shell minus the holes."""
        if self._area is None:
            area = abs(polygon_signed_area(self.shell))
            for hole in self.holes:
                area -= abs(polygon_signed_area(hole))
            self._area = area
        return self._area

    def mbr(self) -> Rect:
        """Minimum bounding rectangle (cached)."""
        if self._mbr is None:
            self._mbr = Rect.from_points(self.shell)
        return self._mbr

    def centroid(self) -> Coord:
        """Area centroid (holes subtracted)."""
        cx = cy = 0.0
        total = 0.0
        for ring, sign in [(self.shell, 1.0)] + [(h, -1.0) for h in self.holes]:
            a = abs(polygon_signed_area(ring))
            rcx = rcy = 0.0
            n = len(ring)
            accum = 0.0
            for i in range(n):
                x1, y1 = ring[i]
                x2, y2 = ring[(i + 1) % n]
                w = x1 * y2 - x2 * y1
                rcx += (x1 + x2) * w
                rcy += (y1 + y2) * w
                accum += w
            if abs(accum) > EPSILON:
                rcx /= 3.0 * accum
                rcy /= 3.0 * accum
            cx += sign * a * rcx
            cy += sign * a * rcy
            total += sign * a
        if abs(total) <= EPSILON:
            return self.mbr().center
        return (cx / total, cy / total)

    # -- containment ----------------------------------------------------------

    def contains_point(self, p: Coord) -> bool:
        """Even-odd containment; boundary points count as inside."""
        if not self.mbr().contains_point(p):
            return False
        x, y = p
        inside = False
        for ring in self.rings():
            n = len(ring)
            j = n - 1
            for i in range(n):
                xi, yi = ring[i]
                xj, yj = ring[j]
                # Boundary check: point on this edge.
                if orientation(ring[j], p, ring[i]) == 0 and on_segment(
                    ring[j], p, ring[i]
                ):
                    return True
                if (yi > y) != (yj > y):
                    x_cross = (xj - xi) * (y - yi) / (yj - yi) + xi
                    if x < x_cross:
                        inside = not inside
                j = i
        return inside

    def contains_rect(self, rect: Rect) -> bool:
        """True if the closed rectangle lies entirely inside the polygon.

        Used by the MER construction: a candidate enclosed rectangle is
        valid iff (a) its corners are inside, (b) no polygon edge crosses
        its interior, and (c) no hole lies inside it.
        """
        if not self.mbr().contains_rect(rect):
            return False
        corners = rect.corners()
        for c in corners:
            if not self.contains_point(c):
                return False
        # Reject if any polygon edge passes strictly through the rect
        # interior.  Shrinking the rect slightly permits edges that merely
        # touch the rectangle border.
        inner = _shrink_rect(rect)
        if inner is not None:
            for p, q in self.edges():
                if _segment_crosses_rect_interior(p, q, inner):
                    return False
        for hole in self.holes:
            hx, hy = hole[0]
            if rect.xmin < hx < rect.xmax and rect.ymin < hy < rect.ymax:
                # A hole vertex strictly inside the rect: if the whole hole
                # is inside, the rect is not fully covered by the polygon.
                return False
        return True

    def distance_to_boundary(self, p: Coord) -> float:
        """Distance from ``p`` to the nearest point on any ring."""
        best = math.inf
        for a, b in self.edges():
            d = point_segment_distance(p, a, b)
            if d < best:
                best = d
        return best

    # -- validation -------------------------------------------------------------

    def is_simple(self) -> bool:
        """True if no two non-adjacent edges of the same ring intersect.

        O(n^2) edge pairs, evaluated by the bulk segment-intersection
        kernel (decision-identical to the scalar ``segments_intersect``
        loop it replaces); intended for tests and data validation, not
        inner loops.
        """
        # Imported lazily: fastops imports this module.
        from .fastops import ring_self_intersects_bulk

        for ring in self.rings():
            if ring_self_intersects_bulk(ring):
                return False
        return True

    def validate(self) -> None:
        """Raise ``ValueError`` on structural problems (simplicity, holes)."""
        if not self.is_simple():
            raise ValueError("polygon ring is self-intersecting")
        for hole in self.holes:
            shell_poly = Polygon(self.shell)
            for v in hole:
                if not shell_poly.contains_point(v):
                    raise ValueError("hole vertex outside shell")

    # -- transforms ----------------------------------------------------------

    def translated(self, dx: float, dy: float) -> "Polygon":
        return Polygon(
            [(x + dx, y + dy) for x, y in self.shell],
            [[(x + dx, y + dy) for x, y in h] for h in self.holes],
        )

    def rotated(self, angle: float, origin: Optional[Coord] = None) -> "Polygon":
        ox, oy = origin if origin is not None else self.centroid()
        cos_a = math.cos(angle)
        sin_a = math.sin(angle)

        def rot(p: Coord) -> Coord:
            x, y = p[0] - ox, p[1] - oy
            return (ox + x * cos_a - y * sin_a, oy + x * sin_a + y * cos_a)

        return Polygon(
            [rot(p) for p in self.shell],
            [[rot(p) for p in h] for h in self.holes],
        )

    def scaled(self, factor: float, origin: Optional[Coord] = None) -> "Polygon":
        ox, oy = origin if origin is not None else self.centroid()
        return Polygon(
            [(ox + (x - ox) * factor, oy + (y - oy) * factor) for x, y in self.shell],
            [
                [(ox + (x - ox) * factor, oy + (y - oy) * factor) for x, y in h]
                for h in self.holes
            ],
        )

    # -- dunder -------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"Polygon(vertices={self.num_vertices}, holes={len(self.holes)}, "
            f"area={self.area():.6g})"
        )


def _shrink_rect(rect: Rect, rel: float = 1e-9) -> Optional[Rect]:
    """Rect shrunk by a relative epsilon; ``None`` if it would collapse."""
    pad = max(rect.width, rect.height) * rel
    if rect.width <= 2 * pad or rect.height <= 2 * pad:
        return None
    return Rect(rect.xmin + pad, rect.ymin + pad, rect.xmax - pad, rect.ymax - pad)


def _segment_crosses_rect_interior(p: Coord, q: Coord, inner: Rect) -> bool:
    from .segment import segment_intersects_rect

    return segment_intersects_rect(
        p, q, inner.xmin, inner.ymin, inner.xmax, inner.ymax
    )
