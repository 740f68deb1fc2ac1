"""Open polylines — the paper's river/railway/highway geometry (§2.2).

"Instances of spatial attributes can be line segments representing
rivers, railway tracks and highways or polygons representing a part of
the surface of the earth."  This module adds the line-shaped half of
that sentence: an open chain of segments with the operations the
line-region join needs (MBR, length, polygon intersection test,
clipping-window test).
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence, Tuple

from .polygon import Polygon
from .predicates import Coord
from .rectangle import Rect
from .segment import segment_intersects_rect, segments_intersect

Edge = Tuple[Coord, Coord]


class Polyline:
    """Open chain of line segments (at least two vertices)."""

    __slots__ = ("points", "_mbr")

    def __init__(self, points: Sequence[Coord]):
        pts = [
            (float(x), float(y))
            for x, y in points
        ]
        deduped: List[Coord] = []
        for p in pts:
            if not deduped or p != deduped[-1]:
                deduped.append(p)
        if len(deduped) < 2:
            raise ValueError("polyline needs at least 2 distinct points")
        self.points: Tuple[Coord, ...] = tuple(deduped)
        self._mbr: Optional[Rect] = None

    # -- accessors ------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.points)

    def segments(self) -> Iterator[Edge]:
        for i in range(len(self.points) - 1):
            yield (self.points[i], self.points[i + 1])

    def length(self) -> float:
        return sum(
            math.hypot(q[0] - p[0], q[1] - p[1]) for p, q in self.segments()
        )

    def mbr(self) -> Rect:
        if self._mbr is None:
            self._mbr = Rect.from_points(self.points)
        return self._mbr

    # -- predicates -------------------------------------------------------------

    def intersects_rect(self, rect: Rect) -> bool:
        """Does any segment of the chain touch the rectangle?"""
        if not self.mbr().intersects(rect):
            return False
        return any(
            segment_intersects_rect(
                p, q, rect.xmin, rect.ymin, rect.xmax, rect.ymax
            )
            for p, q in self.segments()
        )

    def intersects_polygon(self, polygon: Polygon) -> bool:
        """Does the chain touch the polygonal *area* (boundary or interior)?

        True when a chain segment crosses a polygon edge, or when any
        chain vertex lies inside the polygon (a chain fully contained in
        the interior crosses no edge).
        """
        if not self.mbr().intersects(polygon.mbr()):
            return False
        edges = list(polygon.edges())
        for p, q in self.segments():
            for e1, e2 in edges:
                if segments_intersect(p, q, e1, e2):
                    return True
        return polygon.contains_point(self.points[0])

    def translated(self, dx: float, dy: float) -> "Polyline":
        return Polyline([(x + dx, y + dy) for x, y in self.points])

    def __repr__(self) -> str:
        return f"Polyline({self.num_vertices} vertices, length={self.length():.4f})"
