"""Minimum bounding rectangle approximation (4 parameters).

The MBR is the geometric key of every SAM in the paper; as an
approximation it is the coarsest conservative filter (Table 1 shows a
normalized false area around 1.0 on real cartography data).
"""

from __future__ import annotations

from ..geometry.polygon import Polygon
from ..geometry.predicates import Coord
from ..geometry.rectangle import Rect
from .base import ConvexApproximation


class MBRApproximation(ConvexApproximation):
    """Axis-aligned minimum bounding rectangle of a polygon."""

    kind = "MBR"
    is_conservative = True

    def __init__(self, rect: Rect):
        super().__init__(rect.corners())
        self.rect = rect

    @classmethod
    def of(cls, polygon: Polygon) -> "MBRApproximation":
        return cls(polygon.mbr())

    @property
    def num_parameters(self) -> int:
        return 4

    def contains_point(self, p: Coord) -> bool:
        return self.rect.contains_point(p)

    def __repr__(self) -> str:
        return f"MBRApproximation({self.rect!r})"
