"""Minimum bounding circle approximation (MBC, 3 parameters)."""

from __future__ import annotations

from ..geometry.circle import Circle, minimum_enclosing_circle
from ..geometry.polygon import Polygon
from ..geometry.predicates import Coord
from ..geometry.rectangle import Rect
from .base import Approximation


class MBCApproximation(Approximation):
    """Smallest enclosing circle of the polygon's vertices (Welzl)."""

    kind = "MBC"
    is_conservative = True
    shape_kind = "circle"

    def __init__(self, circle: Circle):
        self._circle = circle

    @classmethod
    def of(cls, polygon: Polygon) -> "MBCApproximation":
        return cls(minimum_enclosing_circle(polygon.shell))

    @property
    def num_parameters(self) -> int:
        return 3

    def circle(self) -> Circle:
        return self._circle

    def area(self) -> float:
        return self._circle.area()

    def mbr(self) -> Rect:
        return self._circle.mbr()

    def contains_point(self, p: Coord) -> bool:
        return self._circle.contains_point(p)

    def __repr__(self) -> str:
        return f"MBCApproximation({self._circle!r})"
