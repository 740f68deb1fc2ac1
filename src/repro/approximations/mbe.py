"""Minimum bounding ellipse approximation (MBE, 5 parameters)."""

from __future__ import annotations

from ..geometry.ellipse import Ellipse, minimum_enclosing_ellipse
from ..geometry.polygon import Polygon
from ..geometry.predicates import Coord
from ..geometry.rectangle import Rect
from .base import Approximation


class MBEApproximation(Approximation):
    """Minimum-volume enclosing ellipse of the polygon's vertices."""

    kind = "MBE"
    is_conservative = True
    shape_kind = "ellipse"

    def __init__(self, ellipse: Ellipse):
        self._ellipse = ellipse

    @classmethod
    def of(cls, polygon: Polygon) -> "MBEApproximation":
        return cls(minimum_enclosing_ellipse(polygon.shell))

    @property
    def num_parameters(self) -> int:
        return 5

    def ellipse(self) -> Ellipse:
        return self._ellipse

    def area(self) -> float:
        return self._ellipse.area()

    def mbr(self) -> Rect:
        return self._ellipse.mbr()

    def contains_point(self, p: Coord) -> bool:
        return self._ellipse.contains_point(p)

    def __repr__(self) -> str:
        return f"MBEApproximation({self._ellipse!r})"
