"""Convex hull approximation (variable parameter count).

The most accurate convex conservative approximation; its storage varies
with the object (the paper measured 26 parameters on average for Europe
and 46 for BW), which is why §3.2 prefers the 5-corner for SAM storage.
"""

from __future__ import annotations

from ..geometry.convex import convex_hull
from ..geometry.polygon import Polygon
from .base import ConvexApproximation


class ConvexHullApproximation(ConvexApproximation):
    """Convex hull of the polygon's vertices."""

    kind = "CH"
    is_conservative = True

    @classmethod
    def of(cls, polygon: Polygon) -> "ConvexHullApproximation":
        return cls(convex_hull(polygon.shell))

    @property
    def num_parameters(self) -> int:
        return 2 * len(self._vertices)

    def __repr__(self) -> str:
        return f"ConvexHullApproximation(vertices={len(self._vertices)})"
