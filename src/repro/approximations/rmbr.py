"""Rotated minimum bounding rectangle (RMBR, 5 parameters).

An MBR that may be rotated: four rectangle parameters plus the rotation
angle.  The paper quotes a simple O(n^2) construction; we use the
rotating-calipers scan over the convex hull (same optimum, O(n log n)).
"""

from __future__ import annotations

from ..geometry.convex import min_area_rotated_rect
from ..geometry.polygon import Polygon
from .base import ConvexApproximation


class RMBRApproximation(ConvexApproximation):
    """Minimum-area rotated bounding rectangle."""

    kind = "RMBR"
    is_conservative = True

    def __init__(self, corners, angle: float):
        super().__init__(corners)
        self.angle = angle

    @classmethod
    def of(cls, polygon: Polygon) -> "RMBRApproximation":
        corners, _area, angle = min_area_rotated_rect(polygon.shell)
        return cls(corners, angle)

    @property
    def num_parameters(self) -> int:
        return 5

    def __repr__(self) -> str:
        return f"RMBRApproximation(area={self.area():.6g}, angle={self.angle:.4f})"
