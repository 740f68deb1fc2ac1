"""Approximation quality measures (§3.1, §3.2, §3.4).

* ``false_area``            — area(approx) − area(object)
* ``normalized_false_area`` — false area / area(object)          (Table 1)
* ``mbr_based_false_area``  — area(approx ∩ MBR) − area(object),
                              normalised to the object area       (Fig. 4)
* ``area_extension``        — x-extension · y-extension of the
                              approximation's own MBR             (Fig. 9)
"""

from __future__ import annotations

from typing import List

from ..geometry.convex import clip_convex, convex_intersection_area
from ..geometry.polygon import Polygon
from ..geometry.predicates import polygon_signed_area
from ..geometry.rectangle import Rect
from .base import Approximation


def false_area(polygon: Polygon, approx: Approximation) -> float:
    """Area of the approximation not covered by the object.

    For conservative approximations this is ≥ 0 (up to construction
    tolerance); the paper stores it per object to drive the false-area
    test.
    """
    return approx.area() - polygon.area()


def normalized_false_area(polygon: Polygon, approx: Approximation) -> float:
    """False area divided by the object area (Table 1 measure)."""
    area = polygon.area()
    if area <= 0:
        raise ValueError("polygon with non-positive area")
    return false_area(polygon, approx) / area


def mbr_based_false_area(polygon: Polygon, approx: Approximation) -> float:
    """MBR-based false area, normalised to the object area (Fig. 4).

    Because the MBR is always tested first, only the part of the
    approximation *inside* the MBR matters: the measure is
    ``area(approx ∩ MBR) − area(object)`` over ``area(object)``.
    """
    mbr = polygon.mbr()
    inter_area = _intersection_area_with_rect(approx, mbr)
    return (inter_area - polygon.area()) / polygon.area()


def _intersection_area_with_rect(approx: Approximation, rect: Rect) -> float:
    corners = list(rect.corners())
    if approx.shape_kind == "convex":
        return convex_intersection_area(approx.convex_vertices(), corners)
    if approx.shape_kind == "circle":
        poly = approx.circle().boundary_points(n=256)
        return convex_intersection_area(poly, corners)
    if approx.shape_kind == "ellipse":
        poly = approx.ellipse().boundary_points(n=256)
        return convex_intersection_area(poly, corners)
    raise TypeError(f"unknown shape kind {approx.shape_kind}")


def area_extension(approx: Approximation) -> float:
    """Product of x- and y-extension of the approximation (Fig. 9).

    This is the quantity that grows when a non-rectilinear approximation
    is used *instead of* the MBR as the R*-tree key (§3.4, approach 1):
    page regions are rectilinear, so what counts is the approximation's
    own bounding box.
    """
    mbr = approx.mbr()
    return mbr.width * mbr.height


def area_extension_ratio(polygon: Polygon, approx: Approximation) -> float:
    """Area extension of the approximation relative to the object MBR."""
    obj_ext = polygon.mbr().area()
    if obj_ext <= 0:
        raise ValueError("object MBR with zero area")
    return area_extension(approx) / obj_ext


def progressive_coverage(polygon: Polygon, approx: Approximation) -> float:
    """Area of a progressive approximation over the object area (Fig. 8)."""
    return approx.area() / polygon.area()
