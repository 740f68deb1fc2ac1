"""Scalar polygon distances, the distance-join oracle, and ε validation.

The within-distance join itself — the paper's §2.2 transfer of the
multi-step shape to the proximity predicate — is
``JoinConfig(predicate="distance", epsilon=ε)``, run as a row program by
:mod:`repro.core.proximity`.  This module keeps what that pipeline and
its callers share at the scalar level:

* :func:`validate_epsilon`, the boundary check of a distance threshold;
* exact distances — :func:`segment_distance`, :func:`polygon_distance`
  (0 when the areas intersect), :func:`point_polygon_distance` and the
  rectangle lower bound :func:`rect_distance`;
* :func:`brute_force_distance_join`, the nested-loops set oracle.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from ..datasets.relations import SpatialRelation
from ..geometry.fastops import polygons_intersect_fast
from ..geometry.polygon import Polygon
from ..geometry.predicates import point_segment_distance
from ..geometry.rectangle import Rect


def segment_distance(
    p1: Tuple[float, float],
    p2: Tuple[float, float],
    q1: Tuple[float, float],
    q2: Tuple[float, float],
) -> float:
    """Minimum distance between two closed segments."""
    # Intersecting segments are at distance zero.
    d1 = _cross_sign(q1, q2, p1)
    d2 = _cross_sign(q1, q2, p2)
    d3 = _cross_sign(p1, p2, q1)
    d4 = _cross_sign(p1, p2, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return 0.0
    return min(
        point_segment_distance(p1, q1, q2),
        point_segment_distance(p2, q1, q2),
        point_segment_distance(q1, p1, p2),
        point_segment_distance(q2, p1, p2),
    )


def _cross_sign(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def polygon_distance(a: Polygon, b: Polygon) -> float:
    """Exact minimum distance between two polygons (0 when intersecting).

    Containment counts as intersection (distance 0), matching the set
    semantics of polygonal *areas* used throughout the paper.
    """
    if polygons_intersect_fast(a, b):
        return 0.0
    best = math.inf
    edges_b = list(b.edges())
    for pa1, pa2 in a.edges():
        for pb1, pb2 in edges_b:
            d = segment_distance(pa1, pa2, pb1, pb2)
            if d < best:
                best = d
                if best == 0.0:
                    return 0.0
    return best


def point_polygon_distance(p: Tuple[float, float], polygon: Polygon) -> float:
    """Distance from a point to a polygonal area (0 inside the area)."""
    if polygon.contains_point(p):
        return 0.0
    return min(
        point_segment_distance(p, e1, e2) for e1, e2 in polygon.edges()
    )


def rect_distance(a: Rect, b: Rect) -> float:
    """Minimum distance between two rectangles (0 when intersecting)."""
    dx = max(a.xmin - b.xmax, 0.0, b.xmin - a.xmax)
    dy = max(a.ymin - b.ymax, 0.0, b.ymin - a.ymax)
    return math.hypot(dx, dy)


def validate_epsilon(epsilon: float) -> float:
    """Boundary validation of a distance threshold.

    Raises ``ValueError`` naming the offending value for a negative or
    non-finite epsilon (NaN threshold would silently match nothing),
    so callers — including the CLI ``distance`` command — fail at the
    argument boundary instead of deep inside the pipeline.
    """
    epsilon = float(epsilon)
    if math.isnan(epsilon) or math.isinf(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    return epsilon


def brute_force_distance_join(
    relation_a: SpatialRelation,
    relation_b: SpatialRelation,
    epsilon: float,
) -> List[Tuple[int, int]]:
    """Nested-loops oracle of the ``distance`` predicate (oid pairs)."""
    out: List[Tuple[int, int]] = []
    for obj_a in relation_a:
        for obj_b in relation_b:
            if rect_distance(obj_a.mbr, obj_b.mbr) > epsilon:
                continue
            if polygon_distance(obj_a.polygon, obj_b.polygon) <= epsilon:
                out.append((obj_a.oid, obj_b.oid))
    return out
