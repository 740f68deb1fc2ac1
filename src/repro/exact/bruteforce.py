"""Quadratic exact intersection test (paper §4 baseline).

Tests every edge of one polygon against every edge of the other; if no
edge pair intersects, falls back to the polygon-in-polygon test (two
point-in-polygon tests with the MBR pretest of §4 that skips 75–93% of
them on the paper's data).
"""

from __future__ import annotations

from typing import Optional

from ..geometry.polygon import Polygon
from ..geometry.predicates import Coord
from ..geometry.segment import segments_intersect
from .costmodel import EDGE_INTERSECTION, EDGE_LINE, OperationCounter


def point_in_polygon_counted(
    polygon: Polygon, p: Coord, counter: Optional[OperationCounter] = None
) -> bool:
    """Ray-casting point-in-polygon, counting one edge-line test per edge.

    The paper's cost model charges an *edge-line intersection test* for
    each polygon edge examined against the auxiliary horizontal ray.
    """
    if counter is not None:
        counter.count(EDGE_LINE, polygon.num_edges)
    return polygon.contains_point(p)


def polygons_intersect_quadratic(
    poly1: Polygon,
    poly2: Polygon,
    counter: Optional[OperationCounter] = None,
    mbr_pretest: bool = True,
) -> bool:
    """Exact intersection by brute-force edge pairs + containment.

    ``mbr_pretest`` enables the MBR containment pretest before each
    point-in-polygon test (on by default, as in the paper).
    """
    # Step 1: any intersecting edge pair?
    edges2 = list(poly2.edges())
    for a1, a2 in poly1.edges():
        for b1, b2 in edges2:
            if counter is not None:
                counter.count(EDGE_INTERSECTION)
            if segments_intersect(a1, a2, b1, b2):
                return True
    # Step 2: containment (no boundary crossing, so one test suffices).
    if not mbr_pretest:
        return point_in_polygon_counted(
            poly2, poly1.shell[0], counter
        ) or point_in_polygon_counted(poly1, poly2.shell[0], counter)
    if poly2.mbr().contains_rect(poly1.mbr()):
        if point_in_polygon_counted(poly2, poly1.shell[0], counter):
            return True
    if poly1.mbr().contains_rect(poly2.mbr()):
        if point_in_polygon_counted(poly1, poly2.shell[0], counter):
            return True
    return False
