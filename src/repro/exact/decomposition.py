"""Object decomposition into simple components (paper §4.2, Fig. 14).

The paper decomposes polygons into **trapezoids** [AA 83] because single
trapezoids and groups of trapezoids are well approximated by MBRs.  We
implement the classic horizontal-slab trapezoidation: sort the distinct
vertex ordinates; inside each slab the polygon boundary is straight, so
the even-odd pairing of the edges crossing the slab yields the
trapezoids directly.  Holes need no special handling (even-odd).

For Figure 14 completeness two further decompositions are provided:
**triangles** (each trapezoid split along a diagonal) and **convex
polygons** (vertically merging stacked trapezoids while the union stays
convex).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..geometry.polygon import Polygon
from ..geometry.predicates import EPSILON, Coord, cross
from ..index.trstar import Trapezoid


def trapezoid_decomposition(polygon: Polygon) -> List[Trapezoid]:
    """Decompose a polygon (with holes) into horizontal trapezoids.

    The trapezoids tile the polygon: disjoint interiors, areas summing to
    the polygon area (property-tested).  The slab scan is vectorised so
    that relation-scale polygons (hundreds of vertices) decompose fast.
    """
    ys = sorted({v[1] for v in polygon.vertices()})
    if len(ys) < 2:
        raise ValueError("degenerate polygon: all vertices at one ordinate")
    edge_list = [
        (a, b)
        for a, b in polygon.edges()
        if abs(a[1] - b[1]) > EPSILON  # horizontal edges bound no slab
    ]
    ax = np.array([a[0] for a, _b in edge_list])
    ay = np.array([a[1] for a, _b in edge_list])
    bx = np.array([b[0] for _a, b in edge_list])
    by = np.array([b[1] for _a, b in edge_list])
    ymin_e = np.minimum(ay, by)
    ymax_e = np.maximum(ay, by)
    trapezoids: List[Trapezoid] = []
    for y_bot, y_top in zip(ys, ys[1:]):
        if y_top - y_bot <= EPSILON:
            continue
        mask = (ymin_e <= y_bot + EPSILON) & (ymax_e >= y_top - EPSILON)
        if not mask.any():
            continue
        t_bot = (y_bot - ay[mask]) / (by[mask] - ay[mask])
        t_top = (y_top - ay[mask]) / (by[mask] - ay[mask])
        x_bot = ax[mask] + t_bot * (bx[mask] - ax[mask])
        x_top = ax[mask] + t_top * (bx[mask] - ax[mask])
        x_mid = (x_bot + x_top) / 2.0
        order = np.argsort(x_mid, kind="stable")
        crossing: List[Tuple[float, float, float]] = [
            (float(x_mid[k]), float(x_bot[k]), float(x_top[k])) for k in order
        ]
        if len(crossing) % 2:
            # Numerical tie at a slab boundary; drop the last crossing to
            # keep the even-odd pairing consistent.
            crossing = crossing[:-1]
        for i in range(0, len(crossing), 2):
            _mid_l, xbl, xtl = crossing[i]
            _mid_r, xbr, xtr = crossing[i + 1]
            if xbr - xbl <= EPSILON and xtr - xtl <= EPSILON:
                continue  # sliver
            trapezoids.append(
                Trapezoid(
                    xl_bot=xbl,
                    xr_bot=xbr,
                    xl_top=xtl,
                    xr_top=xtr,
                    y_bot=y_bot,
                    y_top=y_top,
                )
            )
    return trapezoids


def _x_at(a: Coord, b: Coord, y: float) -> float:
    t = (y - a[1]) / (b[1] - a[1])
    return a[0] + t * (b[0] - a[0])


def triangle_decomposition(polygon: Polygon) -> List[Tuple[Coord, Coord, Coord]]:
    """Triangles obtained by splitting each trapezoid along a diagonal."""
    triangles: List[Tuple[Coord, Coord, Coord]] = []
    for trap in trapezoid_decomposition(polygon):
        corners = trap.corners()
        if len(corners) < 3:
            continue
        if len(corners) == 3:
            triangles.append((corners[0], corners[1], corners[2]))
        else:
            triangles.append((corners[0], corners[1], corners[2]))
            triangles.append((corners[0], corners[2], corners[3]))
    return triangles


def ear_clipping_triangulation(
    polygon: Polygon,
) -> List[Tuple[Coord, Coord, Coord]]:
    """Classical ear clipping of a hole-free simple polygon (O(n^2))."""
    if polygon.holes:
        raise ValueError("ear clipping implemented for hole-free polygons")
    verts = list(polygon.shell)
    triangles: List[Tuple[Coord, Coord, Coord]] = []
    guard = 0
    while len(verts) > 3 and guard < len(polygon.shell) ** 2 + 16:
        guard += 1
        n = len(verts)
        clipped = False
        for i in range(n):
            prev_v = verts[(i - 1) % n]
            v = verts[i]
            next_v = verts[(i + 1) % n]
            if cross(prev_v, v, next_v) <= EPSILON:
                continue  # reflex or flat corner
            if _any_point_inside(verts, prev_v, v, next_v):
                continue
            triangles.append((prev_v, v, next_v))
            del verts[i]
            clipped = True
            break
        if not clipped:
            break  # numerically stuck; remaining region is a triangle fan
    if len(verts) == 3:
        triangles.append((verts[0], verts[1], verts[2]))
    return triangles


def _any_point_inside(
    verts: Sequence[Coord], a: Coord, b: Coord, c: Coord
) -> bool:
    for p in verts:
        if p is a or p is b or p is c:
            continue
        if (
            cross(a, b, p) > EPSILON
            and cross(b, c, p) > EPSILON
            and cross(c, a, p) > EPSILON
        ):
            return True
    return False


def convex_decomposition(polygon: Polygon) -> List[List[Coord]]:
    """Convex pieces by vertically merging stacked trapezoids.

    Two trapezoids are merged when they share a full horizontal side and
    the lateral edges continue convexly; the result is a list of convex
    CCW polygons tiling the object.
    """
    traps = trapezoid_decomposition(polygon)
    traps.sort(key=lambda t: (t.y_bot, t.xl_bot))
    pieces: List[List[Coord]] = []
    used = [False] * len(traps)
    for i, trap in enumerate(traps):
        if used[i]:
            continue
        used[i] = True
        chain = [trap]
        current = trap
        # Greedily extend upward.
        extended = True
        while extended:
            extended = False
            for j, cand in enumerate(traps):
                if used[j]:
                    continue
                if _stackable(current, cand) and _merge_is_convex(chain, cand):
                    chain.append(cand)
                    used[j] = True
                    current = cand
                    extended = True
                    break
        pieces.append(_chain_to_polygon(chain))
    return pieces


def _stackable(lower: Trapezoid, upper: Trapezoid) -> bool:
    return (
        abs(lower.y_top - upper.y_bot) <= EPSILON
        and abs(lower.xl_top - upper.xl_bot) <= 1e-9
        and abs(lower.xr_top - upper.xr_bot) <= 1e-9
    )


def _merge_is_convex(chain: List[Trapezoid], cand: Trapezoid) -> bool:
    merged = _chain_to_polygon(chain + [cand])
    n = len(merged)
    if n < 3:
        return False
    for i in range(n):
        if cross(merged[i], merged[(i + 1) % n], merged[(i + 2) % n]) < -1e-12:
            return False
    return True


def _chain_to_polygon(chain: List[Trapezoid]) -> List[Coord]:
    """CCW outline of a vertical stack of trapezoids."""
    right = []
    left = []
    first = chain[0]
    right.append((first.xr_bot, first.y_bot))
    left.append((first.xl_bot, first.y_bot))
    for trap in chain:
        right.append((trap.xr_top, trap.y_top))
        left.append((trap.xl_top, trap.y_top))
    outline = [left[0]] + right + list(reversed(left[1:]))
    # First drop duplicate consecutive points (degenerate trapezoid sides
    # produce them), then drop collinear chain points; doing both in one
    # pass would delete both copies of a duplicated apex.
    deduped: List[Coord] = []
    for p in outline:
        if not deduped or (
            abs(p[0] - deduped[-1][0]) > 1e-15 or abs(p[1] - deduped[-1][1]) > 1e-15
        ):
            deduped.append(p)
    while (
        len(deduped) > 1
        and abs(deduped[0][0] - deduped[-1][0]) <= 1e-15
        and abs(deduped[0][1] - deduped[-1][1]) <= 1e-15
    ):
        deduped.pop()
    cleaned: List[Coord] = []
    n = len(deduped)
    for i in range(n):
        prev_p = deduped[(i - 1) % n]
        p = deduped[i]
        next_p = deduped[(i + 1) % n]
        if abs(cross(prev_p, p, next_p)) <= 1e-15 and _between(prev_p, p, next_p):
            continue
        cleaned.append(p)
    return cleaned if len(cleaned) >= 3 else deduped


def _between(a: Coord, p: Coord, b: Coord) -> bool:
    return (
        min(a[0], b[0]) - EPSILON <= p[0] <= max(a[0], b[0]) + EPSILON
        and min(a[1], b[1]) - EPSILON <= p[1] <= max(a[1], b[1]) + EPSILON
    )
