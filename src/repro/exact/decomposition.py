"""Object decomposition into simple components (paper §4.2, Fig. 14).

The paper decomposes polygons into **trapezoids** [AA 83] because single
trapezoids and groups of trapezoids are well approximated by MBRs.  We
implement the classic horizontal-slab trapezoidation: sort the distinct
vertex ordinates; inside each slab the polygon boundary is straight, so
the even-odd pairing of the edges crossing the slab yields the
trapezoids directly.  Holes need no special handling (even-odd).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..geometry.polygon import Polygon
from ..geometry.predicates import EPSILON
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
