"""Minimum bounding m-corner (4-C and 5-C; 2m parameters).

The paper follows Dori & Ben-Bassat [DB 83]: circumscribe the convex hull
by a convex polygon with fewer sides and minimal area addition.  We
implement the standard greedy side-elimination from that family:
starting from the hull, repeatedly remove the side whose elimination —
extending its two neighbouring sides until they meet — adds the least
area, until only ``m`` sides remain.

This is a conservative convex m-gon containing the hull with near-minimal
added area; the quality ordering relative to MBR/RMBR/CH reported in
Figure 4 and Table 3 is preserved (see DESIGN.md, substitutions).

The Python functions below are the oracle: :func:`m_corner_rows` runs
them over the rows of an edge table as the ``numpy`` kernel set's
``m_corners_ragged``.  Builds go through the kernel tier
(:func:`~repro.geometry.kernels.builder_kernels`), whose ``c`` set is
``ck_m_corners`` in ``_ckernels.c``: the same hull and greedy reduction,
bit for bit.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.convex import convex_hull
from ..geometry.fastops import EdgeTable, polygon_edge_table, table_polygons
from ..geometry.kernels import builder_kernels
from ..geometry.polygon import Polygon
from ..geometry.predicates import Coord, cross
from ..geometry.segment import line_intersection
from .base import ConvexApproximation


class MCornerApproximation(ConvexApproximation):
    """Minimum bounding m-corner (convex m-gon)."""

    is_conservative = True

    def __init__(self, vertices: Sequence[Coord], m: int):
        super().__init__(vertices)
        self.m = m
        self.kind = f"{m}-C"

    @classmethod
    def of(cls, polygon: Polygon, m: int) -> "MCornerApproximation":
        return cls.of_rows(*polygon_edge_table(polygon), m)[0]

    @classmethod
    def of_rows(
        cls, table: EdgeTable, object_rings: np.ndarray,
        ring_offsets: np.ndarray, m: int,
    ) -> List["MCornerApproximation"]:
        """Every row's m-corner, from one kernel-tier call."""
        if m < 3:
            raise ValueError(f"m-corner needs m >= 3, got {m}")
        vx, vy, counts = builder_kernels().m_corners_ragged(
            table, object_rings, ring_offsets, m
        )
        return [
            cls(list(zip(x[:count], y[:count])), m)
            for x, y, count in zip(vx.tolist(), vy.tolist(), counts.tolist())
        ]

    @property
    def num_parameters(self) -> int:
        return 2 * len(self._vertices)

    def __repr__(self) -> str:
        return f"MCornerApproximation(m={self.m}, area={self.area():.6g})"


def m_corner_rows(
    table: EdgeTable, object_rings: np.ndarray, ring_offsets: np.ndarray,
    m: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every row's m-corner: ``convex_hull`` of the shell, then
    :func:`reduce_hull_to_m_corners` (the ``numpy`` ``m_corners_ragged``).

    Returns ``(vx, vy, counts)``: row ``i``'s ``counts[i] <= m`` vertices
    lead rows ``i`` of the ``(n, m)`` matrices.
    """
    polygons = table_polygons(table, object_rings, ring_offsets)
    vx, vy = np.zeros((len(polygons), m)), np.zeros((len(polygons), m))
    counts = np.zeros(len(polygons), dtype=np.int64)
    for row, polygon in enumerate(polygons):
        corners = reduce_hull_to_m_corners(convex_hull(polygon.shell), m)
        counts[row] = len(corners)
        vx[row, :len(corners)] = [x for x, _ in corners]
        vy[row, :len(corners)] = [y for _, y in corners]
    return vx, vy, counts


def reduce_hull_to_m_corners(hull: Sequence[Coord], m: int) -> List[Coord]:
    """Greedy side elimination until at most ``m`` sides remain.

    Removing side ``i`` replaces its two endpoints with the intersection
    of the two neighbouring sides' supporting lines; this is only possible
    when those lines converge on the outside (added area is a triangle).
    If no side is removable (pathological near-parallel configurations),
    the loop falls back to dropping the vertex whose removal loses the
    least hull area — still conservative because the replacement polygon
    is re-expanded to cover the hull afterwards.
    """
    poly: List[Coord] = list(hull)
    if len(poly) <= m:
        return poly
    while len(poly) > m:
        best_idx: Optional[int] = None
        best_added = math.inf
        best_point: Optional[Coord] = None
        n = len(poly)
        for i in range(n):
            added = _removal_cost(poly, i)
            if added is None:
                continue
            area_add, new_pt = added
            if area_add < best_added:
                best_added = area_add
                best_idx = i
                best_point = new_pt
        if best_idx is None:
            # No convergent side: drop the flattest vertex and re-cover.
            poly = _drop_flattest_vertex_conservatively(poly, hull)
            continue
        # Replace the removed side's endpoints by the apex, preserving
        # cyclic order: vertex i becomes the apex, vertex i+1 disappears.
        i = best_idx
        n = len(poly)
        skip = (i + 1) % n
        new_poly: List[Coord] = []
        for j in range(n):
            if j == skip:
                continue
            if j == i:
                new_poly.append(best_point)  # type: ignore[arg-type]
            else:
                new_poly.append(poly[j])
        poly = _restore_ccw(new_poly)
    return poly


def _removal_cost(
    poly: Sequence[Coord], i: int
) -> Optional[Tuple[float, Coord]]:
    """Cost of removing side ``(i, i+1)``: (added area, new apex)."""
    n = len(poly)
    prev_a = poly[(i - 1) % n]
    a = poly[i]
    b = poly[(i + 1) % n]
    next_b = poly[(i + 2) % n]
    apex = line_intersection(prev_a, a, next_b, b)
    if apex is None:
        return None
    # The apex must lie outside (left of) the removed edge for the result
    # to stay convex and conservative.
    if cross(a, b, apex) > -1e-15:
        return None
    # Added area is the triangle (a, apex, b)... apex beyond edge a-b.
    area_add = abs(cross(a, b, apex)) / 2.0
    # Guard against wildly divergent near-parallel neighbours.
    if not (math.isfinite(apex[0]) and math.isfinite(apex[1])):
        return None
    return (area_add, apex)


def _drop_flattest_vertex_conservatively(
    poly: List[Coord], hull: Sequence[Coord]
) -> List[Coord]:
    """Fallback reduction: remove the vertex subtending the least area.

    Dropping a vertex of a convex polygon shrinks it, which would violate
    conservativeness, so the neighbours' edges are then pushed outward
    (translated along the removed vertex's normal) just enough to contain
    every hull point again.
    """
    n = len(poly)
    best_i = 0
    best_loss = math.inf
    for i in range(n):
        a = poly[(i - 1) % n]
        b = poly[i]
        c = poly[(i + 1) % n]
        loss = abs(cross(a, b, c)) / 2.0
        if loss < best_loss:
            best_loss = loss
            best_i = i
    reduced = [p for j, p in enumerate(poly) if j != best_i]
    return _expand_to_cover(reduced, hull)


def _expand_to_cover(poly: List[Coord], pts: Sequence[Coord]) -> List[Coord]:
    """Scale the polygon about its centroid until it covers ``pts``."""
    cx = sum(p[0] for p in poly) / len(poly)
    cy = sum(p[1] for p in poly) / len(poly)
    scale = 1.0
    for _ in range(60):
        scaled = [
            (cx + (x - cx) * scale, cy + (y - cy) * scale) for x, y in poly
        ]
        from ..geometry.convex import convex_contains_point

        if all(convex_contains_point(scaled, p) for p in pts):
            return scaled
        scale *= 1.05
    return [
        (cx + (x - cx) * scale, cy + (y - cy) * scale) for x, y in poly
    ]


def _restore_ccw(poly: List[Coord]) -> List[Coord]:
    from ..geometry.predicates import is_ccw

    if len(poly) >= 3 and not is_ccw(poly):
        return list(reversed(poly))
    return poly
