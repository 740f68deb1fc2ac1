"""Maximum enclosed circle (MEC, 3 parameters) — progressive (§3.3).

The centre is the pole of inaccessibility, the interior point farthest
from the boundary.  :func:`enclosed_circles` finds it for all rows of an
:class:`~repro.geometry.fastops.EdgeTable` at once by the cell search of
Garcia-Castellanos & Lombardo (2007), as ``polylabel`` formulates it
(https://github.com/mapbox/polylabel); one polygon is a one-row table.
Per object, ``prec = 1e-5 * max(w, h)`` of its MBR; the seed is the MBR
centre, and cells of side ``min(w, h)`` cover the MBR.  A cell's value
``sd`` is its centre's exact signed boundary distance (the expressions
of ``EdgeArrays.boundary_distances``); no point of a cell of half side
``h`` is farther inside than ``sd + h√2``.  Each round is one ragged
array program over the live cells of all objects: it updates each
object's best, drops cells with ``sd + h√2 - best <= prec`` and splits
the rest in four.  A child at offset ``δ = h_child √2`` inherits its
parent's side when the parent's distance exceeds ``δ``; the others ask
``points_in_polygons_bulk`` over all of the object's rings.

**Pruning.**  A child keeps its parent's edges within ``d(p) + 4δ`` of
the parent centre ``p``.  Each descendant ``q`` lies strictly within
``2δ`` of ``p``, so its nearest edge ``e`` has ``dist(p, e) <= d(q) +
|pq| <= d(p) + 2|pq| < d(p) + 4δ`` (``2δ`` is not enough).  The slack,
at least the diagonal of ``q``'s cell, dwarfs rounding, so edges tying
the minimum survive too: distances are bit-identical to a dense scan.

**Guarantee.**  The optimum lies in a cell of value at most ``d + h√2``,
so the best distance found is at least ``r_opt - prec``.  The radius is
that exact distance times ``1 - 1e-9`` around a centre decided inside:
circle ⊆ polygon by construction.  An object without interior points
(zero area) gets radius 0 at its first vertex.  (Version 1 hill-climbed
from the vertices of a sampled point-site Voronoi diagram, per object.)
"""

from __future__ import annotations

import math

import numpy as np

from ..geometry.circle import Circle
from ..geometry.fastops import (
    EdgeTable,
    _first_argmin,
    build_edge_table,
    gather_edges,
    points_in_polygons_bulk,
    ragged_arange,
)
from ..geometry.polygon import Polygon
from ..geometry.predicates import EPSILON, Coord
from ..geometry.rectangle import Rect
from .base import Approximation

_PRECISION = 1e-5  #: relative to the longer MBR side
_REACH = 4.0  #: children keep the edges within ``d(p) + _REACH * δ``
_MAX_CELLS_PER_SIDE = 1024  #: initial cells along the longer side (slivers)
_GROUP_EDGES = 1 << 13  #: edges per search group: bounds a round's temporaries
_SQRT2 = math.sqrt(2.0)
#: child centre offsets in half sides (x row, y row), polylabel's order.
_CHILDREN = np.array([[-1.0, 1.0, -1.0, 1.0], [-1.0, -1.0, 1.0, 1.0]])


class MECApproximation(Approximation):
    """Largest (approximately) enclosed circle of a polygon."""

    kind = "MEC"
    is_conservative = False
    shape_kind = "circle"

    def __init__(self, circle: Circle):
        self._circle = circle

    @classmethod
    def of(cls, polygon: Polygon) -> "MECApproximation":
        return cls(maximum_enclosed_circle(polygon))

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
        return f"MECApproximation({self._circle!r})"


def maximum_enclosed_circle(polygon: Polygon) -> Circle:
    """Largest enclosed circle up to ``prec``; guaranteed to be enclosed."""
    rings = (polygon.shell,) + polygon.holes
    ring_offsets = np.cumsum([0] + [len(ring) for ring in rings])
    xy = np.array([p for ring in rings for p in ring], dtype=np.float64)
    table = build_edge_table(np.array([0, len(rings)]), ring_offsets, xy)
    cx, cy, r = enclosed_circles(table)[0].tolist()
    return Circle((cx, cy), r)


def enclosed_circles(table: EdgeTable) -> np.ndarray:
    """``(n, 3)`` centre x, centre y and radius of every row's MEC.

    Rows are searched in groups, by the :data:`_GROUP_EDGES` block their
    first edge falls in; a row's result depends on its own edges only.
    """
    block = table.offsets[:-1] // _GROUP_EDGES
    groups = np.split(np.arange(len(block)), np.flatnonzero(np.diff(block)) + 1)
    return np.concatenate([_pole_search(table, rows) for rows in groups])


def _pole_search(table: EdgeTable, rows: np.ndarray) -> np.ndarray:
    """The cell search of the module docstring over ``rows``."""
    xmin, ymin, xmax, ymax = table.mbrs[rows].T
    width, height = xmax - xmin, ymax - ymin
    span = np.maximum(width, height)
    prec = _PRECISION * span
    side = np.maximum(np.minimum(width, height), span / _MAX_CELLS_PER_SIDE)
    safe = np.where(side > 0, side, 1.0)  # a point MBR: one cell of side 0
    nx, ny = np.maximum(np.ceil(np.stack((width, height)) / safe), 1)
    per_object = (nx * ny).astype(np.int64) + 1
    # Rows x, y, distance: radius 0 at the first (boundary) vertex to begin.
    best = np.zeros((3, len(rows)))
    best[:2] = table.coords[:2, table.offsets[rows]]
    # Round 0: per object the seed (k = -1, half side 0), then the cells.
    owner = np.repeat(np.arange(len(rows)), per_object)
    k = ragged_arange(np.full(len(rows), -1), per_object)
    i, j = np.divmod(np.maximum(k, 0), ny[owner])
    s = side[owner]
    x = np.where(k < 0, (xmin + xmax)[owner] / 2, xmin[owner] + s * (i + 0.5))
    y = np.where(k < 0, (ymin + ymax)[owner] / 2, ymin[owner] + s * (j + 0.5))
    half = np.where(k < 0, 0.0, s / 2)
    sign = np.zeros(len(owner))  # 0: not yet decided
    edges, cell = gather_edges(table.offsets, rows[owner])
    while len(owner):
        # EdgeArrays.boundary_distances, one (cell, edge) pair per entry.
        ex1, ey1, ex2, ey2 = table.coords[:, edges]
        dx, dy = ex2 - ex1, ey2 - ey1
        seg_len_sq = dx * dx + dy * dy
        seg_len_sq = np.where(seg_len_sq <= 0, 1.0, seg_len_sq)
        px, py = x[cell], y[cell]
        t = np.clip(((px - ex1) * dx + (py - ey1) * dy) / seg_len_sq, 0.0, 1.0)
        pair = np.sqrt((px - (ex1 + t * dx)) ** 2 + (py - (ey1 + t * dy)) ** 2)
        starts = np.flatnonzero(np.diff(cell, prepend=-1))
        dist = np.minimum.reduceat(pair, starts)
        # Undecided sides: edges whose eps-closed y-range misses the
        # centre neither cross its ray nor carry it, so they are skipped.
        open_ = np.flatnonzero(sign == 0)
        near, query = gather_edges(table.offsets, rows[owner[open_]])
        cy = y[open_][query]
        lo, hi = table.boxes[1, near] - EPSILON, table.boxes[3, near] + EPSILON
        hit = (lo <= cy) & (cy <= hi)
        inside = points_in_polygons_bulk(
            x[open_], y[open_], query[hit], *table.coords[:, near[hit]]
        )
        sign[open_] = np.where(inside, 1.0, -1.0)
        value = sign * dist
        # Each object's first best cell of the round, where it beats the best.
        run = np.cumsum(np.diff(owner, prepend=-1) != 0) - 1
        top = _first_argmin(-value, run)
        top = top[value[top] > best[2, owner[top]]]
        best[:, owner[top]] = x[top], y[top], value[top]
        split = np.flatnonzero(value + half * _SQRT2 - best[2, owner] > prec[owner])
        # Four children per split cell share its edges within d(p) +
        # _REACH * δ and, where d(p) > δ, its sign.
        delta = half[split] / 2 * _SQRT2
        reach = np.full(len(owner), -np.inf)
        reach[split] = dist[split] + _REACH * delta
        keep = pair <= reach[cell]
        kept = np.bincount(cell[keep], minlength=len(owner))[split]
        lengths = np.repeat(kept, 4)
        lists = ragged_arange(np.repeat(np.cumsum(kept) - kept, 4), lengths)
        edges = edges[np.flatnonzero(keep)[lists]]
        cell = np.repeat(np.arange(len(lengths)), lengths)
        sign = np.repeat(np.where(dist[split] > delta, sign[split], 0.0), 4)
        half = np.repeat(half[split] / 2, 4)
        offset_x, offset_y = np.tile(_CHILDREN, len(split)) * half
        x = np.repeat(x[split], 4) + offset_x
        y = np.repeat(y[split], 4) + offset_y
        owner = np.repeat(owner[split], 4)
    best[2] *= 1 - 1e-9
    return np.ascontiguousarray(best.T)
