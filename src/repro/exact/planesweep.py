"""Plane-sweep exact intersection test (paper §4.1, [SH 76]).

Shamos–Hoey sweep over the edges of both polygons, stopping at the first
intersection between edges of *different* polygons.  Implements the
paper's *restriction of the search space*: only edges intersecting the
intersection rectangle of the two MBRs enter the sweep (a linear
pre-scan counted as edge-rectangle intersection tests), which the paper
reports saves about 40% of the cost.

Counted operations (Table 6): position tests when locating an edge in
the sweep-line status, edge intersection tests for neighbour pairs,
edge-rectangle tests in the restriction pre-scan, and edge-line tests in
the final containment step.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..geometry.polygon import Polygon
from ..geometry.predicates import Coord
from ..geometry.rectangle import Rect
from ..geometry.segment import segment_y_at, segments_intersect
from .bruteforce import point_in_polygon_counted
from .costmodel import EDGE_INTERSECTION, EDGE_RECT, POSITION, OperationCounter

_Edge = Tuple[int, Coord, Coord]  # (polygon id, left point, right point)


class _SweepStatus:
    """Sweep-line status: edges ordered by (y, slope) at the sweep position.

    A sorted list with binary search; each key comparison during
    insertion is counted as one *position test*, following the paper's
    cost model.  Deletion is by identity and not charged (the original
    uses a balanced tree where deletion re-uses the insertion path).

    The slope tie-break matters for correctness, not just determinism:
    polygon edges sharing their left endpoint have equal y at the shared
    vertex, and inserting them in arbitrary order lets the status drift
    out of order as the sweep advances past the vertex — after which
    binary search misplaces later edges and true neighbour pairs are
    never tested.  Ordering ties by slope encodes the edges' order
    immediately to the right of the sweep line, which keeps the status
    sorted up to the first genuine intersection (the Shamos–Hoey
    invariant).
    """

    def __init__(self, counter: Optional[OperationCounter]):
        self._edges: List[_Edge] = []
        self._counter = counter

    def _key(self, edge: _Edge, x: float) -> Tuple[float, float]:
        (lx, ly), (rx, ry) = edge[1], edge[2]
        slope = (ry - ly) / (rx - lx) if rx > lx else float("inf")
        return (segment_y_at(edge[1], edge[2], x), slope)

    def insert(self, edge: _Edge, x: float) -> int:
        """Insert and return the position index."""
        key = self._key(edge, x)
        lo, hi = 0, len(self._edges)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._counter is not None:
                self._counter.count(POSITION)
            if self._key(self._edges[mid], x) < key:
                lo = mid + 1
            else:
                hi = mid
        self._edges.insert(lo, edge)
        return lo

    def remove(self, edge: _Edge) -> int:
        idx = self._edges.index(edge)
        del self._edges[idx]
        return idx

    def at(self, idx: int) -> Optional[_Edge]:
        if 0 <= idx < len(self._edges):
            return self._edges[idx]
        return None

    def __len__(self) -> int:
        return len(self._edges)


def _restricted_edges(
    polygon: Polygon,
    poly_id: int,
    clip: Optional[Rect],
    counter: Optional[OperationCounter],
) -> List[_Edge]:
    """Edges with left/right ordering, optionally clipped to ``clip``."""
    from ..geometry.segment import segment_intersects_rect

    out: List[_Edge] = []
    for a, b in polygon.edges():
        if clip is not None:
            if counter is not None:
                counter.count(EDGE_RECT)
            if not segment_intersects_rect(
                a, b, clip.xmin, clip.ymin, clip.xmax, clip.ymax
            ):
                continue
        if (a[0], a[1]) <= (b[0], b[1]):
            out.append((poly_id, a, b))
        else:
            out.append((poly_id, b, a))
    return out


def polygons_intersect_planesweep(
    poly1: Polygon,
    poly2: Polygon,
    counter: Optional[OperationCounter] = None,
    restrict_search_space: bool = True,
) -> bool:
    """Exact intersection test via plane sweep.

    ``restrict_search_space=False`` disables the MBR-intersection
    pre-filter (for the ablation the paper quotes: restriction saves
    ~40% of the cost, and makes false-hit detection as cheap as hit
    detection).
    """
    clip = poly1.mbr().intersection(poly2.mbr())
    if clip is None:
        return False

    edges: List[_Edge] = []
    edges += _restricted_edges(
        poly1, 0, clip if restrict_search_space else None, counter
    )
    edges += _restricted_edges(
        poly2, 1, clip if restrict_search_space else None, counter
    )

    has1 = any(e[0] == 0 for e in edges)
    has2 = any(e[0] == 1 for e in edges)
    if edges and has1 and has2:
        if _sweep_finds_intersection(edges, counter):
            return True
    # No boundary intersection: containment remains possible.
    return _containment_step(poly1, poly2, counter)


def _sweep_finds_intersection(
    edges: List[_Edge], counter: Optional[OperationCounter]
) -> bool:
    # Build the event queue: (x, order, is_delete, edge). Inserts precede
    # deletes at the same x so touching edges become status neighbours.
    events: List[Tuple[float, int, int, _Edge]] = []
    for edge in edges:
        events.append((edge[1][0], 0, 0, edge))
        events.append((edge[2][0], 1, 1, edge))
    events.sort(key=lambda ev: (ev[0], ev[1], ev[3][1][1]))

    status = _SweepStatus(counter)
    for x, _order, is_delete, edge in events:
        if is_delete:
            try:
                idx = status.remove(edge)
            except ValueError:
                continue
            below = status.at(idx - 1)
            above = status.at(idx)
            if below is not None and above is not None:
                if _test_pair(below, above, counter):
                    return True
        else:
            idx = status.insert(edge, x)
            below = status.at(idx - 1)
            above = status.at(idx + 1)
            if below is not None and _test_pair(edge, below, counter):
                return True
            if above is not None and _test_pair(edge, above, counter):
                return True
            # Robustness for ties: edges whose status keys coincide at x
            # may hide a crossing partner one slot further away.
            for probe in (idx - 2, idx + 2):
                other = status.at(probe)
                if other is not None and _near_tie(edge, other, x):
                    if _test_pair(edge, other, counter):
                        return True
    return False


def _near_tie(e1: _Edge, e2: _Edge, x: float, tol: float = 1e-12) -> bool:
    y1 = segment_y_at(e1[1], e1[2], x)
    y2 = segment_y_at(e2[1], e2[2], x)
    return abs(y1 - y2) <= tol


def _test_pair(
    e1: _Edge, e2: _Edge, counter: Optional[OperationCounter]
) -> bool:
    """Intersection test of a status-neighbour pair (different polygons)."""
    if e1[0] == e2[0]:
        return False
    if counter is not None:
        counter.count(EDGE_INTERSECTION)
    return segments_intersect(e1[1], e1[2], e2[1], e2[2])


def _containment_step(
    poly1: Polygon, poly2: Polygon, counter: Optional[OperationCounter]
) -> bool:
    """Polygon-in-polygon with the MBR pretest (§4)."""
    if poly2.mbr().contains_rect(poly1.mbr()):
        if point_in_polygon_counted(poly2, poly1.shell[0], counter):
            return True
    if poly1.mbr().contains_rect(poly2.mbr()):
        if point_in_polygon_counted(poly1, poly2.shell[0], counter):
            return True
    return False
