"""Hilbert space-filling curve and Hilbert-packed R-tree loading.

The paper lists "approaches based on space filling curves [Fal 88,
Jag 90b]" as alternatives for implementing the MBR-join.  The z-order
variant lives in :mod:`repro.index.zorder`; this module adds the Hilbert
curve, whose better locality preservation [Jag 90b] makes it the stronger
linear-clustering baseline, plus a Hilbert-sort bulk loader for the
R-tree (the classic "Hilbert-packed R-tree") used as a step-1 backend
ablation and by the global-clustering experiments
(:mod:`repro.index.clustering`).

The curve implementation is the standard iterative bit-manipulation
(Hamilton's compact Hilbert indices restricted to 2-D): ``d2xy`` /
``xy2d`` on a ``2**order x 2**order`` grid.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ..geometry.predicates import Coord
from ..geometry.rectangle import Rect
from .rstar import RStarTree

#: default curve order: a 2**16 x 2**16 grid resolves 65k cells per axis,
#: far below the float jitter of any dataset in this repository.
DEFAULT_ORDER = 16


def hilbert_d_from_xy(order: int, x: int, y: int) -> int:
    """Hilbert index of integer cell ``(x, y)`` on a ``2**order`` grid."""
    if not 0 <= x < (1 << order) or not 0 <= y < (1 << order):
        raise ValueError(f"cell ({x}, {y}) outside 2^{order} grid")
    rx = ry = 0
    d = 0
    s = (1 << order) >> 1
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        x, y = _rotate(s, x, y, rx, ry)
        s >>= 1
    return d


def hilbert_xy_from_d(order: int, d: int) -> Tuple[int, int]:
    """Integer cell ``(x, y)`` of Hilbert index ``d`` (inverse mapping)."""
    n = 1 << order
    if not 0 <= d < n * n:
        raise ValueError(f"index {d} outside 2^{2 * order} curve")
    x = y = 0
    t = d
    s = 1
    while s < n:
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)
        x, y = _rotate(s, x, y, rx, ry)
        x += s * rx
        y += s * ry
        t //= 4
        s <<= 1
    return x, y


def _rotate(s: int, x: int, y: int, rx: int, ry: int) -> Tuple[int, int]:
    """Rotate/flip the quadrant appropriately (standard Hilbert step)."""
    if ry == 0:
        if rx == 1:
            x = s - 1 - x
            y = s - 1 - y
        x, y = y, x
    return x, y


class HilbertMapper:
    """Maps data-space points to Hilbert indices on a fixed grid.

    The mapper snapshots the data-space bounds so all points of both join
    relations share one curve (required for sort-merge joins and for
    clustering comparisons).
    """

    def __init__(self, bounds: Rect, order: int = DEFAULT_ORDER):
        if bounds.width <= 0 or bounds.height <= 0:
            # Degenerate data spaces are padded so scaling stays finite.
            bounds = bounds.expand(0.5)
        self.bounds = bounds
        self.order = order
        self._cells = 1 << order
        self._sx = (self._cells - 1) / bounds.width
        self._sy = (self._cells - 1) / bounds.height

    @classmethod
    def for_rects(
        cls, rects: Sequence[Rect], order: int = DEFAULT_ORDER
    ) -> "HilbertMapper":
        return cls(Rect.union_all(list(rects)), order=order)

    def cell_of(self, p: Coord) -> Tuple[int, int]:
        x = int((p[0] - self.bounds.xmin) * self._sx)
        y = int((p[1] - self.bounds.ymin) * self._sy)
        return (
            min(max(x, 0), self._cells - 1),
            min(max(y, 0), self._cells - 1),
        )

    def index_of(self, p: Coord) -> int:
        """Hilbert index of a data-space point."""
        x, y = self.cell_of(p)
        return hilbert_d_from_xy(self.order, x, y)

    def index_of_rect(self, rect: Rect) -> int:
        """Hilbert index of a rectangle (by its center, as in [Kam 94])."""
        return self.index_of(rect.center)


def hilbert_sort(
    items: Sequence[Tuple[Rect, Any]], order: int = DEFAULT_ORDER
) -> List[Tuple[Rect, Any]]:
    """Items sorted by the Hilbert index of their MBR centers."""
    if not items:
        return []
    mapper = HilbertMapper.for_rects([rect for rect, _ in items], order)
    return sorted(items, key=lambda it: mapper.index_of_rect(it[0]))


def hilbert_pack_rtree(
    items: Sequence[Tuple[Rect, Any]],
    max_entries: int = 32,
    directory_max: Optional[int] = None,
    fill_factor: float = 0.7,
    order: int = DEFAULT_ORDER,
) -> RStarTree:
    """Hilbert-packed R-tree: sort by Hilbert value, fill pages in order.

    The alternative bulk loader to STR (`RStarTree.bulk_load`): linear
    clustering by the curve instead of tiling.  Returns a regular
    :class:`~repro.index.rstar.RStarTree`, so every query/join path works
    unchanged.
    """
    from .rstar import Entry, Node  # local import avoids a cycle

    tree = RStarTree(max_entries=max_entries, directory_max=directory_max)
    if not items:
        return tree
    ordered = hilbert_sort(items, order=order)
    per_leaf = max(2, int(max_entries * fill_factor))
    leaves: List[Node] = []
    for i in range(0, len(ordered), per_leaf):
        node = Node(level=0)
        node.entries = [Entry(rect, item) for rect, item in ordered[i : i + per_leaf]]
        leaves.append(node)
    per_dir = max(2, int(tree.directory_max * fill_factor))
    nodes = leaves
    level = 0
    while len(nodes) > 1:
        level += 1
        grouped: List[Node] = []
        for i in range(0, len(nodes), per_dir):
            parent = Node(level=level)
            parent.children = nodes[i : i + per_dir]
            grouped.append(parent)
        nodes = grouped
    tree.root = nodes[0]
    tree.size = len(ordered)
    tree.bulk_loaded = True
    return tree


def sweep_mbr_join(
    items_a: Sequence[Tuple[Rect, Any]],
    items_b: Sequence[Tuple[Rect, Any]],
) -> List[Tuple[Any, Any]]:
    """Exact MBR-join by a forward plane sweep on ``xmin``.

    The classic sort-merge spatial join on one axis: both relations'
    rectangles enter the sweep in ``xmin`` order; rectangles whose
    ``xmax`` lies behind the sweep front are retired from the opposing
    active list; y-overlap decides the match.  This is the index-free
    step-1 baseline used by the backend ablation next to the R*-tree
    join, the z-order join and the Hilbert-packed tree join.
    """
    events: List[Tuple[float, int, Rect, Any]] = []
    for rect, item in items_a:
        events.append((rect.xmin, 0, rect, item))
    for rect, item in items_b:
        events.append((rect.xmin, 1, rect, item))
    events.sort(key=lambda e: e[0])
    active_a: List[Tuple[Rect, Any]] = []
    active_b: List[Tuple[Rect, Any]] = []
    out: List[Tuple[Any, Any]] = []
    for xmin, side, rect, item in events:
        if side == 0:
            active_b[:] = [ab for ab in active_b if ab[0].xmax >= xmin]
            for rect_b, item_b in active_b:
                if rect.ymin <= rect_b.ymax and rect.ymax >= rect_b.ymin:
                    out.append((item, item_b))
            active_a.append((rect, item))
        else:
            active_a[:] = [aa for aa in active_a if aa[0].xmax >= xmin]
            for rect_a, item_a in active_a:
                if rect.ymin <= rect_a.ymax and rect.ymax >= rect_a.ymin:
                    out.append((item_a, item))
            active_b.append((rect, item))
    return out
