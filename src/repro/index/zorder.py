"""Z-order (space-filling-curve) MBR-join — the Orenstein baseline.

The paper (§2.3) credits Orenstein [Ore 86] with the sort-merge approach
to spatial joins: objects are approximated by cells of a recursive grid,
ordered by the Z (Peano/bit-interleaving) curve, and joined by a merge
over the resulting one-dimensional intervals.  The paper uses it only as
a candidate-set producer; we implement it as an alternative step-1
backend and benchmark it against the R*-tree join.

Each MBR is decomposed into at most ``max_cells`` Z-cells (quadtree
recursion); a cell at level *l* covers a contiguous Z-interval.  Two
objects are candidates iff some cell of one contains (is an ancestor of)
some cell of the other — found by a sweep over the interval endpoints.
The final MBR test removes the grid-induced false positives, so the
output equals the exact MBR-join (property-tested).
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from ..geometry.rectangle import Rect

#: default grid resolution: 2^RESOLUTION cells per axis.
DEFAULT_RESOLUTION = 10
#: default bound on Z-cells per object (paper-era systems used 1-4).
DEFAULT_MAX_CELLS = 4


def interleave_bits(x: int, y: int, bits: int) -> int:
    """Z-value of grid cell ``(x, y)``: bit-interleave (y high, x low)."""
    z = 0
    for i in range(bits):
        z |= ((x >> i) & 1) << (2 * i)
        z |= ((y >> i) & 1) << (2 * i + 1)
    return z


def z_cells_for_rect(
    rect: Rect,
    resolution: int = DEFAULT_RESOLUTION,
    max_cells: int = DEFAULT_MAX_CELLS,
    data_space: Optional[Rect] = None,
) -> List[Tuple[int, int]]:
    """Cover a rectangle with at most ``max_cells`` Z-intervals.

    Returns ``(z_lo, z_hi)`` intervals at the finest resolution.  The
    cover is conservative: the union of the intervals' cells contains
    the rectangle (clipped to the data space).
    """
    space = data_space or Rect(0.0, 0.0, 1.0, 1.0)
    n = 1 << resolution

    def to_grid(v: float, lo: float, extent: float) -> int:
        cell = int((v - lo) / extent * n)
        return max(0, min(n - 1, cell))

    gx1 = to_grid(rect.xmin, space.xmin, space.width)
    gx2 = to_grid(rect.xmax, space.xmin, space.width)
    gy1 = to_grid(rect.ymin, space.ymin, space.height)
    gy2 = to_grid(rect.ymax, space.ymin, space.height)

    # Recursive quadtree cover with a cell budget: refine the cell whose
    # subdivision is still affordable, emit whole cells otherwise.
    out: List[Tuple[int, int]] = []

    def recurse(cx: int, cy: int, level: int, budget: int) -> int:
        """Cover the quadtree cell at (cx, cy, level); returns budget."""
        size = 1 << (resolution - level)
        xmin, ymin = cx * size, cy * size
        xmax, ymax = xmin + size - 1, ymin + size - 1
        if xmax < gx1 or xmin > gx2 or ymax < gy1 or ymin > gy2:
            return budget
        fully_inside = (
            xmin >= gx1 and xmax <= gx2 and ymin >= gy1 and ymax <= gy2
        )
        if fully_inside or level == resolution or budget <= 1:
            z_lo = interleave_bits(xmin, ymin, resolution)
            out.append((z_lo, z_lo + size * size - 1))
            return budget - 1
        for dx in (0, 1):
            for dy in (0, 1):
                budget = recurse(2 * cx + dx, 2 * cy + dy, level + 1, budget)
        return budget

    recurse(0, 0, 0, max_cells)
    # Merge adjacent intervals to tighten the cover.
    out.sort()
    merged: List[Tuple[int, int]] = []
    for lo, hi in out:
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


class ZOrderIndex:
    """Sorted list of Z-intervals over one relation's MBRs."""

    def __init__(
        self,
        items: List[Tuple[Rect, Any]],
        resolution: int = DEFAULT_RESOLUTION,
        max_cells: int = DEFAULT_MAX_CELLS,
        data_space: Optional[Rect] = None,
    ):
        self.resolution = resolution
        space = data_space
        if space is None and items:
            space = Rect.union_all([rect for rect, _ in items])
        self.space = space
        self.intervals: List[Tuple[int, int, int]] = []  # (lo, hi, item idx)
        self.items = items
        for idx, (rect, _item) in enumerate(items):
            for lo, hi in z_cells_for_rect(
                rect, resolution, max_cells, space
            ):
                self.intervals.append((lo, hi, idx))
        self.intervals.sort()

    def __len__(self) -> int:
        return len(self.intervals)


def build_zorder_indexes(
    items_a: List[Tuple[Rect, Any]],
    items_b: List[Tuple[Rect, Any]],
    resolution: int = DEFAULT_RESOLUTION,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> Tuple["ZOrderIndex", "ZOrderIndex"]:
    """Two Z-order indexes over a *common* data space (required to join)."""
    rects = [r for r, _ in items_a] + [r for r, _ in items_b]
    space = Rect.union_all(rects) if rects else Rect(0, 0, 1, 1)
    return (
        ZOrderIndex(items_a, resolution, max_cells, space),
        ZOrderIndex(items_b, resolution, max_cells, space),
    )


def zorder_mbr_join(
    index_a: ZOrderIndex, index_b: ZOrderIndex
) -> Iterator[Tuple[Any, Any]]:
    """Sort-merge MBR-join over the two indexes' Z-intervals.

    Two intervals of the Z-cover overlap iff one cell is an ancestor of
    the other, found by a plane sweep over interval start points.  The
    final MBR intersection test removes grid-induced false positives;
    the output matches the exact MBR join (deduplicated).
    """
    if index_a.resolution != index_b.resolution or index_a.space != index_b.space:
        raise ValueError(
            "z-order join requires indexes over the same grid; "
            "use build_zorder_indexes()"
        )
    seen = set()
    ia, ib = index_a.intervals, index_b.intervals
    i = j = 0
    active_a: List[Tuple[int, int, int]] = []
    active_b: List[Tuple[int, int, int]] = []
    while i < len(ia) or j < len(ib):
        take_a = j >= len(ib) or (i < len(ia) and ia[i][0] <= ib[j][0])
        if take_a:
            lo, hi, idx = ia[i]
            i += 1
            active_b = [iv for iv in active_b if iv[1] >= lo]
            for blo, bhi, bidx in active_b:
                if blo <= lo <= bhi:
                    _emit(index_a, index_b, idx, bidx, seen)
            active_a.append((lo, hi, idx))
        else:
            lo, hi, idx = ib[j]
            j += 1
            active_a = [iv for iv in active_a if iv[1] >= lo]
            for alo, ahi, aidx in active_a:
                if alo <= lo <= ahi:
                    _emit(index_a, index_b, aidx, idx, seen)
            active_b.append((lo, hi, idx))
    for key in sorted(seen):
        a_idx, b_idx = key
        yield (index_a.items[a_idx][1], index_b.items[b_idx][1])


def _emit(index_a, index_b, a_idx, b_idx, seen) -> None:
    key = (a_idx, b_idx)
    if key in seen:
        return
    rect_a = index_a.items[a_idx][0]
    rect_b = index_b.items[b_idx][0]
    if rect_a.intersects(rect_b):
        seen.add(key)
