"""Grid-histogram selectivity estimation for spatial joins.

The uniform model of :mod:`repro.core.selectivity` assumes object
centers spread evenly over the data space — real cartographic data is
clustered, which is exactly why the paper works with real maps.  The
standard optimiser answer is a **spatial histogram**: a grid over the
data space recording, per cell, how many objects' MBR centers fall there
and how large those MBRs are on average.

The join estimate then applies the uniform model *locally*: for a cell
with ``n_a`` / ``n_b`` object centers and average extents
``(w_a, h_a)`` / ``(w_b, h_b)``, an object of A intersects on average
``density_b * (w_a + w_b) * (h_a + h_b)`` objects of B (the Minkowski
window around its center), so the cell contributes
``n_a * n_b / cell_area * (w_a + w_b) * (h_a + h_b)`` expected
candidate pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..datasets.relations import SpatialRelation
from ..geometry.rectangle import Rect


@dataclass
class _Cell:
    count: int = 0
    width_sum: float = 0.0
    height_sum: float = 0.0

    @property
    def avg_width(self) -> float:
        return self.width_sum / self.count if self.count else 0.0

    @property
    def avg_height(self) -> float:
        return self.height_sum / self.count if self.count else 0.0


class SpatialHistogram:
    """Equi-width grid histogram of MBR centers and extents."""

    def __init__(self, bounds: Rect, nx: int = 16, ny: int = 16):
        if nx < 1 or ny < 1:
            raise ValueError("histogram grid must be at least 1x1")
        if bounds.width <= 0 or bounds.height <= 0:
            bounds = bounds.expand(0.5)
        self.bounds = bounds
        self.nx = nx
        self.ny = ny
        self._cells: List[_Cell] = [_Cell() for _ in range(nx * ny)]
        self.total = 0

    @classmethod
    def of(
        cls,
        relation: SpatialRelation,
        nx: int = 16,
        ny: int = 16,
        bounds: Optional[Rect] = None,
    ) -> "SpatialHistogram":
        mbrs = [obj.mbr for obj in relation]
        if bounds is None:
            bounds = Rect.union_all(mbrs) if mbrs else Rect(0, 0, 1, 1)
        hist = cls(bounds, nx=nx, ny=ny)
        for mbr in mbrs:
            hist.add(mbr)
        return hist

    # -- construction --------------------------------------------------------

    def add(self, mbr: Rect) -> None:
        cell = self._cells[self._index_of(mbr.center)]
        cell.count += 1
        cell.width_sum += mbr.width
        cell.height_sum += mbr.height
        self.total += 1

    def _index_of(self, p: Tuple[float, float]) -> int:
        ix = int((p[0] - self.bounds.xmin) / self.bounds.width * self.nx)
        iy = int((p[1] - self.bounds.ymin) / self.bounds.height * self.ny)
        ix = min(max(ix, 0), self.nx - 1)
        iy = min(max(iy, 0), self.ny - 1)
        return iy * self.nx + ix

    # -- inspection -----------------------------------------------------------

    def cell_area(self) -> float:
        return (self.bounds.width / self.nx) * (self.bounds.height / self.ny)

    def cell_count(self, ix: int, iy: int) -> int:
        return self._cells[iy * self.nx + ix].count

    def occupied_cells(self) -> int:
        return sum(1 for c in self._cells if c.count)

    def skew(self) -> float:
        """Max cell count / mean non-empty cell count (1.0 = uniform)."""
        counts = [c.count for c in self._cells if c.count]
        if not counts:
            return 1.0
        return max(counts) / (sum(counts) / len(counts))

    # -- estimation -----------------------------------------------------------

    def estimate_window_count(self, window: Rect) -> float:
        """Expected number of MBRs intersecting ``window``."""
        total = 0.0
        cell_w = self.bounds.width / self.nx
        cell_h = self.bounds.height / self.ny
        for iy in range(self.ny):
            for ix in range(self.nx):
                cell = self._cells[iy * self.nx + ix]
                if not cell.count:
                    continue
                # Centers uniform within the cell; an MBR intersects the
                # window when its center lies in the window dilated by
                # the half-extents.
                dilated = Rect(
                    window.xmin - cell.avg_width / 2,
                    window.ymin - cell.avg_height / 2,
                    window.xmax + cell.avg_width / 2,
                    window.ymax + cell.avg_height / 2,
                )
                cell_rect = Rect(
                    self.bounds.xmin + ix * cell_w,
                    self.bounds.ymin + iy * cell_h,
                    self.bounds.xmin + (ix + 1) * cell_w,
                    self.bounds.ymin + (iy + 1) * cell_h,
                )
                overlap = cell_rect.intersection_area(dilated)
                total += cell.count * overlap / cell_rect.area()
        return total


def estimate_join_candidates_histogram(
    hist_a: SpatialHistogram, hist_b: SpatialHistogram
) -> float:
    """Expected MBR-join candidates from two aligned histograms.

    Requires both histograms on the same grid (same bounds, nx, ny);
    build them with a shared ``bounds`` (see :func:`joint_histograms`).

    Model: an A-object whose center sits at the middle of cell ``c_a``
    intersects a B-object when the B center falls into the *Minkowski
    window* ``(w_a + w_b) x (h_a + h_b)`` around it.  The expected
    partner count integrates the B-density over that window, cell by
    cell — which correctly counts cross-cell pairs when objects are
    larger than a histogram cell.
    """
    if (
        hist_a.nx != hist_b.nx
        or hist_a.ny != hist_b.ny
        or hist_a.bounds != hist_b.bounds
    ):
        raise ValueError("histograms must share the same grid")
    cell_area = hist_a.cell_area()
    bounds = hist_a.bounds
    cell_w = bounds.width / hist_a.nx
    cell_h = bounds.height / hist_a.ny
    occupied_a = [
        (ix, iy, hist_a._cells[iy * hist_a.nx + ix])
        for iy in range(hist_a.ny)
        for ix in range(hist_a.nx)
        if hist_a._cells[iy * hist_a.nx + ix].count
    ]
    occupied_b = [
        (ix, iy, hist_b._cells[iy * hist_b.nx + ix])
        for iy in range(hist_b.ny)
        for ix in range(hist_b.nx)
        if hist_b._cells[iy * hist_b.nx + ix].count
    ]
    total = 0.0
    for ix_a, iy_a, cell_a in occupied_a:
        center_x = bounds.xmin + (ix_a + 0.5) * cell_w
        center_y = bounds.ymin + (iy_a + 0.5) * cell_h
        for ix_b, iy_b, cell_b in occupied_b:
            half_w = (cell_a.avg_width + cell_b.avg_width) / 2
            half_h = (cell_a.avg_height + cell_b.avg_height) / 2
            window = Rect(
                center_x - half_w,
                center_y - half_h,
                center_x + half_w,
                center_y + half_h,
            )
            cell_rect = Rect(
                bounds.xmin + ix_b * cell_w,
                bounds.ymin + iy_b * cell_h,
                bounds.xmin + (ix_b + 1) * cell_w,
                bounds.ymin + (iy_b + 1) * cell_h,
            )
            overlap = window.intersection_area(cell_rect)
            if overlap:
                density_b = cell_b.count / cell_area
                total += cell_a.count * density_b * overlap
    return total


def joint_histograms(
    relation_a: SpatialRelation,
    relation_b: SpatialRelation,
    nx: int = 16,
    ny: int = 16,
) -> Tuple[SpatialHistogram, SpatialHistogram]:
    """Two histograms over the shared data space of both relations."""
    mbrs = [o.mbr for o in relation_a] + [o.mbr for o in relation_b]
    bounds = Rect.union_all(mbrs) if mbrs else Rect(0, 0, 1, 1)
    return (
        SpatialHistogram.of(relation_a, nx=nx, ny=ny, bounds=bounds),
        SpatialHistogram.of(relation_b, nx=nx, ny=ny, bounds=bounds),
    )
