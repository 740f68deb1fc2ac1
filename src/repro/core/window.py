"""Multi-step window and point queries ([KBS 93], [BHKS 93], paper §2.4).

The paper's join processor generalises the authors' earlier multi-step
*query* processor: SAM lookup on MBRs → geometric filter on stored
approximations → exact geometry.  This module provides that processor
for window and point queries over one relation, using the same
approximations, the same R*-tree and the same exact-geometry backends as
the join pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..approximations.base import Approximation
from ..datasets.relations import SpatialObject, SpatialRelation
from ..geometry.fastops import polygons_intersect_fast
from ..geometry.polygon import Polygon
from ..geometry.predicates import Coord
from ..geometry.rectangle import Rect
from ..index.pagemodel import AccessCounter, LRUBuffer
from ..index.rstar import RStarTree
from .filters import FilterConfig


@dataclass
class WindowQueryStats:
    """Counters of one multi-step window/point query."""

    candidates: int = 0
    filter_false_hits: int = 0
    filter_hits: int = 0
    exact_tests: int = 0
    exact_hits: int = 0
    node_visits: int = 0
    page_reads: int = 0

    @property
    def results(self) -> int:
        return self.filter_hits + self.exact_hits

    def identification_rate(self) -> float:
        if self.candidates == 0:
            return 0.0
        return (self.filter_false_hits + self.filter_hits) / self.candidates


class WindowQueryProcessor:
    """Multi-step point/window queries over one spatial relation.

    The R*-tree over the relation's MBRs is built once; approximations
    are the relation's cached per-object ones (stored next to the MBR in
    the paper's architecture).
    """

    def __init__(
        self,
        relation: SpatialRelation,
        filter_config: Optional[FilterConfig] = None,
        rtree_max_entries: int = 32,
        buffer_pages: Optional[int] = None,
    ):
        self.relation = relation
        self.filter_config = filter_config or FilterConfig()
        self.tree: RStarTree = relation.rtree(rtree_max_entries)
        self._counter: Optional[AccessCounter] = None
        if buffer_pages is not None:
            self._counter = AccessCounter(buffer=LRUBuffer(buffer_pages))

    # -- queries --------------------------------------------------------------

    def window_query(
        self, window: Rect, stats: Optional[WindowQueryStats] = None
    ) -> List[SpatialObject]:
        """All objects whose exact geometry intersects ``window``."""
        stats = stats if stats is not None else WindowQueryStats()
        if self._counter is not None:
            self._counter.reset()
        objects = self.relation.objects
        candidates = self.tree.window_query(window, self._counter)
        if self._counter is not None:
            stats.node_visits = self._counter.node_visits
            stats.page_reads = self._counter.page_reads
        results: List[SpatialObject] = []
        window_poly = Polygon(window.corners())
        for row in candidates:
            obj = objects[row]
            stats.candidates += 1
            outcome = self._filter_window(obj, window)
            if outcome is False:
                stats.filter_false_hits += 1
                continue
            if outcome is True:
                stats.filter_hits += 1
                results.append(obj)
                continue
            stats.exact_tests += 1
            if polygons_intersect_fast(obj.polygon, window_poly):
                stats.exact_hits += 1
                results.append(obj)
        return results

    def point_query(
        self, point: Coord, stats: Optional[WindowQueryStats] = None
    ) -> List[SpatialObject]:
        """All objects whose exact geometry contains ``point``."""
        stats = stats if stats is not None else WindowQueryStats()
        if self._counter is not None:
            self._counter.reset()
        objects = self.relation.objects
        candidates = self.tree.point_query(point, self._counter)
        if self._counter is not None:
            stats.node_visits = self._counter.node_visits
            stats.page_reads = self._counter.page_reads
        results: List[SpatialObject] = []
        for row in candidates:
            obj = objects[row]
            stats.candidates += 1
            outcome = self._filter_point(obj, point)
            if outcome is False:
                stats.filter_false_hits += 1
                continue
            if outcome is True:
                stats.filter_hits += 1
                results.append(obj)
                continue
            stats.exact_tests += 1
            if obj.polygon.contains_point(point):
                stats.exact_hits += 1
                results.append(obj)
        return results

    # -- filter steps ---------------------------------------------------------

    def _filter_window(self, obj: SpatialObject, window: Rect):
        """Tri-state: False = false hit, True = hit, None = candidate."""
        cfg = self.filter_config
        if cfg.conservative:
            approx = obj.approximation(cfg.conservative)
            if not _approx_intersects_rect(approx, window):
                return False
        if cfg.progressive:
            approx = obj.approximation(cfg.progressive)
            if _approx_intersects_rect(approx, window):
                return True
        return None

    def _filter_point(self, obj: SpatialObject, point: Coord):
        cfg = self.filter_config
        if cfg.conservative:
            if not obj.approximation(cfg.conservative).contains_point(point):
                return False
        if cfg.progressive:
            if obj.approximation(cfg.progressive).contains_point(point):
                return True
        return None


def _approx_intersects_rect(approx: Approximation, rect: Rect) -> bool:
    """Intersection of any approximation shape with a rectangle."""
    if not approx.mbr().intersects(rect):
        return False
    if approx.shape_kind == "convex":
        from ..geometry.convex import convex_intersect

        return convex_intersect(approx.convex_vertices(), list(rect.corners()))
    if approx.shape_kind == "circle":
        return approx.circle().intersects_rect(rect)
    # Ellipse: map the rectangle into the ellipse's unit-disk frame.
    from ..approximations.base import _ellipse_convex_intersect

    return _ellipse_convex_intersect(approx.ellipse(), list(rect.corners()))
