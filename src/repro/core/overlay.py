"""Map overlay — the GIS operation the paper's join is a building block of.

Section 2 of the paper: spatial queries "serve as building blocks for
more complex and application-defined operations, e.g. for the map
overlay in a geographic information system".  This module completes that
story: the multi-step join processor finds the intersecting pairs, the
clipper (:mod:`repro.geometry.clipping`) computes each pair's
intersection region, and the overlay assembles the result layer.

Because the join already classifies pairs through the filter pipeline,
the overlay inherits every speed-up of the paper for free; only pairs
that truly intersect reach the (expensive) region computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..datasets.relations import SpatialObject, SpatialRelation
from ..geometry.clipping import (
    ClippingError,
    polygon_intersection,
    polygon_intersection_area,
)
from ..geometry.polygon import Polygon
from .join import JoinConfig, SpatialJoinProcessor
from .stats import MultiStepStats


@dataclass
class OverlayPiece:
    """One intersection region of the overlay result layer."""

    oid_a: int
    oid_b: int
    regions: List[Polygon]

    @property
    def area(self) -> float:
        return sum(abs(r.area()) for r in self.regions)


@dataclass
class OverlayResult:
    """The overlay layer plus join statistics and failure accounting."""

    pieces: List[OverlayPiece]
    stats: MultiStepStats
    #: pairs whose region computation failed on degeneracies (rare; the
    #: pair still intersects — callers may fall back to sampling).
    failed_pairs: List[Tuple[int, int]] = field(default_factory=list)

    def total_area(self) -> float:
        return sum(piece.area for piece in self.pieces)

    def __len__(self) -> int:
        return len(self.pieces)


class MapOverlay:
    """Intersection overlay of two polygon layers.

    >>> overlay = MapOverlay()
    >>> result = overlay.intersection(layer_a, layer_b)  # doctest: +SKIP
    """

    def __init__(self, config: Optional[JoinConfig] = None):
        self.processor = SpatialJoinProcessor(config)

    def intersection(
        self, layer_a: SpatialRelation, layer_b: SpatialRelation
    ) -> OverlayResult:
        """Compute the intersection layer of two polygon layers."""
        join = self.processor.join(layer_a, layer_b)
        pieces: List[OverlayPiece] = []
        failed: List[Tuple[int, int]] = []
        for obj_a, obj_b in join.pairs:
            piece = self._clip_pair(obj_a, obj_b)
            if piece is None:
                failed.append((obj_a.oid, obj_b.oid))
            elif piece.regions:
                pieces.append(piece)
        return OverlayResult(pieces=pieces, stats=join.stats, failed_pairs=failed)

    def intersection_areas(
        self, layer_a: SpatialRelation, layer_b: SpatialRelation
    ) -> List[Tuple[int, int, float]]:
        """Per-pair intersection areas (holes respected), join-driven."""
        join = self.processor.join(layer_a, layer_b)
        out: List[Tuple[int, int, float]] = []
        for obj_a, obj_b in join.pairs:
            try:
                area = polygon_intersection_area(obj_a.polygon, obj_b.polygon)
            except ClippingError:
                continue
            if area > 0:
                out.append((obj_a.oid, obj_b.oid, area))
        return out

    @staticmethod
    def _clip_pair(
        obj_a: SpatialObject, obj_b: SpatialObject
    ) -> Optional[OverlayPiece]:
        try:
            regions = polygon_intersection(obj_a.polygon, obj_b.polygon)
        except ClippingError:
            return None
        return OverlayPiece(oid_a=obj_a.oid, oid_b=obj_b.oid, regions=regions)
