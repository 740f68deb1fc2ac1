"""Points-in-regions (INSIDE) join — the [BG 90] related-work operation.

The paper's related work singles out Blankenagel & Güting's "Internal
and External Algorithms for the Points-in-Regions Problem — the INSIDE
Join of Geo-Relational Algebra": a join between a set of 2-D *points*
and a set of polygonal *regions*, pairing every point with every region
containing it.

This module runs that join through the same multi-step shape as the
paper's polygon-polygon pipeline:

1. **MBR step** — an R*-tree over the regions' MBRs is probed with each
   point (point query);
2. **geometric filter** — stored approximations decide most candidates:
   a point inside a *progressive* approximation is inside the region
   (hit); a point outside a *conservative* approximation is outside
   (false hit);
3. **exact step** — ray-crossing point-in-polygon for the remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from ..datasets.relations import SpatialObject, SpatialRelation
from ..geometry.predicates import Coord
from ..index.pagemodel import AccessCounter


@dataclass(frozen=True)
class InsideJoinConfig:
    """Configuration of the points-in-regions pipeline."""

    #: conservative approximation for the false-hit test ('none' = skip).
    conservative: Optional[str] = "5-C"
    #: progressive approximation for the hit test ('none' = skip).
    progressive: Optional[str] = "MER"
    rtree_max_entries: int = 32


@dataclass
class InsideJoinStats:
    """Pipeline statistics of one INSIDE join."""

    probes: int = 0
    candidates: int = 0
    filter_hits: int = 0
    filter_false_hits: int = 0
    exact_tests: int = 0
    exact_hits: int = 0
    index_io: AccessCounter = field(default_factory=AccessCounter)

    @property
    def identification_rate(self) -> float:
        if not self.candidates:
            return 0.0
        return (self.filter_hits + self.filter_false_hits) / self.candidates


@dataclass
class InsideJoinResult:
    """(point index, region) pairs plus pipeline statistics."""

    pairs: List[Tuple[int, SpatialObject]]
    stats: InsideJoinStats

    def id_pairs(self) -> List[Tuple[int, int]]:
        return [(pidx, obj.oid) for pidx, obj in self.pairs]

    def __len__(self) -> int:
        return len(self.pairs)


def points_in_regions_join(
    points: Sequence[Coord],
    regions: SpatialRelation,
    config: Optional[InsideJoinConfig] = None,
) -> InsideJoinResult:
    """All (point, region) pairs where the region contains the point.

    Boundary points count as contained, matching
    :meth:`Polygon.contains_point`.
    """
    cfg = config or InsideJoinConfig()
    stats = InsideJoinStats()
    tree = regions.rtree(cfg.rtree_max_entries)
    pairs: List[Tuple[int, SpatialObject]] = []
    for idx, point in enumerate(points):
        stats.probes += 1
        for obj in tree.point_query(point, stats.index_io):
            stats.candidates += 1
            outcome = _classify(obj, point, cfg, stats)
            if outcome:
                pairs.append((idx, obj))
    return InsideJoinResult(pairs=pairs, stats=stats)


def _classify(
    obj: SpatialObject,
    point: Coord,
    cfg: InsideJoinConfig,
    stats: InsideJoinStats,
) -> bool:
    if cfg.progressive and cfg.progressive.lower() != "none":
        if obj.approximation(cfg.progressive).contains_point(point):
            stats.filter_hits += 1
            return True
    if cfg.conservative and cfg.conservative.lower() != "none":
        if not obj.approximation(cfg.conservative).contains_point(point):
            stats.filter_false_hits += 1
            return False
    stats.exact_tests += 1
    if obj.polygon.contains_point(point):
        stats.exact_hits += 1
        return True
    return False


def brute_force_inside_join(
    points: Sequence[Coord], regions: Iterable[SpatialObject]
) -> List[Tuple[int, int]]:
    """Nested-loops oracle for :func:`points_in_regions_join`."""
    out: List[Tuple[int, int]] = []
    region_list = list(regions)
    for idx, point in enumerate(points):
        for obj in region_list:
            if obj.mbr.contains_point(point) and obj.polygon.contains_point(
                point
            ):
                out.append((idx, obj.oid))
    return out
