"""Line-region join: polylines (rivers) against polygons (counties).

The second half of the paper's §2.2 example inventory: joining
line-shaped spatial attributes against polygonal areas ("find all rivers
crossing a county").  The pipeline keeps the paper's shape:

1. **MBR step** — R*-tree join of the polylines' MBRs against the
   regions' MBRs;
2. **geometric filter** — a region's stored approximations settle
   candidates: a chain vertex inside the *progressive* approximation
   proves a hit; a chain whose MBR misses the *conservative*
   approximation's MBR cannot intersect (cheap false-hit pre-test);
3. **exact step** — segment-against-edge tests plus a containment
   probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..datasets.relations import SpatialObject, SpatialRelation
from ..geometry.polyline import Polyline
from ..index.join import JoinStats, rstar_join
from ..index.rstar import RStarTree


@dataclass(frozen=True)
class LineJoinConfig:
    """Configuration of the line-region pipeline."""

    #: progressive approximation used for the vertex-inside hit test.
    progressive: Optional[str] = "MER"
    rtree_max_entries: int = 32


@dataclass
class LineJoinStats:
    candidates: int = 0
    filter_hits: int = 0
    exact_tests: int = 0
    exact_hits: int = 0
    mbr_join: JoinStats = field(default_factory=JoinStats)

    @property
    def identification_rate(self) -> float:
        return self.filter_hits / self.candidates if self.candidates else 0.0


@dataclass
class LineJoinResult:
    """(polyline index, region) pairs plus statistics."""

    pairs: List[Tuple[int, SpatialObject]]
    stats: LineJoinStats

    def id_pairs(self) -> List[Tuple[int, int]]:
        return [(line_idx, obj.oid) for line_idx, obj in self.pairs]

    def __len__(self) -> int:
        return len(self.pairs)


def line_region_join(
    lines: Sequence[Polyline],
    regions: SpatialRelation,
    config: Optional[LineJoinConfig] = None,
) -> LineJoinResult:
    """All (line, region) pairs whose geometries intersect."""
    cfg = config or LineJoinConfig()
    stats = LineJoinStats()
    line_tree = RStarTree(max_entries=cfg.rtree_max_entries)
    for idx, line in enumerate(lines):
        line_tree.insert(line.mbr(), (idx, line))
    region_tree = regions.rtree(cfg.rtree_max_entries)

    pairs: List[Tuple[int, SpatialObject]] = []
    use_progressive = (
        cfg.progressive is not None and cfg.progressive.lower() != "none"
    )
    for (idx, line), row in rstar_join(
        line_tree, region_tree, None, None, stats.mbr_join
    ):
        obj = regions.objects[row]
        stats.candidates += 1
        if use_progressive:
            approx = obj.approximation(cfg.progressive)
            if any(approx.contains_point(p) for p in line.points):
                stats.filter_hits += 1
                pairs.append((idx, obj))
                continue
        stats.exact_tests += 1
        if line.intersects_polygon(obj.polygon):
            stats.exact_hits += 1
            pairs.append((idx, obj))
    return LineJoinResult(pairs=pairs, stats=stats)


def brute_force_line_region_join(
    lines: Sequence[Polyline], regions: SpatialRelation
) -> List[Tuple[int, int]]:
    """Nested-loops oracle for :func:`line_region_join`."""
    out: List[Tuple[int, int]] = []
    for idx, line in enumerate(lines):
        for obj in regions:
            if not line.mbr().intersects(obj.mbr):
                continue
            if line.intersects_polygon(obj.polygon):
                out.append((idx, obj.oid))
    return out
