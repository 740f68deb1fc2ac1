"""Join test series — strategies A and B of the paper (§3.1).

* **Strategy A**: the second relation is the first one shifted in x- and
  y-direction.  Overlaying a map with a shifted copy of itself yields
  the hit/false-hit mix of Table 2 (about one third false hits).
* **Strategy B**: two relations are generated by randomly shifting and
  rotating the objects of the original; all polygons are scaled so the
  sum of object areas equals the data-space area.  Unlike strategy A,
  objects of one relation may then overlap each other.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Tuple

from .generators import DATA_SPACE
from .relations import SpatialRelation


@dataclass
class TestSeries:
    """A named pair of relations to be joined."""

    name: str
    relation_a: SpatialRelation
    relation_b: SpatialRelation

    def __repr__(self) -> str:
        return (
            f"TestSeries({self.name!r}, |A|={len(self.relation_a)}, "
            f"|B|={len(self.relation_b)})"
        )


def strategy_a(
    relation: SpatialRelation,
    name: Optional[str] = None,
    shift: Optional[Tuple[float, float]] = None,
) -> TestSeries:
    """Series "<relation> A": join the relation with a shifted copy.

    The default shift is 1.5 mean object diameters, which together with
    the generator's coverage factor calibrates the candidate-per-object
    ratio towards the paper's Table 2 (~2.3 intersecting MBR pairs per
    object, roughly one third false hits).
    """
    if shift is None:
        mean_diameter = _mean_mbr_diameter(relation)
        shift = (1.5 * mean_diameter, 1.5 * mean_diameter)
    dx, dy = shift
    shifted = SpatialRelation(
        f"{relation.name}-shifted",
        [obj.polygon.translated(dx, dy) for obj in relation],
    )
    return TestSeries(name or f"{relation.name} A", relation, shifted)


def strategy_b(
    relation: SpatialRelation,
    name: Optional[str] = None,
    seed: int = 53,
) -> TestSeries:
    """Series "<relation> B": two randomised layouts of the relation.

    Each derived relation places every object at a uniformly random
    position with a uniformly random rotation, then scales all polygons
    by a common factor so that the sum of the object areas equals the
    data-space area (the original tessellation already satisfies this,
    but random rotation pushes parts outside the space, so positions are
    clamped to keep centroids inside).
    """
    rng = random.Random(seed)
    rel1 = SpatialRelation(
        f"{relation.name}-B1", _randomize(relation, rng)
    )
    rel2 = SpatialRelation(
        f"{relation.name}-B2", _randomize(relation, rng)
    )
    return TestSeries(name or f"{relation.name} B", rel1, rel2)


def _randomize(relation: SpatialRelation, rng: random.Random) -> list:
    total_area = sum(obj.polygon.area() for obj in relation)
    space_area = DATA_SPACE.area()
    scale = math.sqrt(space_area / total_area) if total_area > 0 else 1.0
    out = []
    for obj in relation:
        poly = obj.polygon
        centroid = poly.centroid()
        angle = rng.random() * 2 * math.pi
        poly = poly.rotated(angle, origin=centroid)
        if scale != 1.0:
            poly = poly.scaled(scale, origin=centroid)
        target = (
            DATA_SPACE.xmin + rng.random() * DATA_SPACE.width,
            DATA_SPACE.ymin + rng.random() * DATA_SPACE.height,
        )
        poly = poly.translated(target[0] - centroid[0], target[1] - centroid[1])
        out.append(poly)
    return out


def _mean_mbr_diameter(relation: SpatialRelation) -> float:
    total = 0.0
    for obj in relation:
        mbr = obj.mbr
        total += math.hypot(mbr.width, mbr.height)
    return total / max(1, len(relation))


# ---------------------------------------------------------------------------
# The four canonical series of the paper, memoised.
# ---------------------------------------------------------------------------

_SERIES_CACHE = {}


def canonical_series(
    which: str, seed: int = 1994, size: Optional[int] = None
) -> TestSeries:
    """One of the paper's series: 'Europe A', 'Europe B', 'BW A', 'BW B'."""
    from .relations import bw, europe

    key = (which, seed, size)
    if key in _SERIES_CACHE:
        return _SERIES_CACHE[key]
    base_name, strategy = which.rsplit(" ", 1)
    if base_name == "Europe":
        base = europe(seed=seed, size=size)
    elif base_name == "BW":
        base = bw(seed=seed, size=size)
    else:
        raise ValueError(f"unknown relation in series name: {which!r}")
    if strategy == "A":
        series = strategy_a(base, name=which)
    elif strategy == "B":
        series = strategy_b(base, name=which, seed=seed + 7)
    else:
        raise ValueError(f"unknown strategy in series name: {which!r}")
    _SERIES_CACHE[key] = series
    return series
