"""Selectivity and cost estimation for spatial joins (after [Gün 93]).

The paper cites Günther's "general model for estimating the cost of
spatial joins" as the cost-model companion of its algorithmic work.  A
query optimiser deciding whether to run the multi-step pipeline (and
with which filters) needs exactly these estimates *before* running the
join.  This module provides:

* **MBR-join selectivity** — the expected number of intersecting MBR
  pairs, from per-relation extent statistics under the standard
  uniform-position model: two rectangles of average widths ``w_A, w_B``
  and heights ``h_A, h_B`` in a data space of extent ``W x H``
  intersect with probability
  ``min(1, (w_A + w_B) / W) * min(1, (h_A + h_B) / H)``.
* **filter outcome estimates** — expected hits / false hits identified
  by the geometric filter, parameterised by measured-or-assumed filter
  rates (the paper's Table 3 / Table 5 percentages serve as priors).
* **pipeline cost estimate** — expected page accesses and CPU seconds
  of the three steps, reusing the §5 cost constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..datasets.relations import SpatialRelation
from ..geometry.rectangle import Rect
from .costs import PAGE_ACCESS_SECONDS, TRSTAR_EXACT_SECONDS

#: default filter-rate priors: fraction of false hits removed by the
#: 5-corner (paper Table 3, ~2/3) and of hits found by the MER
#: (paper Table 5, ~1/3).
DEFAULT_FALSE_HIT_RATE = 0.66
DEFAULT_HIT_RATE = 0.35

#: fraction of MBR-intersecting pairs that are true hits (paper Table 2:
#: roughly two thirds across all four test series).
DEFAULT_HIT_SHARE = 0.66


@dataclass(frozen=True)
class RelationProfile:
    """Extent statistics of one relation (all an optimiser would keep)."""

    count: int
    avg_width: float
    avg_height: float
    data_space: Rect

    @classmethod
    def of(cls, relation: SpatialRelation) -> "RelationProfile":
        mbrs = [obj.mbr for obj in relation]
        if not mbrs:
            return cls(0, 0.0, 0.0, Rect(0, 0, 1, 1))
        space = Rect.union_all(mbrs)
        return cls(
            count=len(mbrs),
            avg_width=sum(r.width for r in mbrs) / len(mbrs),
            avg_height=sum(r.height for r in mbrs) / len(mbrs),
            data_space=space,
        )


def mbr_join_selectivity(
    profile_a: RelationProfile,
    profile_b: RelationProfile,
    data_space: Optional[Rect] = None,
) -> float:
    """Probability that a random (a, b) pair has intersecting MBRs."""
    if profile_a.count == 0 or profile_b.count == 0:
        return 0.0
    space = data_space or profile_a.data_space.union(profile_b.data_space)
    width = max(space.width, 1e-12)
    height = max(space.height, 1e-12)
    px = min(1.0, (profile_a.avg_width + profile_b.avg_width) / width)
    py = min(1.0, (profile_a.avg_height + profile_b.avg_height) / height)
    return px * py


def estimate_candidates(
    relation_a: SpatialRelation,
    relation_b: SpatialRelation,
    data_space: Optional[Rect] = None,
) -> float:
    """Expected size of the MBR-join candidate set."""
    profile_a = RelationProfile.of(relation_a)
    profile_b = RelationProfile.of(relation_b)
    sel = mbr_join_selectivity(profile_a, profile_b, data_space)
    return sel * profile_a.count * profile_b.count


@dataclass(frozen=True)
class FilterRates:
    """Geometric-filter effectiveness priors.

    Defaults follow the paper's measurements (Table 3: the 5-corner
    identifies ~66% of false hits; Table 5: the MER identifies ~35% of
    hits; Table 2: ~66% of candidates are hits).
    """

    false_hit_identification: float = DEFAULT_FALSE_HIT_RATE
    hit_identification: float = DEFAULT_HIT_RATE
    hit_share: float = DEFAULT_HIT_SHARE

    def __post_init__(self):
        for name in (
            "false_hit_identification",
            "hit_identification",
            "hit_share",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass
class JoinEstimate:
    """Pre-execution estimate of the multi-step join's work."""

    candidates: float
    hits: float
    false_hits: float
    filter_identified_hits: float
    filter_identified_false_hits: float
    remaining_candidates: float
    #: expected cost in seconds under the §5 constants.
    object_access_seconds: float
    exact_test_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.object_access_seconds + self.exact_test_seconds

    @property
    def filter_effectiveness(self) -> float:
        """Fraction of candidates settled without exact geometry."""
        if self.candidates == 0:
            return 0.0
        identified = (
            self.filter_identified_hits + self.filter_identified_false_hits
        )
        return identified / self.candidates


def estimate_join(
    relation_a: SpatialRelation,
    relation_b: SpatialRelation,
    rates: Optional[FilterRates] = None,
    data_space: Optional[Rect] = None,
    page_access_seconds: float = PAGE_ACCESS_SECONDS,
    exact_seconds: float = TRSTAR_EXACT_SECONDS,
) -> JoinEstimate:
    """Full pre-execution estimate of the three-step pipeline."""
    rates = rates or FilterRates()
    candidates = estimate_candidates(relation_a, relation_b, data_space)
    hits = candidates * rates.hit_share
    false_hits = candidates - hits
    found_hits = hits * rates.hit_identification
    found_false = false_hits * rates.false_hit_identification
    remaining = candidates - found_hits - found_false
    # Each surviving candidate costs two object fetches plus one exact
    # test (§5's accounting: one page access per unidentified object).
    return JoinEstimate(
        candidates=candidates,
        hits=hits,
        false_hits=false_hits,
        filter_identified_hits=found_hits,
        filter_identified_false_hits=found_false,
        remaining_candidates=remaining,
        object_access_seconds=2 * remaining * page_access_seconds,
        exact_test_seconds=remaining * exact_seconds,
    )
