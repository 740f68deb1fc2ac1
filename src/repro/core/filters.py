"""The geometric filter — step 2 of the multi-step join (paper §3).

For each candidate pair the filter classifies into one of three classes
(Figure 1): **false hit** (conservative approximations disjoint), **hit**
(progressive approximations intersect, or the false-area test proves an
intersection), or **remaining candidate** (handed to the exact geometry
processor).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..approximations.base import approx_intersect
from ..approximations.false_area import false_area_test
from ..datasets.relations import SpatialObject
from .stats import MultiStepStats


class FilterOutcome(enum.Enum):
    """Classification of a candidate pair by the geometric filter."""

    HIT = "hit"
    FALSE_HIT = "false_hit"
    CANDIDATE = "candidate"


@dataclass(frozen=True)
class FilterConfig:
    """Which approximations the geometric filter uses.

    The paper's recommended configuration (§3.6) is the default: the
    5-corner as the additional conservative approximation and the MER as
    the progressive one, without the false-area test (which adds almost
    nothing once progressive approximations are used, §3.3).
    """

    conservative: Optional[str] = "5-C"
    progressive: Optional[str] = "MER"
    use_false_area_test: bool = False
    #: test order; the paper tests conservative approximations first.
    progressive_first: bool = False

    def describe(self) -> str:
        parts = []
        if self.conservative:
            parts.append(f"conservative={self.conservative}")
        if self.progressive:
            parts.append(f"progressive={self.progressive}")
        if self.use_false_area_test:
            parts.append("false-area-test")
        return ", ".join(parts) if parts else "MBR only"


#: filter configuration that forwards everything to the exact step.
NO_FILTER = FilterConfig(
    conservative=None, progressive=None, use_false_area_test=False
)


def geometric_filter(
    obj_a: SpatialObject,
    obj_b: SpatialObject,
    config: FilterConfig,
    stats: Optional[MultiStepStats] = None,
) -> FilterOutcome:
    """Classify one candidate pair (both objects' MBRs intersect)."""
    steps = (
        (_progressive_step, _conservative_step)
        if config.progressive_first
        else (_conservative_step, _progressive_step)
    )
    for step in steps:
        outcome = step(obj_a, obj_b, config, stats)
        if outcome is not None:
            return outcome
    if config.use_false_area_test and config.conservative:
        if stats is not None:
            stats.false_area_tests += 1
        appr_a = obj_a.approximation(config.conservative)
        appr_b = obj_b.approximation(config.conservative)
        if appr_a.shape_kind == "convex" and appr_b.shape_kind == "convex":
            if false_area_test(obj_a.polygon, appr_a, obj_b.polygon, appr_b):
                if stats is not None:
                    stats.filter_hits_false_area += 1
                return FilterOutcome.HIT
    return FilterOutcome.CANDIDATE


def _conservative_step(
    obj_a: SpatialObject,
    obj_b: SpatialObject,
    config: FilterConfig,
    stats: Optional[MultiStepStats],
) -> Optional[FilterOutcome]:
    if not config.conservative:
        return None
    if stats is not None:
        stats.conservative_tests += 1
    appr_a = obj_a.approximation(config.conservative)
    appr_b = obj_b.approximation(config.conservative)
    if not approx_intersect(appr_a, appr_b):
        if stats is not None:
            stats.filter_false_hits += 1
        return FilterOutcome.FALSE_HIT
    return None


def _progressive_step(
    obj_a: SpatialObject,
    obj_b: SpatialObject,
    config: FilterConfig,
    stats: Optional[MultiStepStats],
) -> Optional[FilterOutcome]:
    if not config.progressive:
        return None
    if stats is not None:
        stats.progressive_tests += 1
    prog_a = obj_a.approximation(config.progressive)
    prog_b = obj_b.approximation(config.progressive)
    if approx_intersect(prog_a, prog_b):
        if stats is not None:
            stats.filter_hits_progressive += 1
        return FilterOutcome.HIT
    return None
