"""Total-performance cost models (paper §3.5 Figure 11 and §5 Figure 18).

The paper evaluates its large-scale joins (130,000 objects per relation)
with an explicit cost model on top of measured filter rates and page
counts:

* a page access costs 10 ms;
* every candidate pair *not* resolved by the geometric filter costs one
  page access for fetching the exact object;
* the TR*-tree representation inflates object fetch cost by factor 1.5
  (higher storage footprint than a point list);
* one exact intersection test costs 25 ms with the plane sweep and 1 ms
  with the TR*-tree (averages of §4.3).

These constants are kept verbatim; the *rates* (filter identification
percentages, MBR-join page counts) are measured on our data, so the
model reproduces Figure 11/18's shape rather than its absolute seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

#: §5 model constants (seconds).
PAGE_ACCESS_SECONDS = 0.010
PLANESWEEP_EXACT_SECONDS = 0.025
TRSTAR_EXACT_SECONDS = 0.001
TRSTAR_ACCESS_FACTOR = 1.5


@dataclass(frozen=True)
class JoinScenario:
    """Inputs of the §5 cost model for one join configuration."""

    #: number of candidate pairs produced by the MBR-join.
    candidate_pairs: int
    #: fraction of candidate pairs resolved by the geometric filter
    #: (hits + false hits identified without exact geometry).
    identification_rate: float
    #: page accesses of the MBR-join itself.
    mbr_join_pages: int
    #: True when the exact step runs on TR*-tree representations.
    uses_trstar: bool
    #: True when additional approximations are stored (affects nothing
    #: here directly — the MBR-join page count already includes the
    #: storage overhead — but recorded for reporting).
    uses_approximations: bool = False


@dataclass
class CostBreakdown:
    """Seconds per §5 cost component (Figure 18's three bars)."""

    mbr_join: float
    object_access: float
    exact_test: float
    label: str = ""

    @property
    def total(self) -> float:
        return self.mbr_join + self.object_access + self.exact_test


def total_join_cost(scenario: JoinScenario, label: str = "") -> CostBreakdown:
    """Evaluate the §5 cost model for one scenario."""
    unresolved = scenario.candidate_pairs * (1.0 - scenario.identification_rate)
    access_factor = TRSTAR_ACCESS_FACTOR if scenario.uses_trstar else 1.0
    object_access = unresolved * PAGE_ACCESS_SECONDS * access_factor
    exact_seconds = (
        TRSTAR_EXACT_SECONDS if scenario.uses_trstar else PLANESWEEP_EXACT_SECONDS
    )
    exact_test = unresolved * exact_seconds
    mbr_join = scenario.mbr_join_pages * PAGE_ACCESS_SECONDS
    return CostBreakdown(
        mbr_join=mbr_join,
        object_access=object_access,
        exact_test=exact_test,
        label=label,
    )


@dataclass
class ApproximationImpact:
    """Figure 11 quantities: loss/gain/total page accesses."""

    #: extra MBR-join page accesses caused by larger leaf entries.
    loss_pages: int
    #: pairs resolved by the filter — each saves one object page access.
    gain_pages: int

    @property
    def total_gain_pages(self) -> int:
        return self.gain_pages - self.loss_pages


def approximation_impact(
    base_join_pages: int,
    enlarged_join_pages: int,
    identified_pairs: int,
) -> ApproximationImpact:
    """Figure 11 model: 'loss' vs the very cautious one-page 'gain'."""
    return ApproximationImpact(
        loss_pages=max(0, enlarged_join_pages - base_join_pages),
        gain_pages=identified_pairs,
    )
