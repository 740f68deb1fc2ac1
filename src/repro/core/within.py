"""Multi-step *within* (inclusion) joins.

The paper's motivating query — "find all forests which are in a city" —
is an inclusion join, and §1/§2.2 note that the multi-step approach
carries over from intersection to such predicates.  This module supplies
the predicate-specific filter steps (the exact step is
:func:`~repro.geometry.fastops.polygon_within_fast`, run inside the
batched refinement of :mod:`repro.exact.refine`):

* ``mbr(a) ⊆ mbr(b)`` is necessary for ``a ⊆ b`` (free pretest);
* ``progressive(a) ⊄ conservative(b)``  disproves ``a ⊆ b``;
* ``conservative(a) ⊆ progressive(b)``  proves ``a ⊆ b``.

Both directions use the sound containment tests of
:mod:`repro.approximations.containment`.
"""

from __future__ import annotations

from typing import Optional

from ..approximations.containment import (
    certainly_contains,
    certainly_not_contains,
)
from ..datasets.relations import SpatialObject
from .filters import FilterConfig, FilterOutcome
from .stats import MultiStepStats


def within_filter(
    obj_a: SpatialObject,
    obj_b: SpatialObject,
    config: FilterConfig,
    stats: Optional[MultiStepStats] = None,
) -> FilterOutcome:
    """Classify a candidate pair for the predicate ``a within b``."""
    # MBR pretest: containment of MBRs is necessary.
    if not obj_b.mbr.contains_rect(obj_a.mbr):
        if stats is not None:
            stats.filter_false_hits += 1
        return FilterOutcome.FALSE_HIT
    if config.conservative and config.progressive:
        if stats is not None:
            stats.conservative_tests += 1
        cons_b = obj_b.approximation(config.conservative)
        prog_a = obj_a.approximation(config.progressive)
        if certainly_not_contains(cons_b, prog_a):
            if stats is not None:
                stats.filter_false_hits += 1
            return FilterOutcome.FALSE_HIT
        if stats is not None:
            stats.progressive_tests += 1
        cons_a = obj_a.approximation(config.conservative)
        prog_b = obj_b.approximation(config.progressive)
        if certainly_contains(prog_b, cons_a):
            if stats is not None:
                stats.filter_hits_progressive += 1
            return FilterOutcome.HIT
    return FilterOutcome.CANDIDATE

