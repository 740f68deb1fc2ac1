"""Per-pair (tuple-at-a-time) execution — the paper's original pipeline.

Candidate pairs stream through the geometric filter one at a time; the
remaining candidates queue in the refinement pipeline for the batched
exact step.  No candidate set is materialised between steps (§2.4: "no
additional cost arises for handling these candidates").  This
is the code that used to live inside
:class:`repro.core.join.SpatialJoinProcessor`, extracted unchanged so it
can serve as the reference backend for the differential-testing harness.
"""

from __future__ import annotations

from typing import Iterator

from ..core.filters import FilterOutcome, geometric_filter
from ..core.stats import MultiStepStats
from .base import Engine, Pair, RefinementPipeline


class StreamingEngine(Engine):
    """Tuple-at-a-time pipeline over the MBR-join candidate stream."""

    name = "streaming"

    def process(
        self,
        candidates: Iterator[Pair],
        stats: MultiStepStats,
        refine: RefinementPipeline,
    ) -> Iterator[Pair]:
        cfg = self.config
        within = cfg.predicate == "within"
        if within:
            from ..core.within import within_filter

        for obj_a, obj_b in candidates:
            stats.candidate_pairs += 1
            if within:
                outcome = within_filter(obj_a, obj_b, cfg.filter, stats)
            else:
                outcome = geometric_filter(obj_a, obj_b, cfg.filter, stats)
            if outcome is FilterOutcome.FALSE_HIT:
                continue
            yield from refine.push(
                (obj_a, obj_b), outcome is FilterOutcome.CANDIDATE
            )
        yield from refine.flush()
