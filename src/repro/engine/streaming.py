"""Per-pair (tuple-at-a-time) execution — the paper's original pipeline.

Candidate pairs stream through the geometric filter one at a time; each
pair the filter keeps goes on as a one-row block to
:func:`~repro.engine.base.refine_in_order`, the order-preserving exact
step both engines share, before the next pair is produced.  No
candidate set is materialised between steps (§2.4: "no additional cost
arises for handling these candidates").  This is the reference backend
of the differential-testing harness: the scalar filter reads each
candidate's two objects (``store.objects[row]``), the exact step
their rows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Tuple

import numpy as np

from ..core.filters import FilterOutcome, geometric_filter
from ..core.stats import MultiStepStats
from ..datasets.columnar import ColumnarRelation
from .base import OUTCOME_CODE, Engine, RowPair, refine_in_order

if TYPE_CHECKING:
    from ..exact.refine import BatchedRefinement


class StreamingEngine(Engine):
    """Tuple-at-a-time pipeline over the MBR-join candidate stream."""

    name = "streaming"

    def process(
        self,
        store_a: ColumnarRelation,
        store_b: ColumnarRelation,
        candidates: Iterator[RowPair],
        stats: MultiStepStats,
        refinement: "BatchedRefinement",
    ) -> Iterator[RowPair]:
        return refine_in_order(
            self._kept_pairs(store_a, store_b, candidates, stats),
            stats,
            refinement,
        )

    def _kept_pairs(
        self,
        store_a: ColumnarRelation,
        store_b: ColumnarRelation,
        candidates: Iterator[RowPair],
        stats: MultiStepStats,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """One-row blocks of the pairs the scalar filter does not drop."""
        cfg = self.config
        if cfg.predicate == "within":
            from ..core.within import within_filter as pair_filter
        else:
            pair_filter = geometric_filter
        objects_a, objects_b = store_a.objects, store_b.objects
        for pair in candidates:
            stats.candidate_pairs += 1
            outcome = pair_filter(
                objects_a[pair[0]], objects_b[pair[1]], cfg.filter, stats
            )
            if outcome is FilterOutcome.FALSE_HIT:
                continue
            yield (
                np.array([pair], dtype=np.intp),
                np.array([OUTCOME_CODE[outcome]], dtype=np.int8),
            )
