"""Statistics of one multi-step join run.

Every stage of the pipeline (Figure 1 of the paper) reports into a
:class:`MultiStepStats`; the benchmark harness derives all of the paper's
percentages (Tables 2–5, Figure 12) from these counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

from ..index.join import JoinStats


@dataclass
class MultiStepStats:
    """Counters for the three join steps."""

    #: step 1 — MBR join.
    mbr_join: JoinStats = field(default_factory=JoinStats)
    candidate_pairs: int = 0

    #: step 2 — geometric filter.
    filter_false_hits: int = 0          # eliminated by conservative approx
    filter_hits_progressive: int = 0    # proven by progressive approx
    filter_hits_false_area: int = 0     # proven by false-area test
    remaining_candidates: int = 0       # passed to the exact processor

    #: step 3 — exact geometry.
    exact_hits: int = 0
    exact_false_hits: int = 0

    #: approximation tests performed in step 2 (cheap; §5 neglects them).
    conservative_tests: int = 0
    progressive_tests: int = 0
    false_area_tests: int = 0

    #: step 3 — how the batched refinement executed (``JoinConfig.exact_batch``).
    refine_batches: int = 0         # batched kernel invocations
    refine_batch_pairs: int = 0     # candidates resolved through a batch
    refine_fallback_pairs: int = 0  # batch members resolved by scalar code

    #: replicated border pairs a parallel proximity task saw but did
    #: not own (the ε-expanded grid assignment replicates objects into
    #: every tile their expanded MBR touches; the owning-task rule lets
    #: exactly one task process each candidate, and the others count the
    #: drop here *before* any flow counter moves).  Execution telemetry
    #: only — the serial pipeline never replicates, so the counter is
    #: excluded from equality (``compare=False``); it merges as a plain
    #: sum, so ``dedup_dropped + candidate_pairs`` accounts for every
    #: candidate instance any task examined.
    dedup_dropped: int = field(default=0, compare=False)

    #: per-backend kernel telemetry, keyed ``"<backend>.<kernel>"``
    #: (``repro.geometry.kernels.KernelDispatcher``).  Execution
    #: diagnostics only: excluded from equality (``compare=False``) and
    #: from the service wire format, so differential suites and cached
    #: results stay backend-independent.
    kernel_calls: Dict[str, int] = field(default_factory=dict, compare=False)
    kernel_pairs: Dict[str, int] = field(default_factory=dict, compare=False)
    kernel_seconds: Dict[str, float] = field(
        default_factory=dict, compare=False
    )

    @property
    def filter_hits(self) -> int:
        return self.filter_hits_progressive + self.filter_hits_false_area

    @property
    def identified_pairs(self) -> int:
        """Pairs resolved without the exact processor (Fig. 12's 46%)."""
        return self.filter_hits + self.filter_false_hits

    @property
    def total_hits(self) -> int:
        return self.filter_hits + self.exact_hits

    @property
    def total_false_hits(self) -> int:
        return self.filter_false_hits + self.exact_false_hits

    @property
    def exact_tests(self) -> int:
        """Candidate pairs actually resolved by the exact processor."""
        return self.exact_hits + self.exact_false_hits

    def check_invariants(self) -> None:
        """Assert the Figure-1 flow conservation of the counters.

        Every MBR-join candidate is classified exactly once: filter hit,
        filter false hit, or remaining candidate; and every remaining
        candidate is resolved by exactly one exact test.  Holds for every
        engine and every filter configuration after a completed join.
        """
        assert (
            self.filter_hits + self.filter_false_hits + self.remaining_candidates
            == self.candidate_pairs
        ), (
            f"filter counters leak candidates: {self.filter_hits} hits + "
            f"{self.filter_false_hits} false hits + "
            f"{self.remaining_candidates} remaining != "
            f"{self.candidate_pairs} candidates"
        )
        assert self.exact_tests == self.remaining_candidates, (
            f"exact counters leak candidates: {self.exact_hits} hits + "
            f"{self.exact_false_hits} false hits != "
            f"{self.remaining_candidates} remaining candidates"
        )
        assert self.mbr_join.output_pairs == self.candidate_pairs, (
            f"MBR-join reported {self.mbr_join.output_pairs} pairs but "
            f"{self.candidate_pairs} entered the filter"
        )
        assert (
            0 <= self.refine_fallback_pairs <= self.refine_batch_pairs
            <= self.exact_tests
        ), (
            f"refinement counters leak candidates: {self.refine_batch_pairs} "
            f"batched pairs ({self.refine_fallback_pairs} fallbacks) vs "
            f"{self.exact_tests} exact tests"
        )
        assert (self.refine_batches == 0) == (self.refine_batch_pairs == 0), (
            f"{self.refine_batches} refinement batches resolved "
            f"{self.refine_batch_pairs} pairs (every batch is non-empty)"
        )

    def merge(self, other: "MultiStepStats") -> "MultiStepStats":
        """Fold ``other``'s counters into this instance (returns ``self``).

        Every counter — including the step-1 :class:`JoinStats` — is a
        plain sum, so merging
        is associative and commutative: per-tile statistics of a
        partitioned join can be aggregated in any order and any grouping
        (serially, tree-wise, or as results arrive from worker
        processes) and always produce the same totals.  If
        :meth:`check_invariants` holds for every input, it holds for the
        merge, because each invariant is a linear equation over the
        counters.
        """
        self.mbr_join.mbr_tests += other.mbr_join.mbr_tests
        self.mbr_join.node_pairs += other.mbr_join.node_pairs
        self.mbr_join.output_pairs += other.mbr_join.output_pairs
        self.candidate_pairs += other.candidate_pairs
        self.filter_false_hits += other.filter_false_hits
        self.filter_hits_progressive += other.filter_hits_progressive
        self.filter_hits_false_area += other.filter_hits_false_area
        self.remaining_candidates += other.remaining_candidates
        self.exact_hits += other.exact_hits
        self.exact_false_hits += other.exact_false_hits
        self.conservative_tests += other.conservative_tests
        self.progressive_tests += other.progressive_tests
        self.false_area_tests += other.false_area_tests
        self.refine_batches += other.refine_batches
        self.refine_batch_pairs += other.refine_batch_pairs
        self.refine_fallback_pairs += other.refine_fallback_pairs
        self.dedup_dropped += other.dedup_dropped
        for key, calls in other.kernel_calls.items():
            self.kernel_calls[key] = self.kernel_calls.get(key, 0) + calls
        for key, pairs in other.kernel_pairs.items():
            self.kernel_pairs[key] = self.kernel_pairs.get(key, 0) + pairs
        for key, seconds in other.kernel_seconds.items():
            self.kernel_seconds[key] = (
                self.kernel_seconds.get(key, 0.0) + seconds
            )
        return self

    @classmethod
    def merged(cls, parts: "Iterable[MultiStepStats]") -> "MultiStepStats":
        """A fresh instance holding the sum of all ``parts``."""
        total = cls()
        for part in parts:
            total.merge(part)
        return total

    def identification_rate(self) -> float:
        if self.candidate_pairs == 0:
            return 0.0
        return self.identified_pairs / self.candidate_pairs

    def summary(self) -> Dict[str, float]:
        return {
            "candidate_pairs": self.candidate_pairs,
            "filter_false_hits": self.filter_false_hits,
            "filter_hits": self.filter_hits,
            "remaining_candidates": self.remaining_candidates,
            "exact_hits": self.exact_hits,
            "exact_false_hits": self.exact_false_hits,
            "total_hits": self.total_hits,
            "total_false_hits": self.total_false_hits,
            "identification_rate": self.identification_rate(),
        }
