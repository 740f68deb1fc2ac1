"""Figure 12: division of the BW A candidate set by the recommended filter.

Paper (5-corner test + MER test on BW A): 23% identified false hits,
23% identified hits, 10% non-identified false hits, 44% non-identified
hits — 46% of all candidate pairs resolved without exact geometry.

The candidates are row pairs of the two relations; the 5-C and MER tests
are the batched filter's, one per kind, on the relations' stored
columns, and the ground truth is the exact step's decision.
"""

import numpy as np

from _support import candidate_rows
from repro.core.filters import FilterConfig
from repro.core.join import JoinConfig
from repro.core.stats import MultiStepStats
from repro.engine.base import FALSE_HIT, HIT
from repro.engine.batched import BatchGeometricFilter
from repro.exact.refine import BatchedRefinement

PAPER = {
    "identified false hits": 23,
    "identified hits": 23,
    "non-identified false hits": 10,
    "non-identified hits": 44,
}


def classify(series, rows):
    rel_a, rel_b = series.relation_a, series.relation_b
    stores = (rel_a.columnar(), rel_b.columnar())
    hit = BatchedRefinement.from_relations(
        JoinConfig(), rel_a, rel_b
    ).resolve_batch(rows, MultiStepStats())

    def outcome(conservative, progressive):
        config = FilterConfig(conservative=conservative, progressive=progressive)
        return BatchGeometricFilter(config, stores).classify(
            rows[:, 0], rows[:, 1]
        )

    proven = outcome(None, "MER") == HIT
    eliminated = outcome("5-C", None) == FALSE_HIT
    return {
        "identified false hits": int(np.count_nonzero(~hit & eliminated)),
        "identified hits": int(np.count_nonzero(hit & proven)),
        "non-identified false hits": int(np.count_nonzero(~hit & ~eliminated)),
        "non-identified hits": int(np.count_nonzero(hit & ~proven)),
    }


def test_fig12_identification_split(benchmark, series_cache, report):
    series = series_cache("BW A")
    rows = candidate_rows(series)
    counts = benchmark.pedantic(
        lambda: classify(series, rows), rounds=1, iterations=1
    )
    total = sum(counts.values())

    lines = [f"{'class':>28} {'measured':>9} {'paper':>7}"]
    for key in PAPER:
        pct = 100.0 * counts[key] / total
        lines.append(f"{key:>28} {pct:>8.0f}% {PAPER[key]:>6}%")
    identified = counts["identified false hits"] + counts["identified hits"]
    lines.append(
        f"{'identified total':>28} {100.0 * identified / total:>8.0f}% "
        f"{46:>6}%"
    )
    report.table("Fig 12", "identified vs non-identified pairs (BW A)", lines)

    # Headline: a substantial share of the candidate set never reaches
    # the exact geometry processor.
    assert identified / total >= 0.30, f"only {identified/total:.0%} identified"
