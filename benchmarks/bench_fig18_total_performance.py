"""Figure 18: total join performance of versions 1-3 (paper §5).

* version 1 — no extra approximations, plane-sweep exact test;
* version 2 — 5-C + MER approximations, plane-sweep exact test;
* version 3 — 5-C + MER approximations, TR*-tree exact test.

Paper: version 2 cuts the total by ~40%; version 3 improves on
version 2 by almost 2x and on version 1 by more than 3x, leaving object
access as the dominant cost.

The §5 cost constants (10 ms/page, 25 ms sweep, 1 ms TR*, 1.5x TR*
access factor) are applied to the paper-scale join (86,000 candidate
pairs); the filter identification rate and the relative MBR-join page
counts are *measured* on our data.
"""

from bench_fig10_storage_approaches import build_objects
from bench_fig11_performance_impact import identification_rate, join_pages
from repro.core.costs import JoinScenario, total_join_cost
from repro.index.pagemodel import APPROX_BYTES

PAPER_PAIRS = 86_000


def test_fig18_total_performance(benchmark, scale, classified, report):
    pairs_meta = classified("Europe A")
    rate = identification_rate(pairs_meta, "5-C")

    # Measured MBR-join page counts, scaled to the paper's 86,000 pairs.
    polys_a = build_objects(scale.io_objects, seed=31)
    polys_b = [p.translated(0.004, 0.004) for p in polys_a]
    base_pages, candidates = join_pages(polys_a, polys_b, 0, 4096)
    extra = APPROX_BYTES["5-C"] + APPROX_BYTES["MER"]
    enlarged_pages, _ = join_pages(polys_a, polys_b, extra, 4096)
    page_scale = PAPER_PAIRS / max(1, candidates)

    def evaluate():
        v1 = total_join_cost(
            JoinScenario(PAPER_PAIRS, 0.0, int(base_pages * page_scale), False),
            "version 1",
        )
        v2 = total_join_cost(
            JoinScenario(
                PAPER_PAIRS, rate, int(enlarged_pages * page_scale), False, True
            ),
            "version 2",
        )
        v3 = total_join_cost(
            JoinScenario(
                PAPER_PAIRS, rate, int(enlarged_pages * page_scale), True, True
            ),
            "version 3",
        )
        return v1, v2, v3

    v1, v2, v3 = benchmark.pedantic(evaluate, rounds=1, iterations=1)

    lines = [
        f"{'version':>10} {'MBR-join s':>11} {'obj access s':>13} "
        f"{'exact s':>9} {'total s':>9}"
    ]
    for v in (v1, v2, v3):
        lines.append(
            f"{v.label:>10} {v.mbr_join:>11.0f} {v.object_access:>13.0f} "
            f"{v.exact_test:>9.0f} {v.total:>9.0f}"
        )
    lines.append(
        f" measured filter identification rate: {rate:.0%} (paper: 46%)"
    )
    lines.append(
        f" v1/v2 = {v1.total / v2.total:.2f}x, v2/v3 = "
        f"{v2.total / v3.total:.2f}x, v1/v3 = {v1.total / v3.total:.2f}x"
    )
    lines.append(" (paper: v1 ~3200s, v2 ~1900s, v3 ~950s; v1/v3 > 3)")
    report.table("Fig 18", "total join performance, versions 1-3", lines)

    assert v1.total > v2.total > v3.total
    assert v1.total / v3.total > 3.0, "paper's >3x total speedup"
    # §5: in version 3, object access dominates the total execution time.
    assert v3.object_access > v3.exact_test
    assert v3.object_access > v3.mbr_join
