"""Table 2: candidate pairs of the MBR-join split into hits / false hits.

Paper values — Europe A: 1858/1273/585, Europe B: 4816/3203/1613,
BW A: 2253/1504/749, BW B: 2562/1684/878.  The headline claim: about one
third of the MBR-join output are false hits.
"""

from repro.index.join import JoinStats, rstar_join


SERIES = ("Europe A", "Europe B", "BW A", "BW B")
PAPER = {
    "Europe A": (1858, 1273, 585),
    "Europe B": (4816, 3203, 1613),
    "BW A": (2253, 1504, 749),
    "BW B": (2562, 1684, 878),
}


def test_table2_series_composition(benchmark, series_cache, classified, report):
    lines = [
        f"{'series':>10} {'# MBR pairs':>12} {'# hits':>8} {'# false':>8} "
        f"{'false %':>8}"
    ]
    results = {}
    for name in SERIES:
        pairs = classified(name)
        hits = sum(1 for _a, _b, h in pairs if h)
        false_hits = len(pairs) - hits
        results[name] = (len(pairs), hits, false_hits)
        lines.append(
            f"{name:>10} {len(pairs):>12} {hits:>8} {false_hits:>8} "
            f"{100 * false_hits / max(1, len(pairs)):>7.0f}%"
        )
        p = PAPER[name]
        lines.append(
            f"{'(paper)':>10} {p[0]:>12} {p[1]:>8} {p[2]:>8} "
            f"{100 * p[2] / p[0]:>7.0f}%"
        )
    report.table("Table 2", "test series for approximation joins", lines)

    # Time the step-1 machinery itself: the R*-tree MBR join.
    series = series_cache("Europe A")
    tree_a = series.relation_a.build_rtree()
    tree_b = series.relation_b.build_rtree()

    def run_join():
        stats = JoinStats()
        return sum(1 for _ in rstar_join(tree_a, tree_b, stats=stats))

    count = benchmark.pedantic(run_join, rounds=3, iterations=1)
    assert count == results["Europe A"][0]

    # Shape: false-hit share near one third for every series.
    for name, (total, _hits, false_hits) in results.items():
        share = false_hits / total
        assert 0.15 <= share <= 0.50, f"{name}: false-hit share {share:.2f}"
