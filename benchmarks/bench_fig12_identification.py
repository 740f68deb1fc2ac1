"""Figure 12: division of the BW A candidate set by the recommended filter.

Paper (5-corner test + MER test on BW A): 23% identified false hits,
23% identified hits, 10% non-identified false hits, 44% non-identified
hits — 46% of all candidate pairs resolved without exact geometry.
"""

from repro.approximations.base import approx_intersect

PAPER = {
    "identified false hits": 23,
    "identified hits": 23,
    "non-identified false hits": 10,
    "non-identified hits": 44,
}


def classify(pairs):
    counts = {k: 0 for k in PAPER}
    for obj_a, obj_b, hit in pairs:
        if hit:
            proven = approx_intersect(
                obj_a.approximation("MER"), obj_b.approximation("MER")
            )
            counts["identified hits" if proven else "non-identified hits"] += 1
        else:
            eliminated = not approx_intersect(
                obj_a.approximation("5-C"), obj_b.approximation("5-C")
            )
            key = (
                "identified false hits"
                if eliminated
                else "non-identified false hits"
            )
            counts[key] += 1
    return counts


def test_fig12_identification_split(benchmark, classified, report):
    pairs = classified("BW A")
    counts = benchmark.pedantic(lambda: classify(pairs), rounds=1, iterations=1)
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
