"""Ablation: geometric-filter test order (conservative vs progressive first).

The paper always tests the conservative approximation first.  Because
roughly two thirds of the candidates are hits (Table 2), testing the
progressive approximation first resolves more pairs with the *first*
test — but both orders classify identically (DESIGN.md invariant 7) and
identify exactly the same pair set.
"""

from repro.core.filters import FilterConfig, FilterOutcome, geometric_filter
from repro.core.stats import MultiStepStats


def run_filter(pairs, config):
    stats = MultiStepStats()
    outcomes = []
    for obj_a, obj_b, _hit in pairs:
        outcomes.append(geometric_filter(obj_a, obj_b, config, stats))
    return outcomes, stats


def test_ablation_filter_order(benchmark, classified, report):
    pairs = classified("Europe A")

    cons_first, stats_cons = benchmark.pedantic(
        lambda: run_filter(pairs, FilterConfig()), rounds=1, iterations=1
    )
    prog_first, stats_prog = run_filter(
        pairs, FilterConfig(progressive_first=True)
    )

    assert cons_first == prog_first, "order must not change classifications"

    tests_cons = stats_cons.conservative_tests + stats_cons.progressive_tests
    tests_prog = stats_prog.conservative_tests + stats_prog.progressive_tests
    resolved = sum(1 for o in cons_first if o is not FilterOutcome.CANDIDATE)

    lines = [
        f" candidate pairs: {len(pairs)}, resolved by filter: {resolved}",
        f" conservative-first: {tests_cons} approximation tests "
        f"({stats_cons.conservative_tests} cons + "
        f"{stats_cons.progressive_tests} prog)",
        f" progressive-first:  {tests_prog} approximation tests "
        f"({stats_prog.conservative_tests} cons + "
        f"{stats_prog.progressive_tests} prog)",
        " (identical classifications; hit-heavy workloads favour testing",
        "  the progressive approximation first, false-hit-heavy ones the",
        "  conservative first — the paper's data is hit-heavy)",
    ]
    report.table("Ablation B", "geometric filter test order", lines)

    assert stats_cons.filter_false_hits == stats_prog.filter_false_hits
    assert stats_cons.filter_hits == stats_prog.filter_hits
