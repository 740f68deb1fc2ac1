"""Figure 17: TR*-tree performance for node capacities M = 3, 4, 5.

Paper (BW A): both the number of rectangle intersection tests and the
number of trapezoid intersection tests are lowest for M = 3 — small
nodes beat better space partitioning in main memory.
"""

from repro.index.trstar import TRJoinCounters, trstar_trees_intersect

CAPACITIES = (3, 4, 5)


def count_tests(pairs, max_entries, limit):
    counters = TRJoinCounters()
    for obj_a, obj_b, _hit in pairs[:limit]:
        trstar_trees_intersect(
            obj_a.trstar(max_entries), obj_b.trstar(max_entries), counters
        )
    return counters.rect_tests, counters.trapezoid_tests


def test_fig17_node_capacity(benchmark, scale, classified, report):
    pairs = classified("BW A")
    limit = 80 if scale.name == "full" else 25

    results = {}
    for m in CAPACITIES:
        results[m] = count_tests(pairs, m, limit)

    benchmark.pedantic(
        lambda: count_tests(pairs, 3, min(10, limit)), rounds=2, iterations=1
    )

    lines = [f"{'M':>3} {'# rect tests':>13} {'# trapezoid tests':>18}"]
    for m in CAPACITIES:
        lines.append(f"{m:>3} {results[m][0]:>13} {results[m][1]:>18}")
    lines.append(" (paper: both counts minimal for M = 3)")
    report.table("Fig 17", "TR*-tree tests for different capacities", lines)

    # Headline: M = 3 does not lose to larger capacities on either count
    # (small tolerance for the rect tests, which are nearly flat).
    assert results[3][1] <= results[4][1] * 1.1
    assert results[3][1] <= results[5][1] * 1.1
    assert results[3][0] <= results[5][0] * 1.25
