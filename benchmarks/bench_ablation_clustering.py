"""Ablation: global clustering of exact geometry pages ([BK 94]).

The paper's closing observation is that after its CPU optimisations
"the major cost factor ... is the time spent for fetching objects from
disk into main memory", pointing to [BK 94] (global clustering) as
future work.  This bench quantifies that lever: the same join pair
sequence is replayed against object stores laid out in insertion order,
Hilbert order, z-order and random order, counting page misses through a
shared LRU buffer.
"""

from repro.core.join import SpatialJoinProcessor
from repro.index.clustering import compare_placements


def test_ablation_global_clustering(benchmark, series_cache, report):
    series = series_cache("Europe A")
    rel_a, rel_b = series.relation_a, series.relation_b
    pairs = SpatialJoinProcessor().join(rel_a, rel_b).id_pairs()

    def run():
        return compare_placements(
            rel_a, rel_b, pairs, page_size=2048, buffer_pages=32
        )

    reports = benchmark.pedantic(run, rounds=3, iterations=1)

    by_order = {r.order: r for r in reports}
    lines = [f" join result pairs: {len(pairs)}"]
    lines.append(f" {'placement':<11} {'page reads':>12} {'hit ratio':>10}")
    for order in ("random", "insertion", "zorder", "hilbert"):
        r = by_order[order]
        lines.append(
            f" {order:<11} {r.page_reads:>12} {100 * r.hit_ratio:>9.1f}%"
        )
    gain = by_order["random"].page_reads / max(by_order["hilbert"].page_reads, 1)
    lines += [
        f" Hilbert clustering reads {gain:.2f}x fewer pages than random",
        " ([BK 94] future work: object fetch dominates the optimised",
        "  join; global clustering is the remaining lever)",
    ]
    report.table("Ablation F", "global clustering of object pages", lines)

    assert by_order["hilbert"].page_reads <= by_order["random"].page_reads