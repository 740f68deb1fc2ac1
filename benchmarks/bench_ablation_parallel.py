"""Ablation: simulated CPU/I-O parallel speedup of the partitioned join.

The paper's final sentence names CPU- and I/O-parallelism as future
work.  The partitioned join tiles the data space; this bench simulates
executing the tiles on 1-16 processors (LPT scheduling, §5 cost
constants) and reports the speedup curve and the skew-induced ceiling.
"""

from repro.core.parallel import simulate_parallel_join


def test_ablation_parallel_speedup(benchmark, series_cache, report):
    series = series_cache("Europe A")
    rel_a, rel_b = series.relation_a, series.relation_b
    processor_counts = (1, 2, 4, 8, 16)

    def run():
        return simulate_parallel_join(
            rel_a, rel_b, grid=(6, 6), processor_counts=processor_counts
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)

    lines = [
        f" tiles: 6x6 = 36, result pairs: {len(result.result)}",
        f" {'processors':>10} {'speedup':>9} {'efficiency':>11} {'imbalance':>10}",
    ]
    for p, sim in result.simulations:
        lines.append(
            f" {p:>10} {sim.speedup:>8.2f}x {sim.efficiency:>10.0%}"
            f" {sim.imbalance:>9.2f}x"
        )
    bound = result.result.parallel_speedup_bound()
    lines += [
        f" work-balance speedup bound (1 cpu/tile): {bound:.1f}x",
        " (§6 outlook quantified: tile skew on cartographic data caps",
        "  the speedup well below the processor count)",
    ]
    report.table("Ablation H", "simulated CPU/I-O parallel join", lines)

    speedups = [sim.speedup for _, sim in result.simulations]
    assert speedups == sorted(speedups)
    assert speedups[-1] > 1.5