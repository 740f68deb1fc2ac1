"""Partitioned joins: the paper's §6 parallelism outlook, quantified.

Partitions the data space into processor tiles, runs the multi-step join
per tile (replication + reference-point deduplication) and reports the
achievable parallel speedup for growing degrees of declustering — the
experiment the paper defers to future work.

Run:  python examples/parallel_partitions.py
"""

from repro.core.join import JoinConfig, SpatialJoinProcessor
from repro.core.partition import partitioned_join
from repro.datasets.relations import europe
from repro.datasets.testseries import strategy_a


def main() -> None:
    series = strategy_a(europe(size=250))
    rel_a, rel_b = series.relation_a, series.relation_b
    print(f"workload: {series.name} ({len(rel_a)} x {len(rel_b)} objects)\n")

    config = JoinConfig(exact_method="vectorized")
    plain = SpatialJoinProcessor(config).join(rel_a, rel_b)
    print(
        f"plain join: {len(plain)} pairs, "
        f"{plain.stats.candidate_pairs} candidates\n"
    )

    print(f"{'grid':>7} {'tiles':>6} {'total work':>11} {'max tile':>9} "
          f"{'replication':>12} {'speedup bound':>14}")
    for grid in ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 4)):
        result = partitioned_join(rel_a, rel_b, grid=grid, config=config)
        assert set(result.id_pairs()) == set(plain.id_pairs())
        replication = result.stats.candidate_pairs / max(
            1, plain.stats.candidate_pairs
        )
        print(
            f"{grid[0]}x{grid[1]:<5} {grid[0] * grid[1]:>6} "
            f"{result.total_work:>11} {result.max_tile_work:>9} "
            f"{replication:>11.2f}x {result.parallel_speedup_bound():>13.2f}x"
        )

    print(
        "\nreplication (border objects joined in several tiles) grows with"
        "\nthe grid, but the speedup bound grows much faster — the paper's"
        "\nanticipated I/O- and CPU-parallelism pays off on tessellated maps."
    )


if __name__ == "__main__":
    main()
