"""Quickstart: run a multi-step spatial join end to end.

Builds the synthetic Europe relation, joins it with a shifted copy
(test-series strategy A of the paper) using the paper's recommended
filter — R*-tree MBR-join, 5-corner + MER geometric filter, then the
batched exact-geometry step — and prints what each step contributed.

Run:  python examples/quickstart.py
"""

from repro import FilterConfig, JoinConfig, SpatialJoinProcessor
from repro.datasets.relations import europe
from repro.datasets.testseries import strategy_a


def main() -> None:
    # A small Europe-like relation (120 county-shaped polygons) and its
    # shifted copy.  Drop `size` to run the paper-sized 810 objects.
    relation = europe(size=120)
    series = strategy_a(relation)
    print(f"joining {series.relation_a!r} with {series.relation_b!r}")

    processor = SpatialJoinProcessor(
        JoinConfig(filter=FilterConfig(conservative="5-C", progressive="MER"))
    )
    result = processor.join(series.relation_a, series.relation_b)
    stats = result.stats

    print(f"\nresult: {len(result)} intersecting pairs")
    print("\n--- step 1: MBR-join (R*-trees) ---")
    print(f"  candidate pairs:     {stats.candidate_pairs}")
    print(f"  MBR tests performed: {stats.mbr_join.mbr_tests}")
    print("\n--- step 2: geometric filter (5-C + MER) ---")
    print(f"  false hits eliminated: {stats.filter_false_hits}")
    print(f"  hits proven:           {stats.filter_hits}")
    print(f"  identification rate:   {stats.identification_rate():.0%}")
    print("\n--- step 3: exact geometry (batched edge tables) ---")
    print(f"  remaining candidates: {stats.remaining_candidates}")
    print(f"  exact hits:           {stats.exact_hits}")
    print(f"  exact false hits:     {stats.exact_false_hits}")
    print(f"  refinement batches:   {stats.refine_batches}")

    # Show a few result pairs.
    print("\nfirst result pairs (object ids):", result.id_pairs()[:8])


if __name__ == "__main__":
    main()
