"""Proximity analysis with the multi-step within-distance join.

"Find every forest within 2 km of a city" is the distance-predicate
variant of the paper's motivating query.  The same three-step shape
applies: an expanded MBR-join, circle-bound filtering (conservative
circles lower-bound distance, enclosed circles upper-bound it), and
exact edge-to-edge distance only for the survivors.

Run:  python examples/distance_join.py
"""

from repro.core.distance import brute_force_distance_join
from repro.core.join import JoinConfig, SpatialJoinProcessor
from repro.datasets.relations import europe
from repro.index.knn import knn_query


def main() -> None:
    cities = europe(size=70)
    forests = europe(seed=99, size=70)
    epsilon = 0.02  # data space is ~1x1; think "2 km" on a 100 km map

    print(f"within-distance join, epsilon = {epsilon}")
    config = JoinConfig(predicate="distance", epsilon=epsilon)
    result = SpatialJoinProcessor(config).join(cities, forests)
    stats = result.stats

    print(f"\nresult: {len(result)} pairs within distance {epsilon}")
    print("\n--- pipeline statistics ---")
    print(f"  expanded-MBR candidates: {stats.candidate_pairs}")
    print(f"  false hits by MBC bound: {stats.filter_false_hits}")
    print(f"  hits by MEC bound:       {stats.filter_hits}")
    print(f"  exact distance tests:    {stats.remaining_candidates}")

    # How much work did the circle bounds save?
    settled = stats.filter_hits + stats.filter_false_hits
    if stats.candidate_pairs:
        print(f"  settled without exact geometry: "
              f"{settled / stats.candidate_pairs:.0%}")

    # The nested-loops oracle gives the same answer.  Without circle
    # bounds every candidate would reach the exact step.
    assert sorted(result.id_pairs()) == sorted(
        brute_force_distance_join(cities, forests, epsilon)
    )
    print(f"\nwithout circle filters the exact step runs "
          f"{stats.candidate_pairs} tests "
          f"(vs {stats.remaining_candidates} with filters)")

    # Bonus: nearest-neighbour queries on the same index machinery.
    tree = cities.build_rtree()
    centre = (0.5, 0.5)
    print("\n5 nearest cities to the map centre (MINDIST to MBR):")
    for dist, row in knn_query(tree, centre, 5):
        print(f"  city {cities.objects[row].oid:>4}  mindist={dist:.5f}")


if __name__ == "__main__":
    main()
