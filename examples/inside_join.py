"""Points-in-regions (INSIDE) join — [BG 90] through the multi-step lens.

"Which weather station lies in which county?"  A set of 2-D points is
joined against a polygon relation; the paper's related work calls this
the INSIDE join of geo-relational algebra.  Run through the multi-step
pipeline, the stored approximations decide most candidates without a
single exact point-in-polygon test:

* point inside the MER (progressive)  -> inside the region   (hit)
* point outside the 5-C (conservative)-> outside the region  (false hit)

Run:  python examples/inside_join.py
"""

import random

from repro.core.inside import (
    InsideJoinConfig,
    brute_force_inside_join,
    points_in_regions_join,
)
from repro.datasets.relations import europe


def main() -> None:
    counties = europe(size=120)
    rng = random.Random(1994)
    stations = [(rng.random(), rng.random()) for _ in range(500)]
    print(f"joining {len(stations)} points against {counties!r}")

    result = points_in_regions_join(stations, counties)
    stats = result.stats

    print(f"\nresult: {len(result)} (station, county) pairs")
    print("\n--- pipeline statistics ---")
    print(f"  R*-tree point probes:    {stats.probes}")
    print(f"  MBR candidates:          {stats.candidates}")
    print(f"  hits by MER test:        {stats.filter_hits}")
    print(f"  false hits by 5-C test:  {stats.filter_false_hits}")
    print(f"  exact point-in-polygon:  {stats.exact_tests}")
    print(f"  identification rate:     {stats.identification_rate:.0%}")

    # The filters change the cost, never the answer.
    bare = points_in_regions_join(
        stations,
        counties,
        InsideJoinConfig(conservative="none", progressive="none"),
    )
    assert sorted(bare.id_pairs()) == sorted(result.id_pairs())
    print(f"\nwithout filters: {bare.stats.exact_tests} exact tests "
          f"(vs {stats.exact_tests} with filters)")

    oracle = brute_force_inside_join(stations, counties)
    assert sorted(oracle) == sorted(result.id_pairs())
    print("oracle check passed: result equals nested-loops INSIDE join")

    stations_per_county = {}
    for _, obj in result.pairs:
        stations_per_county[obj.oid] = stations_per_county.get(obj.oid, 0) + 1
    busiest = sorted(
        stations_per_county.items(), key=lambda kv: -kv[1]
    )[:5]
    print("\ncounties with most stations:", busiest)


if __name__ == "__main__":
    main()
