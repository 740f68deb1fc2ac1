"""Map overlay: the GIS workload that motivates the paper's introduction.

"Find all forests which are in a city": two thematic layers — synthetic
municipalities ("cities") and synthetic vegetation patches ("forests")
— are joined with the intersection predicate, and the result is grouped
per city, exactly the building block a GIS map-overlay operator needs.

The example also contrasts the join without and with the geometric
filter on the same workload (the first step of the paper's §5 story),
over the one batched exact step.  The paper's exact processors (plane
sweep, TR*-tree) are compared in ``benchmarks/bench_table7_exact_cost.py``
and ``benchmarks/bench_fig16_cost_vs_edges.py``.

Run:  python examples/map_overlay.py
"""

import time

from repro import FilterConfig, JoinConfig, SpatialJoinProcessor
from repro.core.filters import NO_FILTER
from repro.datasets.generators import cartographic_polygons
from repro.datasets.relations import SpatialRelation


def build_layers():
    """Two thematic layers over the same unit data space."""
    cities = SpatialRelation(
        "Cities",
        cartographic_polygons(
            n_objects=90, mean_vertices=60, coverage=0.8, seed=2024
        ),
    )
    # Forests: smaller, patchier polygons scattered over the same space.
    forests = SpatialRelation(
        "Forests",
        [
            poly.scaled(0.55)
            for poly in cartographic_polygons(
                n_objects=220, mean_vertices=40, coverage=0.9, seed=77
            )
        ],
    )
    return cities, forests


def overlay(cities, forests, config, label):
    processor = SpatialJoinProcessor(config)
    start = time.perf_counter()
    result = processor.join(forests, cities)
    elapsed = time.perf_counter() - start
    stats = result.stats
    print(
        f"{label:28s} {elapsed * 1e3:6.1f} ms  pairs={len(result):4d}  "
        f"filter identified {stats.identification_rate():4.0%}  "
        f"exact tests {stats.remaining_candidates:4d}"
    )
    return result


def main() -> None:
    cities, forests = build_layers()
    print(f"{cities!r}\n{forests!r}\n")

    # Preprocessing happens at object-insertion time in the paper's
    # architecture (approximations live in the SAM), so it is paid once
    # here, before the joins are timed: approximations, R*-trees and
    # the edge tables the exact step reads.
    print("preprocessing layers (approximations, R*-trees, edge tables)...")
    start = time.perf_counter()
    for layer in (cities, forests):
        layer.precompute_approximations(["5-C", "MER"])
        layer.rtree(JoinConfig().rtree_max_entries)
        layer.columnar().ring_geometry()
    print(f"  done in {time.perf_counter() - start:.1f}s\n")

    # Without and with the geometric filter (batched engine), over the
    # one exact step.
    print("configuration                   time      result     filter"
          "                exact")
    overlay(
        cities,
        forests,
        JoinConfig(filter=NO_FILTER, engine="batched"),
        "filter off: MBR-join only",
    )
    result = overlay(
        cities,
        forests,
        JoinConfig(filter=FilterConfig(), engine="batched"),
        "filter on: 5-C/MER",
    )

    # Group the overlay result per city, like a GIS operator would.
    per_city = {}
    for forest, city in result.pairs:
        per_city.setdefault(city.oid, []).append(forest.oid)
    busiest = sorted(per_city.items(), key=lambda kv: -len(kv[1]))[:5]
    print("\ncities intersecting the most forests:")
    for city_id, forest_ids in busiest:
        print(f"  city {city_id:3d}: {len(forest_ids)} forests "
              f"(e.g. {forest_ids[:6]})")

    # The paper's literal query is an *inclusion* join: "find all forests
    # which are in a city".  Same pipeline, predicate='within'.
    within = SpatialJoinProcessor(
        JoinConfig(predicate="within", filter=FilterConfig())
    ).join(forests, cities)
    fully_inside = {f.oid for f, _c in within.pairs}
    print(
        f"\nforests fully inside a city: {len(fully_inside)} of "
        f"{len(forests)} (vs {len({f.oid for f, _ in result.pairs})} "
        f"merely intersecting one)"
    )


if __name__ == "__main__":
    main()
