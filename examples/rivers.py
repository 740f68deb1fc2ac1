"""Line-region join: which rivers cross which counties? (§2.2)

The paper's inventory of spatial attributes includes "line segments
representing rivers, railway tracks and highways".  This example
generates meandering rivers over the synthetic Europe relation and runs
the multi-step line-region join: R*-tree MBR-join, progressive
vertex-inside filter, exact segment tests for the rest.

Run:  python examples/rivers.py
"""

import math
import random

from repro.core.lineregion import LineJoinConfig, line_region_join
from repro.datasets.relations import europe
from repro.geometry.polyline import Polyline


def make_river(rng, steps=25, step_len=0.05):
    x, y = rng.random(), rng.random()
    heading = rng.uniform(0, 2 * math.pi)
    points = [(x, y)]
    for _ in range(steps):
        heading += rng.uniform(-0.6, 0.6)
        x += step_len * math.cos(heading)
        y += step_len * math.sin(heading)
        points.append((x, y))
    return Polyline(points)


def main() -> None:
    counties = europe(size=120)
    rng = random.Random(7)
    rivers = [make_river(rng) for _ in range(40)]
    total_length = sum(r.length() for r in rivers)
    print(f"{len(rivers)} rivers (total length {total_length:.2f}) "
          f"against {counties!r}")

    result = line_region_join(rivers, counties)
    stats = result.stats

    print(f"\nresult: {len(result)} (river, county) crossings")
    print("\n--- pipeline statistics ---")
    print(f"  MBR-join candidates:       {stats.candidates}")
    print(f"  proven by MER vertex test: {stats.filter_hits}")
    print(f"  exact segment tests:       {stats.exact_tests}")
    print(f"  identification rate:       {stats.identification_rate:.0%}")

    bare = line_region_join(rivers, counties, LineJoinConfig(progressive="none"))
    assert sorted(bare.id_pairs()) == sorted(result.id_pairs())
    print(f"\nwithout the filter: {bare.stats.exact_tests} exact tests "
          f"(vs {stats.exact_tests})")

    crossings_per_river = {}
    for river_idx, _ in result.pairs:
        crossings_per_river[river_idx] = crossings_per_river.get(river_idx, 0) + 1
    longest = max(range(len(rivers)), key=lambda i: rivers[i].length())
    print(f"\nlongest river (#{longest}, length "
          f"{rivers[longest].length():.2f}) crosses "
          f"{crossings_per_river.get(longest, 0)} counties")


if __name__ == "__main__":
    main()
