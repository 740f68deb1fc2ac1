"""Ablation (§4.1): plane sweep with vs. without search-space restriction.

Paper: restricting the sweep to the intersection rectangle of the two
MBRs saves about 40% of the cost, and makes identifying a false hit
about as cheap as identifying a hit (without restriction it is ~2.3x
costlier).
"""

from repro.exact.costmodel import OperationCounter
from repro.exact.planesweep import polygons_intersect_planesweep


def sweep_cost(pairs, restrict, limit):
    counter = OperationCounter()
    for obj_a, obj_b, _hit in pairs[:limit]:
        polygons_intersect_planesweep(
            obj_a.polygon,
            obj_b.polygon,
            counter,
            restrict_search_space=restrict,
        )
    return counter.cost_ms()


def test_ablation_search_space_restriction(benchmark, scale, classified, report):
    pairs = classified("BW A")
    limit = 60 if scale.name == "full" else 20

    with_restriction = benchmark.pedantic(
        lambda: sweep_cost(pairs, True, limit), rounds=1, iterations=1
    )
    without_restriction = sweep_cost(pairs, False, limit)
    saving = 1.0 - with_restriction / without_restriction

    # False-hit vs hit cost asymmetry without restriction.
    falses = [(a, b, h) for a, b, h in pairs if not h][:20]
    hits = [(a, b, h) for a, b, h in pairs if h][:20]
    ratio_without = sweep_cost(falses, False, 20) / max(
        sweep_cost(hits, False, 20), 1e-9
    )
    ratio_with = sweep_cost(falses, True, 20) / max(
        sweep_cost(hits, True, 20), 1e-9
    )

    lines = [
        f" cost with restriction:    {with_restriction:>9.1f} ms",
        f" cost without restriction: {without_restriction:>9.1f} ms",
        f" saving: {saving:.0%}   (paper: ~40%)",
        f" false-hit/hit cost ratio: {ratio_with:.2f} with, "
        f"{ratio_without:.2f} without (paper: ~1.0 vs ~2.3)",
    ]
    report.table("Ablation A", "plane-sweep search-space restriction", lines)

    assert with_restriction < without_restriction, "restriction must help"
    assert saving >= 0.1, f"saving only {saving:.0%}"
    assert ratio_with < ratio_without + 0.3
