"""Filter tuning: choosing approximations for a spatial-join workload.

Sweeps the geometric filter over all conservative/progressive
approximation combinations on one workload and reports, per
configuration, the share of candidate pairs it resolves and the storage
it costs per object — the §3 trade-off that leads the paper to the
5-corner + MER recommendation.

Run:  python examples/filter_tuning.py
"""

from repro import FilterConfig, JoinConfig, SpatialJoinProcessor
from repro.datasets.relations import europe
from repro.datasets.testseries import strategy_a

CONSERVATIVE = (None, "MBC", "RMBR", "5-C", "CH")
PROGRESSIVE = (None, "MEC", "MER")


def storage_parameters(relation, conservative, progressive):
    """Average stored parameters per object for a filter configuration."""
    sample = relation.objects[:25]
    total = 4.0  # the MBR itself is always stored
    for kind in (conservative, progressive):
        if kind is None:
            continue
        params = [obj.approximation(kind).num_parameters for obj in sample]
        total += sum(params) / len(params)
    return total


def main() -> None:
    series = strategy_a(europe(size=140))
    rel_a, rel_b = series.relation_a, series.relation_b
    print(f"workload: {series.name} ({len(rel_a)} x {len(rel_b)} objects)\n")

    print(
        f"{'conservative':>13} {'progressive':>12} {'params/obj':>11} "
        f"{'false hits ident.':>18} {'hits ident.':>12} {'resolved':>9}"
    )
    rows = []
    for cons in CONSERVATIVE:
        for prog in PROGRESSIVE:
            config = JoinConfig(
                filter=FilterConfig(conservative=cons, progressive=prog),
                exact_method="vectorized",
            )
            stats = SpatialJoinProcessor(config).join(rel_a, rel_b).stats
            params = storage_parameters(rel_a, cons, prog)
            resolved = stats.identification_rate()
            rows.append((cons, prog, params, resolved))
            print(
                f"{cons or '-':>13} {prog or '-':>12} {params:>11.0f} "
                f"{stats.filter_false_hits:>18} {stats.filter_hits:>12} "
                f"{resolved:>8.0%}"
            )

    # The paper's pick: best resolution for modest storage.
    best = max(rows, key=lambda r: r[3])
    print(
        f"\nbest resolution: conservative={best[0]}, progressive={best[1]} "
        f"({best[3]:.0%} resolved, {best[2]:.0f} parameters/object)"
    )
    print("paper's recommendation: 5-C + MER — near-top resolution at")
    print("a fraction of the convex hull's storage (§3.6)")


if __name__ == "__main__":
    main()
