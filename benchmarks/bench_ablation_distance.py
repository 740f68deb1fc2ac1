"""Ablation: the multi-step shape transfers to the distance predicate.

Section 2.2 of the paper: "many of the results can easily be transferred
to spatial joins using other spatial predicates".  This bench runs the
within-distance join across a threshold sweep and reports how much of
the candidate set the circle-bound filters settle without exact
geometry — the distance-predicate analogue of Figure 12.
"""

from repro.core.distance import brute_force_distance_join
from repro.core.join import JoinConfig, SpatialJoinProcessor


def _distance_join(rel_a, rel_b, epsilon):
    config = JoinConfig(predicate="distance", epsilon=epsilon)
    return SpatialJoinProcessor(config).join(rel_a, rel_b)


def test_ablation_distance_filters(benchmark, series_cache, report):
    series = series_cache("Europe A")
    rel_a, rel_b = series.relation_a, series.relation_b
    epsilons = (0.0, 0.005, 0.02, 0.05)

    rows = []
    for eps in epsilons:
        result = _distance_join(rel_a, rel_b, eps)
        stats = result.stats
        settled = stats.filter_hits + stats.filter_false_hits
        rows.append((eps, stats.candidate_pairs, settled, len(result)))

    def run():
        return _distance_join(rel_a, rel_b, 0.02)

    benchmark.pedantic(run, rounds=3, iterations=1)

    # The filters must not change the result (spot-check one epsilon
    # against the nested-loops oracle).
    filtered = _distance_join(rel_a, rel_b, 0.02)
    assert sorted(filtered.id_pairs()) == sorted(
        brute_force_distance_join(rel_a, rel_b, 0.02)
    )

    lines = [
        f" {'epsilon':>8} {'candidates':>11} {'settled by filter':>18}"
        f" {'result pairs':>13}"
    ]
    for eps, candidates, settled, pairs in rows:
        rate = settled / candidates if candidates else 0.0
        lines.append(
            f" {eps:>8.3f} {candidates:>11} {settled:>12} ({rate:>4.0%})"
            f" {pairs:>13}"
        )
    lines += [
        " (the conservative/progressive bound asymmetry of §3 carries",
        "  over: MBC distance lower-bounds, MEC distance upper-bounds)",
    ]
    report.table("Ablation I", "distance-join filter effectiveness", lines)