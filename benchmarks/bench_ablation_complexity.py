"""Ablation: exact-step cost vs object complexity (simplification sweep).

Figure 16 of the paper shows the plane-sweep cost growing strongly with
the edge count of a pair while the TR*-tree cost barely moves.  This
ablation reruns that comparison on the *same shapes* at decreasing
complexity (Douglas-Peucker tolerances), isolating the edge-count effect
from shape effects — the cleanest test of §4.3's claim that the TR*-tree
advantage grows with object complexity.
"""

from repro.exact.costmodel import OperationCounter
from repro.exact.planesweep import polygons_intersect_planesweep
from repro.exact.trstar_test import build_trstar, polygons_intersect_trstar
from repro.geometry.simplify import simplify_polygon


def measure(pairs, tolerance):
    """(avg vertices, plane-sweep ms/pair, TR* ms/pair) at one tolerance."""
    sweep_cost = 0.0
    trstar_cost = 0.0
    vertex_sum = 0
    for poly_a, poly_b in pairs:
        if tolerance > 0:
            poly_a = simplify_polygon(poly_a, tolerance)
            poly_b = simplify_polygon(poly_b, tolerance)
        vertex_sum += poly_a.num_vertices + poly_b.num_vertices
        counter = OperationCounter()
        polygons_intersect_planesweep(poly_a, poly_b, counter)
        sweep_cost += counter.cost_ms()
        counter = OperationCounter()
        polygons_intersect_trstar(
            build_trstar(poly_a), build_trstar(poly_b), counter
        )
        trstar_cost += counter.cost_ms()
    n = max(len(pairs), 1)
    return vertex_sum / (2 * n), sweep_cost / n, trstar_cost / n


def test_ablation_complexity_sweep(benchmark, classified, report, scale):
    pairs = [
        (a.polygon, b.polygon)
        for a, b, _hit in classified("BW A")[: scale.exact_sample]
    ]

    tolerances = (0.0, 0.0005, 0.002, 0.008)
    rows = [measure(pairs, tol) for tol in tolerances]

    def run():
        return measure(pairs, 0.002)

    benchmark.pedantic(run, rounds=3, iterations=1)

    lines = [
        f" {'tolerance':>10} {'avg vertices':>13} {'sweep ms/pair':>14}"
        f" {'TR* ms/pair':>12} {'ratio':>7}"
    ]
    for tol, (verts, sweep, trstar) in zip(tolerances, rows):
        ratio = sweep / max(trstar, 1e-12)
        lines.append(
            f" {tol:>10.4f} {verts:>13.0f} {sweep:>14.2f}"
            f" {trstar:>12.2f} {ratio:>6.1f}x"
        )
    lines += [
        " (Fig. 16 generalised: lowering vertex counts shrinks the",
        "  plane-sweep cost sharply while the TR*-tree cost stays flat;",
        "  the TR* advantage grows with object complexity, §4.3)",
    ]
    report.table("Ablation G", "exact-step cost vs object complexity", lines)

    full_ratio = rows[0][1] / max(rows[0][2], 1e-12)
    coarse_ratio = rows[-1][1] / max(rows[-1][2], 1e-12)
    assert full_ratio >= coarse_ratio * 0.5, (
        "TR* advantage should not collapse at full complexity"
    )