"""Figure 16: cost of intersecting one polygon pair vs its edge count.

Paper (BW A): the plane-sweep cost grows strongly with n1+n2; the
TR*-tree cost shows only a weak dependency on the edge count (other
properties, presumably overlap, dominate).
"""

import numpy as np

from repro.exact.costmodel import OperationCounter
from repro.exact.planesweep import polygons_intersect_planesweep
from repro.exact.trstar_test import polygons_intersect_trstar


def collect_points(pairs, limit):
    points = []
    for obj_a, obj_b, _hit in pairs[:limit]:
        edges = obj_a.polygon.num_edges + obj_b.polygon.num_edges
        sweep_counter = OperationCounter()
        polygons_intersect_planesweep(
            obj_a.polygon, obj_b.polygon, sweep_counter
        )
        tr_counter = OperationCounter()
        polygons_intersect_trstar(obj_a.trstar(3), obj_b.trstar(3), tr_counter)
        points.append((edges, sweep_counter.cost_ms(), tr_counter.cost_ms()))
    return points


def test_fig16_cost_vs_edge_count(benchmark, scale, classified, report):
    pairs = classified("BW A")
    limit = 60 if scale.name == "full" else 20
    points = benchmark.pedantic(
        lambda: collect_points(pairs, limit), rounds=1, iterations=1
    )

    edges = np.array([p[0] for p in points], dtype=float)
    sweep = np.array([p[1] for p in points])
    tr = np.array([p[2] for p in points])

    # Binned series, like the paper's two scatter plots.
    lines = [f"{'edges (n1+n2)':>14} {'sweep ms':>9} {'TR* ms':>7} {'pairs':>6}"]
    order = np.argsort(edges)
    for chunk in np.array_split(order, min(6, len(order))):
        if len(chunk) == 0:
            continue
        lines.append(
            f"{edges[chunk].mean():>14.0f} {sweep[chunk].mean():>9.1f} "
            f"{tr[chunk].mean():>7.2f} {len(chunk):>6}"
        )
    corr_sweep = float(np.corrcoef(edges, sweep)[0, 1])
    corr_tr = float(np.corrcoef(edges, tr)[0, 1]) if tr.std() > 0 else 0.0
    lines.append(
        f" correlation(edges, cost): sweep {corr_sweep:+.2f}, TR* {corr_tr:+.2f}"
    )
    lines.append(" (paper: strong dependency for the sweep, weak for TR*)")
    report.table("Fig 16", "cost per pair vs edge count (BW A)", lines)

    assert corr_sweep > 0.5, f"plane sweep should scale with edges ({corr_sweep:.2f})"
    assert corr_tr < corr_sweep, "TR* should depend less on the edge count"
