"""Ablation: R*-tree MBR-join vs the Orenstein z-order sort-merge join.

The paper (§2.3) dismisses space-filling-curve sort-merge as a
candidate-set producer for *simple* objects and builds step 1 on the
R*-tree instead.  This ablation validates the choice: both backends
yield the identical candidate set, and the R*-tree needs far fewer
comparisons than the naive bound while the z-order join pays for its
grid redundancy.
"""

import time

from repro.index.join import JoinStats, rstar_join
from repro.index.zorder import build_zorder_indexes, zorder_mbr_join


def test_ablation_zorder_vs_rstar(benchmark, series_cache, report):
    series = series_cache("Europe A")
    items_a = series.relation_a.mbr_items()
    items_b = series.relation_b.mbr_items()

    tree_a = series.relation_a.build_rtree()
    tree_b = series.relation_b.build_rtree()
    stats = JoinStats()
    start = time.perf_counter()
    rstar_pairs = {
        (a.oid, b.oid) for a, b in rstar_join(tree_a, tree_b, stats=stats)
    }
    rstar_time = time.perf_counter() - start

    za, zb = build_zorder_indexes(items_a, items_b, max_cells=4)
    start = time.perf_counter()
    z_pairs = {(a.oid, b.oid) for a, b in zorder_mbr_join(za, zb)}
    z_time = time.perf_counter() - start

    assert z_pairs == rstar_pairs, "both step-1 backends must agree"

    def z_run():
        return sum(1 for _ in zorder_mbr_join(za, zb))

    benchmark.pedantic(z_run, rounds=3, iterations=1)

    naive = len(items_a) * len(items_b)
    lines = [
        f" candidate pairs: {len(rstar_pairs)} (identical for both backends)",
        f" R*-tree join:  {stats.mbr_tests} MBR tests "
        f"({100 * stats.mbr_tests / naive:.2f}% of nested loops), "
        f"{rstar_time * 1000:.0f} ms",
        f" z-order join:  {len(za) + len(zb)} intervals "
        f"({(len(za) + len(zb)) / (len(items_a) + len(items_b)):.1f} "
        f"cells/object), {z_time * 1000:.0f} ms",
        " (paper §2.3: curve-based sort-merge only produces candidates;",
        "  the R*-tree join is the step-1 method of choice)",
    ]
    report.table("Ablation C", "step-1 backends: R*-tree vs z-order", lines)

    assert stats.mbr_tests < 0.1 * naive
