"""Figure 10: I/O cost of storing the approximation *in addition to* the
MBR (approach 2) vs *instead of* the MBR (approach 1).

Paper: only slight differences, small advantages for approach 1 on pure
I/O — but approach 2 wins overall because testing the approximation
directly costs ~30x more CPU (§3.4); the paper therefore recommends
approach 2.

We rebuild the experiment at reduced scale (paper: 130,000 objects; see
DESIGN.md substitutions): approach 1 keys are the approximations' own
bounding boxes (higher area extension), approach 2 keys are object MBRs
with larger leaf entries (lower page capacity).
"""

import random

from repro.approximations.factory import compute_approximation
from repro.datasets.generators import cartographic_polygons
from repro.geometry.rectangle import Rect
from repro.index.join import rstar_join
from repro.index.pagemodel import (
    APPROX_BYTES,
    AccessCounter,
    LRUBuffer,
    PageLayout,
)
from repro.index.rstar import RStarTree

KINDS = ("RMBR", "5-C")
PAGE_SIZES = (2048, 4096)
BUFFER_BYTES = 128 * 1024


def build_objects(n, seed):
    polys = cartographic_polygons(
        n_objects=n, mean_vertices=16, min_vertices=6, max_vertices=40, seed=seed
    )
    return polys


def tree_for(polys, kind, approach, page_size):
    extra = APPROX_BYTES[kind]
    if approach == 1:
        layout = PageLayout(page_size=page_size, key_bytes=extra, extra_leaf_bytes=0)
        items = []
        for i, poly in enumerate(polys):
            approx = compute_approximation(poly, kind)
            items.append((approx.mbr(), i))
    else:
        layout = PageLayout(page_size=page_size, key_bytes=16, extra_leaf_bytes=extra)
        items = [(poly.mbr(), i) for i, poly in enumerate(polys)]
    tree = RStarTree.bulk_load(
        items,
        max_entries=layout.leaf_capacity(),
        directory_max=layout.directory_capacity(),
    )
    return tree, layout


def run_workloads(tree, layout, join_partner=None):
    """Page accesses of point / window(1%) / window(5%) / join workloads."""
    rng = random.Random(99)
    results = {}
    for label, extent in (("point", 0.0), ("window 1%", 0.01), ("window 5%", 0.05)):
        buf = LRUBuffer(layout.buffer_pages(BUFFER_BYTES))
        counter = AccessCounter(buffer=buf)
        for _ in range(200):
            x = rng.random() * (1 - extent)
            y = rng.random() * (1 - extent)
            tree.window_query(Rect(x, y, x + extent, y + extent), counter)
        results[label] = counter.page_reads
    if join_partner is not None:
        buf = LRUBuffer(layout.buffer_pages(BUFFER_BYTES))
        ca = AccessCounter(buffer=buf)
        cb = AccessCounter(buffer=buf)
        for _ in rstar_join(tree, join_partner, ca, cb):
            pass
        results["join"] = ca.page_reads + cb.page_reads
    return results


def test_fig10_storage_approaches(benchmark, scale, report):
    n = scale.io_objects
    polys_a = build_objects(n, seed=31)
    polys_b = [p.translated(0.004, 0.004) for p in polys_a]

    lines = [
        f"{'page':>5} {'approx':>6} {'workload':>10} {'appr.1':>8} "
        f"{'appr.2':>8} {'2 vs 1':>7}"
    ]
    ratios = []

    def run_all():
        for page_size in PAGE_SIZES:
            for kind in KINDS:
                t1, l1 = tree_for(polys_a, kind, 1, page_size)
                t2, l2 = tree_for(polys_a, kind, 2, page_size)
                j1, _ = tree_for(polys_b, kind, 1, page_size)
                j2, _ = tree_for(polys_b, kind, 2, page_size)
                r1 = run_workloads(t1, l1, join_partner=j1)
                r2 = run_workloads(t2, l2, join_partner=j2)
                for workload in ("point", "window 1%", "window 5%", "join"):
                    pct = 100.0 * r2[workload] / max(1, r1[workload])
                    ratios.append(pct)
                    lines.append(
                        f"{page_size // 1024:>4}K {kind:>6} {workload:>10} "
                        f"{r1[workload]:>8} {r2[workload]:>8} {pct:>6.0f}%"
                    )
        return ratios

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    lines.append(" (paper: ratios near 100%, slight advantage for approach 1)")
    report.table("Fig 10", "approach 2 I/O relative to approach 1", lines)

    # Shape: the two approaches stay within the same I/O regime
    # (paper shows 80-140%); neither dominates by an order of magnitude.
    avg = sum(ratios) / len(ratios)
    assert 60.0 <= avg <= 200.0, f"average ratio {avg:.0f}%"
