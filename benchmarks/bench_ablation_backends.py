"""Ablation: step-1 MBR-join backends beyond the paper's R*-tree.

The paper (§2.4) notes that "instead of R*-trees, any other spatial
access methods such as R+-trees [SRF 87] or approaches based on space
filling curves [Fal 88, Jag 90b] might be considered for implementing
the MBR-join".  This ablation runs all implemented backends on the same
series and checks they produce the identical candidate set:

* R*-tree synchronized join ([BKS 93a], the paper's choice)
* Hilbert-packed R-tree with the same synchronized join
* R+-tree synchronized join ([SRF 87])
* sort-merge plane sweep on xmin (index-free)
"""

import time

from repro.index.hilbert import hilbert_pack_rtree, sweep_mbr_join
from repro.index.join import JoinStats, rstar_join
from repro.index.rplus import RPlusTree, rplus_mbr_join


def test_ablation_step1_backends(benchmark, series_cache, report):
    series = series_cache("Europe A")
    items_a = series.relation_a.mbr_items()
    items_b = series.relation_b.mbr_items()

    timings = {}

    # R*-tree (dynamic insertion); its leaf items are row indices
    tree_a = series.relation_a.build_rtree()
    tree_b = series.relation_b.build_rtree()
    objects_a, objects_b = series.relation_a.objects, series.relation_b.objects
    stats = JoinStats()
    start = time.perf_counter()
    reference = {
        (objects_a[a].oid, objects_b[b].oid)
        for a, b in rstar_join(tree_a, tree_b, stats=stats)
    }
    timings["R*-tree join"] = time.perf_counter() - start

    # Hilbert-packed R-tree
    packed_a = hilbert_pack_rtree(items_a)
    packed_b = hilbert_pack_rtree(items_b)
    start = time.perf_counter()
    packed_pairs = {(a.oid, b.oid) for a, b in rstar_join(packed_a, packed_b)}
    timings["Hilbert-packed join"] = time.perf_counter() - start

    # R+-tree
    rplus_a = RPlusTree.bulk_load(items_a)
    rplus_b = RPlusTree.bulk_load(items_b)
    start = time.perf_counter()
    rplus_pairs = {(a.oid, b.oid) for a, b in rplus_mbr_join(rplus_a, rplus_b)}
    timings["R+-tree join"] = time.perf_counter() - start

    # index-free sweep
    start = time.perf_counter()
    sweep_pairs = {(a.oid, b.oid) for a, b in sweep_mbr_join(items_a, items_b)}
    timings["xmin-sweep join"] = time.perf_counter() - start

    assert packed_pairs == reference, "Hilbert-packed backend must agree"
    assert rplus_pairs == reference, "R+-tree backend must agree"
    assert sweep_pairs == reference, "sweep backend must agree"

    def run_reference():
        return sum(1 for _ in rstar_join(tree_a, tree_b))

    benchmark.pedantic(run_reference, rounds=3, iterations=1)

    dup = rplus_a.duplication_factor()
    lines = [f" candidate pairs: {len(reference)} (identical for all backends)"]
    for name, seconds in timings.items():
        lines.append(f" {name:<22} {seconds * 1000:8.0f} ms")
    lines += [
        f" R+-tree duplication factor: {dup:.2f} physical entries/object",
        " (paper §2.4: the MBR-join backend is exchangeable; the",
        "  candidate set, and hence steps 2-3, are backend-independent)",
    ]
    report.table("Ablation D", "step-1 backends: R* / Hilbert / R+ / sweep", lines)
