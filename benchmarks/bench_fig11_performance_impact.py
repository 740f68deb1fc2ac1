"""Figure 11: total performance change from storing extra approximations.

Paper model (§3.5): the larger leaf entries make the MBR-join itself
costlier ('loss'), but every candidate pair identified by the geometric
filter saves one object page access ('gain', a deliberately cautious
estimate).  The gains dwarf the losses for both the RMBR and the 5-C.
"""

from bench_fig10_storage_approaches import BUFFER_BYTES, build_objects
from repro.approximations.base import approx_intersect
from repro.core.costs import approximation_impact
from repro.index.join import rstar_join
from repro.index.pagemodel import (
    APPROX_BYTES,
    AccessCounter,
    LRUBuffer,
    PageLayout,
)
from repro.index.rstar import RStarTree

PAGE_SIZES = (2048, 4096)
CONFIGS = ("RMBR", "5-C")  # conservative approx; MER always added (paper)


def join_pages(polys_a, polys_b, extra_leaf_bytes, page_size):
    layout = PageLayout(
        page_size=page_size, key_bytes=16, extra_leaf_bytes=extra_leaf_bytes
    )
    items_a = [(p.mbr(), i) for i, p in enumerate(polys_a)]
    items_b = [(p.mbr(), i) for i, p in enumerate(polys_b)]
    ta = RStarTree.bulk_load(
        items_a,
        max_entries=layout.leaf_capacity(),
        directory_max=layout.directory_capacity(),
    )
    tb = RStarTree.bulk_load(
        items_b,
        max_entries=layout.leaf_capacity(),
        directory_max=layout.directory_capacity(),
    )
    buf = LRUBuffer(layout.buffer_pages(BUFFER_BYTES))
    ca, cb = AccessCounter(buffer=buf), AccessCounter(buffer=buf)
    pairs = sum(1 for _ in rstar_join(ta, tb, ca, cb))
    return ca.page_reads + cb.page_reads, pairs


def identification_rate(classified_pairs, conservative):
    identified = 0
    for obj_a, obj_b, hit in classified_pairs:
        if hit:
            if approx_intersect(
                obj_a.approximation("MER"), obj_b.approximation("MER")
            ):
                identified += 1
        else:
            if not approx_intersect(
                obj_a.approximation(conservative), obj_b.approximation(conservative)
            ):
                identified += 1
    return identified / max(1, len(classified_pairs))


def test_fig11_performance_impact(benchmark, scale, classified, report):
    polys_a = build_objects(scale.io_objects, seed=31)
    polys_b = [p.translated(0.004, 0.004) for p in polys_a]
    pairs_meta = classified("Europe A")

    lines = [
        f"{'page':>5} {'approx':>6} {'loss':>7} {'gain':>7} {'total':>7}"
    ]
    totals = []

    def run():
        for page_size in PAGE_SIZES:
            base_pages, candidates = join_pages(polys_a, polys_b, 0, page_size)
            for kind in CONFIGS:
                extra = APPROX_BYTES[kind] + APPROX_BYTES["MER"]
                enlarged_pages, _ = join_pages(polys_a, polys_b, extra, page_size)
                rate = identification_rate(pairs_meta, kind)
                impact = approximation_impact(
                    base_pages, enlarged_pages, int(rate * candidates)
                )
                totals.append(impact.total_gain_pages)
                lines.append(
                    f"{page_size // 1024:>4}K {kind:>6} {impact.loss_pages:>7} "
                    f"{impact.gain_pages:>7} {impact.total_gain_pages:>+7}"
                )
        return totals

    benchmark.pedantic(run, rounds=1, iterations=1)
    lines.append(" (paper: gains far exceed the MBR-join losses)")
    report.table("Fig 11", "page-access impact of stored approximations", lines)

    # Headline claim: net gain positive for every configuration.
    for total in totals:
        assert total > 0, f"net page gain should be positive, got {total}"
