"""Figure 8: approximation quality of the progressive approximations.

Paper: the enclosed circle covers 42% of the polygon area on average,
the enclosed rectangle 43-45% — pleasantly high for 3-4 parameters.
"""

import time

from repro.approximations.quality import progressive_coverage
from repro.datasets.relations import bw, europe

PAPER = {"Europe": {"MEC": 0.42, "MER": 0.43}, "BW": {"MEC": 0.42, "MER": 0.45}}


def test_fig8_progressive_coverage(benchmark, scale, report):
    eu = europe(size=scale.europe_size)
    b = bw(size=scale.bw_size)

    coverage = {}
    for name, rel in (("Europe", eu), ("BW", b)):
        coverage[name] = {}
        for kind in ("MEC", "MER"):
            vals = [
                progressive_coverage(o.polygon, o.approximation(kind))
                for o in rel
            ]
            coverage[name][kind] = sum(vals) / len(vals)

    lines = [f"{'relation':>10} {'MEC':>7} {'MER':>7}"]
    for name in ("Europe", "BW"):
        lines.append(
            f"{name:>10} {coverage[name]['MEC']:>7.2f} "
            f"{coverage[name]['MER']:>7.2f}"
        )
        lines.append(
            f"{'(paper)':>10} {PAPER[name]['MEC']:>7.2f} "
            f"{PAPER[name]['MER']:>7.2f}"
        )
    build_ms = {}

    def construct():
        # MER one object at a time; MEC for the whole relation at once,
        # through the get-or-build point of a fresh column store (ring
        # packing and edge table included).
        from repro.approximations.factory import compute_approximation
        from repro.datasets.columnar import ColumnarRelation

        start = time.perf_counter()
        mers = [
            compute_approximation(o.polygon, "MER") for o in eu.objects[:25]
        ]
        build_ms["MER"] = (time.perf_counter() - start) * 1e3 / 25
        start = time.perf_counter()
        mecs = ColumnarRelation(eu).approx("MEC")
        build_ms["MEC"] = (time.perf_counter() - start) * 1e3 / len(eu)
        return mers, mecs

    benchmark.pedantic(construct, rounds=1, iterations=1)
    lines.append(
        f"{'ms/object':>10} {build_ms['MEC']:>7.2f} {build_ms['MER']:>7.2f}"
        f"   (Europe build: MEC per relation, MER per object)"
    )
    report.table(
        "Fig 8", "area coverage of progressive approximations", lines
    )

    # Shape: both progressive approximations cover a substantial fraction
    # (paper ~0.42-0.45; wide bounds for synthetic-data variation).
    for name in ("Europe", "BW"):
        for kind in ("MEC", "MER"):
            cov = coverage[name][kind]
            assert 0.25 <= cov <= 0.75, f"{name}/{kind}: coverage {cov:.2f}"
