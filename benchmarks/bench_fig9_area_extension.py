"""§3.4 / Figure 9: area extension of approximations relative to the MBR.

Paper: storing the approximation *instead of* the MBR inflates the page
regions — the 5-C's area extension is ~21% above the MBR's, the 4-C's
44%, the RMBR's 51% and the MBE's 22%.
"""

from repro.approximations.quality import area_extension_ratio
from repro.datasets.relations import bw, europe

KINDS = ("RMBR", "4-C", "5-C", "MBE")
PAPER_PCT = {"RMBR": 51, "4-C": 44, "5-C": 21, "MBE": 22}


def test_fig9_area_extension(benchmark, scale, report):
    eu = europe(size=scale.europe_size)
    b = bw(size=scale.bw_size)
    objs = eu.objects + b.objects

    def compute():
        out = {}
        for kind in KINDS:
            ratios = [
                area_extension_ratio(o.polygon, o.approximation(kind))
                for o in objs
            ]
            out[kind] = 100.0 * (sum(ratios) / len(ratios) - 1.0)
        return out

    extension = benchmark.pedantic(compute, rounds=1, iterations=1)

    lines = [f"{'approx':>7} {'extension %':>12} {'paper %':>9}"]
    for kind in KINDS:
        lines.append(
            f"{kind:>7} {extension[kind]:>11.0f}% {PAPER_PCT[kind]:>8}%"
        )
    report.table(
        "Fig 9", "area extension vs MBR (approach-1 penalty)", lines
    )

    for kind in KINDS:
        assert extension[kind] >= 0.0, f"{kind} extension negative"
    # The 5-corner hugs the object tighter than the 4-corner and RMBR.
    assert extension["5-C"] <= extension["4-C"] + 1e-9
    assert extension["5-C"] <= extension["RMBR"] + 1e-9
