"""Figure 4: MBR-based false area, normalized to the object area.

Paper: monotone quality gain MBR > MBC > MBE ~ RMBR > 4-C > 5-C > CH,
with the 5-corner nearly as accurate as the convex hull.
"""

from repro.approximations.factory import compute_approximation
from repro.approximations.quality import mbr_based_false_area
from repro.datasets.relations import bw, europe

KINDS = ("MBR", "MBC", "MBE", "RMBR", "4-C", "5-C", "CH")


def average_mbr_based_false_area(relation, kind, limit=None):
    objs = relation.objects[:limit] if limit else relation.objects
    total = 0.0
    for obj in objs:
        total += mbr_based_false_area(obj.polygon, obj.approximation(kind))
    return total / len(objs)


def test_fig4_mbr_based_false_area(benchmark, scale, report):
    eu = europe(size=scale.europe_size)
    b = bw(size=scale.bw_size)

    rows = {}
    for name, rel in (("Europe", eu), ("BW", b)):
        rows[name] = {
            kind: average_mbr_based_false_area(rel, kind) for kind in KINDS
        }

    lines = [f"{'relation':>10} " + " ".join(f"{k:>6}" for k in KINDS)]
    for name in ("Europe", "BW"):
        lines.append(
            f"{name:>10} " + " ".join(f"{rows[name][k]:>6.2f}" for k in KINDS)
        )
    lines.append(
        " (paper shows the same ordering; Europe MBR ~0.91, CH lowest)"
    )
    report.table("Fig 4", "MBR-based false area (normalized)", lines)

    def construct_5c():
        return [compute_approximation(o.polygon, "5-C") for o in eu.objects[:40]]

    benchmark.pedantic(construct_5c, rounds=2, iterations=1)

    for name in ("Europe", "BW"):
        r = rows[name]
        # The paper's ordering: more parameters -> better quality.
        assert r["MBR"] >= r["RMBR"] - 1e-9, name
        assert r["RMBR"] >= r["4-C"] - 0.05, name
        assert r["4-C"] >= r["5-C"] - 1e-9, name
        assert r["5-C"] >= r["CH"] - 1e-9, name
        # 5-corner nearly as accurate as the hull (within 0.2 normalized).
        assert r["5-C"] - r["CH"] <= 0.25, name
