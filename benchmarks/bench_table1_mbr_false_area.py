"""Table 1: false area of the MBR normalized to the object area.

Paper values — Europe: ∅ 0.91, min 0.25, max 20.13;
BW: ∅ 1.02, min 0.38, max 3.48.  The headline claim: real cartography
objects are only *roughly* approximated by MBRs (∅ ≈ 1 means the MBR
doubles the object's area).
"""

from repro.approximations.mbr import MBRApproximation
from repro.approximations.quality import normalized_false_area
from repro.datasets.relations import bw, europe


def test_table1_mbr_normalized_false_area(benchmark, scale, report):
    eu = europe(size=scale.europe_size)
    b = bw(size=scale.bw_size)

    def compute(relation):
        values = []
        for obj in relation:
            approx = MBRApproximation.of(obj.polygon)
            values.append(normalized_false_area(obj.polygon, approx))
        return values

    eu_nfa = benchmark.pedantic(lambda: compute(eu), rounds=1, iterations=1)
    bw_nfa = compute(b)

    lines = [f"{'relation':>10} {'avg':>7} {'min':>7} {'max':>7}"]
    for name, vals, paper in (
        ("Europe", eu_nfa, (0.91, 0.25, 20.13)),
        ("BW", bw_nfa, (1.02, 0.38, 3.48)),
    ):
        lines.append(
            f"{name:>10} {sum(vals)/len(vals):>7.2f} {min(vals):>7.2f} "
            f"{max(vals):>7.2f}"
        )
        lines.append(
            f"{'(paper)':>10} {paper[0]:>7.2f} {paper[1]:>7.2f} {paper[2]:>7.2f}"
        )
    report.table("Table 1", "normalized false area of the MBR", lines)

    # Shape assertion: MBRs roughly double the object area on average.
    for vals in (eu_nfa, bw_nfa):
        avg = sum(vals) / len(vals)
        assert 0.5 <= avg <= 1.6, f"MBR false area out of regime: {avg}"
