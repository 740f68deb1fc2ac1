"""Figure 2: characteristics of the analysed spatial relations.

Paper values — Europe: 810 objects, m∅=84, mmin=4, mmax=869;
BW: 374 objects, m∅=527, mmin=6, mmax=2087.
"""

from repro.datasets.generators import cartographic_polygons
from repro.datasets.relations import bw, europe


def test_fig2_relation_characteristics(benchmark, scale, report):
    eu = europe(size=scale.europe_size)
    b = bw(size=scale.bw_size)

    def regenerate():
        return cartographic_polygons(60, 84, seed=777)

    benchmark.pedantic(regenerate, rounds=3, iterations=1)

    lines = [f"{'relation':>10} {'# objects':>10} {'m_avg':>8} {'m_min':>7} {'m_max':>7}"]
    for rel, paper in ((eu, (810, 84, 4, 869)), (b, (374, 527, 6, 2087))):
        stats = rel.statistics()
        lines.append(
            f"{rel.name:>10} {stats['objects']:>10} {stats['m_avg']:>8.0f} "
            f"{stats['m_min']:>7} {stats['m_max']:>7}"
        )
        lines.append(
            f"{'(paper)':>10} {paper[0]:>10} {paper[1]:>8} {paper[2]:>7} {paper[3]:>7}"
        )
    report.table("Fig 2", "relation characteristics", lines)

    eu_stats = eu.statistics()
    if scale.europe_size is None:
        assert eu_stats["objects"] == 810
        assert 60 <= eu_stats["m_avg"] <= 110
