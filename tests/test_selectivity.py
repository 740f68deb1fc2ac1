"""Selectivity / cost estimation ([Gün 93]) against measured joins."""

import pytest

from repro.core.selectivity import (
    FilterRates,
    RelationProfile,
    estimate_candidates,
    estimate_join,
    mbr_join_selectivity,
)
from repro.datasets.relations import SpatialRelation, europe
from repro.geometry.polygon import Polygon
from repro.index.join import nested_loops_mbr_join


def uniform_squares(name, n, size, spacing):
    polys = []
    k = int(n ** 0.5)
    for i in range(k):
        for j in range(k):
            x, y = i * spacing, j * spacing
            polys.append(
                Polygon([(x, y), (x + size, y), (x + size, y + size), (x, y + size)])
            )
    return SpatialRelation(name, polys)


class TestProfiles:
    def test_profile_of_relation(self):
        rel = uniform_squares("U", 16, 0.1, 0.25)
        profile = RelationProfile.of(rel)
        assert profile.count == 16
        assert profile.avg_width == pytest.approx(0.1)
        assert profile.avg_height == pytest.approx(0.1)

    def test_profile_of_empty_relation(self):
        profile = RelationProfile.of(SpatialRelation("E", []))
        assert profile.count == 0
        assert mbr_join_selectivity(profile, profile) == 0.0


class TestSelectivity:
    def test_selectivity_bounds(self):
        rel = europe(size=50)
        p = RelationProfile.of(rel)
        sel = mbr_join_selectivity(p, p)
        assert 0.0 < sel <= 1.0

    def test_giant_objects_saturate(self):
        huge = SpatialRelation(
            "H", [Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])] * 3
        )
        p = RelationProfile.of(huge)
        assert mbr_join_selectivity(p, p) == 1.0

    def test_estimate_within_factor_of_measured_uniform(self):
        """On near-uniform data the estimate should be in the right range."""
        rel_a = uniform_squares("A", 64, 0.08, 0.125)
        rel_b = uniform_squares("B", 64, 0.08, 0.125)
        estimated = estimate_candidates(rel_a, rel_b)
        measured = len(
            list(
                nested_loops_mbr_join(rel_a.mbr_items(), rel_b.mbr_items())
            )
        )
        assert measured / 4 <= estimated <= measured * 4

    def test_estimate_on_cartographic_data_same_order(self):
        rel_a = europe(size=80)
        rel_b = europe(seed=3, size=80)
        estimated = estimate_candidates(rel_a, rel_b)
        measured = len(
            list(nested_loops_mbr_join(rel_a.mbr_items(), rel_b.mbr_items()))
        )
        # clustered real-world extents: allow an order of magnitude
        assert measured / 10 <= estimated <= measured * 10

class TestJoinEstimate:
    def test_estimate_consistency(self):
        rel_a = europe(size=40)
        rel_b = europe(seed=9, size=40)
        est = estimate_join(rel_a, rel_b)
        assert est.hits + est.false_hits == pytest.approx(est.candidates)
        assert est.remaining_candidates <= est.candidates
        assert est.total_seconds >= 0
        assert 0 <= est.filter_effectiveness <= 1

    def test_better_filters_reduce_cost(self):
        rel_a = europe(size=40)
        rel_b = europe(seed=9, size=40)
        weak = estimate_join(rel_a, rel_b, FilterRates(0.2, 0.05, 0.66))
        strong = estimate_join(rel_a, rel_b, FilterRates(0.8, 0.4, 0.66))
        assert strong.total_seconds < weak.total_seconds

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            FilterRates(false_hit_identification=1.2)
        with pytest.raises(ValueError):
            FilterRates(hit_share=-0.1)
