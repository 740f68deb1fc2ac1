"""Points-in-regions (INSIDE) join [BG 90] vs the brute-force oracle."""

import random

import pytest

from repro.core.inside import (
    InsideJoinConfig,
    brute_force_inside_join,
    points_in_regions_join,
)
from repro.datasets.relations import SpatialRelation, europe
from repro.geometry.polygon import Polygon


def random_points(n, seed, lo=0.0, hi=1.0):
    rng = random.Random(seed)
    return [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(n)]


class TestInsideJoin:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_brute_force(self, seed):
        regions = europe(size=50, seed=seed)
        points = random_points(200, seed + 10)
        got = sorted(points_in_regions_join(points, regions).id_pairs())
        expected = sorted(brute_force_inside_join(points, regions))
        assert got == expected

    def test_filterless_config_same_result(self):
        regions = europe(size=40)
        points = random_points(150, 5)
        full = points_in_regions_join(points, regions)
        bare = points_in_regions_join(
            points,
            regions,
            InsideJoinConfig(conservative="none", progressive="none"),
        )
        assert sorted(full.id_pairs()) == sorted(bare.id_pairs())
        # the filter must save exact tests
        assert full.stats.exact_tests <= bare.stats.exact_tests

    def test_filter_accounting_consistent(self):
        regions = europe(size=40)
        points = random_points(150, 9)
        stats = points_in_regions_join(points, regions).stats
        assert (
            stats.filter_hits + stats.filter_false_hits + stats.exact_tests
            == stats.candidates
        )
        assert stats.probes == 150
        assert stats.index_io.node_visits > 0

    def test_no_points(self):
        regions = europe(size=10)
        result = points_in_regions_join([], regions)
        assert len(result) == 0
        assert result.stats.probes == 0

    def test_empty_regions(self):
        result = points_in_regions_join(
            random_points(10, 1), SpatialRelation("empty", [])
        )
        assert len(result) == 0

    def test_point_in_overlapping_regions_pairs_all(self):
        square = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        bigger = Polygon([(-1, -1), (2, -1), (2, 2), (-1, 2)])
        regions = SpatialRelation("overlap", [square, bigger])
        result = points_in_regions_join([(0.5, 0.5)], regions)
        assert sorted(result.id_pairs()) == [(0, 0), (0, 1)]

    def test_points_far_outside_match_nothing(self):
        regions = europe(size=20)
        points = random_points(50, 2, lo=10.0, hi=11.0)
        result = points_in_regions_join(points, regions)
        assert len(result) == 0

    def test_hole_excludes_point(self):
        donut = Polygon(
            [(0, 0), (3, 0), (3, 3), (0, 3)],
            holes=[[(1, 1), (2, 1), (2, 2), (1, 2)]],
        )
        regions = SpatialRelation("donut", [donut])
        inside_hole = points_in_regions_join([(1.5, 1.5)], regions)
        in_flesh = points_in_regions_join([(0.5, 0.5)], regions)
        assert len(inside_hole) == 0
        assert len(in_flesh) == 1

    def test_progressive_filter_identifies_hits(self):
        regions = europe(size=60)
        # centroids are very likely inside the MER of their own region
        points = [obj.polygon.centroid() for obj in regions]
        stats = points_in_regions_join(points, regions).stats
        assert stats.filter_hits > 0
