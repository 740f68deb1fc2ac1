"""Polylines and the line-region (rivers x counties) join."""

import math
import random

import pytest

from repro.core.lineregion import (
    LineJoinConfig,
    brute_force_line_region_join,
    line_region_join,
)
from repro.datasets.relations import SpatialRelation, europe
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import Polyline
from repro.geometry.rectangle import Rect


def random_river(seed, start=None, steps=12, step_len=0.08):
    """A meandering polyline (random walk with momentum)."""
    rng = random.Random(seed)
    x, y = start or (rng.random(), rng.random())
    heading = rng.uniform(0, 2 * math.pi)
    points = [(x, y)]
    for _ in range(steps):
        heading += rng.uniform(-0.7, 0.7)
        x += step_len * math.cos(heading)
        y += step_len * math.sin(heading)
        points.append((x, y))
    return Polyline(points)


class TestPolyline:
    def test_requires_two_distinct_points(self):
        with pytest.raises(ValueError):
            Polyline([(0, 0)])
        with pytest.raises(ValueError):
            Polyline([(0, 0), (0, 0)])

    def test_dedups_repeated_points(self):
        line = Polyline([(0, 0), (0, 0), (1, 0), (1, 0), (1, 1)])
        assert line.num_vertices == 3
        assert line.num_segments == 2

    def test_length(self):
        line = Polyline([(0, 0), (3, 0), (3, 4)])
        assert line.length() == pytest.approx(7.0)

    def test_mbr(self):
        line = Polyline([(0, 1), (2, -1), (1, 3)])
        assert line.mbr() == Rect(0, -1, 2, 3)

    def test_intersects_rect(self):
        line = Polyline([(0, 0), (2, 2)])
        assert line.intersects_rect(Rect(0.9, 0.9, 1.1, 1.1))
        assert not line.intersects_rect(Rect(1.5, 0, 2, 0.4))

    def test_intersects_polygon_crossing(self):
        square = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        crossing = Polyline([(-1, 0.5), (2, 0.5)])
        assert crossing.intersects_polygon(square)

    def test_intersects_polygon_contained(self):
        square = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        inside = Polyline([(0.2, 0.2), (0.8, 0.8)])
        assert inside.intersects_polygon(square)

    def test_disjoint_polygon(self):
        square = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        outside = Polyline([(2, 2), (3, 3)])
        assert not outside.intersects_polygon(square)

    def test_line_through_hole_does_not_count_hole_interior(self):
        donut = Polygon(
            [(0, 0), (4, 0), (4, 4), (0, 4)],
            holes=[[(1, 1), (3, 1), (3, 3), (1, 3)]],
        )
        # fully inside the hole: does not touch the polygon's area
        in_hole = Polyline([(1.5, 2.0), (2.5, 2.0)])
        assert not in_hole.intersects_polygon(donut)
        # crossing from hole to flesh: intersects
        crossing = Polyline([(2.0, 2.0), (3.5, 2.0)])
        assert crossing.intersects_polygon(donut)

    def test_translate(self):
        line = Polyline([(0, 0), (1, 1)]).translated(2, 3)
        assert line.points == ((2.0, 3.0), (3.0, 4.0))


class TestLineRegionJoin:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_brute_force(self, seed):
        regions = europe(size=50, seed=seed)
        rivers = [random_river(seed * 100 + k) for k in range(25)]
        got = sorted(line_region_join(rivers, regions).id_pairs())
        expected = sorted(brute_force_line_region_join(rivers, regions))
        assert got == expected

    def test_progressive_filter_saves_exact_tests(self):
        regions = europe(size=50)
        rivers = [random_river(k) for k in range(30)]
        with_filter = line_region_join(rivers, regions)
        without = line_region_join(
            rivers, regions, LineJoinConfig(progressive="none")
        )
        assert sorted(with_filter.id_pairs()) == sorted(without.id_pairs())
        assert with_filter.stats.exact_tests <= without.stats.exact_tests
        assert with_filter.stats.filter_hits > 0

    def test_stats_consistent(self):
        regions = europe(size=40)
        rivers = [random_river(k + 50) for k in range(20)]
        stats = line_region_join(rivers, regions).stats
        assert stats.filter_hits + stats.exact_tests == stats.candidates
        assert 0 <= stats.identification_rate <= 1

    def test_empty_inputs(self):
        regions = europe(size=10)
        assert len(line_region_join([], regions)) == 0
        empty = SpatialRelation("E", [])
        rivers = [random_river(1)]
        assert len(line_region_join(rivers, empty)) == 0

    def test_long_river_crosses_many_counties(self):
        regions = europe(size=80)
        transcontinental = Polyline([(-0.1, 0.5), (1.1, 0.52)])
        result = line_region_join([transcontinental], regions)
        assert len(result) >= 3
