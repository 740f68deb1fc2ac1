"""Distance join, polygon distances and k-NN queries."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import circle_distance
from repro.core.distance import (
    brute_force_distance_join,
    polygon_distance,
    rect_distance,
    segment_distance,
)
from repro.core.join import JoinConfig, SpatialJoinProcessor
from repro.datasets.relations import SpatialRelation, europe
from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rect
from repro.index.knn import knn_query, nearest_query, point_rect_distance
from repro.index.pagemodel import AccessCounter


def distance_join(rel_a, rel_b, epsilon):
    config = JoinConfig(predicate="distance", epsilon=epsilon)
    return SpatialJoinProcessor(config).join(rel_a, rel_b)


def square(x, y, size=1.0):
    return Polygon([(x, y), (x + size, y), (x + size, y + size), (x, y + size)])


class TestPrimitiveDistances:
    def test_segment_distance_crossing(self):
        assert segment_distance((0, 0), (1, 1), (0, 1), (1, 0)) == 0.0

    def test_segment_distance_parallel(self):
        assert segment_distance((0, 0), (1, 0), (0, 1), (1, 1)) == pytest.approx(1.0)

    def test_segment_distance_collinear_gap(self):
        assert segment_distance((0, 0), (1, 0), (3, 0), (4, 0)) == pytest.approx(2.0)

    def test_segment_distance_symmetry(self):
        rng = random.Random(4)
        for _ in range(50):
            p = [(rng.random(), rng.random()) for _ in range(4)]
            d1 = segment_distance(p[0], p[1], p[2], p[3])
            d2 = segment_distance(p[2], p[3], p[0], p[1])
            assert d1 == pytest.approx(d2, abs=1e-12)

    def test_rect_distance(self):
        assert rect_distance(Rect(0, 0, 1, 1), Rect(2, 0, 3, 1)) == pytest.approx(1.0)
        assert rect_distance(Rect(0, 0, 1, 1), Rect(2, 2, 3, 3)) == pytest.approx(
            math.sqrt(2)
        )
        assert rect_distance(Rect(0, 0, 2, 2), Rect(1, 1, 3, 3)) == 0.0

    def test_circle_distance(self):
        assert circle_distance((0, 0), 1, (3, 0), 1) == pytest.approx(1.0)
        assert circle_distance((0, 0), 2, (3, 0), 2) == 0.0

    def test_polygon_distance_disjoint(self):
        a = square(0, 0)
        b = square(3, 0)
        assert polygon_distance(a, b) == pytest.approx(2.0)

    def test_polygon_distance_intersecting_zero(self):
        assert polygon_distance(square(0, 0), square(0.5, 0.5)) == 0.0

    def test_polygon_distance_containment_zero(self):
        outer = square(0, 0, 10)
        inner = square(4, 4, 1)
        assert polygon_distance(outer, inner) == 0.0

    def test_polygon_distance_diagonal(self):
        a = square(0, 0)
        b = square(2, 2)
        assert polygon_distance(a, b) == pytest.approx(math.sqrt(2))

    @settings(max_examples=30, deadline=None)
    @given(
        dx=st.floats(1.5, 10, allow_nan=False),
        dy=st.floats(0, 10, allow_nan=False),
    )
    def test_property_translated_squares(self, dx, dy):
        a = square(0, 0)
        b = square(dx, dy)
        gap_x = dx - 1
        gap_y = max(0.0, dy - 1)
        expected = math.hypot(gap_x, gap_y)
        assert polygon_distance(a, b) == pytest.approx(expected, abs=1e-9)


class TestDistanceJoin:
    def make_grid_relation(self, name, n, spacing, size=0.5):
        polys = [
            square(i * spacing, j * spacing, size)
            for i in range(n)
            for j in range(n)
        ]
        return SpatialRelation(name, polys)

    @pytest.mark.parametrize("epsilon", [0.0, 0.05, 0.3, 1.0])
    def test_matches_brute_force_grid(self, epsilon):
        rel_a = self.make_grid_relation("A", 4, 1.0)
        rel_b = self.make_grid_relation("B", 4, 1.0)
        got = sorted(distance_join(rel_a, rel_b, epsilon).id_pairs())
        expected = sorted(brute_force_distance_join(rel_a, rel_b, epsilon))
        assert got == expected

    @pytest.mark.parametrize("epsilon", [0.0, 0.02, 0.1])
    def test_matches_brute_force_cartographic(self, epsilon):
        rel_a = europe(size=30)
        rel_b = europe(seed=23, size=30)
        got = sorted(distance_join(rel_a, rel_b, epsilon).id_pairs())
        expected = sorted(brute_force_distance_join(rel_a, rel_b, epsilon))
        assert got == expected

    def test_filters_do_not_change_result(self):
        rel_a = europe(size=25)
        rel_b = europe(seed=31, size=25)
        eps = 0.05
        result = distance_join(rel_a, rel_b, eps)
        assert sorted(result.id_pairs()) == sorted(
            brute_force_distance_join(rel_a, rel_b, eps)
        )
        # Without the circle bounds every candidate reaches the exact
        # step; with them some are classified before it.
        assert result.stats.remaining_candidates < result.stats.candidate_pairs

    def test_epsilon_zero_equals_intersection_join(self):
        from repro.core.join import nested_loops_join

        rel_a = europe(size=25)
        rel_b = europe(seed=13, size=25)
        got = sorted(distance_join(rel_a, rel_b, 0.0).id_pairs())
        expected = sorted(nested_loops_join(rel_a, rel_b))
        assert got == expected

    def test_monotone_in_epsilon(self):
        rel_a = europe(size=20)
        rel_b = europe(seed=3, size=20)
        sizes = [
            len(distance_join(rel_a, rel_b, eps))
            for eps in (0.0, 0.05, 0.1, 0.4)
        ]
        assert sizes == sorted(sizes)

    def test_negative_epsilon_rejected(self):
        rel = europe(size=5)
        with pytest.raises(ValueError):
            distance_join(rel, rel, -0.1)

    def test_stats_add_up(self):
        rel_a = europe(size=25)
        rel_b = europe(seed=57, size=25)
        result = distance_join(rel_a, rel_b, 0.03)
        stats = result.stats
        stats.check_invariants()
        assert len(result) == stats.filter_hits + stats.exact_hits


class TestKNN:
    def build_tree(self, n=200, seed=2):
        rel = europe(size=n, seed=seed)
        return rel.build_rtree(max_entries=8), rel

    def test_point_rect_distance(self):
        r = Rect(0, 0, 1, 1)
        assert point_rect_distance((0.5, 0.5), r) == 0.0
        assert point_rect_distance((2.0, 0.5), r) == pytest.approx(1.0)
        assert point_rect_distance((2.0, 2.0), r) == pytest.approx(math.sqrt(2))

    def test_knn_matches_linear_scan(self):
        tree, rel = self.build_tree()
        rng = random.Random(8)
        for _ in range(10):
            p = (rng.random(), rng.random())
            got = knn_query(tree, p, 5)
            dists = sorted(point_rect_distance(p, obj.mbr) for obj in rel)
            for (d, _), expected in zip(got, dists[:5]):
                assert d == pytest.approx(expected, abs=1e-12)

    def test_knn_ordering_ascending(self):
        tree, _ = self.build_tree()
        got = knn_query(tree, (0.5, 0.5), 20)
        ds = [d for d, _ in got]
        assert ds == sorted(ds)

    def test_knn_k_larger_than_size(self):
        tree, rel = self.build_tree(n=10)
        got = knn_query(tree, (0.2, 0.2), 50)
        assert len(got) == len(rel)

    def test_knn_invalid_k(self):
        tree, _ = self.build_tree(n=5)
        with pytest.raises(ValueError):
            knn_query(tree, (0, 0), 0)

    def test_nearest_query(self):
        tree, rel = self.build_tree(n=50)
        result = nearest_query(tree, (0.5, 0.5))
        assert result is not None
        d, _ = result
        assert d == min(point_rect_distance((0.5, 0.5), o.mbr) for o in rel)

    def test_nearest_on_empty_tree(self):
        from repro.index.rstar import RStarTree

        assert nearest_query(RStarTree(), (0, 0)) is None

    def test_knn_page_accounting(self):
        tree, _ = self.build_tree()
        counter = AccessCounter()
        knn_query(tree, (0.5, 0.5), 3, counter)
        assert 0 < counter.node_visits <= tree.node_count()
