"""Filter-refine k-NN: exact polygon distances via MINDIST pruning."""

import random

import pytest

from repro.core.distance import point_polygon_distance
from repro.datasets.relations import europe
from repro.geometry.polygon import Polygon
from repro.index.knn import knn_query_exact
from repro.index.pagemodel import AccessCounter


def exact_dist(point, obj):
    return point_polygon_distance(point, obj.polygon)


class TestPointPolygonDistance:
    def test_inside_is_zero(self):
        square = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert point_polygon_distance((0.5, 0.5), square) == 0.0

    def test_outside_distance(self):
        square = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert point_polygon_distance((2.0, 0.5), square) == pytest.approx(1.0)
        assert point_polygon_distance((2.0, 2.0), square) == pytest.approx(
            2 ** 0.5
        )

    def test_in_hole_measures_to_hole_boundary(self):
        donut = Polygon(
            [(0, 0), (4, 0), (4, 4), (0, 4)],
            holes=[[(1, 1), (3, 1), (3, 3), (1, 3)]],
        )
        assert point_polygon_distance((2, 2), donut) == pytest.approx(1.0)


class TestExactKnn:
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_matches_linear_scan(self, k):
        rel = europe(size=120)
        tree = rel.build_rtree(max_entries=8)
        rng = random.Random(31)
        for _ in range(5):
            p = (rng.random(), rng.random())
            got = knn_query_exact(tree, p, k, exact_dist)
            brute = sorted(exact_dist(p, obj) for obj in rel)[:k]
            assert [d for d, _ in got] == pytest.approx(brute, abs=1e-12)

    def test_results_sorted(self):
        rel = europe(size=60)
        tree = rel.build_rtree()
        got = knn_query_exact(tree, (0.3, 0.7), 8, exact_dist)
        ds = [d for d, _ in got]
        assert ds == sorted(ds)

    def test_prunes_exact_evaluations(self):
        """MINDIST pruning must evaluate far fewer objects than a scan."""
        rel = europe(size=200)
        tree = rel.build_rtree(max_entries=8)
        calls = []

        def counting_dist(point, obj):
            calls.append(obj.oid)
            return exact_dist(point, obj)

        knn_query_exact(tree, (0.5, 0.5), 3, counting_dist)
        assert len(calls) < len(rel)

    def test_k_exceeds_size(self):
        rel = europe(size=15)
        tree = rel.build_rtree()
        got = knn_query_exact(tree, (0.5, 0.5), 100, exact_dist)
        assert len(got) == 15

    def test_invalid_k(self):
        rel = europe(size=5)
        tree = rel.build_rtree()
        with pytest.raises(ValueError):
            knn_query_exact(tree, (0, 0), 0, exact_dist)

    def test_page_accounting(self):
        rel = europe(size=80)
        tree = rel.build_rtree(max_entries=8)
        counter = AccessCounter()
        knn_query_exact(tree, (0.2, 0.2), 2, exact_dist, counter)
        assert 0 < counter.node_visits <= tree.node_count()

    def test_exact_beats_mindist_ordering(self):
        """A large far MBR with a tiny polygon: exact k-NN reorders."""
        rel = europe(size=50)
        tree = rel.build_rtree()
        p = (0.5, 0.5)
        exact = knn_query_exact(tree, p, 5, exact_dist)
        for d, obj in exact:
            assert d == pytest.approx(exact_dist(p, obj), abs=1e-12)
