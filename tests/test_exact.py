"""Tests for the exact geometry processors (paper §4) and cost model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exact.bruteforce import (
    point_in_polygon_counted,
    polygons_intersect_quadratic,
)
from repro.exact.costmodel import (
    EDGE_INTERSECTION,
    EDGE_LINE,
    EDGE_RECT,
    PAPER_WEIGHTS,
    POSITION,
    RECT_INTERSECTION,
    TRAPEZOID_INTERSECTION,
    OperationCounter,
)
from repro.exact.planesweep import polygons_intersect_planesweep
from repro.exact.trstar_test import build_trstar, polygons_intersect_trstar
from repro.geometry.fastops import polygons_intersect_fast
from repro.geometry.polygon import Polygon
from tests.conftest import square, star_polygon

stars = st.builds(
    star_polygon,
    cx=st.floats(min_value=-1, max_value=1).map(lambda v: round(v, 4)),
    cy=st.floats(min_value=-1, max_value=1).map(lambda v: round(v, 4)),
    n=st.integers(min_value=5, max_value=40),
    radius=st.floats(min_value=0.3, max_value=1.2).map(lambda v: round(v, 4)),
    seed=st.integers(min_value=0, max_value=9999),
)


class TestCrossValidation:
    """All exact algorithms must agree with the vectorised oracle."""

    @given(stars, stars)
    @settings(max_examples=60, deadline=None)
    def test_quadratic_matches_oracle(self, p1, p2):
        assert polygons_intersect_quadratic(p1, p2) == polygons_intersect_fast(
            p1, p2
        )

    @given(stars, stars)
    @settings(max_examples=60, deadline=None)
    def test_planesweep_matches_oracle(self, p1, p2):
        assert polygons_intersect_planesweep(p1, p2) == polygons_intersect_fast(
            p1, p2
        )

    @given(stars, stars)
    @settings(max_examples=30, deadline=None)
    def test_planesweep_without_restriction_matches(self, p1, p2):
        got = polygons_intersect_planesweep(p1, p2, restrict_search_space=False)
        assert got == polygons_intersect_fast(p1, p2)

    @given(stars, stars)
    @settings(max_examples=30, deadline=None)
    def test_trstar_matches_oracle(self, p1, p2):
        got = polygons_intersect_trstar(build_trstar(p1), build_trstar(p2))
        assert got == polygons_intersect_fast(p1, p2)


class TestSpecialCases:
    def test_containment_all_algorithms(self):
        inner = square(0.0, 0.0, 0.2)
        outer = square(0.0, 0.0, 2.0)
        assert polygons_intersect_quadratic(inner, outer)
        assert polygons_intersect_planesweep(inner, outer)
        assert polygons_intersect_trstar(build_trstar(inner), build_trstar(outer))

    def test_object_inside_hole_is_disjoint(self):
        holed = Polygon(
            [(-2, -2), (2, -2), (2, 2), (-2, 2)],
            holes=[[(-1, -1), (1, -1), (1, 1), (-1, 1)]],
        )
        small = square(0.0, 0.0, 0.3)
        assert not polygons_intersect_quadratic(holed, small)
        assert not polygons_intersect_planesweep(holed, small)
        assert not polygons_intersect_trstar(
            build_trstar(holed), build_trstar(small)
        )

    def test_edge_touching_counts_as_intersection(self):
        left = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        right = Polygon([(1, 0), (2, 0), (2, 1), (1, 1)])
        assert polygons_intersect_quadratic(left, right)
        assert polygons_intersect_planesweep(left, right)

    def test_disjoint_mbrs_shortcut(self):
        p1 = square(0, 0, 0.5)
        p2 = square(10, 10, 0.5)
        counter = OperationCounter()
        assert not polygons_intersect_planesweep(p1, p2, counter)
        assert counter.total_operations() == 0  # MBR pretest fired


class TestOperationCounting:
    def test_quadratic_counts_all_edge_pairs_when_disjoint(self):
        p1 = square(0, 0, 0.5)
        p2 = square(0.9, 0.9, 0.5)  # MBRs overlap at corner, bodies don't? no: they do overlap
        counter = OperationCounter()
        polygons_intersect_quadratic(p1, p2, counter)
        assert counter.counts.get(EDGE_INTERSECTION, 0) >= 1

    def test_quadratic_full_matrix_for_false_hit(self):
        p1 = star_polygon(0, 0, n=10, seed=1, radius=0.5)
        p2 = star_polygon(1.2, 1.2, n=12, seed=2, radius=0.5)
        if p1.mbr().intersects(p2.mbr()) and not polygons_intersect_fast(p1, p2):
            counter = OperationCounter()
            polygons_intersect_quadratic(p1, p2, counter)
            assert counter.counts[EDGE_INTERSECTION] == 10 * 12

    def test_point_in_polygon_counts_edge_line(self):
        poly = star_polygon(n=20, seed=3)
        counter = OperationCounter()
        point_in_polygon_counted(poly, (0, 0), counter)
        assert counter.counts[EDGE_LINE] == poly.num_edges

    def test_planesweep_counts_position_and_restriction(self):
        p1 = star_polygon(0, 0, n=30, seed=4)
        p2 = star_polygon(0.5, 0.3, n=30, seed=5)
        counter = OperationCounter()
        polygons_intersect_planesweep(p1, p2, counter)
        assert counter.counts.get(EDGE_RECT, 0) > 0  # restriction pre-scan
        assert counter.counts.get(POSITION, 0) > 0

    def test_restriction_reduces_cost_for_small_overlap(self):
        # Polygons overlapping only at a corner: restriction excludes most
        # edges (§4.1 reports ~40% savings on its data).
        p1 = star_polygon(0, 0, n=60, seed=6)
        p2 = star_polygon(1.7, 1.7, n=60, seed=7)
        if not p1.mbr().intersects(p2.mbr()):
            pytest.skip("no MBR overlap for this seed")
        with_r = OperationCounter()
        without_r = OperationCounter()
        polygons_intersect_planesweep(p1, p2, with_r, restrict_search_space=True)
        polygons_intersect_planesweep(
            p1, p2, without_r, restrict_search_space=False
        )
        assert with_r.cost_ms() <= without_r.cost_ms() + 1e-9

    def test_trstar_counts_rect_and_trapezoid_tests(self):
        p1 = star_polygon(0, 0, n=25, seed=8)
        p2 = star_polygon(0.4, 0.1, n=25, seed=9)
        counter = OperationCounter()
        polygons_intersect_trstar(build_trstar(p1), build_trstar(p2), counter)
        assert counter.counts.get(RECT_INTERSECTION, 0) > 0
        assert counter.counts.get(TRAPEZOID_INTERSECTION, 0) >= 1


class TestCostModel:
    def test_paper_weights_present(self):
        assert PAPER_WEIGHTS[EDGE_INTERSECTION] == pytest.approx(15e-6)
        assert PAPER_WEIGHTS[TRAPEZOID_INTERSECTION] == pytest.approx(38e-6)

    def test_weighted_cost(self):
        counter = OperationCounter()
        counter.count(EDGE_INTERSECTION, 1000)
        assert counter.cost_ms() == pytest.approx(15.0)
        assert counter.cost_seconds() == pytest.approx(0.015)

    def test_reset(self):
        counter = OperationCounter()
        counter.count(POSITION, 5)
        assert counter.total_operations() == 5
        counter.reset()
        assert counter.total_operations() == 0

    def test_unknown_ops_cost_nothing(self):
        counter = OperationCounter()
        counter.count("exotic_op", 100)
        assert counter.cost_seconds() == 0.0

    def test_host_weights_measurable(self):
        from repro.exact.costmodel import measure_host_weights

        weights = measure_host_weights(repetitions=200)
        assert set(weights) == set(PAPER_WEIGHTS)
        assert all(w > 0 for w in weights.values())
