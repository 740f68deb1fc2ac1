"""Unit tests for the low-level geometric predicates."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.predicates import (
    collinear,
    cross,
    distance,
    distance_sq,
    is_ccw,
    on_segment,
    orientation,
    point_segment_distance,
    polygon_signed_area,
)

coords = st.floats(min_value=-100, max_value=100, allow_nan=False)
points = st.tuples(coords, coords)


class TestOrientation:
    def test_left_turn(self):
        assert orientation((0, 0), (1, 0), (1, 1)) == 1

    def test_right_turn(self):
        assert orientation((0, 0), (1, 0), (1, -1)) == -1

    def test_collinear(self):
        assert orientation((0, 0), (1, 1), (2, 2)) == 0

    def test_collinear_with_noise_below_epsilon(self):
        assert orientation((0, 0), (1, 1), (2, 2 + 1e-14)) == 0

    @given(points, points, points)
    def test_antisymmetry(self, p, q, r):
        assert orientation(p, q, r) == -orientation(p, r, q)

    @given(points, points, points)
    def test_cyclic_invariance(self, p, q, r):
        assert orientation(p, q, r) == orientation(q, r, p)


class TestDistances:
    def test_distance(self):
        assert distance((0, 0), (3, 4)) == 5.0

    def test_distance_sq_consistency(self):
        assert distance_sq((1, 2), (4, 6)) == pytest.approx(25.0)

    def test_point_segment_distance_perpendicular(self):
        assert point_segment_distance((0, 1), (-1, 0), (1, 0)) == pytest.approx(1.0)

    def test_point_segment_distance_beyond_endpoint(self):
        assert point_segment_distance((3, 4), (0, 0), (1, 0)) == pytest.approx(
            math.hypot(2, 4)
        )

    def test_point_segment_distance_degenerate_segment(self):
        assert point_segment_distance((1, 1), (0, 0), (0, 0)) == pytest.approx(
            math.sqrt(2)
        )

    @given(points, points, points)
    def test_point_segment_distance_nonnegative(self, p, a, b):
        assert point_segment_distance(p, a, b) >= 0.0

    @given(points, points)
    def test_endpoint_distance_zero(self, a, b):
        assert point_segment_distance(a, a, b) == pytest.approx(0.0, abs=1e-9)


class TestOnSegment:
    def test_midpoint(self):
        assert on_segment((0, 0), (1, 1), (2, 2))

    def test_outside_bounds(self):
        assert not on_segment((0, 0), (3, 3), (2, 2))

    def test_endpoint(self):
        assert on_segment((0, 0), (2, 2), (2, 2))


class TestSignedArea:
    def test_unit_square_ccw(self):
        ring = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert polygon_signed_area(ring) == pytest.approx(1.0)

    def test_unit_square_cw_is_negative(self):
        ring = [(0, 0), (0, 1), (1, 1), (1, 0)]
        assert polygon_signed_area(ring) == pytest.approx(-1.0)

    def test_triangle(self):
        assert polygon_signed_area([(0, 0), (2, 0), (0, 2)]) == pytest.approx(2.0)

    def test_degenerate(self):
        assert polygon_signed_area([(0, 0), (1, 1)]) == 0.0

    def test_is_ccw(self):
        assert is_ccw([(0, 0), (1, 0), (1, 1)])
        assert not is_ccw([(0, 0), (1, 1), (1, 0)])


class TestCross:
    @given(points, points, points)
    def test_cross_matches_orientation_sign(self, o, a, b):
        c = cross(o, a, b)
        orient = orientation(o, a, b)
        if c > 1e-9:
            assert orient == 1
        elif c < -1e-9:
            assert orient == -1

    def test_collinear_helper(self):
        assert collinear((0, 0), (1, 2), (2, 4))
        assert not collinear((0, 0), (1, 2), (2, 5))
