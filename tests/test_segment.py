"""Unit tests for segment intersection primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.segment import (
    clip_segment_to_rect,
    line_intersection,
    segment_intersection_point,
    segment_intersects_rect,
    segment_y_at,
    segments_intersect,
)

coords = st.floats(min_value=-50, max_value=50, allow_nan=False).map(
    lambda v: round(v, 6)
)
points = st.tuples(coords, coords)


class TestSegmentsIntersect:
    def test_crossing(self):
        assert segments_intersect((0, 0), (2, 2), (0, 2), (2, 0))

    def test_disjoint(self):
        assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))

    def test_shared_endpoint(self):
        assert segments_intersect((0, 0), (1, 1), (1, 1), (2, 0))

    def test_t_junction(self):
        assert segments_intersect((0, 0), (2, 0), (1, -1), (1, 0))

    def test_collinear_overlap(self):
        assert segments_intersect((0, 0), (2, 0), (1, 0), (3, 0))

    def test_collinear_disjoint(self):
        assert not segments_intersect((0, 0), (1, 0), (2, 0), (3, 0))

    def test_parallel(self):
        assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))

    @given(points, points, points, points)
    def test_symmetry(self, a, b, c, d):
        assert segments_intersect(a, b, c, d) == segments_intersect(c, d, a, b)

    @given(points, points)
    def test_self_intersection(self, a, b):
        assert segments_intersect(a, b, a, b)


class TestIntersectionPoint:
    def test_crossing_point(self):
        p = segment_intersection_point((0, 0), (2, 2), (0, 2), (2, 0))
        assert p == pytest.approx((1.0, 1.0))

    def test_none_when_disjoint(self):
        assert segment_intersection_point((0, 0), (1, 0), (0, 1), (1, 1)) is None

    def test_collinear_overlap_returns_shared_point(self):
        p = segment_intersection_point((0, 0), (2, 0), (1, 0), (3, 0))
        assert p is not None
        assert 1.0 <= p[0] <= 2.0 and p[1] == 0.0

    @given(points, points, points, points)
    def test_consistent_with_predicate(self, a, b, c, d):
        point = segment_intersection_point(a, b, c, d)
        if point is not None:
            assert segments_intersect(a, b, c, d)


class TestLineIntersection:
    def test_perpendicular_lines(self):
        p = line_intersection((0, 0), (1, 0), (5, -1), (5, 1))
        assert p == pytest.approx((5.0, 0.0))

    def test_parallel_returns_none(self):
        assert line_intersection((0, 0), (1, 0), (0, 1), (1, 1)) is None

    def test_extends_beyond_segments(self):
        # Segments don't touch, but their lines cross at (2, 2).
        p = line_intersection((0, 0), (1, 1), (4, 0), (3, 1))
        assert p == pytest.approx((2.0, 2.0))


class TestSegmentYAt:
    def test_interpolation(self):
        assert segment_y_at((0, 0), (2, 4), 1.0) == pytest.approx(2.0)

    def test_vertical_segment(self):
        assert segment_y_at((1, 3), (1, 7), 1.0) == 3.0


class TestSegmentRect:
    def test_endpoint_inside(self):
        assert segment_intersects_rect((0.5, 0.5), (5, 5), 0, 0, 1, 1)

    def test_pass_through(self):
        assert segment_intersects_rect((-1, 0.5), (2, 0.5), 0, 0, 1, 1)

    def test_miss(self):
        assert not segment_intersects_rect((-1, 2), (2, 2), 0, 0, 1, 1)

    def test_diagonal_corner_cut(self):
        assert segment_intersects_rect((-0.5, 0.5), (0.5, -0.5), 0, 0, 1, 1)

    def test_diagonal_near_miss(self):
        assert not segment_intersects_rect((-1, 0.5), (0.5, -1), 0, 0, 1, 1)

    def test_clip_inside(self):
        seg = clip_segment_to_rect((-1, 0.5), (2, 0.5), 0, 0, 1, 1)
        assert seg is not None
        (x1, y1), (x2, y2) = seg
        assert (x1, y1) == pytest.approx((0.0, 0.5))
        assert (x2, y2) == pytest.approx((1.0, 0.5))

    def test_clip_miss_returns_none(self):
        assert clip_segment_to_rect((-1, 2), (2, 2), 0, 0, 1, 1) is None

    @given(points, points)
    def test_clip_consistent_with_predicate(self, a, b):
        hit = segment_intersects_rect(a, b, 0, 0, 1, 1)
        clipped = clip_segment_to_rect(a, b, 0, 0, 1, 1)
        if hit != (clipped is not None):
            # Grazing contact: the two functions may disagree within
            # epsilon, but only for a degenerate clip on the boundary.
            assert clipped is not None
            (x1, y1), (x2, y2) = clipped
            assert abs(x2 - x1) <= 1e-9 and abs(y2 - y1) <= 1e-9
