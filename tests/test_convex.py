"""Tests for convex-geometry operations (hull, SAT, clipping, calipers)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.convex import (
    convex_area,
    convex_contains_point,
    convex_hull,
    convex_intersect,
    convex_intersection_area,
    min_area_rotated_rect,
)
from repro.geometry.predicates import is_ccw

# Coordinates are quantised: the geometry kernel's predicates use an
# absolute epsilon tuned for unit-scale cartographic data (documented in
# repro.geometry.predicates), so sub-epsilon coordinate differences are
# out of scope.
coords = st.floats(min_value=-10, max_value=10, allow_nan=False).map(
    lambda v: round(v, 4)
)
points = st.tuples(coords, coords)
point_sets = st.lists(points, min_size=3, max_size=40)


class TestConvexHull:
    def test_square_with_interior_point(self):
        hull = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)])
        assert len(hull) == 4
        assert (0.5, 0.5) not in hull

    def test_collinear_input(self):
        hull = convex_hull([(0, 0), (1, 1), (2, 2)])
        assert len(hull) == 2

    def test_single_point(self):
        assert convex_hull([(1, 1), (1, 1)]) == [(1.0, 1.0)]

    @given(point_sets)
    @settings(max_examples=60)
    def test_hull_contains_all_points(self, pts):
        hull = convex_hull(pts)
        if len(hull) < 3:
            return
        assert is_ccw(hull)
        for p in pts:
            assert convex_contains_point(hull, p)

    @given(point_sets)
    @settings(max_examples=40)
    def test_hull_is_convex(self, pts):
        from repro.geometry.predicates import cross

        hull = convex_hull(pts)
        n = len(hull)
        if n < 3:
            return
        for i in range(n):
            assert (
                cross(hull[i], hull[(i + 1) % n], hull[(i + 2) % n]) > -1e-9
            )


class TestConvexIntersect:
    SQ1 = [(0, 0), (1, 0), (1, 1), (0, 1)]

    def test_overlapping(self):
        sq2 = [(0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5)]
        assert convex_intersect(self.SQ1, sq2)

    def test_touching_edge(self):
        sq2 = [(1, 0), (2, 0), (2, 1), (1, 1)]
        assert convex_intersect(self.SQ1, sq2)

    def test_disjoint(self):
        sq2 = [(2, 2), (3, 2), (3, 3), (2, 3)]
        assert not convex_intersect(self.SQ1, sq2)

    def test_contained(self):
        inner = [(0.4, 0.4), (0.6, 0.4), (0.6, 0.6), (0.4, 0.6)]
        assert convex_intersect(self.SQ1, inner)

    def test_cross_shape(self):
        # Neither polygon contains a vertex of the other.
        horizontal = [(-1, 0.4), (2, 0.4), (2, 0.6), (-1, 0.6)]
        vertical = [(0.4, -1), (0.6, -1), (0.6, 2), (0.4, 2)]
        assert convex_intersect(horizontal, vertical)

    @given(point_sets, point_sets)
    @settings(max_examples=50)
    def test_symmetric(self, pts1, pts2):
        h1, h2 = convex_hull(pts1), convex_hull(pts2)
        assert convex_intersect(h1, h2) == convex_intersect(h2, h1)

    @given(point_sets, point_sets)
    @settings(max_examples=50)
    def test_consistent_with_intersection_area(self, pts1, pts2):
        h1, h2 = convex_hull(pts1), convex_hull(pts2)
        if len(h1) < 3 or len(h2) < 3:
            return
        area = convex_intersection_area(h1, h2)
        if area > 1e-9:
            assert convex_intersect(h1, h2)


class TestClipping:
    def test_half_overlap(self):
        sq1 = [(0, 0), (1, 0), (1, 1), (0, 1)]
        sq2 = [(0.5, 0), (1.5, 0), (1.5, 1), (0.5, 1)]
        assert convex_intersection_area(sq1, sq2) == pytest.approx(0.5)

    def test_contained_returns_inner_area(self):
        sq1 = [(0, 0), (1, 0), (1, 1), (0, 1)]
        inner = [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)]
        assert convex_intersection_area(sq1, inner) == pytest.approx(0.25)

    def test_disjoint_zero(self):
        sq1 = [(0, 0), (1, 0), (1, 1), (0, 1)]
        sq2 = [(5, 5), (6, 5), (6, 6), (5, 6)]
        assert convex_intersection_area(sq1, sq2) == 0.0

    @given(point_sets, point_sets)
    @settings(max_examples=40)
    def test_intersection_area_bounded(self, pts1, pts2):
        h1, h2 = convex_hull(pts1), convex_hull(pts2)
        if len(h1) < 3 or len(h2) < 3:
            return
        area = convex_intersection_area(h1, h2)
        assert -1e-9 <= area <= min(convex_area(h1), convex_area(h2)) + 1e-6


class TestRotatedRect:
    def test_axis_aligned_square(self):
        corners, area, _angle = min_area_rotated_rect(
            [(0, 0), (1, 0), (1, 1), (0, 1)]
        )
        assert area == pytest.approx(1.0)
        assert len(corners) == 4

    def test_rotated_rectangle_recovered(self):
        # A 2x1 rectangle rotated by 30 degrees: the minimal rotated rect
        # has area 2, beating the axis-aligned MBR.
        base = [(0, 0), (2, 0), (2, 1), (0, 1)]
        ang = math.radians(30)
        rot = [
            (x * math.cos(ang) - y * math.sin(ang), x * math.sin(ang) + y * math.cos(ang))
            for x, y in base
        ]
        _corners, area, _angle = min_area_rotated_rect(rot)
        assert area == pytest.approx(2.0, rel=1e-6)

    @given(point_sets)
    @settings(max_examples=40)
    def test_covers_points_and_beats_nothing(self, pts):
        hull = convex_hull(pts)
        if len(hull) < 3:
            return
        corners, area, _ = min_area_rotated_rect(pts)
        # Rotated MBR must contain every point (tolerance for rotation noise).
        from repro.geometry.rectangle import Rect

        for p in pts:
            assert convex_contains_point(_ccw(corners), p) or _near_boundary(
                corners, p
            )
        # And can never beat the hull area.
        assert area >= convex_area(hull) - 1e-6


def _ccw(corners):
    return corners if is_ccw(corners) else list(reversed(corners))


def _near_boundary(corners, p, tol=1e-6):
    from repro.geometry.predicates import point_segment_distance

    n = len(corners)
    return any(
        point_segment_distance(p, corners[i], corners[(i + 1) % n]) <= tol
        for i in range(n)
    )
