"""Tests for circles (Welzl MEC) and ellipses (Khachiyan MVEE)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.circle import Circle, minimum_enclosing_circle
from repro.geometry.ellipse import Ellipse, minimum_enclosing_ellipse

coords = st.floats(min_value=-10, max_value=10, allow_nan=False).map(
    lambda v: round(v, 6)
)
points = st.tuples(coords, coords)
point_sets = st.lists(points, min_size=1, max_size=50)


class TestCircle:
    def test_negative_radius_raises(self):
        with pytest.raises(ValueError):
            Circle((0, 0), -1)

    def test_area(self):
        assert Circle((0, 0), 2).area() == pytest.approx(4 * math.pi)

    def test_mbr(self):
        r = Circle((1, 2), 0.5).mbr()
        assert (r.xmin, r.ymin, r.xmax, r.ymax) == (0.5, 1.5, 1.5, 2.5)

    def test_contains_point(self):
        c = Circle((0, 0), 1)
        assert c.contains_point((0.5, 0.5))
        assert not c.contains_point((1, 1))

    def test_circle_circle_intersection(self):
        assert Circle((0, 0), 1).intersects_circle(Circle((1.5, 0), 1))
        assert not Circle((0, 0), 1).intersects_circle(Circle((3, 0), 1))

    def test_circle_circle_touching(self):
        assert Circle((0, 0), 1).intersects_circle(Circle((2, 0), 1))

    def test_circle_rect(self):
        from repro.geometry.rectangle import Rect

        c = Circle((0, 0), 1)
        assert c.intersects_rect(Rect(0.5, 0.5, 2, 2))
        assert not c.intersects_rect(Rect(0.8, 0.8, 2, 2))

    def test_lens_area_disjoint(self):
        assert Circle((0, 0), 1).intersection_area_circle(Circle((5, 0), 1)) == 0.0

    def test_lens_area_contained(self):
        big, small = Circle((0, 0), 2), Circle((0.1, 0), 0.5)
        assert big.intersection_area_circle(small) == pytest.approx(small.area())

    def test_lens_area_half_overlap_symmetric(self):
        c1, c2 = Circle((0, 0), 1), Circle((1, 0), 1)
        a = c1.intersection_area_circle(c2)
        # Known closed form for two unit circles at distance 1.
        expected = 2 * math.acos(0.5) - math.sin(2 * math.acos(0.5))
        assert a == pytest.approx(expected, rel=1e-9)


class TestWelzl:
    def test_two_points(self):
        c = minimum_enclosing_circle([(0, 0), (2, 0)])
        assert c.center == pytest.approx((1, 0))
        assert c.radius == pytest.approx(1)

    def test_equilateral_triangle(self):
        pts = [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]
        c = minimum_enclosing_circle(pts)
        assert c.radius == pytest.approx(1 / math.sqrt(3), rel=1e-9)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            minimum_enclosing_circle([])

    @given(point_sets)
    @settings(max_examples=60)
    def test_encloses_all_points(self, pts):
        c = minimum_enclosing_circle(pts)
        for p in pts:
            assert c.contains_point(p, tol=1e-7)

    @given(point_sets)
    @settings(max_examples=30)
    def test_minimality_vs_pairwise_diameter(self, pts):
        # The MEC radius is at least half the largest pairwise distance.
        c = minimum_enclosing_circle(pts)
        if len(pts) < 2:
            return
        diameter = max(
            math.dist(p, q) for i, p in enumerate(pts) for q in pts[i + 1 :]
        )
        assert c.radius >= diameter / 2 - 1e-7
        # ... and is never more than the diameter (loose sanity bound).
        assert c.radius <= diameter + 1e-7


class TestEllipse:
    def test_area_of_axis_aligned(self):
        # Semi-axes 2 and 1.
        e = Ellipse((0, 0), np.diag([1 / 4, 1]))
        assert e.area() == pytest.approx(2 * math.pi)

    def test_mbr_of_axis_aligned(self):
        e = Ellipse((1, 1), np.diag([1 / 4, 1]))
        r = e.mbr()
        assert (r.xmin, r.xmax) == pytest.approx((-1, 3))
        assert (r.ymin, r.ymax) == pytest.approx((0, 2))

    def test_contains_point(self):
        e = Ellipse((0, 0), np.diag([1 / 4, 1]))
        assert e.contains_point((1.9, 0))
        assert not e.contains_point((0, 1.5))

    def test_ellipse_intersection_overlapping(self):
        e1 = Ellipse((0, 0), np.diag([1, 1]))
        e2 = Ellipse((1.5, 0), np.diag([1, 1]))
        assert e1.intersects_ellipse(e2)

    def test_ellipse_intersection_disjoint(self):
        e1 = Ellipse((0, 0), np.diag([1, 1]))
        e2 = Ellipse((3, 0), np.diag([1, 1]))
        assert not e1.intersects_ellipse(e2)

    def test_thin_ellipses_crossing(self):
        # Two orthogonal thin ellipses crossing at the origin-ish region:
        # neither center is inside the other.
        e1 = Ellipse((0, 0), np.diag([1 / 25, 25]))
        e2 = Ellipse((0.5, 0.0), np.diag([25, 1 / 25]))
        assert e1.intersects_ellipse(e2)

    def test_boundary_points_on_ellipse(self):
        e = Ellipse((1, 2), np.diag([1 / 9, 1 / 4]))
        for p in e.boundary_points(32):
            d = np.array([p[0] - 1, p[1] - 2])
            assert float(d @ e.matrix @ d) == pytest.approx(1.0, abs=1e-9)


class TestMVEE:
    @given(point_sets)
    @settings(max_examples=40, deadline=None)
    def test_encloses_all_points(self, pts):
        e = minimum_enclosing_ellipse(pts)
        for p in pts:
            assert e.contains_point(p, tol=1e-6)

    def test_ellipse_tighter_than_circle_for_elongated_sets(self):
        pts = [(x / 10, 0.05 * math.sin(x)) for x in range(40)]
        e = minimum_enclosing_ellipse(pts)
        c = minimum_enclosing_circle(pts)
        assert e.area() < c.area()

    def test_degenerate_two_points(self):
        e = minimum_enclosing_ellipse([(0, 0), (2, 0)])
        assert e.contains_point((0, 0), tol=1e-6)
        assert e.contains_point((2, 0), tol=1e-6)
        assert e.contains_point((1, 0), tol=1e-6)
