"""Polygon clipping (Greiner-Hormann) against independent oracles."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.clipping import (
    intersect_rings,
    polygon_intersection,
    polygon_intersection_area,
)
from repro.geometry.convex import convex_hull, convex_intersection_area
from repro.geometry.polygon import Polygon
from repro.geometry.predicates import polygon_signed_area

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def shifted(ring, dx, dy):
    return [(x + dx, y + dy) for x, y in ring]


def ring_area(ring):
    return abs(polygon_signed_area(ring))


def regular_polygon(n, cx, cy, r, phase=0.0):
    return [
        (cx + r * math.cos(phase + 2 * math.pi * k / n),
         cy + r * math.sin(phase + 2 * math.pi * k / n))
        for k in range(n)
    ]


class TestBasicCases:
    def test_disjoint(self):
        assert intersect_rings(SQUARE, shifted(SQUARE, 5, 5)) == []

    def test_identical_overlap_area(self):
        """Identical rings are fully degenerate; perturbation resolves."""
        rings = intersect_rings(SQUARE, [(x, y) for x, y in SQUARE])
        area = sum(ring_area(r) for r in rings)
        assert area == pytest.approx(1.0, rel=1e-6)

    def test_half_overlap(self):
        rings = intersect_rings(SQUARE, shifted(SQUARE, 0.5, 0.0))
        assert sum(ring_area(r) for r in rings) == pytest.approx(0.5, rel=1e-6)

    def test_quarter_overlap(self):
        rings = intersect_rings(SQUARE, shifted(SQUARE, 0.5, 0.5))
        assert sum(ring_area(r) for r in rings) == pytest.approx(0.25, rel=1e-6)

    def test_contained_ring(self):
        small = [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)]
        rings = intersect_rings(SQUARE, small)
        assert sum(ring_area(r) for r in rings) == pytest.approx(0.25, rel=1e-9)
        # symmetric direction
        rings = intersect_rings(small, SQUARE)
        assert sum(ring_area(r) for r in rings) == pytest.approx(0.25, rel=1e-9)

    def test_touching_edges_is_empty_or_tiny(self):
        rings = intersect_rings(SQUARE, shifted(SQUARE, 1.0, 0.0))
        assert sum(ring_area(r) for r in rings) < 1e-6

    def test_cross_shape_two_regions(self):
        """A plus-shaped overlap: thin horizontal vs thin vertical bar."""
        horizontal = [(-1.0, 0.4), (2.0, 0.4), (2.0, 0.6), (-1.0, 0.6)]
        rings = intersect_rings(SQUARE, horizontal)
        assert sum(ring_area(r) for r in rings) == pytest.approx(0.2, rel=1e-6)

    def test_concave_subject(self):
        """L-shaped polygon clipped against a square."""
        ell = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
        window = [(0.5, 0.5), (3.0, 0.5), (3.0, 3.0), (0.5, 3.0)]
        rings = intersect_rings(ell, window)
        # Expected: part of the L inside the window.
        # L ∩ window area: region x in [.5,2], y in [.5,1] plus x in [.5,1],
        # y in [1,2]  =>  1.5*0.5 + 0.5*1 = 1.25
        assert sum(ring_area(r) for r in rings) == pytest.approx(1.25, rel=1e-6)

    def test_result_rings_ccw(self):
        rings = intersect_rings(SQUARE, shifted(SQUARE, 0.3, 0.3))
        for r in rings:
            assert polygon_signed_area(r) > 0


class TestConvexOracle:
    """Greiner-Hormann must agree with the convex clipper on convex input."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_convex_pairs(self, seed):
        rng = random.Random(seed)
        pts_a = [(rng.random(), rng.random()) for _ in range(14)]
        pts_b = [(rng.random() + 0.3, rng.random() + 0.3) for _ in range(14)]
        hull_a = convex_hull(pts_a)
        hull_b = convex_hull(pts_b)
        expected = convex_intersection_area(hull_a, hull_b)
        rings = intersect_rings(hull_a, hull_b)
        got = sum(ring_area(r) for r in rings)
        assert got == pytest.approx(expected, abs=1e-7)

    @pytest.mark.parametrize("n,m", [(3, 3), (5, 7), (12, 4)])
    def test_regular_polygon_pairs(self, n, m):
        poly_a = regular_polygon(n, 0.5, 0.5, 0.45, phase=0.1)
        poly_b = regular_polygon(m, 0.7, 0.6, 0.4, phase=0.37)
        expected = convex_intersection_area(poly_a, poly_b)
        got = sum(ring_area(r) for r in intersect_rings(poly_a, poly_b))
        assert got == pytest.approx(expected, abs=1e-7)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        dx=st.floats(-1.2, 1.2, allow_nan=False),
        dy=st.floats(-1.2, 1.2, allow_nan=False),
    )
    def test_property_convex_translates(self, seed, dx, dy):
        rng = random.Random(seed)
        pts = [(rng.random(), rng.random()) for _ in range(10)]
        hull = convex_hull(pts)
        other = [(x + dx, y + dy) for x, y in hull]
        expected = convex_intersection_area(hull, other)
        got = sum(ring_area(r) for r in intersect_rings(hull, other))
        assert got == pytest.approx(expected, abs=1e-6)


class TestPolygonAPI:
    def test_polygon_intersection_returns_polygons(self):
        a = Polygon(SQUARE)
        b = Polygon(shifted(SQUARE, 0.5, 0.5))
        regions = polygon_intersection(a, b)
        assert len(regions) == 1
        assert regions[0].area() == pytest.approx(0.25, rel=1e-6)

    def test_area_with_hole_in_one_polygon(self):
        """A unit square with a central hole clipped by a shifted square."""
        hole = [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)]
        a = Polygon(SQUARE, holes=[hole])
        b = Polygon(shifted(SQUARE, 0.5, 0.0))
        # overlap of shells: x in [.5, 1] -> 0.5
        # hole ∩ b shell: x in [.5,.75], y in [.25,.75] -> 0.125
        area = polygon_intersection_area(a, b)
        assert area == pytest.approx(0.5 - 0.125, rel=1e-5)

    def test_area_with_holes_in_both(self):
        hole = [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)]
        a = Polygon(SQUARE, holes=[hole])
        b = Polygon(SQUARE, holes=[hole])
        # identical geometry: area = shell - hole = 1 - 0.25
        area = polygon_intersection_area(a, b)
        assert area == pytest.approx(0.75, rel=1e-4)

    def test_area_never_negative(self):
        a = Polygon(SQUARE)
        b = Polygon(shifted(SQUARE, 3.0, 3.0))
        assert polygon_intersection_area(a, b) == 0.0

    def test_area_bounded_by_min_area(self):
        rng = random.Random(99)
        for _ in range(10):
            pts_a = [(rng.random(), rng.random()) for _ in range(8)]
            pts_b = [(rng.random(), rng.random()) for _ in range(8)]
            a = Polygon(convex_hull(pts_a))
            b = Polygon(convex_hull(pts_b))
            area = polygon_intersection_area(a, b)
            assert area <= min(a.area(), b.area()) + 1e-9
