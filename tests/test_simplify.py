"""Douglas-Peucker simplification properties."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.relations import bw
from repro.geometry.polygon import Polygon
from repro.geometry.predicates import point_segment_distance
from repro.geometry.simplify import (
    simplify_polygon,
    simplify_polyline,
    simplify_ring,
    vertex_reduction,
)


def noisy_line(n, amplitude, seed=1):
    rng = random.Random(seed)
    return [
        (i / (n - 1), amplitude * (rng.random() - 0.5)) for i in range(n)
    ]


def circle_ring(n, r=1.0):
    return [
        (r * math.cos(2 * math.pi * k / n), r * math.sin(2 * math.pi * k / n))
        for k in range(n)
    ]


class TestPolyline:
    def test_short_inputs_unchanged(self):
        assert simplify_polyline([(0, 0)], 0.1) == [(0, 0)]
        assert simplify_polyline([(0, 0), (1, 1)], 0.1) == [(0, 0), (1, 1)]

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            simplify_polyline([(0, 0), (1, 0), (2, 0)], -1)

    def test_collinear_points_collapse(self):
        line = [(float(i), 0.0) for i in range(10)]
        assert simplify_polyline(line, 1e-9) == [(0.0, 0.0), (9.0, 0.0)]

    def test_endpoints_always_kept(self):
        line = noisy_line(50, 0.01)
        out = simplify_polyline(line, 0.5)
        assert out[0] == line[0]
        assert out[-1] == line[-1]

    def test_zero_tolerance_keeps_spike(self):
        line = [(0, 0), (0.5, 1.0), (1, 0)]
        assert simplify_polyline(line, 0.0) == line

    def test_tolerance_monotone(self):
        line = noisy_line(200, 0.2, seed=7)
        sizes = [
            len(simplify_polyline(line, tol)) for tol in (0.0, 0.01, 0.05, 0.5)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_error_bound_respected(self):
        """Every dropped point stays within tolerance of the result chain."""
        line = noisy_line(120, 0.3, seed=3)
        tol = 0.05
        out = simplify_polyline(line, tol)
        kept = set(out)
        for p in line:
            if p in kept:
                continue
            best = min(
                point_segment_distance(p, out[i], out[i + 1])
                for i in range(len(out) - 1)
            )
            assert best <= tol + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 9999), tol=st.floats(0, 0.5, allow_nan=False))
    def test_property_subset_and_order(self, seed, tol):
        line = noisy_line(60, 0.2, seed=seed)
        out = simplify_polyline(line, tol)
        # result is an ordered subsequence of the input
        it = iter(line)
        assert all(p in it for p in out)


class TestRingAndPolygon:
    def test_circle_ring_simplifies(self):
        ring = circle_ring(400)
        out = simplify_ring(ring, 0.01)
        assert 3 <= len(out) < 400

    def test_ring_never_below_triangle(self):
        ring = circle_ring(100, r=0.001)
        out = simplify_ring(ring, 10.0)  # brutal tolerance
        assert len(out) >= 3

    def test_polygon_area_roughly_preserved(self):
        poly = Polygon(circle_ring(500))
        simplified = simplify_polygon(poly, 0.01)
        assert simplified.area() == pytest.approx(poly.area(), rel=0.05)
        assert simplified.num_vertices < poly.num_vertices

    def test_polygon_holes_survive_mild_tolerance(self):
        shell = circle_ring(200, r=2.0)
        hole = circle_ring(100, r=0.5)
        poly = Polygon(shell, holes=[hole])
        out = simplify_polygon(poly, 0.01)
        assert len(out.holes) == 1

    def test_tiny_holes_dropped_at_high_tolerance(self):
        shell = circle_ring(200, r=10.0)
        hole = circle_ring(30, r=0.01)
        poly = Polygon(shell, holes=[hole])
        out = simplify_polygon(poly, 1.0)
        assert len(out.holes) == 0

    def test_cartographic_reduction(self):
        rel = bw(size=8)
        for obj in rel:
            before = obj.polygon.num_vertices
            after = simplify_polygon(obj.polygon, 0.002).num_vertices
            assert after <= before


class TestVertexReduction:
    def test_zero_distance_identity(self):
        line = noisy_line(20, 0.1)
        assert vertex_reduction(line, 0.0) == line

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            vertex_reduction([(0, 0), (1, 1)], -0.5)

    def test_thinning_dense_points(self):
        line = [(i * 0.001, 0.0) for i in range(1000)]
        out = vertex_reduction(line, 0.1)
        assert len(out) <= 11
        for (x1, _), (x2, _) in zip(out, out[1:]):
            assert x2 - x1 >= 0.1 - 1e-12

    def test_keeps_at_least_two_points(self):
        line = [(0, 0), (1e-9, 0), (2e-9, 0)]
        out = vertex_reduction(line, 1.0)
        assert len(out) >= 2
