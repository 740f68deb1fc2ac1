"""Reporting sweep vs. the quadratic oracle."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exact.reporting_sweep import (
    polygon_pair_intersections,
    quadratic_intersections,
    report_intersections,
)
from repro.geometry.polygon import Polygon


def rand_segments(n, seed, span=1.0):
    rng = random.Random(seed)
    segs = []
    for _ in range(n):
        x, y = rng.random(), rng.random()
        segs.append(
            (
                (x, y),
                (x + rng.uniform(-span, span), y + rng.uniform(-span, span)),
            )
        )
    return segs


def pair_set(triples):
    return {(i, j) for _, i, j in triples}


class TestReporting:
    def test_empty(self):
        assert report_intersections([]) == []

    def test_single_crossing(self):
        segs = [((0, 0), (1, 1)), ((0, 1), (1, 0))]
        out = report_intersections(segs)
        assert len(out) == 1
        point, i, j = out[0]
        assert (i, j) == (0, 1)
        assert point[0] == pytest.approx(0.5)
        assert point[1] == pytest.approx(0.5)

    def test_disjoint_segments(self):
        segs = [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))]
        assert report_intersections(segs) == []

    def test_shared_endpoint_included_or_not(self):
        segs = [((0, 0), (1, 1)), ((1, 1), (2, 0))]
        with_ep = report_intersections(segs, include_endpoints=True)
        without_ep = report_intersections(segs, include_endpoints=False)
        assert pair_set(with_ep) == {(0, 1)}
        assert without_ep == []

    def test_collinear_overlap_reported(self):
        segs = [((0, 0), (2, 0)), ((1, 0), (3, 0))]
        out = report_intersections(segs)
        assert pair_set(out) == {(0, 1)}

    def test_vertical_segments(self):
        segs = [((0.5, -1), (0.5, 1)), ((0, 0), (1, 0))]
        out = report_intersections(segs)
        assert len(out) == 1
        assert out[0][0] == pytest.approx((0.5, 0.0))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_quadratic_oracle(self, seed):
        segs = rand_segments(40, seed, span=0.4)
        got = pair_set(report_intersections(segs))
        expected = pair_set(quadratic_intersections(segs))
        assert got == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_oracle_without_endpoints(self, seed):
        segs = rand_segments(30, seed + 50, span=0.5)
        got = pair_set(report_intersections(segs, include_endpoints=False))
        expected = pair_set(quadratic_intersections(segs, include_endpoints=False))
        assert got == expected

    def test_star_configuration(self):
        """n segments through one point: all pairs intersect there."""
        n = 8
        segs = []
        for k in range(n):
            angle = math.pi * k / n
            dx, dy = math.cos(angle), math.sin(angle)
            segs.append(((0.5 - dx, 0.5 - dy), (0.5 + dx, 0.5 + dy)))
        out = report_intersections(segs)
        assert len(out) == n * (n - 1) // 2
        for point, _, _ in out:
            assert point == pytest.approx((0.5, 0.5))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 100_000), n=st.integers(2, 25))
    def test_property_matches_oracle(self, seed, n):
        segs = rand_segments(n, seed, span=0.6)
        assert pair_set(report_intersections(segs)) == pair_set(
            quadratic_intersections(segs)
        )


class TestPolygonPairs:
    def test_square_cross(self):
        a = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        b = Polygon([(1, 1), (3, 1), (3, 3), (1, 3)])
        points = polygon_pair_intersections(a.edges(), b.edges())
        # the two shells cross at (2,1) and (1,2)
        rounded = sorted((round(x, 9), round(y, 9)) for x, y in points)
        assert rounded == [(1.0, 2.0), (2.0, 1.0)]

    def test_disjoint_polygons_no_points(self):
        a = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        b = Polygon([(5, 5), (6, 5), (6, 6), (5, 6)])
        assert polygon_pair_intersections(a.edges(), b.edges()) == []

    def test_same_layer_crossings_ignored(self):
        """A self-intersecting edge set on one side must not report."""
        bowtie_edges = [((0, 0), (1, 1)), ((0, 1), (1, 0))]
        other = [((5, 5), (6, 6))]
        assert polygon_pair_intersections(bowtie_edges, other) == []
