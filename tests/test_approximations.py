"""Tests for conservative and progressive approximations (paper §3).

The two invariants that make the geometric filter *correct* (not just
effective) are property-tested here:

* conservative: object ⊆ approximation;
* progressive: approximation ⊆ object.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approximations.factory import (
    ALL_KINDS,
    CONSERVATIVE_KINDS,
    PROGRESSIVE_KINDS,
    compute_approximation,
    compute_approximations,
)
from repro.approximations.mbr import MBRApproximation
from repro.approximations.mcorner import (
    MCornerApproximation,
    reduce_hull_to_m_corners,
)
from repro.geometry.convex import convex_contains_point, convex_hull
from repro.geometry.fastops import EdgeArrays
from repro.geometry.rectangle import Rect
from tests.conftest import star_polygon

stars = st.builds(
    star_polygon,
    n=st.integers(min_value=5, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
    irregularity=st.floats(min_value=0.1, max_value=0.7),
)


class TestFactory:
    def test_all_kinds_constructible(self):
        poly = star_polygon(n=24, seed=3)
        approxs = compute_approximations(poly, ALL_KINDS)
        assert set(approxs) == set(ALL_KINDS)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            compute_approximation(star_polygon(), "BOGUS")

    def test_bad_mcorner_kind_raises(self):
        with pytest.raises(ValueError):
            compute_approximation(star_polygon(), "x-C")

    def test_parameter_counts_match_paper(self):
        # Figure 3 parameter counts: MBR(4) RMBR(5) MBC(3) MBE(5)
        # 4-C(8) 5-C(10); MEC(3) MER(4).
        poly = star_polygon(n=30, seed=1)
        expected = {
            "MBR": 4,
            "RMBR": 5,
            "MBC": 3,
            "MBE": 5,
            "4-C": 8,
            "5-C": 10,
            "MEC": 3,
            "MER": 4,
        }
        for kind, params in expected.items():
            assert compute_approximation(poly, kind).num_parameters == params

    def test_conservative_flags(self):
        poly = star_polygon(n=12, seed=2)
        for kind in CONSERVATIVE_KINDS:
            assert compute_approximation(poly, kind).is_conservative
        for kind in PROGRESSIVE_KINDS:
            assert not compute_approximation(poly, kind).is_conservative


class TestConservativeContainment:
    @given(stars, st.sampled_from(CONSERVATIVE_KINDS))
    @settings(max_examples=60, deadline=None)
    def test_contains_every_vertex(self, poly, kind):
        approx = compute_approximation(poly, kind)
        for v in poly.shell:
            assert approx.contains_point(v), f"{kind} lost vertex {v}"

    @given(stars, st.sampled_from(CONSERVATIVE_KINDS))
    @settings(max_examples=30, deadline=None)
    def test_area_at_least_object_area(self, poly, kind):
        approx = compute_approximation(poly, kind)
        assert approx.area() >= poly.area() - 1e-9

    @given(stars)
    @settings(max_examples=30, deadline=None)
    def test_quality_ordering(self, poly):
        """area(MBR) >= area(RMBR) >= area(5-C) >= area(CH) (Fig. 4 order)."""
        a = {k: compute_approximation(poly, k).area() for k in
             ("MBR", "RMBR", "4-C", "5-C", "CH")}
        assert a["MBR"] >= a["RMBR"] - 1e-9
        assert a["RMBR"] >= a["CH"] - 1e-9
        assert a["4-C"] >= a["5-C"] - 1e-9
        assert a["5-C"] >= a["CH"] - 1e-9


class TestProgressiveContainment:
    @given(stars, st.sampled_from(PROGRESSIVE_KINDS))
    @settings(max_examples=40, deadline=None)
    def test_enclosed_in_object(self, poly, kind):
        approx = compute_approximation(poly, kind)
        fast = EdgeArrays(poly)
        if kind == "MER":
            r = approx.mbr()
            assert fast.rect_inside(r.xmin, r.ymin, r.xmax, r.ymax)
        else:
            c = approx.circle()
            assert fast.contains_point(*c.center)
            assert fast.boundary_distance(*c.center) >= c.radius - 1e-9

    @given(stars, st.sampled_from(PROGRESSIVE_KINDS))
    @settings(max_examples=30, deadline=None)
    def test_area_at_most_object_area(self, poly, kind):
        approx = compute_approximation(poly, kind)
        assert approx.area() <= poly.area() + 1e-9


class TestMCorner:
    def test_m_too_small_raises(self):
        with pytest.raises(ValueError):
            MCornerApproximation.of(star_polygon(), 2)

    def test_side_count_bounded(self):
        poly = star_polygon(n=40, seed=9)
        for m in (3, 4, 5, 6, 8):
            approx = MCornerApproximation.of(poly, m)
            assert 3 <= len(approx.convex_vertices()) <= m

    def test_hull_smaller_than_m_returned_as_is(self):
        square = star_polygon(n=4, seed=0, irregularity=0.0)
        approx = MCornerApproximation.of(square, 8)
        assert len(approx.convex_vertices()) <= 8

    @given(stars, st.integers(min_value=3, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_reduction_contains_hull(self, poly, m):
        hull = convex_hull(poly.shell)
        reduced = reduce_hull_to_m_corners(hull, m)
        for p in hull:
            assert convex_contains_point(reduced, p), (
                f"m={m}: hull vertex {p} lost"
            )

    def test_more_corners_not_worse(self):
        poly = star_polygon(n=36, seed=4)
        a4 = MCornerApproximation.of(poly, 4).area()
        a5 = MCornerApproximation.of(poly, 5).area()
        a8 = MCornerApproximation.of(poly, 8).area()
        assert a4 >= a5 - 1e-9 >= a8 - 2e-9


class TestMBRApproximation:
    def test_wraps_polygon_mbr(self):
        poly = star_polygon(n=16, seed=5)
        approx = MBRApproximation.of(poly)
        assert approx.rect == poly.mbr()

    def test_contains_point_matches_rect(self):
        approx = MBRApproximation(Rect(0, 0, 2, 1))
        assert approx.contains_point((1, 0.5))
        assert not approx.contains_point((3, 0.5))


class TestCrossShapeIntersections:
    """approx_intersect over every shape-family combination."""

    @pytest.fixture(scope="class")
    def approx_sets(self):
        p1 = star_polygon(0.0, 0.0, n=20, seed=1)
        p2 = star_polygon(0.8, 0.3, n=20, seed=2)   # overlapping
        p3 = star_polygon(5.0, 5.0, n=20, seed=3)   # far away
        kinds = ("MBR", "RMBR", "5-C", "CH", "MBC", "MBE")
        return (
            {k: compute_approximation(p1, k) for k in kinds},
            {k: compute_approximation(p2, k) for k in kinds},
            {k: compute_approximation(p3, k) for k in kinds},
        )

    def test_overlapping_objects_all_pairs_intersect(self, approx_sets):
        s1, s2, _ = approx_sets
        for ka, a in s1.items():
            for kb, b in s2.items():
                assert a.intersects(b), f"{ka} x {kb} should intersect"

    def test_distant_objects_no_pair_intersects(self, approx_sets):
        s1, _, s3 = approx_sets
        for ka, a in s1.items():
            for kb, b in s3.items():
                assert not a.intersects(b), f"{ka} x {kb} should be disjoint"

    def test_intersects_symmetric(self, approx_sets):
        s1, s2, _ = approx_sets
        for a in s1.values():
            for b in s2.values():
                assert a.intersects(b) == b.intersects(a)


class TestShapeAccessors:
    def test_convex_accessor_raises_for_circle(self):
        approx = compute_approximation(star_polygon(), "MBC")
        with pytest.raises(TypeError):
            approx.convex_vertices()

    def test_circle_accessor_raises_for_polygon(self):
        approx = compute_approximation(star_polygon(), "MBR")
        with pytest.raises(TypeError):
            approx.circle()
