"""Tests for approximation-quality metrics and the false-area test."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approximations.factory import compute_approximation
from repro.approximations.false_area import (
    false_area_test,
    false_area_test_stored,
)
from repro.approximations.quality import (
    area_extension,
    area_extension_ratio,
    false_area,
    mbr_based_false_area,
    normalized_false_area,
    progressive_coverage,
)
from repro.geometry.polygon import Polygon
from tests.conftest import square, star_polygon

stars = st.builds(
    star_polygon,
    n=st.integers(min_value=6, max_value=30),
    seed=st.integers(min_value=0, max_value=5000),
)

UNIT_SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


class TestFalseAreaMetrics:
    def test_mbr_of_square_has_zero_false_area(self):
        approx = compute_approximation(UNIT_SQUARE, "MBR")
        assert false_area(UNIT_SQUARE, approx) == pytest.approx(0.0, abs=1e-9)
        assert normalized_false_area(UNIT_SQUARE, approx) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_mbr_of_triangle(self):
        tri = Polygon([(0, 0), (2, 0), (0, 2)])
        approx = compute_approximation(tri, "MBR")
        # MBR area 4, triangle area 2 -> normalized false area 1.
        assert normalized_false_area(tri, approx) == pytest.approx(1.0)

    @given(stars, st.sampled_from(("MBR", "RMBR", "4-C", "5-C", "CH")))
    @settings(max_examples=40, deadline=None)
    def test_false_area_nonnegative_for_conservative(self, poly, kind):
        approx = compute_approximation(poly, kind)
        assert false_area(poly, approx) >= -1e-9

    @given(stars)
    @settings(max_examples=25, deadline=None)
    def test_mbr_based_false_area_at_most_plain(self, poly):
        """Clipping to the MBR can only reduce an approximation's false area."""
        for kind in ("RMBR", "5-C", "MBC", "MBE"):
            approx = compute_approximation(poly, kind)
            assert (
                mbr_based_false_area(poly, approx)
                <= normalized_false_area(poly, approx) + 1e-6
            )

    def test_mbr_based_equals_plain_for_mbr(self):
        poly = star_polygon(n=20, seed=11)
        approx = compute_approximation(poly, "MBR")
        assert mbr_based_false_area(poly, approx) == pytest.approx(
            normalized_false_area(poly, approx), abs=1e-9
        )


class TestAreaExtension:
    def test_mbr_extension_ratio_is_one(self):
        poly = star_polygon(n=18, seed=4)
        approx = compute_approximation(poly, "MBR")
        assert area_extension_ratio(poly, approx) == pytest.approx(1.0)

    @given(stars, st.sampled_from(("RMBR", "4-C", "5-C", "MBC", "MBE")))
    @settings(max_examples=30, deadline=None)
    def test_extension_ratio_at_least_one(self, poly, kind):
        """§3.4: all non-MBR approximations have higher area extension."""
        approx = compute_approximation(poly, kind)
        assert area_extension_ratio(poly, approx) >= 1.0 - 1e-9

    def test_area_extension_is_mbr_area(self):
        approx = compute_approximation(UNIT_SQUARE, "MBR")
        assert area_extension(approx) == pytest.approx(1.0)


class TestProgressiveCoverage:
    @given(stars)
    @settings(max_examples=25, deadline=None)
    def test_coverage_in_unit_interval(self, poly):
        for kind in ("MEC", "MER"):
            approx = compute_approximation(poly, kind)
            cov = progressive_coverage(poly, approx)
            assert 0.0 < cov <= 1.0 + 1e-9

    def test_square_mer_coverage_is_full(self):
        approx = compute_approximation(UNIT_SQUARE, "MER")
        assert progressive_coverage(UNIT_SQUARE, approx) == pytest.approx(
            1.0, abs=1e-3
        )


class TestFalseAreaTest:
    def test_proves_heavily_overlapping_squares(self):
        # Two identical squares: approximations equal the objects, so the
        # intersection area (1) exceeds fa1 + fa2 (0).
        s1 = square(0.5, 0.5, 0.5)
        s2 = square(0.5, 0.5, 0.5)
        a1 = compute_approximation(s1, "5-C")
        a2 = compute_approximation(s2, "5-C")
        assert false_area_test(s1, a1, s2, a2)

    def test_no_proof_for_disjoint(self):
        s1 = square(0.0, 0.0, 0.5)
        s2 = square(5.0, 5.0, 0.5)
        a1 = compute_approximation(s1, "MBR")
        a2 = compute_approximation(s2, "MBR")
        assert not false_area_test(s1, a1, s2, a2)

    @given(stars, stars)
    @settings(max_examples=40, deadline=None)
    def test_soundness_no_false_positives(self, p1, p2):
        """A false-area proof must imply actual object intersection."""
        from repro.geometry.fastops import polygons_intersect_fast

        for kind in ("MBR", "5-C", "CH"):
            a1 = compute_approximation(p1, kind)
            a2 = compute_approximation(p2, kind)
            if false_area_test(p1, a1, p2, a2):
                assert polygons_intersect_fast(p1, p2)

    def test_stored_variant_matches(self):
        p1 = star_polygon(0, 0, n=20, seed=1)
        p2 = star_polygon(0.3, 0.2, n=20, seed=2)
        a1 = compute_approximation(p1, "5-C")
        a2 = compute_approximation(p2, "5-C")
        direct = false_area_test(p1, a1, p2, a2)
        stored = false_area_test_stored(
            a1, a1.area() - p1.area(), a2, a2.area() - p2.area()
        )
        assert direct == stored
