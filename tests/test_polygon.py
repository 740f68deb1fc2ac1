"""Unit and property tests for Polygon (with holes)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rect
from tests.conftest import star_polygon

UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


class TestConstruction:
    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 1)])

    def test_orientation_normalised(self):
        cw = Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])
        from repro.geometry.predicates import is_ccw

        assert is_ccw(cw.shell)

    def test_duplicate_vertices_removed(self):
        p = Polygon([(0, 0), (0, 0), (1, 0), (1, 1), (1, 1), (0, 1), (0, 0)])
        assert len(p.shell) == 4

    def test_hole_orientation_cw(self):
        p = Polygon(
            UNIT_SQUARE, holes=[[(0.2, 0.2), (0.8, 0.2), (0.8, 0.8), (0.2, 0.8)]]
        )
        from repro.geometry.predicates import polygon_signed_area

        assert polygon_signed_area(p.holes[0]) < 0

    def test_num_vertices_counts_holes(self):
        p = Polygon(
            UNIT_SQUARE, holes=[[(0.2, 0.2), (0.8, 0.2), (0.8, 0.8), (0.2, 0.8)]]
        )
        assert p.num_vertices == 8


class TestMeasures:
    def test_square_area(self):
        assert Polygon(UNIT_SQUARE).area() == pytest.approx(1.0)

    def test_area_subtracts_holes(self):
        p = Polygon(
            UNIT_SQUARE, holes=[[(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)]]
        )
        assert p.area() == pytest.approx(0.75)

    def test_mbr(self):
        p = Polygon([(0, 0), (2, 1), (1, 3)])
        assert p.mbr() == Rect(0, 0, 2, 3)

    def test_centroid_of_square(self):
        assert Polygon(UNIT_SQUARE).centroid() == pytest.approx((0.5, 0.5))

    def test_centroid_with_hole_shifts(self):
        # Hole in the right half pushes the centroid left.
        p = Polygon(
            UNIT_SQUARE, holes=[[(0.6, 0.3), (0.9, 0.3), (0.9, 0.7), (0.6, 0.7)]]
        )
        assert p.centroid()[0] < 0.5

    @given(st.integers(min_value=4, max_value=60), st.integers(min_value=0, max_value=50))
    @settings(max_examples=30)
    def test_star_area_positive_and_bounded(self, n, seed):
        p = star_polygon(n=n, seed=seed)
        assert 0 < p.area() <= p.mbr().area() + 1e-12


class TestContainment:
    def test_inside(self):
        assert Polygon(UNIT_SQUARE).contains_point((0.5, 0.5))

    def test_outside(self):
        assert not Polygon(UNIT_SQUARE).contains_point((1.5, 0.5))

    def test_boundary_counts_inside(self):
        assert Polygon(UNIT_SQUARE).contains_point((1.0, 0.5))

    def test_vertex_counts_inside(self):
        assert Polygon(UNIT_SQUARE).contains_point((0.0, 0.0))

    def test_point_in_hole_is_outside(self):
        p = Polygon(
            UNIT_SQUARE, holes=[[(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)]]
        )
        assert not p.contains_point((0.5, 0.5))
        assert p.contains_point((0.1, 0.1))

    @given(st.integers(min_value=5, max_value=40), st.integers(min_value=0, max_value=30))
    @settings(max_examples=25)
    def test_centroid_of_star_inside(self, n, seed):
        # Star polygons are star-shaped about the origin, which is their
        # approximate centroid.
        p = star_polygon(n=n, seed=seed)
        assert p.contains_point((0.0, 0.0))


class TestContainsRect:
    def test_contained(self):
        assert Polygon(UNIT_SQUARE).contains_rect(Rect(0.2, 0.2, 0.8, 0.8))

    def test_rect_equal_to_polygon(self):
        assert Polygon(UNIT_SQUARE).contains_rect(Rect(0, 0, 1, 1))

    def test_protruding(self):
        assert not Polygon(UNIT_SQUARE).contains_rect(Rect(0.5, 0.5, 1.5, 0.8))

    def test_rect_over_hole_rejected(self):
        p = Polygon(
            UNIT_SQUARE, holes=[[(0.4, 0.4), (0.6, 0.4), (0.6, 0.6), (0.4, 0.6)]]
        )
        assert not p.contains_rect(Rect(0.3, 0.3, 0.7, 0.7))

    def test_rect_beside_hole_accepted(self):
        p = Polygon(
            UNIT_SQUARE, holes=[[(0.4, 0.4), (0.6, 0.4), (0.6, 0.6), (0.4, 0.6)]]
        )
        assert p.contains_rect(Rect(0.05, 0.05, 0.3, 0.3))

    def test_nonconvex_notch(self):
        # U-shaped polygon: rect spanning the notch must be rejected even
        # though all four corners are inside the outline's MBR.
        u_shape = Polygon(
            [(0, 0), (3, 0), (3, 3), (2, 3), (2, 1), (1, 1), (1, 3), (0, 3)]
        )
        assert not u_shape.contains_rect(Rect(0.5, 2, 2.5, 2.5))
        assert u_shape.contains_rect(Rect(0.1, 0.1, 2.9, 0.9))


class TestSimplicity:
    def test_simple_square(self):
        assert Polygon(UNIT_SQUARE).is_simple()

    def test_bowtie_not_simple(self):
        bowtie = Polygon([(0, 0), (1, 1), (1, 0), (0, 1)])
        assert not bowtie.is_simple()

    def test_validate_raises_on_bowtie(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 1), (1, 0), (0, 1)]).validate()

    def test_validate_rejects_hole_outside(self):
        p = Polygon(UNIT_SQUARE, holes=[[(2, 2), (3, 2), (3, 3), (2, 3)]])
        with pytest.raises(ValueError):
            p.validate()


class TestTransforms:
    def test_translated(self):
        p = Polygon(UNIT_SQUARE).translated(2, 3)
        assert p.mbr() == Rect(2, 3, 3, 4)

    def test_rotated_preserves_area(self):
        p = star_polygon(n=20, seed=7)
        q = p.rotated(1.234)
        assert q.area() == pytest.approx(p.area())

    def test_scaled_area(self):
        p = Polygon(UNIT_SQUARE).scaled(2.0)
        assert p.area() == pytest.approx(4.0)

    def test_translation_preserves_holes(self):
        p = Polygon(
            UNIT_SQUARE, holes=[[(0.2, 0.2), (0.8, 0.2), (0.8, 0.8), (0.2, 0.8)]]
        ).translated(1, 0)
        assert len(p.holes) == 1
        assert p.area() == pytest.approx(1.0 - 0.36)


class TestBoundaryDistance:
    def test_center_of_square(self):
        assert Polygon(UNIT_SQUARE).distance_to_boundary((0.5, 0.5)) == pytest.approx(
            0.5
        )

    def test_near_edge(self):
        assert Polygon(UNIT_SQUARE).distance_to_boundary((0.1, 0.5)) == pytest.approx(
            0.1
        )
