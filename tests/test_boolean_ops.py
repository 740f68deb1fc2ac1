"""Union and difference of rings: area identities vs the intersection."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.clipping import (
    difference_rings,
    intersect_rings,
    union_rings,
)
from repro.geometry.convex import convex_hull
from repro.geometry.predicates import polygon_signed_area

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def shifted(ring, dx, dy):
    return [(x + dx, y + dy) for x, y in ring]


def signed_total(rings):
    """Net area: CCW regions positive, CW holes negative."""
    return sum(polygon_signed_area(r) for r in rings)


def abs_area(ring):
    return abs(polygon_signed_area(ring))


class TestUnion:
    def test_disjoint_union_is_both(self):
        rings = union_rings(SQUARE, shifted(SQUARE, 5, 5))
        assert len(rings) == 2
        assert signed_total(rings) == pytest.approx(2.0)

    def test_contained_union_is_outer(self):
        small = [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)]
        assert signed_total(union_rings(SQUARE, small)) == pytest.approx(1.0)
        assert signed_total(union_rings(small, SQUARE)) == pytest.approx(1.0)

    def test_half_overlap_union(self):
        rings = union_rings(SQUARE, shifted(SQUARE, 0.5, 0.0))
        assert signed_total(rings) == pytest.approx(1.5, rel=1e-6)

    def test_union_inclusion_exclusion(self):
        """|A∪B| = |A| + |B| - |A∩B| on random convex pairs."""
        rng = random.Random(42)
        for _ in range(10):
            hull_a = convex_hull([(rng.random(), rng.random()) for _ in range(10)])
            hull_b = convex_hull(
                [(rng.random() * 0.8 + 0.2, rng.random() * 0.8) for _ in range(10)]
            )
            inter = sum(abs_area(r) for r in intersect_rings(hull_a, hull_b))
            union = signed_total(union_rings(hull_a, hull_b))
            expected = abs_area(hull_a) + abs_area(hull_b) - inter
            assert union == pytest.approx(expected, abs=1e-7)

    @settings(max_examples=30, deadline=None)
    @given(
        dx=st.floats(-1.5, 1.5, allow_nan=False),
        dy=st.floats(-1.5, 1.5, allow_nan=False),
    )
    def test_property_union_bounds(self, dx, dy):
        other = shifted(SQUARE, dx, dy)
        union = signed_total(union_rings(SQUARE, other))
        assert 1.0 - 1e-6 <= union <= 2.0 + 1e-6


class TestDifference:
    def test_disjoint_difference_is_subject(self):
        rings = difference_rings(SQUARE, shifted(SQUARE, 5, 5))
        assert signed_total(rings) == pytest.approx(1.0)

    def test_subject_inside_clip_is_empty(self):
        small = [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)]
        assert difference_rings(small, SQUARE) == []

    def test_annulus_case(self):
        """Clip strictly inside subject: outer CCW ring + CW hole ring."""
        small = [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)]
        rings = difference_rings(SQUARE, small)
        assert len(rings) == 2
        areas = sorted(polygon_signed_area(r) for r in rings)
        assert areas[0] == pytest.approx(-0.25)  # hole, CW
        assert areas[1] == pytest.approx(1.0)  # outer, CCW
        assert signed_total(rings) == pytest.approx(0.75)

    def test_half_overlap_difference(self):
        rings = difference_rings(SQUARE, shifted(SQUARE, 0.5, 0.0))
        assert signed_total(rings) == pytest.approx(0.5, rel=1e-6)

    def test_difference_identity(self):
        """|A\\B| = |A| - |A∩B| on random convex pairs."""
        rng = random.Random(7)
        for _ in range(10):
            hull_a = convex_hull([(rng.random(), rng.random()) for _ in range(9)])
            hull_b = convex_hull(
                [(rng.random() + 0.3, rng.random() + 0.1) for _ in range(9)]
            )
            inter = sum(abs_area(r) for r in intersect_rings(hull_a, hull_b))
            diff = signed_total(difference_rings(hull_a, hull_b))
            assert diff == pytest.approx(abs_area(hull_a) - inter, abs=1e-7)

    def test_difference_not_symmetric(self):
        big = [(0, 0), (2, 0), (2, 2), (0, 2)]
        off = shifted(SQUARE, 1.5, 0.5)
        d1 = signed_total(difference_rings(big, off))
        d2 = signed_total(difference_rings(off, big))
        assert d1 == pytest.approx(4.0 - 0.5, rel=1e-6)
        assert d2 == pytest.approx(1.0 - 0.5, rel=1e-6)


class TestThreeWayConsistency:
    @pytest.mark.parametrize("seed", range(5))
    def test_partition_identity(self, seed):
        """|A∩B| + |A\\B| + |B\\A| = |A∪B| for random convex pairs."""
        rng = random.Random(seed)
        hull_a = convex_hull([(rng.random(), rng.random()) for _ in range(12)])
        hull_b = convex_hull(
            [(rng.random() * 0.9 + 0.25, rng.random()) for _ in range(12)]
        )
        inter = sum(abs_area(r) for r in intersect_rings(hull_a, hull_b))
        d_ab = signed_total(difference_rings(hull_a, hull_b))
        d_ba = signed_total(difference_rings(hull_b, hull_a))
        union = signed_total(union_rings(hull_a, hull_b))
        assert inter + d_ab + d_ba == pytest.approx(union, abs=1e-6)
