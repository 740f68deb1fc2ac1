"""Unit and property tests for Rect (MBR)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.rectangle import Rect

coords = st.floats(min_value=-100, max_value=100, allow_nan=False)


@st.composite
def rects(draw):
    x1, x2 = sorted((draw(coords), draw(coords)))
    y1, y2 = sorted((draw(coords), draw(coords)))
    return Rect(x1, y1, x2, y2)


class TestConstruction:
    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            Rect(1, 0, 0, 1)

    def test_from_points(self):
        r = Rect.from_points([(1, 2), (-1, 5), (3, 0)])
        assert (r.xmin, r.ymin, r.xmax, r.ymax) == (-1, 0, 3, 5)

    def test_from_points_empty_raises(self):
        with pytest.raises(ValueError):
            Rect.from_points([])

    def test_union_all(self):
        r = Rect.union_all([Rect(0, 0, 1, 1), Rect(2, -1, 3, 0.5)])
        assert (r.xmin, r.ymin, r.xmax, r.ymax) == (0, -1, 3, 1)

    def test_point_rect_allowed(self):
        r = Rect(1, 1, 1, 1)
        assert r.area() == 0.0


class TestMeasures:
    def test_area_margin_center(self):
        r = Rect(0, 0, 2, 3)
        assert r.area() == 6
        assert r.margin() == 5
        assert r.center == (1.0, 1.5)

    def test_corners_ccw(self):
        from repro.geometry.predicates import is_ccw

        assert is_ccw(Rect(0, 0, 2, 1).corners())


class TestPredicates:
    def test_intersects_overlap(self):
        assert Rect(0, 0, 2, 2).intersects(Rect(1, 1, 3, 3))

    def test_intersects_touching_edge(self):
        assert Rect(0, 0, 1, 1).intersects(Rect(1, 0, 2, 1))

    def test_disjoint(self):
        assert not Rect(0, 0, 1, 1).intersects(Rect(2, 2, 3, 3))

    def test_contains_point_boundary(self):
        assert Rect(0, 0, 1, 1).contains_point((1, 0.5))

    def test_contains_rect(self):
        assert Rect(0, 0, 4, 4).contains_rect(Rect(1, 1, 2, 2))
        assert not Rect(0, 0, 4, 4).contains_rect(Rect(3, 3, 5, 5))

    @given(rects(), rects())
    def test_intersects_symmetric(self, r1, r2):
        assert r1.intersects(r2) == r2.intersects(r1)

    @given(rects(), rects())
    def test_intersection_consistency(self, r1, r2):
        inter = r1.intersection(r2)
        assert (inter is not None) == r1.intersects(r2)
        if inter is not None:
            assert r1.contains_rect(inter) and r2.contains_rect(inter)
            assert inter.area() == pytest.approx(r1.intersection_area(r2))


class TestCombination:
    def test_union_covers_both(self):
        r1, r2 = Rect(0, 0, 1, 1), Rect(2, 2, 3, 3)
        u = r1.union(r2)
        assert u.contains_rect(r1) and u.contains_rect(r2)

    def test_intersection_area_disjoint_zero(self):
        assert Rect(0, 0, 1, 1).intersection_area(Rect(5, 5, 6, 6)) == 0.0

    def test_enlargement_zero_when_contained(self):
        assert Rect(0, 0, 4, 4).enlargement(Rect(1, 1, 2, 2)) == 0.0

    def test_enlargement_positive(self):
        assert Rect(0, 0, 1, 1).enlargement(Rect(2, 0, 3, 1)) == pytest.approx(2.0)

    def test_min_distance(self):
        assert Rect(0, 0, 1, 1).min_distance(Rect(4, 4, 5, 5)) == pytest.approx(
            (2 * 3**2) ** 0.5
        )
        assert Rect(0, 0, 2, 2).min_distance(Rect(1, 1, 3, 3)) == 0.0

    def test_expand(self):
        r = Rect(0, 0, 1, 1).expand(0.5)
        assert (r.xmin, r.ymin, r.xmax, r.ymax) == (-0.5, -0.5, 1.5, 1.5)

    @given(rects(), rects())
    def test_union_area_superadditive(self, r1, r2):
        assert r1.union(r2).area() >= max(r1.area(), r2.area()) - 1e-9


class TestDunder:
    def test_equality_and_hash(self):
        assert Rect(0, 0, 1, 1) == Rect(0, 0, 1, 1)
        assert hash(Rect(0, 0, 1, 1)) == hash(Rect(0, 0, 1, 1))
        assert Rect(0, 0, 1, 1) != Rect(0, 0, 1, 2)

    def test_iter_unpacking(self):
        xmin, ymin, xmax, ymax = Rect(1, 2, 3, 4)
        assert (xmin, ymin, xmax, ymax) == (1, 2, 3, 4)
