"""Tests for trapezoid decomposition, TR*-tree and its intersection test."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exact.decomposition import (
    convex_decomposition,
    ear_clipping_triangulation,
    trapezoid_decomposition,
    triangle_decomposition,
)
from repro.exact.trstar_test import build_trstar, polygons_intersect_trstar
from repro.geometry.polygon import Polygon
from repro.geometry.predicates import cross, polygon_signed_area
from repro.index.trstar import (
    Trapezoid,
    TRJoinCounters,
    TRStarTree,
    trstar_trees_intersect,
)
from tests.conftest import star_polygon

stars = st.builds(
    star_polygon,
    n=st.integers(min_value=5, max_value=50),
    seed=st.integers(min_value=0, max_value=5000),
)

UNIT_SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


class TestTrapezoid:
    def test_area(self):
        t = Trapezoid(0, 2, 0.5, 1.5, 0, 1)
        assert t.area() == pytest.approx((2 + 1) / 2)

    def test_mbr(self):
        t = Trapezoid(0, 2, 0.5, 1.5, 0, 1)
        r = t.mbr()
        assert (r.xmin, r.ymin, r.xmax, r.ymax) == (0, 0, 2, 1)

    def test_degenerate_triangle_corners(self):
        t = Trapezoid(0, 2, 1, 1, 0, 1)  # top collapses to a point
        assert len(t.corners()) == 3

    def test_intersects_overlapping(self):
        t1 = Trapezoid(0, 2, 0, 2, 0, 1)
        t2 = Trapezoid(1, 3, 1, 3, 0.5, 1.5)
        assert t1.intersects(t2)

    def test_intersects_disjoint(self):
        t1 = Trapezoid(0, 1, 0, 1, 0, 1)
        t2 = Trapezoid(5, 6, 5, 6, 0, 1)
        assert not t1.intersects(t2)

    def test_mbr_overlap_but_shapes_disjoint(self):
        # Two parallel slanted slivers: MBRs overlap, bodies keep a gap
        # of 0.3 - 0.25*y > 0 over the whole slab.
        t1 = Trapezoid(0.0, 0.1, 0.9, 1.0, 0, 1)
        t2 = Trapezoid(0.4, 0.5, 1.05, 1.15, 0, 1)
        assert t1.mbr().intersects(t2.mbr())
        assert not t1.intersects(t2)


class TestTrapezoidDecomposition:
    def test_square_single_trapezoid(self):
        traps = trapezoid_decomposition(UNIT_SQUARE)
        assert len(traps) == 1
        assert traps[0].area() == pytest.approx(1.0)

    @given(stars)
    @settings(max_examples=50, deadline=None)
    def test_areas_sum_to_polygon_area(self, poly):
        traps = trapezoid_decomposition(poly)
        total = sum(t.area() for t in traps)
        assert total == pytest.approx(poly.area(), rel=1e-6)

    @given(stars)
    @settings(max_examples=20, deadline=None)
    def test_trapezoids_inside_polygon_mbr(self, poly):
        mbr = poly.mbr()
        for t in trapezoid_decomposition(poly):
            assert mbr.expand(1e-9).contains_rect(t.mbr())

    def test_polygon_with_hole(self):
        poly = Polygon(
            [(0, 0), (4, 0), (4, 4), (0, 4)],
            holes=[[(1, 1), (3, 1), (3, 3), (1, 3)]],
        )
        traps = trapezoid_decomposition(poly)
        assert sum(t.area() for t in traps) == pytest.approx(12.0)

    def test_thin_polygon_decomposes(self):
        thin = Polygon([(0, 0), (1, 0), (1, 1e-6)])
        traps = trapezoid_decomposition(thin)
        assert sum(t.area() for t in traps) == pytest.approx(
            thin.area(), rel=1e-6
        )


class TestOtherDecompositions:
    @given(stars)
    @settings(max_examples=20, deadline=None)
    def test_triangles_cover_area(self, poly):
        tris = triangle_decomposition(poly)
        total = sum(abs(polygon_signed_area(list(t))) for t in tris)
        assert total == pytest.approx(poly.area(), rel=1e-6)

    @given(stars)
    @settings(max_examples=15, deadline=None)
    def test_ear_clipping_covers_area(self, poly):
        tris = ear_clipping_triangulation(poly)
        total = sum(abs(polygon_signed_area(list(t))) for t in tris)
        assert total == pytest.approx(poly.area(), rel=1e-4)

    def test_ear_clipping_rejects_holes(self):
        holed = Polygon(
            [(0, 0), (4, 0), (4, 4), (0, 4)],
            holes=[[(1, 1), (3, 1), (3, 3), (1, 3)]],
        )
        with pytest.raises(ValueError):
            ear_clipping_triangulation(holed)

    @given(stars)
    @settings(max_examples=15, deadline=None)
    def test_convex_decomposition_pieces_convex_and_cover(self, poly):
        pieces = convex_decomposition(poly)
        total = 0.0
        for piece in pieces:
            n = len(piece)
            assert n >= 3
            for i in range(n):
                assert (
                    cross(piece[i], piece[(i + 1) % n], piece[(i + 2) % n])
                    > -1e-9
                )
            total += abs(polygon_signed_area(piece))
        assert total == pytest.approx(poly.area(), rel=1e-6)

    def test_convex_decomposition_merges_square(self):
        # A square decomposes into one trapezoid; merging keeps it as one
        # convex piece.
        assert len(convex_decomposition(UNIT_SQUARE)) == 1


class TestTRStarTree:
    def test_build_and_count(self):
        poly = star_polygon(n=30, seed=1)
        tree = build_trstar(poly)
        traps = trapezoid_decomposition(poly)
        assert tree.size == len(traps)
        assert sorted(t.area() for t in tree.trapezoids()) == pytest.approx(
            sorted(t.area() for t in traps)
        )

    def test_small_node_capacity(self):
        tree = TRStarTree(max_entries=3)
        assert tree.max_entries == 3

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_invariants_for_paper_capacities(self, m):
        poly = star_polygon(n=40, seed=2)
        tree = build_trstar(poly, max_entries=m)
        tree.check_invariants()

    def test_intersection_counters_populated(self):
        p1 = star_polygon(0, 0, n=25, seed=3)
        p2 = star_polygon(0.5, 0.2, n=25, seed=4)
        counters = TRJoinCounters()
        result = trstar_trees_intersect(build_trstar(p1), build_trstar(p2), counters)
        assert result
        assert counters.rect_tests > 0
        assert counters.trapezoid_tests >= 1

    def test_disjoint_trees_no_trap_tests(self):
        p1 = star_polygon(0, 0, n=15, seed=5)
        p2 = star_polygon(10, 10, n=15, seed=6)
        counters = TRJoinCounters()
        assert not trstar_trees_intersect(build_trstar(p1), build_trstar(p2), counters)
        assert counters.trapezoid_tests == 0

    @given(stars, stars)
    @settings(max_examples=25, deadline=None)
    def test_matches_vectorized_oracle(self, p1, p2):
        from repro.geometry.fastops import polygons_intersect_fast

        got = polygons_intersect_trstar(build_trstar(p1), build_trstar(p2))
        assert got == polygons_intersect_fast(p1, p2)

    def test_containment_detected(self):
        # One polygon strictly inside the other: trapezoids of the inner
        # object intersect trapezoids of the outer (area containment).
        inner = star_polygon(0, 0, n=12, seed=7, radius=0.3)
        outer = Polygon([(-2, -2), (2, -2), (2, 2), (-2, 2)])
        assert polygons_intersect_trstar(build_trstar(inner), build_trstar(outer))
