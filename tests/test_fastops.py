"""Tests for the vectorised geometry helpers (EdgeArrays & friends).

The vectorised predicates must agree exactly with the scalar kernel —
this is what makes them usable as test oracles elsewhere.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.fastops import (
    EdgeArrays,
    edges_intersect_matrix_any,
    polygons_intersect_fast,
    segments_cross_open_rects,
)
from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rect
from repro.geometry.segment import segments_intersect
from tests.conftest import square, star_polygon

stars = st.builds(
    star_polygon,
    cx=st.floats(min_value=-1, max_value=1).map(lambda v: round(v, 3)),
    cy=st.floats(min_value=-1, max_value=1).map(lambda v: round(v, 3)),
    n=st.integers(min_value=4, max_value=30),
    seed=st.integers(min_value=0, max_value=4000),
)


class TestEdgeArrays:
    def test_length_counts_all_rings(self):
        poly = Polygon(
            [(0, 0), (4, 0), (4, 4), (0, 4)],
            holes=[[(1, 1), (2, 1), (2, 2), (1, 2)]],
        )
        assert len(EdgeArrays(poly)) == 8

    @given(stars)
    @settings(max_examples=40, deadline=None)
    def test_contains_point_matches_scalar(self, poly):
        fast = EdgeArrays(poly)
        # Probe a grid of points over the MBR and beyond.
        mbr = poly.mbr()
        for fx in (0.1, 0.35, 0.61, 0.9, 1.2):
            for fy in (0.15, 0.5, 0.82, 1.1):
                x = mbr.xmin + fx * mbr.width
                y = mbr.ymin + fy * mbr.height
                # Scalar contains_point counts boundary as inside, the
                # vectorised one leaves the boundary unspecified; probe
                # points are generic so they agree.
                assert fast.contains_point(x, y) == poly.contains_point(
                    (x, y)
                ) or poly.distance_to_boundary((x, y)) < 1e-9

    @given(stars)
    @settings(max_examples=25, deadline=None)
    def test_boundary_distance_matches_scalar(self, poly):
        fast = EdgeArrays(poly)
        c = poly.mbr().center
        assert fast.boundary_distance(*c) == pytest.approx(
            poly.distance_to_boundary(c), rel=1e-9
        )

    def test_boundary_distances_batch(self):
        poly = star_polygon(n=20, seed=3)
        fast = EdgeArrays(poly)
        pts = np.array([[0.0, 0.0], [0.5, 0.5], [2.0, 2.0]])
        batch = fast.boundary_distances(pts)
        for p, d in zip(pts, batch):
            assert d == pytest.approx(fast.boundary_distance(*p), rel=1e-12)

    def test_contains_points(self):
        poly = square(0, 0, 1.0)
        fast = EdgeArrays(poly)
        inside = np.array([[0.0, 0.0], [0.5, 0.5], [-0.5, -0.5]])
        mixed = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert fast.contains_points(inside).tolist() == [True] * 3
        assert fast.contains_points(mixed).tolist() == [True, False]
        assert fast.contains_points(np.empty((0, 2))).shape == (0,)

    @given(stars)
    @settings(max_examples=40, deadline=None)
    def test_contains_points_mask_matches_contains_point(self, poly):
        fast = EdgeArrays(poly)
        mbr = poly.mbr()
        fx, fy = np.meshgrid(np.linspace(-0.1, 1.1, 9), np.linspace(-0.1, 1.1, 7))
        pts = np.column_stack(
            (mbr.xmin + fx.ravel() * mbr.width, mbr.ymin + fy.ravel() * mbr.height)
        )
        # Vertices too: boundary behaviour is unspecified, but the same
        # for both forms.
        pts = np.vstack((pts, np.array(poly.shell)))
        mask = fast.contains_points(pts)
        assert mask.tolist() == [fast.contains_point(x, y) for x, y in pts]

    def test_rect_inside(self):
        poly = square(0, 0, 1.0)
        fast = EdgeArrays(poly)
        assert fast.rect_inside(-0.5, -0.5, 0.5, 0.5)
        assert fast.rect_inside(-1.0, -1.0, 1.0, 1.0)  # exact fit
        assert not fast.rect_inside(-1.5, -0.5, 0.5, 0.5)

    def test_horizontal_crossings(self):
        poly = square(0, 0, 1.0)
        fast = EdgeArrays(poly)
        xs = fast.horizontal_crossings([0.0])
        assert xs.tolist() == [[-1.0, 1.0]]
        assert fast.horizontal_crossings([5.0]).shape == (1, 0)
        assert fast.horizontal_crossings([]).shape == (0, 0)

    def test_horizontal_crossings_many_ordinates(self):
        # A U shape: two, four or no crossings depending on the line.
        poly = Polygon([(0, 0), (3, 0), (3, 2), (2, 2), (2, 1), (1, 1),
                        (1, 2), (0, 2)])
        xs = EdgeArrays(poly).horizontal_crossings([0.5, 1.5, 7.0, -1.0])
        assert xs.shape == (4, 4)
        assert xs[0].tolist() == [0.0, 3.0, np.inf, np.inf]
        assert xs[1].tolist() == [0.0, 1.0, 2.0, 3.0]
        assert np.isinf(xs[2:]).all()

    @given(stars, st.lists(st.floats(min_value=-1.5, max_value=1.5),
                           min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_horizontal_crossings_rows_match_one_line_at_a_time(self, poly, ys):
        fast = EdgeArrays(poly)
        rows = fast.horizontal_crossings(ys)
        for y, row in zip(ys, rows):
            crosses = (fast.y1 > y) != (fast.y2 > y)
            x1, y1 = fast.x1[crosses], fast.y1[crosses]
            x2, y2 = fast.x2[crosses], fast.y2[crosses]
            expected = np.sort((x2 - x1) * (y - y1) / (y2 - y1) + x1)
            assert row[: len(expected)].tobytes() == expected.tobytes()
            assert np.isinf(row[len(expected):]).all()

    @given(
        stars,
        st.lists(
            st.tuples(*[st.floats(min_value=-1.3, max_value=1.3)] * 2,
                      *[st.floats(min_value=0.0, max_value=1.5)] * 2),
            min_size=1,
            max_size=10,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_shared_rect_sat_matches_any_edge_intersects(self, poly, boxes):
        fast = EdgeArrays(poly)
        rects = np.array([(x, y, x + w, y + h) for x, y, w, h in boxes])
        # One call over the whole (rect, edge) grid.
        grid = segments_cross_open_rects(
            fast.x1, fast.y1, fast.x2, fast.y2,
            *(rects[:, k:k + 1] for k in range(4)),
        )
        assert grid.shape == (len(rects), len(fast))
        for rect, row in zip(rects, grid):
            assert bool(row.any()) == fast.any_edge_intersects_rect_interior(
                *rect
            )


class TestEdgeMatrix:
    @given(stars, stars)
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_edge_loop(self, p1, p2):
        scalar = any(
            segments_intersect(a1, a2, b1, b2)
            for a1, a2 in p1.edges()
            for b1, b2 in p2.edges()
        )
        assert edges_intersect_matrix_any(p1, p2) == scalar

    def test_touching_edges_detected(self):
        left = square(0, 0, 1.0)
        right = square(2.0, 0, 1.0)  # shares the x=1 edge
        assert edges_intersect_matrix_any(left, right)


class TestIntersectFastEdgeCases:
    def test_identical_polygons(self):
        poly = star_polygon(n=15, seed=9)
        assert polygons_intersect_fast(poly, poly)

    def test_vertex_touching(self):
        t1 = Polygon([(0, 0), (1, 0), (0, 1)])
        t2 = Polygon([(1, 0), (2, 0), (2, 1)])
        assert polygons_intersect_fast(t1, t2)

    def test_mbr_overlap_but_disjoint(self):
        # Two L-shaped-ish stars whose MBRs overlap at a corner.
        p1 = star_polygon(0, 0, n=8, seed=1, radius=1.0)
        p2 = star_polygon(2.2, 2.2, n=8, seed=2, radius=1.0)
        if p1.mbr().intersects(p2.mbr()):
            assert not polygons_intersect_fast(p1, p2)
