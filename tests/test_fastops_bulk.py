"""Property/fuzz tests: bulk array kernels ≡ their scalar counterparts.

Each kernel in ``repro.geometry.fastops`` must decide exactly as the
scalar predicate it vectorises, including on degenerate geometry:
touching edges, zero-area MBRs, collinear/single-point "polygons".
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.approximations.base import ConvexApproximation, approx_intersect
from repro.geometry.circle import Circle
from repro.geometry.convex import convex_hull, convex_intersect
from repro.geometry.fastops import (
    circle_slack_bulk,
    convex_intersect_bulk,
    pack_convex_rows,
    rects_contain_bulk,
    rects_intersect_bulk,
    rects_intersection_area_bulk,
)
from repro.geometry.rectangle import Rect


def _rect_row(r: Rect):
    return (r.xmin, r.ymin, r.xmax, r.ymax)


def _random_rect(rng: random.Random) -> Rect:
    x = rng.uniform(0, 1)
    y = rng.uniform(0, 1)
    # Snapped coordinates produce exactly-touching and shared edges;
    # zero extents produce degenerate (line/point) MBRs.
    w = rng.choice([0.0, 0.125, 0.25, rng.uniform(0, 0.5)])
    h = rng.choice([0.0, 0.125, rng.uniform(0, 0.5)])
    x = round(x * 8) / 8 if rng.random() < 0.5 else x
    y = round(y * 8) / 8 if rng.random() < 0.5 else y
    return Rect(x, y, x + w, y + h)


def _random_hull(rng: random.Random):
    n = rng.randint(3, 10)
    cx = rng.uniform(0, 1)
    cy = rng.uniform(0, 1)
    if rng.random() < 0.3:
        cx = round(cx * 4) / 4
        cy = round(cy * 4) / 4
    pts = [
        (cx + rng.uniform(-0.2, 0.2), cy + rng.uniform(-0.2, 0.2))
        for _ in range(n)
    ]
    hull = convex_hull(pts)
    if len(hull) < 3:  # collinear sample; widen it
        hull = [(cx, cy), (cx + 0.1, cy), (cx + 0.05, cy + 0.1)]
    return hull


class TestRectKernels:
    def test_bulk_rect_predicates_match_scalar(self):
        rng = random.Random(2024)
        rect_a = [_random_rect(rng) for _ in range(400)]
        rect_b = [_random_rect(rng) for _ in range(400)]
        a = np.array([_rect_row(r) for r in rect_a])
        b = np.array([_rect_row(r) for r in rect_b])
        inter = rects_intersect_bulk(a, b)
        contain = rects_contain_bulk(a, b)
        area = rects_intersection_area_bulk(a, b)
        for i, (ra, rb) in enumerate(zip(rect_a, rect_b)):
            assert bool(inter[i]) == ra.intersects(rb)
            assert bool(contain[i]) == ra.contains_rect(rb)
            assert float(area[i]) == ra.intersection_area(rb)

    def test_touching_and_degenerate_rects(self):
        cases = [
            (Rect(0, 0, 1, 1), Rect(1, 0, 2, 1)),      # shared edge
            (Rect(0, 0, 1, 1), Rect(1, 1, 2, 2)),      # shared corner
            (Rect(0, 0, 1, 1), Rect(1 + 1e-15, 0, 2, 1)),  # just apart
            (Rect(0, 0, 0, 0), Rect(0, 0, 1, 1)),      # point rect
            (Rect(0.5, 0, 0.5, 1), Rect(0, 0.25, 1, 0.25)),  # crossing lines
            (Rect(0, 0, 1, 1), Rect(0.25, 0.25, 0.75, 0.75)),  # nested
        ]
        a = np.array([_rect_row(x) for x, _ in cases])
        b = np.array([_rect_row(y) for _, y in cases])
        inter = rects_intersect_bulk(a, b)
        area = rects_intersection_area_bulk(a, b)
        contain = rects_contain_bulk(a, b)
        for i, (ra, rb) in enumerate(cases):
            assert bool(inter[i]) == ra.intersects(rb)
            assert float(area[i]) == ra.intersection_area(rb)
            assert bool(contain[i]) == ra.contains_rect(rb)


class TestConvexKernel:
    def test_bulk_sat_matches_scalar_on_random_hulls(self):
        rng = random.Random(77)
        hulls_a = [_random_hull(rng) for _ in range(300)]
        hulls_b = [_random_hull(rng) for _ in range(300)]
        avx, avy, ca = pack_convex_rows(hulls_a)
        bvx, bvy, cb = pack_convex_rows(hulls_b)
        assert (ca >= 3).all() and (cb >= 3).all()
        bulk = convex_intersect_bulk(avx, avy, bvx, bvy)
        for i in range(len(hulls_a)):
            assert bool(bulk[i]) == convex_intersect(hulls_a[i], hulls_b[i]), (
                f"pair {i}: {hulls_a[i]} vs {hulls_b[i]}"
            )

    def test_touching_edges_and_zero_area_shapes(self):
        unit = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        shifted = [(1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0)]  # shares edge
        corner = [(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0)]   # shares corner
        apart = [(2.5, 2.5), (3.0, 2.5), (3.0, 3.0), (2.5, 3.0)]
        flat = [(0.0, 0.5), (2.0, 0.5), (1.0, 0.5 + 1e-16)]         # ~zero area
        cases = [
            (unit, shifted), (unit, corner), (unit, apart),
            (unit, flat), (flat, corner), (unit, unit),
        ]
        avx, avy, _ = pack_convex_rows([a for a, _ in cases])
        bvx, bvy, _ = pack_convex_rows([b for _, b in cases])
        bulk = convex_intersect_bulk(avx, avy, bvx, bvy)
        for i, (pa, pb) in enumerate(cases):
            assert bool(bulk[i]) == convex_intersect(pa, pb)

    def test_mixed_vertex_counts_padding(self):
        """Padding by the first vertex must not invent separations/overlaps."""
        rng = random.Random(5)
        tri = [(0.0, 0.0), (0.4, 0.0), (0.2, 0.3)]
        many = _random_hull(rng)
        while len(many) < 6:
            many = _random_hull(rng)
        cases = [(tri, many), (many, tri), (tri, tri), (many, many)]
        avx, avy, _ = pack_convex_rows([a for a, _ in cases])
        bvx, bvy, _ = pack_convex_rows([b for _, b in cases])
        bulk = convex_intersect_bulk(avx, avy, bvx, bvy)
        for i, (pa, pb) in enumerate(cases):
            assert bool(bulk[i]) == convex_intersect(pa, pb)

    def test_single_point_and_segment_shapes_flagged_degenerate(self):
        """< 3 vertices: the engine must take the scalar fallback path."""
        vx, vy, counts = pack_convex_rows(
            [[(0.5, 0.5)], [(0.0, 0.0), (1.0, 1.0)], [(0, 0), (1, 0), (0, 1)]]
        )
        assert list(counts < 3) == [True, True, False]
        # The fallback itself: scalar approx_intersect on degenerate
        # approximations matches the kernel-free classification.
        class _Shape(ConvexApproximation):
            kind = "test"

            @property
            def num_parameters(self):
                return 2 * len(self._vertices)

        point = _Shape([(0.5, 0.5)])
        seg = _Shape([(0.0, 0.0), (1.0, 1.0)])
        tri = _Shape([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        assert approx_intersect(point, tri)
        assert approx_intersect(seg, tri)
        assert not approx_intersect(
            point, _Shape([(2.0, 2.0), (3.0, 2.0), (2.0, 3.0)])
        )


class TestCircleKernel:
    def test_slack_sign_matches_scalar_predicate(self):
        rng = random.Random(11)
        circles_a = []
        circles_b = []
        for _ in range(300):
            ca = Circle((rng.uniform(0, 1), rng.uniform(0, 1)),
                        rng.choice([0.0, rng.uniform(0, 0.3)]))
            cb = Circle((rng.uniform(0, 1), rng.uniform(0, 1)),
                        rng.choice([0.0, rng.uniform(0, 0.3)]))
            circles_a.append(ca)
            circles_b.append(cb)
        # Exactly-tangent pair (zero slack) and concentric points.
        circles_a += [Circle((0.0, 0.0), 0.5), Circle((0.25, 0.25), 0.0)]
        circles_b += [Circle((1.0, 0.0), 0.5), Circle((0.25, 0.25), 0.0)]
        a = np.array([(c.center[0], c.center[1], c.radius) for c in circles_a])
        b = np.array([(c.center[0], c.center[1], c.radius) for c in circles_b])
        slack = circle_slack_bulk(a, b)
        margin = 1e-9
        for i, (ca, cb) in enumerate(zip(circles_a, circles_b)):
            scalar = ca.intersects_circle(cb)
            if abs(slack[i]) > margin:
                assert bool(slack[i] >= 0.0) == scalar
            # Within the margin the engine re-checks with the scalar
            # predicate, so the bulk sign carries no decision there.


def test_batch_circle_filter_matches_scalar_at_large_coordinates():
    """The circle re-check margin must scale with coordinate magnitude.

    At projected-meter scales (~1e8) a 1-ulp hypot difference is ~1e-8,
    larger than an absolute 1e-9 margin; the filter scales the margin by
    the operand magnitude so near-tangent MBC/MEC pairs still take the
    scalar fallback and classification stays engine-identical.
    """
    from helpers import random_relation_pair
    from repro.core.filters import FilterConfig, geometric_filter
    from repro.datasets.relations import SpatialRelation
    from repro.engine.batched import BatchGeometricFilter
    from repro.geometry.polygon import Polygon

    def scaled(rel, factor):
        return SpatialRelation(
            rel.name,
            [
                Polygon([(x * factor, y * factor) for x, y in o.polygon.shell])
                for o in rel
            ],
        )

    rel_a, rel_b = random_relation_pair(29, n_objects=14)
    rel_a, rel_b = scaled(rel_a, 1e8), scaled(rel_b, 1e8)
    fc = FilterConfig(conservative="MBC", progressive="MEC")
    batch = BatchGeometricFilter(fc, (rel_a.columnar(), rel_b.columnar()))
    pairs = [
        (i, j)
        for i, oa in enumerate(rel_a)
        for j, ob in enumerate(rel_b)
        if oa.mbr.intersects(ob.mbr)
    ]
    assert pairs
    codes = batch.classify([p[0] for p in pairs], [p[1] for p in pairs])
    from repro.engine.base import OUTCOME_CODE

    for (i, j), code in zip(pairs, codes):
        assert int(code) == OUTCOME_CODE[
            geometric_filter(rel_a[i], rel_b[j], fc)
        ]


class TestBatchApproxArraysIncremental:
    def test_wave_registration_equals_one_shot_packing(self):
        """Batch-by-batch appending must pack the same arrays.

        The encoder flushes incrementally (only new rows are converted);
        appending in waves — with later waves bringing hulls wide
        enough to force re-padding of the earlier rows — must produce
        exactly the arrays of a single append of everything.
        """
        from helpers import random_relation_pair
        from repro.approximations.batch import BatchApproxArrays

        rel_a, rel_b = random_relation_pair(13, n_objects=16)
        objects = list(rel_a) + list(rel_b)
        # Sort by hull size so each wave can widen the vertex matrices.
        objects.sort(key=lambda o: len(o.approximation("CH").convex_vertices()))
        for kind in ("CH", "5-C", "MBC"):
            one_shot = BatchApproxArrays(kind)
            rows_all = one_shot.append(objects)
            waves = BatchApproxArrays(kind)
            rows_waved = []
            for lo in range(0, len(objects), 5):
                rows_waved.extend(waves.append(objects[lo:lo + 5]))
                waves.mbrs  # force a flush between waves
            assert list(rows_all) == rows_waved
            np.testing.assert_array_equal(waves.mbrs, one_shot.mbrs)
            np.testing.assert_array_equal(
                waves.false_areas, one_shot.false_areas
            )
            if waves.family == "circle":
                np.testing.assert_array_equal(waves.circles, one_shot.circles)
            elif waves.family == "convex":
                np.testing.assert_array_equal(
                    waves.degenerate, one_shot.degenerate
                )
                assert waves.vx.shape == one_shot.vx.shape
                np.testing.assert_array_equal(waves.vx, one_shot.vx)
                np.testing.assert_array_equal(waves.vy, one_shot.vy)


@pytest.mark.slow
def test_fuzz_batch_filter_against_scalar_filter():
    """BatchGeometricFilter ≡ geometric_filter on adversarial objects."""
    from helpers import random_relation_pair
    from repro.core.filters import FilterConfig, geometric_filter
    from repro.engine.batched import BatchGeometricFilter

    configs = [
        FilterConfig(),
        FilterConfig(conservative="CH", progressive="MEC",
                     use_false_area_test=True),
        FilterConfig(conservative="MBC", progressive=None,
                     progressive_first=True),
    ]
    for seed in range(20):
        rel_a, rel_b = random_relation_pair(seed, n_objects=10)
        pairs = [
            (i, j)
            for i, oa in enumerate(rel_a)
            for j, ob in enumerate(rel_b)
            if oa.mbr.intersects(ob.mbr)
        ]
        if not pairs:
            continue
        stores = (rel_a.columnar(), rel_b.columnar())
        for fc in configs:
            batch = BatchGeometricFilter(fc, stores)
            rows_a = [p[0] for p in pairs]
            rows_b = [p[1] for p in pairs]
            codes = batch.classify(rows_a, rows_b)
            from repro.engine.base import OUTCOME_CODE

            for (i, j), code in zip(pairs, codes):
                scalar = OUTCOME_CODE[geometric_filter(rel_a[i], rel_b[j], fc)]
                single = BatchGeometricFilter(fc, stores).classify([i], [j])
                assert int(single[0]) == scalar
                assert int(code) == scalar
