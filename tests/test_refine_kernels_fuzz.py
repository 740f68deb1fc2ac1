"""Hypothesis fuzz: refinement fastops kernels ≡ scalar geometry predicates.

The batched refinement pipeline is only correct if its bulk kernels
decide *exactly* like the scalar predicates they vectorise, including
on the degenerate geometry the differential suites love: collinear
segments, shared endpoints, boundary points, horizontal edges, holes.

Coordinates are drawn from a coarse ``1/8`` grid (mixed with arbitrary
floats) so exactly-collinear, exactly-touching, and exactly-overlapping
configurations occur constantly rather than almost never.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.fastops import (
    EdgeArrays,
    edge_matrix_intersect_any,
    edges_intersect_matrix_any,
    edges_overlapping_rect_mask,
    points_in_polygons_bulk,
    segments_intersect_bulk,
)
from repro.geometry.polygon import Polygon
from repro.geometry.segment import segments_intersect

# Snapped coordinates make collinearity and touching exact; the float
# component exercises general position.
snapped = st.integers(min_value=-8, max_value=16).map(lambda n: n / 8.0)
coord = st.one_of(
    snapped,
    st.floats(min_value=-1.0, max_value=2.0, allow_nan=False,
              allow_infinity=False),
)
point = st.tuples(coord, coord)
segment = st.tuples(point, point)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(segment, segment), min_size=1, max_size=32))
def test_segments_intersect_bulk_matches_scalar(cases):
    p1 = np.array([a for (a, _), _ in cases])
    p2 = np.array([b for (_, b), _ in cases])
    q1 = np.array([a for _, (a, _) in cases])
    q2 = np.array([b for _, (_, b) in cases])
    bulk = segments_intersect_bulk(p1, p2, q1, q2)
    for i, ((pa, pb), (qa, qb)) in enumerate(cases):
        assert bool(bulk[i]) == segments_intersect(pa, pb, qa, qb), (
            f"row {i}: {pa}-{pb} vs {qa}-{qb}"
        )


def test_segments_intersect_bulk_edge_cases():
    """Hand-picked collinear/touching/degenerate rows."""
    cases = [
        # collinear overlap
        (((0, 0), (1, 0)), ((0.5, 0), (2, 0))),
        # collinear, disjoint
        (((0, 0), (1, 0)), ((1.5, 0), (2, 0))),
        # endpoint touches endpoint
        (((0, 0), (1, 0)), ((1, 0), (1, 1))),
        # endpoint touches interior (T junction)
        (((0, 0), (2, 0)), ((1, 0), (1, 1))),
        # proper crossing
        (((0, 0), (1, 1)), ((0, 1), (1, 0))),
        # parallel, offset
        (((0, 0), (1, 0)), ((0, 0.25), (1, 0.25))),
        # degenerate (point) segment on the other segment
        (((0.5, 0), (0.5, 0)), ((0, 0), (1, 0))),
        # degenerate segment off the other segment
        (((0.5, 0.5), (0.5, 0.5)), ((0, 0), (1, 0))),
        # identical segments
        (((0, 0), (1, 1)), ((0, 0), (1, 1))),
        # near-miss within epsilon slack
        (((0, 0), (1, 0)), ((1 + 1e-13, 0), (2, 0))),
    ]
    p1 = np.array([a for (a, _), _ in cases], dtype=float)
    p2 = np.array([b for (_, b), _ in cases], dtype=float)
    q1 = np.array([a for _, (a, _) in cases], dtype=float)
    q2 = np.array([b for _, (_, b) in cases], dtype=float)
    bulk = segments_intersect_bulk(p1, p2, q1, q2)
    for i, ((pa, pb), (qa, qb)) in enumerate(cases):
        assert bool(bulk[i]) == segments_intersect(pa, pb, qa, qb), (
            f"row {i}: {pa}-{pb} vs {qa}-{qb}"
        )


# -- point in polygon -------------------------------------------------------


def _ccw_square(cx, cy, half):
    return [
        (cx - half, cy - half),
        (cx + half, cy - half),
        (cx + half, cy + half),
        (cx - half, cy + half),
    ]


polygon_strategy = st.one_of(
    # Axis-aligned squares snapped to the grid: boundary hits galore.
    st.tuples(snapped, snapped, st.sampled_from([0.125, 0.25, 0.5])).map(
        lambda t: Polygon(_ccw_square(t[0], t[1], t[2]))
    ),
    # Irregular simple polygons from sorted angles around a centre.
    st.tuples(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=3, max_value=12),
    ).map(lambda t: _star(t[0], t[1])),
    # A square with a hole: even-odd parity across rings.
    st.tuples(snapped, snapped).map(
        lambda t: Polygon(
            _ccw_square(t[0], t[1], 0.5),
            [_ccw_square(t[0], t[1], 0.25)],
        )
    ),
)


def _star(seed, n):
    import math
    import random

    rng = random.Random(seed)
    pts = []
    for i in range(n):
        angle = 2 * math.pi * i / n
        r = 0.1 + 0.4 * rng.random()
        pts.append(
            (0.5 + r * math.cos(angle), 0.5 + r * math.sin(angle))
        )
    return Polygon(pts)


def _query_points(poly, extra):
    """Boundary-heavy probes: vertices, edge midpoints, then fuzz points."""
    pts = []
    for ring in poly.rings():
        n = len(ring)
        for i in range(min(n, 4)):
            a = ring[i]
            b = ring[(i + 1) % n]
            pts.append(a)
            pts.append(((a[0] + b[0]) / 2, (a[1] + b[1]) / 2))
    pts.extend(extra)
    return pts


@settings(max_examples=200, deadline=None)
@given(polygon_strategy, st.lists(point, min_size=1, max_size=8))
def test_points_in_polygons_bulk_matches_contains_point(poly, extra):
    pts = _query_points(poly, extra)
    edges = EdgeArrays(poly)
    k = len(pts)
    m = len(edges)
    px = np.array([p[0] for p in pts])
    py = np.array([p[1] for p in pts])
    qidx = np.repeat(np.arange(k, dtype=np.intp), m)
    ex1 = np.tile(edges.x1, k)
    ey1 = np.tile(edges.y1, k)
    ex2 = np.tile(edges.x2, k)
    ey2 = np.tile(edges.y2, k)
    rect = poly.mbr()
    mbrs = np.tile(
        np.array([(rect.xmin, rect.ymin, rect.xmax, rect.ymax)]), (k, 1)
    )
    bulk = points_in_polygons_bulk(px, py, qidx, ex1, ey1, ex2, ey2, mbrs)
    for i, p in enumerate(pts):
        assert bool(bulk[i]) == poly.contains_point(p), f"point {p} of {poly}"


def test_points_in_polygons_bulk_mixed_polygons_one_call():
    """One flattened call over differently-shaped polygons per query."""
    polys = [
        Polygon(_ccw_square(0.0, 0.0, 0.5)),
        _star(7, 9),
        Polygon(_ccw_square(0.0, 0.0, 0.5), [_ccw_square(0.0, 0.0, 0.25)]),
    ]
    probes = [(0.0, 0.0), (0.5, 0.5), (0.1, 0.1), (-0.5, -0.5), (2.0, 2.0)]
    queries = [(poly, p) for poly in polys for p in probes]
    px = np.array([p[0] for _, p in queries])
    py = np.array([p[1] for _, p in queries])
    parts = {name: [] for name in ("x1", "y1", "x2", "y2")}
    qidx_parts = []
    mbr_rows = []
    for q, (poly, _) in enumerate(queries):
        edges = EdgeArrays(poly)
        for name in parts:
            parts[name].append(getattr(edges, name))
        qidx_parts.append(np.full(len(edges), q, dtype=np.intp))
        rect = poly.mbr()
        mbr_rows.append((rect.xmin, rect.ymin, rect.xmax, rect.ymax))
    bulk = points_in_polygons_bulk(
        px,
        py,
        np.concatenate(qidx_parts),
        *(np.concatenate(parts[name]) for name in ("x1", "y1", "x2", "y2")),
        np.array(mbr_rows),
    )
    for i, (poly, p) in enumerate(queries):
        assert bool(bulk[i]) == poly.contains_point(p)


# -- ring simplicity --------------------------------------------------------


def _ring_self_intersects_scalar(ring):
    """The pair loop ``Polygon.is_simple`` used before the bulk kernel."""
    n = len(ring)
    for i in range(n):
        a1, a2 = ring[i], ring[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if segments_intersect(a1, a2, ring[j], ring[(j + 1) % n]):
                return True
    return False


@settings(max_examples=150, deadline=None)
@given(st.lists(point, min_size=3, max_size=12, unique=True))
def test_ring_self_intersects_bulk_matches_scalar(ring):
    from repro.geometry.fastops import ring_self_intersects_bulk

    assert ring_self_intersects_bulk(ring) == _ring_self_intersects_scalar(
        ring
    )


def test_is_simple_known_shapes():
    assert Polygon(_ccw_square(0.0, 0.0, 0.5)).is_simple()
    bowtie = Polygon.from_normalized([(0, 0), (1, 1), (1, 0), (0, 1)])
    assert not bowtie.is_simple()
    assert _star(3, 11).is_simple()


# -- pruning soundness ------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=10_000),
)
def test_pruned_edge_matrix_equals_full_matrix(seed_a, seed_b):
    """MBR-clip pruning must never change the edge-matrix decision.

    This is the exact pruning the batched refinement applies before
    :func:`edge_matrix_intersect_any`; the pruned evaluation must equal
    :func:`edges_intersect_matrix_any` on the full edge sets.
    """
    poly_a = _star(seed_a, 3 + seed_a % 9)
    poly_b = _star(seed_b, 3 + seed_b % 7).translated(
        (seed_b % 5) * 0.2 - 0.4, (seed_a % 5) * 0.2 - 0.4
    )
    ea = EdgeArrays(poly_a)
    eb = EdgeArrays(poly_b)
    ra, rb = poly_a.mbr(), poly_b.mbr()
    margin = 1e-9
    xmin = max(ra.xmin, rb.xmin) - margin
    ymin = max(ra.ymin, rb.ymin) - margin
    xmax = min(ra.xmax, rb.xmax) + margin
    ymax = min(ra.ymax, rb.ymax) + margin
    mask_a = edges_overlapping_rect_mask(
        ea.x1, ea.y1, ea.x2, ea.y2, xmin, ymin, xmax, ymax
    )
    mask_b = edges_overlapping_rect_mask(
        eb.x1, eb.y1, eb.x2, eb.y2, xmin, ymin, xmax, ymax
    )
    full = edges_intersect_matrix_any(poly_a, poly_b)
    if mask_a.any() and mask_b.any():
        pruned = edge_matrix_intersect_any(
            ea.x1[mask_a], ea.y1[mask_a], ea.x2[mask_a], ea.y2[mask_a],
            eb.x1[mask_b], eb.y1[mask_b], eb.x2[mask_b], eb.y2[mask_b],
        )
    else:
        pruned = False
    assert pruned == full
