"""Hypothesis fuzz: loop-form kernel backends ≡ the numpy oracle.

The compiled kernel tier (:mod:`repro.geometry.kernels`) promises that
every backend decides *identically* — same booleans, same floats, same
operation counts.  The ``python`` backend runs the exact loop bodies
numba compiles, so fuzzing ``python`` vs ``numpy`` proves the compiled
tier's logic without numba installed; with numba present the same
comparisons run against ``numba`` too (parametrised below).

Coordinates are drawn from a coarse ``1/8`` grid (mixed with arbitrary
floats) so exactly-collinear, exactly-touching, and exactly-overlapping
configurations occur constantly rather than almost never; the polygon
strategy includes rings with holes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.relations import SpatialRelation
from repro.exact.costmodel import OperationCounter
from repro.exact.refine import clip_rects
from repro.geometry import Polygon
from repro.geometry.fastops import EdgeArrays
from repro.geometry.kernels import NUMBA_AVAILABLE, get_kernels

#: the backends whose kernels must match the numpy oracle bit-for-bit.
ALT_BACKENDS = ["python"] + (["numba"] if NUMBA_AVAILABLE else [])

snapped = st.integers(min_value=-8, max_value=16).map(lambda n: n / 8.0)
coord = st.one_of(
    snapped,
    st.floats(min_value=-1.0, max_value=2.0, allow_nan=False,
              allow_infinity=False),
)
point = st.tuples(coord, coord)
segment = st.tuples(point, point)


def _seg_columns(segments):
    rows = np.asarray(
        [(a[0], a[1], b[0], b[1]) for a, b in segments], dtype=float
    ).reshape(-1, 4)
    return rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]


def _ccw_square(cx, cy, half):
    return [
        (cx - half, cy - half),
        (cx + half, cy - half),
        (cx + half, cy + half),
        (cx - half, cy + half),
    ]


def _star(seed, n):
    import math
    import random

    rng = random.Random(seed)
    pts = []
    for i in range(n):
        angle = 2 * math.pi * i / n
        r = 0.1 + 0.4 * rng.random()
        pts.append((0.5 + r * math.cos(angle), 0.5 + r * math.sin(angle)))
    return Polygon(pts)


polygon_strategy = st.one_of(
    st.tuples(snapped, snapped, st.sampled_from([0.125, 0.25, 0.5])).map(
        lambda t: Polygon(_ccw_square(t[0], t[1], t[2]))
    ),
    st.tuples(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=3, max_value=12),
    ).map(lambda t: _star(t[0], t[1])),
    # Rings with holes: even-odd parity must agree across backends.
    st.tuples(snapped, snapped).map(
        lambda t: Polygon(
            _ccw_square(t[0], t[1], 0.5),
            [_ccw_square(t[0], t[1], 0.25)],
        )
    ),
)


@pytest.fixture(params=ALT_BACKENDS)
def backend_pair(request):
    return get_kernels("numpy"), get_kernels(request.param)


# -- segments_intersect_bulk ------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(segment, segment), min_size=1, max_size=24))
def test_segments_intersect_rows_match(cases):
    p1 = np.array([a for (a, _), _ in cases], dtype=float)
    p2 = np.array([b for (_, b), _ in cases], dtype=float)
    q1 = np.array([a for _, (a, _) in cases], dtype=float)
    q2 = np.array([b for _, (_, b) in cases], dtype=float)
    oracle = get_kernels("numpy").segments_intersect_bulk(p1, p2, q1, q2)
    for name in ALT_BACKENDS:
        got = get_kernels(name).segments_intersect_bulk(p1, p2, q1, q2)
        assert np.array_equal(np.asarray(got), np.asarray(oracle)), name


def test_segments_intersect_degenerate_rows(backend_pair):
    """Collinear / touching / point-degenerate segment rows."""
    numpy_set, alt = backend_pair
    cases = [
        (((0, 0), (1, 0)), ((0.5, 0), (2, 0))),     # collinear overlap
        (((0, 0), (1, 0)), ((1.5, 0), (2, 0))),     # collinear disjoint
        (((0, 0), (1, 0)), ((1, 0), (1, 1))),       # endpoint-endpoint
        (((0, 0), (2, 0)), ((1, 0), (1, 1))),       # T junction
        (((0, 0), (1, 1)), ((0, 1), (1, 0))),       # proper crossing
        (((0.5, 0), (0.5, 0)), ((0, 0), (1, 0))),   # point on segment
        (((0.5, 0.5), (0.5, 0.5)), ((0, 0), (1, 0))),  # point off segment
        (((0, 0), (1, 1)), ((0, 0), (1, 1))),       # identical
        (((0, 0), (1, 0)), ((1 + 1e-13, 0), (2, 0))),  # epsilon near-miss
    ]
    p1 = np.array([a for (a, _), _ in cases], dtype=float)
    p2 = np.array([b for (_, b), _ in cases], dtype=float)
    q1 = np.array([a for _, (a, _) in cases], dtype=float)
    q2 = np.array([b for _, (_, b) in cases], dtype=float)
    assert np.array_equal(
        np.asarray(alt.segments_intersect_bulk(p1, p2, q1, q2)),
        np.asarray(numpy_set.segments_intersect_bulk(p1, p2, q1, q2)),
    )


# -- points_in_polygons_bulk ------------------------------------------------


def _point_query_columns(polys_and_points):
    px = np.array([p[0] for _, p in polys_and_points])
    py = np.array([p[1] for _, p in polys_and_points])
    parts = {name: [] for name in ("x1", "y1", "x2", "y2")}
    qidx_parts = []
    mbr_rows = []
    for q, (poly, _) in enumerate(polys_and_points):
        edges = EdgeArrays(poly)
        for name in parts:
            parts[name].append(getattr(edges, name))
        qidx_parts.append(np.full(len(edges), q, dtype=np.intp))
        rect = poly.mbr()
        mbr_rows.append((rect.xmin, rect.ymin, rect.xmax, rect.ymax))
    return (
        px, py,
        np.concatenate(qidx_parts),
        *(np.concatenate(parts[name]) for name in ("x1", "y1", "x2", "y2")),
        np.array(mbr_rows),
    )


@settings(max_examples=150, deadline=None)
@given(polygon_strategy, st.lists(point, min_size=1, max_size=6))
def test_points_in_polygons_match(poly, extra):
    # Boundary-heavy probes: vertices and edge midpoints plus fuzz points.
    pts = []
    for ring in poly.rings():
        for i in range(min(len(ring), 4)):
            a, b = ring[i], ring[(i + 1) % len(ring)]
            pts.append(a)
            pts.append(((a[0] + b[0]) / 2, (a[1] + b[1]) / 2))
    pts.extend(extra)
    columns = _point_query_columns([(poly, p) for p in pts])
    oracle = get_kernels("numpy").points_in_polygons_bulk(*columns)
    for name in ALT_BACKENDS:
        got = get_kernels(name).points_in_polygons_bulk(*columns)
        assert np.array_equal(np.asarray(got), np.asarray(oracle)), name
        # The mbrs=None variant must agree with itself across backends
        # (it skips the MBR mask, so it can only differ from the masked
        # call where the mask pruned an exact boundary hit).
        got_nomask = get_kernels(name).points_in_polygons_bulk(
            *columns[:-1], None
        )
        oracle_nomask = get_kernels("numpy").points_in_polygons_bulk(
            *columns[:-1], None
        )
        assert np.array_equal(
            np.asarray(got_nomask), np.asarray(oracle_nomask)
        ), name


# -- edge_pairs_intersect_ragged --------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.lists(polygon_strategy, min_size=1, max_size=4),
       st.lists(polygon_strategy, min_size=1, max_size=4), snapped, snapped)
def test_edge_pairs_ragged_match(polys_a, polys_b, dx, dy):
    """Booleans and the edge-pair count agree across backends.

    (Agreement with the unpruned edge matrix is
    ``tests/test_ragged_kernel_fuzz.py``'s job.)
    """
    rel_a = SpatialRelation("a", polys_a)
    rel_b = SpatialRelation(
        "b", [p.translated(dx / 4.0, dy / 4.0) for p in polys_b]
    )
    table_a = rel_a.columnar().ring_geometry().table
    table_b = rel_b.columnar().ring_geometry().table
    rows_a = np.repeat(np.arange(len(rel_a)), len(rel_b))
    rows_b = np.tile(np.arange(len(rel_b)), len(rel_a))
    clip, margin = clip_rects(table_a.bounds[rows_a], table_b.bounds[rows_b])
    args = (table_a, table_b, rows_a, rows_b, clip, margin)
    oracle_hits, oracle_count = get_kernels(
        "numpy"
    ).edge_pairs_intersect_ragged(*args)
    for name in ALT_BACKENDS:
        hits, count = get_kernels(name).edge_pairs_intersect_ragged(*args)
        assert np.array_equal(np.asarray(hits), oracle_hits), name
        assert count == oracle_count, name


# -- rects_intersect_bulk ---------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(point, point, point, point),
                min_size=1, max_size=24))
def test_rects_intersect_rows_match(rows):
    def rect(p, q):
        return (min(p[0], q[0]), min(p[1], q[1]),
                max(p[0], q[0]), max(p[1], q[1]))

    a = np.array([rect(p, q) for p, q, _, _ in rows], dtype=float)
    b = np.array([rect(p, q) for _, _, p, q in rows], dtype=float)
    oracle = get_kernels("numpy").rects_intersect_bulk(a, b)
    for name in ALT_BACKENDS:
        got = get_kernels(name).rects_intersect_bulk(a, b)
        assert np.array_equal(np.asarray(got), np.asarray(oracle)), name


# -- min_edge_distance_bulk -------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.lists(segment, min_size=1, max_size=12),
       st.lists(segment, min_size=1, max_size=12))
def test_min_edge_distance_bit_identical(segs_a, segs_b):
    """Distances are float results — equality must be exact, not approx."""
    a = _seg_columns(segs_a)
    b = _seg_columns(segs_b)
    oracle = get_kernels("numpy").min_edge_distance_bulk(*a, *b)
    for name in ALT_BACKENDS:
        got = get_kernels(name).min_edge_distance_bulk(*a, *b)
        assert got == oracle, (name, got, oracle)


# -- plane sweep ------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(polygon_strategy, polygon_strategy, snapped, snapped,
       st.booleans())
def test_planesweep_result_and_counts_match(poly_a, poly_b, dx, dy,
                                            restrict):
    poly_b = poly_b.translated(dx / 4.0, dy / 4.0)
    oracle_counter = OperationCounter()
    oracle = get_kernels("numpy").planesweep(
        poly_a, poly_b, oracle_counter, restrict
    )
    for name in ALT_BACKENDS:
        counter = OperationCounter()
        got = get_kernels(name).planesweep(poly_a, poly_b, counter, restrict)
        assert bool(got) == bool(oracle), name
        assert counter.counts == oracle_counter.counts, (
            name, dict(counter.counts), dict(oracle_counter.counts)
        )
