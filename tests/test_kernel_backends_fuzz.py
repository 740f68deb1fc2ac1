"""Hypothesis fuzz: loop-form kernel backends ≡ the numpy oracle.

The compiled kernel tier (:mod:`repro.geometry.kernels`) promises that
every backend decides *identically* — same booleans, same floats, same
edge-pair counts.  The ``python`` backend runs the loop kernels and the
``c`` backend their C transliteration (``geometry/_ckernels.c``, built
without FMA contraction); both are fuzzed against the numpy oracle,
distances bit for bit.

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

from helpers import min_edge_distance_bulk
from repro.datasets.relations import SpatialRelation
from repro.exact.refine import clip_margins, clip_rects
from repro.geometry.fastops import (
    EdgeArrays,
    build_edge_table,
    vertex_distance_bounds,
)
from repro.geometry.kernels import get_kernels
from repro.geometry.polygon import Polygon

#: the backends whose kernels must match the numpy oracle bit-for-bit.
ALT_BACKENDS = ["python", "c"]

snapped = st.integers(min_value=-8, max_value=16).map(lambda n: n / 8.0)
coord = st.one_of(
    snapped,
    st.floats(min_value=-1.0, max_value=2.0, allow_nan=False,
              allow_infinity=False),
)
point = st.tuples(coord, coord)


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


# -- min_edge_distance_ragged -----------------------------------------------

#: one object of an edge table: one or two rings of arbitrary points.  A
#: ring closes on its first point and repeated points are kept, so
#: zero-length edges (a one-point ring is a single one), collinear
#: overlaps and, on the snapped grid, shared vertices all occur.
edge_object = st.lists(st.lists(point, min_size=1, max_size=7),
                       min_size=1, max_size=2)
edge_objects = st.lists(edge_object, min_size=1, max_size=3)

#: coordinate offsets: at 1e6 the clip margin (scaled with the squared
#: coordinate magnitude) is what keeps the pruning sound.
OFFSETS = (0.0, 1e6)


def _edge_table(objects, offset=0.0):
    object_rings = [0]
    ring_offsets = [0]
    xy = []
    for rings in objects:
        for ring in rings:
            xy.extend(ring)
            ring_offsets.append(len(xy))
        object_rings.append(len(ring_offsets) - 1)
    return build_edge_table(
        np.array(object_rings),
        np.array(ring_offsets),
        np.asarray(xy, dtype=float).reshape(-1, 2) + offset,
    )


def _all_pairs(table_a, table_b):
    n_a, n_b = len(table_a.offsets) - 1, len(table_b.offsets) - 1
    return np.repeat(np.arange(n_a), n_b), np.tile(np.arange(n_b), n_a)


def _dense(table, row):
    return table.coords[:, table.offsets[row]:table.offsets[row + 1]]


def _dense_distances(table_a, table_b, rows_a, rows_b):
    """The unpruned oracle, one ``n_a x n_b`` matrix per pair."""
    return np.array([
        min_edge_distance_bulk(*_dense(table_a, a), *_dense(table_b, b))
        for a, b in zip(rows_a, rows_b)
    ])


def _ragged(name, table_a, table_b, rows_a, rows_b, reach):
    margin = clip_margins(table_a.bounds[rows_a], table_b.bounds[rows_b])
    return get_kernels(name).min_edge_distance_ragged(
        table_a, table_b, rows_a, rows_b, np.asarray(reach, dtype=float),
        margin,
    )


def _check_contract(table_a, table_b, extra_reaches=()):
    """Every backend returns the dense value where it is ``<= reach``,
    ``inf`` elsewhere, bit for bit — for reach 0, the vertex bound, the
    exact value itself, ``inf`` and any extra reach."""
    rows_a, rows_b = _all_pairs(table_a, table_b)
    dense = _dense_distances(table_a, table_b, rows_a, rows_b)
    bound = vertex_distance_bounds(table_a, table_b, rows_a, rows_b)
    assert np.all(bound >= dense), (bound, dense)
    margin = clip_margins(table_a.bounds[rows_a], table_b.bounds[rows_b])
    n = len(rows_a)
    reaches = [np.zeros(n), bound + margin, dense, np.full(n, np.inf)]
    reaches += [np.asarray(r, dtype=float) for r in extra_reaches]
    for reach in reaches:
        expected = np.where(dense <= reach, dense, np.inf)
        for name in ["numpy"] + ALT_BACKENDS:
            got, _ = _ragged(name, table_a, table_b, rows_a, rows_b, reach)
            assert got.tobytes() == expected.tobytes(), (name, reach, got,
                                                         expected)
    # At the pipelines' own reach nothing is cut off.
    got, _ = _ragged("numpy", table_a, table_b, rows_a, rows_b, bound + margin)
    assert np.isfinite(got).all()


@settings(max_examples=150, deadline=None)
@given(edge_objects, edge_objects, st.sampled_from(OFFSETS), st.data())
def test_min_edge_distance_ragged_contract(objects_a, objects_b, offset,
                                           data):
    table_a = _edge_table(objects_a, offset)
    table_b = _edge_table(objects_b, offset)
    n = len(objects_a) * len(objects_b)
    random_reach = data.draw(
        st.lists(st.floats(min_value=0.0, max_value=4.0), min_size=n,
                 max_size=n)
    )
    _check_contract(table_a, table_b, [random_reach])


@settings(max_examples=150, deadline=None)
@given(edge_objects, edge_objects, st.sampled_from(OFFSETS), st.data())
def test_min_edge_distance_ragged_backends_match(objects_a, objects_b,
                                                 offset, data):
    """Distances bit for bit, and the edge-pair count, across backends."""
    table_a = _edge_table(objects_a, offset)
    table_b = _edge_table(objects_b, offset)
    rows_a, rows_b = _all_pairs(table_a, table_b)
    reach = data.draw(
        st.lists(
            st.one_of(st.sampled_from([0.0, 0.125, 0.5, np.inf]),
                      st.floats(min_value=0.0, max_value=4.0)),
            min_size=len(rows_a), max_size=len(rows_a),
        )
    )
    oracle, oracle_count = _ragged("numpy", table_a, table_b, rows_a, rows_b,
                                   reach)
    for name in ALT_BACKENDS:
        got, count = _ragged(name, table_a, table_b, rows_a, rows_b, reach)
        assert got.tobytes() == oracle.tobytes(), name
        assert count == oracle_count, name


@pytest.mark.parametrize("offset", OFFSETS)
def test_min_edge_distance_ragged_degenerate_cases(offset):
    """Zero-length edges, collinear overlaps, shared vertices, holes."""
    objects_a = [
        [[(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)]],    # zero-length edge
        [[(0.0, 0.0), (2.0, 0.0)]],                # flat two-edge ring
        [[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]],    # vertex shared with b
        [[(0.5, 0.5)]],                            # a single point
    ]
    objects_b = [
        [[(0.5, 0.0), (3.0, 0.0)]],                # collinear overlap
        [[(1.0, 1.0), (2.0, 2.0), (2.0, 1.0)]],    # vertex (1, 1) shared
        [[(0.25, 0.25)]],                          # a single point
        [                                          # far, with a hole
            [(5.0, 5.0), (6.0, 5.0), (6.0, 6.0), (5.0, 6.0)],
            [(5.25, 5.25), (5.75, 5.25), (5.75, 5.75)],
        ],
    ]
    _check_contract(
        _edge_table(objects_a, offset), _edge_table(objects_b, offset),
        [np.full(16, 0.125), np.full(16, 1.0)],
    )
