"""Hypothesis fuzz: the ragged edge-pair kernel ≡ the unpruned edge matrix.

``edge_pairs_intersect_ragged`` decides a whole refinement batch on the
relations' edge tables after two prunings (clip rectangle, edge boxes).
Every per-pair decision must equal ``edge_matrix_intersect_any`` on the
two objects' *full* edge sets — on degenerate geometry (shared vertices,
collinear overlapping edges, T-touches, holes, zero-area rings), when a
pair's clip leaves one or both sides without edges, at coordinate
magnitudes where only the relative margin term acts, and however the
element budget splits the batch.  The loop twin (``python`` backend)
and its C transliteration (``c``) must return the same booleans *and*
the same edge-pair count.
"""

from __future__ import annotations

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import grid_square, random_star, sliver
from repro.datasets.relations import SpatialRelation
from repro.exact.refine import clip_rects
from repro.geometry import fastops
from repro.geometry.fastops import edges_intersect_matrix_any
from repro.geometry.kernels import get_kernels
from repro.geometry.polygon import Polygon

BACKENDS = ["numpy", "python", "c"]

snapped = st.integers(min_value=0, max_value=8).map(lambda n: n / 8.0)
half = st.sampled_from([0.0625, 0.125, 0.25, 0.5])


def _holed(cx, cy, h):
    outer = grid_square(cx, cy, h)
    return Polygon(outer.shell, [grid_square(cx, cy, h / 2).shell])


polygon = st.one_of(
    # Grid squares: shared vertices, collinear overlapping edges,
    # T-touches, and nested squares whose clip misses the outer's edges.
    st.builds(grid_square, snapped, snapped, half),
    st.builds(_holed, snapped, snapped, half),
    # Zero-area rings on the grid lines the squares' edges run along.
    st.builds(sliver, snapped, snapped, st.sampled_from([0.125, 0.5])),
    st.builds(
        lambda seed, n: random_star(random.Random(seed), 0.5, 0.5, 0.4, n),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=3, max_value=14),
    ),
)


def _tables(polys_a, polys_b, scale):
    def relation(name, polys):
        return SpatialRelation(
            name,
            [
                Polygon(
                    [(x * scale, y * scale) for x, y in p.shell],
                    [[(x * scale, y * scale) for x, y in h] for h in p.holes],
                )
                if scale != 1.0 else p
                for p in polys
            ],
        )

    rel_a, rel_b = relation("a", polys_a), relation("b", polys_b)
    return (
        rel_a, rel_b,
        rel_a.columnar().ring_geometry().table,
        rel_b.columnar().ring_geometry().table,
    )


def _decide(backend, table_a, table_b, rows_a, rows_b):
    clip, margin = clip_rects(table_a.bounds[rows_a], table_b.bounds[rows_b])
    hits, evaluated = get_kernels(backend).edge_pairs_intersect_ragged(
        table_a, table_b, rows_a, rows_b, clip, margin
    )
    return np.asarray(hits).tolist(), evaluated


@settings(max_examples=200, deadline=None)
@given(
    st.lists(polygon, min_size=1, max_size=5),
    st.lists(polygon, min_size=1, max_size=5),
    st.sampled_from([1e-6, 1.0, 1e6]),
    st.sampled_from([1, 64, 1 << 16]),
)
def test_ragged_kernel_matches_full_edge_matrix(
    polys_a, polys_b, scale, budget
):
    rel_a, rel_b, table_a, table_b = _tables(polys_a, polys_b, scale)
    # Every object pair, overlapping or not: disjoint bounds give an
    # inverted clip rectangle and no edges on either side.
    rows_a, rows_b = (
        grid.ravel() for grid in np.meshgrid(
            np.arange(len(rel_a)), np.arange(len(rel_b)), indexing="ij"
        )
    )
    expected = [
        edges_intersect_matrix_any(rel_a[i].polygon, rel_b[j].polygon)
        for i, j in zip(rows_a, rows_b)
    ]
    with mock.patch.object(fastops, "_RAGGED_BUDGET", budget):
        got, evaluated = _decide("numpy", table_a, table_b, rows_a, rows_b)
    assert got == expected
    # The budget splits the work, never the answer or the count.
    for backend in BACKENDS:
        assert _decide(backend, table_a, table_b, rows_a, rows_b) == (
            expected, evaluated
        ), backend


def test_one_pair_larger_than_the_budget():
    """A 300 x 300-edge pair (90k edge pairs) spans two evaluations."""
    rng = random.Random(5)
    star_a = random_star(rng, 0.5, 0.5, 0.4, 300)
    star_b = random_star(rng, 0.5, 0.5, 0.4, 300)
    far = grid_square(5.0, 5.0, 0.1)
    _, _, table_a, table_b = _tables([star_a, far], [star_b, far], 1.0)
    rows_a = np.array([0, 0, 1])
    rows_b = np.array([0, 1, 1])
    got, evaluated = _decide("numpy", table_a, table_b, rows_a, rows_b)
    assert got == [True, False, True]
    assert evaluated > fastops._RAGGED_BUDGET
    for backend in BACKENDS:
        assert _decide(backend, table_a, table_b, rows_a, rows_b) == (
            got, evaluated
        ), backend
    # A zigzag ring around a smaller copy of itself: edge-disjoint, so
    # all of the pair's hundred-odd evaluations have to come up empty.
    spokes = 150
    ring_a = Polygon([
        (np.cos(2 * np.pi * k / spokes) * (1.0 if k % 2 else 0.9),
         np.sin(2 * np.pi * k / spokes) * (1.0 if k % 2 else 0.9))
        for k in range(spokes)
    ])
    inner = Polygon([(x * 0.8, y * 0.8) for x, y in ring_a.shell])
    _, _, table_a, table_b = _tables([ring_a], [inner], 1.0)
    one = np.zeros(1, dtype=np.int64)
    with mock.patch.object(fastops, "_RAGGED_BUDGET", 64):
        got, evaluated = _decide("numpy", table_a, table_b, one, one)
    assert got == [False] and evaluated > 100 * 64
    for backend in BACKENDS:
        assert _decide(backend, table_a, table_b, one, one) == (
            got, evaluated
        ), backend


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_batch_and_empty_sides(backend):
    outer = grid_square(0.5, 0.5, 0.5)
    inner = grid_square(0.5, 0.5, 0.0625)
    _, _, table_a, table_b = _tables([outer], [inner], 1.0)
    none = np.zeros(0, dtype=np.int64)
    assert _decide(backend, table_a, table_b, none, none) == ([], 0)
    one = np.zeros(1, dtype=np.int64)
    # The inner square's bounds are the clip: no outer edge meets it.
    assert _decide(backend, table_a, table_b, one, one) == ([False], 0)
