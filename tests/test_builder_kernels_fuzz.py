"""Hypothesis fuzz: the compiled approximation builders ≡ the numpy oracle.

The kernel tier builds the stored m-corners, MERs and MECs
(``m_corners_ragged``, ``enclosed_rects_ragged``,
``enclosed_circles_ragged``).  The ``numpy`` set runs the Python/numpy
builders of :mod:`repro.approximations` row by row; the ``c`` set is
their compiled form in ``geometry/_ckernels.c`` and must return the same
floats bit for bit, over a many-row relation table and over the one-row
table of each polygon alike.

The polygons mix what reaches every branch of the builders: rings with
holes, shells of more than 64 vertices (the MER chord subsamples them),
zero-area objects (no chord, so MER falls back to the MEC square, and
MEC radius 0), tiny hulls whose sides no longer converge within the
absolute epsilon (the m-corner's drop-and-expand fallback), coordinates
on a coarse grid (repeated ordinates) and mixed ``0.0`` / ``-0.0``
(Python's ``sorted(set(...))`` keeps the first of equal values).
The stored columns built from either backend, and so the published
sidecars' digests, are identical too.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.approximations.mcorner as mcorner_module
import repro.approximations.mer as mer_module
from repro.approximations.batch import BatchApproxArrays
from repro.datasets.columnar import pack_rings
from repro.datasets.relations import SpatialRelation
from repro.datasets.store import RelationStore, approx_digest
from repro.geometry.fastops import build_edge_table, polygon_edge_table
from repro.geometry.kernels import get_kernels
from repro.geometry.polygon import Polygon

#: the kinds the kernel tier builds, and the corner counts fuzzed (3-C
#: reaches the drop-and-expand fallback on any rectangle-like hull).
KINDS = ("3-C", "4-C", "5-C", "MER", "MEC")

#: coordinates on a 1/8 grid, zero in both signs.
grid = st.sampled_from([-0.0, 0.0, 0.125, 0.25, 0.375, 0.5, 0.75, 1.0])


def _star(seed: int, n: int, scale: float = 1.0,
          snap: bool = False) -> Polygon:
    """A star of ``n`` vertices around (0.5, 0.5); ``snap`` puts them on
    a 1/16 grid (a grid star may lose vertices, never below three)."""
    rng = random.Random(seed)
    pts = []
    for i in range(n):
        angle = 2 * math.pi * i / n
        r = (0.1 + 0.4 * rng.random()) * scale
        x, y = 0.5 + r * math.cos(angle), 0.5 + r * math.sin(angle)
        if snap:
            x, y = round(x * 16) / 16, round(y * 16) / 16
        pts.append((x, y))
    try:
        return Polygon(pts)
    except ValueError:  # a grid star collapsed
        return Polygon(_square(0.5, 0.5, 0.0625))


def _square(x: float, y: float, side: float):
    return [(x, y), (x + side, y), (x + side, y + side), (x, y + side)]


def _zero_area(xs, y):
    """A flat shell: every vertex on one horizontal line."""
    return Polygon.from_normalized([(x, y) for x in xs])


star = st.one_of(
    st.builds(_star, st.integers(0, 10_000), st.integers(3, 140),
              snap=st.booleans()),
    # Hulls small against the absolute epsilon of convex_hull and
    # line_intersection.
    st.builds(_star, st.integers(0, 10_000), st.integers(3, 40),
              scale=st.sampled_from([1e-3, 1e-6, 1e-7])),
)
holed = st.builds(
    lambda x, y, hole: Polygon(_square(x, y, 1.0),
                               [_square(x + hole, y + hole, 0.25)]),
    grid, grid, st.sampled_from([0.125, 0.25, 0.5]),
)
signed_zeros = st.builds(
    lambda zx, zy, top: Polygon([(zx, zy), (1.0, zy), (1.0, top),
                                 (0.5, top), (zx, top)]),
    st.sampled_from([0.0, -0.0]), st.sampled_from([0.0, -0.0]),
    st.sampled_from([0.5, 1.0]),
)
flat = st.builds(
    lambda xs, y: _zero_area(sorted(set(xs)), y),
    st.lists(grid, min_size=3, max_size=6).filter(lambda xs: len(set(xs)) >= 3),
    grid,
)
polygons = st.lists(st.one_of(star, holed, signed_zeros, flat),
                    min_size=1, max_size=6)


def _table(polys):
    rings = pack_rings(SpatialRelation("fuzz", polys).objects)
    table = build_edge_table(rings.object_rings, rings.ring_offsets,
                             rings.ring_xy)
    return table, rings.object_rings, rings.ring_offsets


def _build(backend: str, kind: str, table, object_rings, ring_offsets):
    """The kind's rows as byte strings (vertex rows cut to their counts)."""
    kernels = get_kernels(backend)
    if kind == "MEC":
        return [row.tobytes()
                for row in kernels.enclosed_circles_ragged(table)]
    if kind == "MER":
        return [row.tobytes() for row in kernels.enclosed_rects_ragged(
            table, object_rings, ring_offsets)]
    vx, vy, counts = kernels.m_corners_ragged(
        table, object_rings, ring_offsets, int(kind[:-2]))
    return [(int(c), x[:c].tobytes(), y[:c].tobytes())
            for x, y, c in zip(vx, vy, counts)]


def _assert_same(polys):
    many = _table(polys)
    for kind in KINDS:
        want = _build("numpy", kind, *many)
        assert _build("c", kind, *many) == want, kind
        # One polygon is a one-row table: the per-object builds agree.
        for polygon, row in zip(polys, want):
            one = polygon_edge_table(polygon)
            assert _build("c", kind, *one) == [row], kind


@settings(max_examples=60, deadline=None)
@given(polygons)
def test_c_builders_match_the_numpy_oracle(polys):
    _assert_same(polys)


# ---------------------------------------------------------------------------
# Each branch the fuzz must reach, reached on purpose
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_long_shells_holes_and_signed_zeros():
    long_star = _star(7, 140)
    assert len(long_star.shell) > 64
    holed_square = Polygon(_square(0.0, 0.0, 1.0),
                           [_square(0.25, 0.25, 0.25)])
    zeros = Polygon([(-0.0, 0.0), (1.0, -0.0), (1.0, 1.0), (0.0, 1.0),
                     (-0.0, 0.5)])
    assert {math.copysign(1.0, x) for x, _ in zeros.shell} == {-1.0, 1.0}
    _assert_same([long_star, holed_square, zeros,
                  _star(3, 90, snap=True)])


def test_no_chord_falls_back_to_the_mec_square(monkeypatch):
    flat = _zero_area([0.0, 0.5, 1.0], 0.25)
    fallbacks = _count_calls(monkeypatch, mer_module, "_fallback_rect")
    _assert_same([flat])
    assert fallbacks
    circle = get_kernels("c").enclosed_circles_ragged(
        polygon_edge_table(flat)[0])
    assert circle[0, 2] == 0.0  # no interior point: radius 0


def test_hull_without_removable_side_drops_and_expands(monkeypatch):
    """3-C of a rectangle: every side's neighbours are parallel, so the
    reduction drops the flattest vertex and scales the rest to cover."""
    drops = _count_calls(monkeypatch, mcorner_module,
                         "_drop_flattest_vertex_conservatively")
    _assert_same([Polygon(_square(0.0, 0.0, 1.0)),
                  Polygon([(0.0, 0.0), (2.0, 0.0), (2.0, 0.5), (0.0, 0.5)])])
    assert len(drops) == 2


# ---------------------------------------------------------------------------
# Stored columns and sidecars: identical from either backend
# ---------------------------------------------------------------------------


def _fixture_relation():
    polys = [_star(seed, n) for seed, n in ((1, 9), (2, 70), (3, 14))]
    polys += [Polygon(_square(0.0, 0.0, 1.0), [_square(0.25, 0.25, 0.25)]),
              _zero_area([0.0, 0.5, 1.0], 0.25), _star(5, 30, scale=1e-7)]
    return SpatialRelation("sidecar", polys)


@pytest.mark.parametrize("kind", ["4-C", "5-C", "MER", "MEC"])
def test_sidecars_are_identical_from_either_backend(tmp_path, monkeypatch,
                                                    kind):
    """A sidecar published under ``REPRO_KERNELS=numpy`` digests to the
    bytes ``c`` builds, and both equal packing the per-object builds one
    by one (how stores were filled before the kernel tier built them)."""
    digests = []
    for backend in ("numpy", "c"):
        monkeypatch.setenv("REPRO_KERNELS", backend)
        store = RelationStore(tmp_path / backend)
        fingerprint = store.save(_fixture_relation())
        store.load_relation(fingerprint).columnar().approx(kind)
        digests.append(approx_digest(store.load(fingerprint).load_approx(kind)))
        per_object = BatchApproxArrays(kind)
        per_object.append(_fixture_relation().objects)
        digests.append(approx_digest(per_object.columns()))
    assert len(set(digests)) == 1, digests
