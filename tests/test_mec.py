"""The MEC contract: version 2 (the pole-of-inaccessibility search)
against version 1.

Version 1 of ``approximations/mec.py`` — boundary samples, the
point-site Voronoi diagram (scipy), a Python loop over candidate centres
and a scalar hill-climb — is kept below verbatim as the reference.
Version 2 must

* return a circle inside the polygon by the scalar predicates: centre
  inside by ``Polygon.contains_point``, radius at most
  ``Polygon.distance_to_boundary`` of the centre;
* never be smaller than version 1's circle by more than the search
  precision ``prec = 1e-5 * max(w, h)`` of the object's MBR;
* compute the same floats for an object whether it is searched alone
  (a one-row edge table), with its whole relation, or with the edge
  pruning switched off (a dense scan over all edges);
* store, through ``ColumnarRelation.approx``, exactly the rows that
  packing the per-object approximations stores;
* stay finite, non-negative and free of warnings on degenerate input;
* keep scipy out of a process that only loads relations and joins them.

Inputs: the catalogue generators (Europe, BW, strategies A and B), the
differential suites' random relations (stars, grid squares, zero-area
slivers) and polygons with holes.  Every warning is an error here.
"""

from __future__ import annotations

import functools
import inspect
import math
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np
import pytest

from helpers import random_relation_pair
from repro.approximations import mec
from repro.approximations.batch import BatchApproxArrays
from repro.datasets.io import save_relation
from repro.datasets.relations import SpatialRelation, bw, europe
from repro.datasets.testseries import strategy_a, strategy_b
from repro.geometry.circle import Circle
from repro.geometry.fastops import EdgeArrays
from repro.geometry.polygon import Polygon
from repro.geometry.predicates import Coord
from tests.conftest import star_polygon

# Every warning of the code under test is an error.  Deprecations are
# exempt: scipy's import may warn about the interpreter it runs on.
pytestmark = [
    pytest.mark.filterwarnings("error"),
    pytest.mark.filterwarnings("ignore::DeprecationWarning"),
]

SRC = str(Path(__file__).resolve().parents[1] / "src")


# ---------------------------------------------------------------------------
# Version 1, verbatim (the reference).
# ---------------------------------------------------------------------------

#: target number of boundary samples for the Voronoi diagram.
_DEFAULT_SAMPLES = 256


def maximum_enclosed_circle_v1(
    polygon: Polygon, samples: int = _DEFAULT_SAMPLES
) -> Circle:
    """Approximate largest enclosed circle; guaranteed to be enclosed."""
    from scipy.spatial import QhullError, Voronoi

    fast = EdgeArrays(polygon)
    boundary = _sample_boundary(polygon, samples)
    candidates: List[Coord] = []
    if len(boundary) >= 4:
        try:
            vor = Voronoi(np.array(boundary))
            mbr = polygon.mbr()
            for vx, vy in vor.vertices:
                if not (mbr.xmin <= vx <= mbr.xmax and mbr.ymin <= vy <= mbr.ymax):
                    continue
                candidates.append((float(vx), float(vy)))
        except (QhullError, ValueError):
            pass
    best_center: Optional[Coord] = None
    best_radius = 0.0
    if candidates:
        pts = np.array(candidates)
        dists = fast.boundary_distances(pts)
        # Evaluate candidates from largest clearance down; the first one
        # actually inside the polygon is the winner.
        for idx in np.argsort(-dists):
            cx, cy = candidates[int(idx)]
            if fast.contains_point(cx, cy):
                best_radius = float(dists[idx])
                best_center = (cx, cy)
                break
    if best_center is None:
        best_center, best_radius = _grid_fallback(polygon, fast)
    best_center, best_radius = _refine(fast, best_center, best_radius)
    # Tiny shrink keeps the circle strictly enclosed under float noise.
    return Circle(best_center, best_radius * (1 - 1e-9))


def _sample_boundary(polygon: Polygon, samples: int) -> List[Coord]:
    """Vertices plus evenly spaced points along every ring."""
    perimeter = polygon.perimeter()
    if perimeter <= 0:
        return list(polygon.vertices())
    spacing = perimeter / max(samples, 8)
    out: List[Coord] = []
    for a, b in polygon.edges():
        out.append(a)
        length = math.hypot(b[0] - a[0], b[1] - a[1])
        extra = int(length / spacing)
        for k in range(1, extra + 1):
            t = k / (extra + 1)
            out.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
    return out


def _grid_fallback(
    polygon: Polygon, fast: Optional[EdgeArrays] = None
) -> Tuple[Coord, float]:
    """Coarse interior grid search when Voronoi yields no inner vertex."""
    fast = fast if fast is not None else EdgeArrays(polygon)
    mbr = polygon.mbr()
    best_center = polygon.centroid()
    best_radius = (
        fast.boundary_distance(*best_center)
        if fast.contains_point(*best_center)
        else 0.0
    )
    steps = 12
    for i in range(1, steps):
        for j in range(1, steps):
            px = mbr.xmin + mbr.width * i / steps
            py = mbr.ymin + mbr.height * j / steps
            if not fast.contains_point(px, py):
                continue
            r = fast.boundary_distance(px, py)
            if r > best_radius:
                best_radius = r
                best_center = (px, py)
    return best_center, best_radius


def _refine(
    fast: EdgeArrays, center: Coord, radius: float, rounds: int = 24
) -> Tuple[Coord, float]:
    """Local hill-climb of distance-to-boundary around ``center``."""
    mbr = fast.polygon.mbr()
    step = max(radius, mbr.width / 50.0) / 2.0
    best_c, best_r = center, radius
    for _ in range(rounds):
        improved = False
        for dx, dy in (
            (step, 0),
            (-step, 0),
            (0, step),
            (0, -step),
            (step, step),
            (step, -step),
            (-step, step),
            (-step, -step),
        ):
            cand = (best_c[0] + dx, best_c[1] + dy)
            if not fast.contains_point(*cand):
                continue
            r = fast.boundary_distance(*cand)
            if r > best_r:
                best_r = r
                best_c = cand
                improved = True
        if not improved:
            step /= 2.0
            if step < 1e-12:
                break
    return best_c, best_r


# ---------------------------------------------------------------------------
# Inputs.
# ---------------------------------------------------------------------------


def _holed() -> List[Polygon]:
    """Stars with a small hole near the centre, squares with holes at
    and beside the pole."""
    out = []
    for seed in range(8):
        star = star_polygon(n=12 + 3 * seed, seed=seed, irregularity=0.3)
        hx, hy = -0.2 + 0.05 * seed, 0.1 - 0.03 * seed
        out.append(Polygon(
            star.shell, [[(hx, hy), (hx + 0.2, hy), (hx + 0.1, hy + 0.15)]]
        ))
    frame = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]
    for x, y, size in ((1.9, 1.9, 0.2), (2.3, 1.6, 0.5), (0.5, 0.5, 1.0)):
        out.append(Polygon(frame, [[(x, y), (x + size, y),
                                    (x + size, y + size), (x, y + size)]]))
    return out


@functools.lru_cache(maxsize=None)
def relations() -> Tuple[Tuple[str, Tuple[Polygon, ...]], ...]:
    """Named polygon sets: the catalogue (48 Europe shapes, their
    strategy-A shift and strategy-B shuffle, 24 BW shapes of ≈ 500
    vertices), two random relations and the holed shapes."""
    base = europe(size=48)
    rel_a, rel_b = random_relation_pair(7, n_objects=16)
    named = (
        ("europe", base),
        ("strategy-a", strategy_a(base).relation_b),
        ("strategy-b", strategy_b(base).relation_a),
        ("bw", bw(size=24)),
        ("random-a", rel_a),
        ("random-b", rel_b),
    )
    return tuple(
        (name, tuple(obj.polygon for obj in relation))
        for name, relation in named
    ) + (("holed", tuple(_holed())),)


NAMES = [name for name, _ in relations()]


def _polygons(name: str) -> Tuple[Polygon, ...]:
    return dict(relations())[name]


@functools.lru_cache(maxsize=None)
def relation_circles(name: str) -> np.ndarray:
    """``(n, 3)`` circles of a fresh relation's get-or-build point."""
    relation = SpatialRelation(name, _polygons(name))
    return relation.columnar().approx("MEC").circles


def _prec(polygon: Polygon) -> float:
    mbr = polygon.mbr()
    return mec._PRECISION * max(mbr.width, mbr.height)


def _bits(circles) -> bytes:
    return np.asarray(circles, dtype=float).tobytes()


def _one_row(polygon: Polygon) -> List[float]:
    circle = mec.maximum_enclosed_circle(polygon)
    return [*circle.center, circle.radius]


# ---------------------------------------------------------------------------
# The contract.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
class TestVersion2Contract:
    def test_every_circle_is_enclosed(self, name):
        for polygon, (cx, cy, r) in zip(
            _polygons(name), relation_circles(name).tolist()
        ):
            assert polygon.contains_point((cx, cy))
            assert 0.0 <= r <= polygon.distance_to_boundary((cx, cy))

    def test_never_smaller_than_version_1_beyond_prec(self, name):
        smaller = [
            (k, v1.radius, r)
            for k, (polygon, r) in enumerate(
                zip(_polygons(name), relation_circles(name)[:, 2].tolist())
            )
            for v1 in [maximum_enclosed_circle_v1(polygon)]
            if r < v1.radius - _prec(polygon)
        ]
        assert smaller == []

    def test_relation_build_equals_one_row_build(self, name):
        one_row = [_one_row(polygon) for polygon in _polygons(name)]
        assert _bits(one_row) == _bits(relation_circles(name))

    def test_pruned_search_equals_dense_scan(self, name, monkeypatch):
        table = SpatialRelation(name, _polygons(name)).columnar()
        table = table.ring_geometry().table
        pruned = mec.enclosed_circles(table)
        monkeypatch.setattr(mec, "_REACH", math.inf)
        assert _bits(mec.enclosed_circles(table)) == _bits(pruned)

    def test_columns_equal_per_object_packing(self, name):
        stored = SpatialRelation(name, _polygons(name)).columnar()
        stored = stored.approx("MEC").columns().arrays
        # A second relation whose objects compute their own MEC, one by
        # one, and are packed row by row.
        packer = BatchApproxArrays("MEC")
        packer.rows(SpatialRelation(name, _polygons(name)).objects)
        packed = packer.columns().arrays
        assert list(stored) == list(packed)
        for column, array in stored.items():
            assert array.dtype == packed[column].dtype
            assert _bits(array) == _bits(packed[column]), column


def test_scalar_cache_agrees_with_relation_columns():
    """An object whose cache already holds a one-row MEC keeps it, and
    it equals the relation's row."""
    relation = SpatialRelation("europe", _polygons("europe"))
    early = [relation.objects[k].approximation("MEC") for k in (0, 5, 11)]
    columns = relation.columnar().approx("MEC")
    for k, appr in zip((0, 5, 11), early):
        assert relation.objects[k].approximation("MEC") is appr
        circle = appr.circle()
        assert _bits([*circle.center, circle.radius]) == _bits(columns.circles[k])


def test_columnar_build_never_calls_the_per_object_constructor(monkeypatch):
    calls = []
    original = mec.maximum_enclosed_circle
    monkeypatch.setattr(
        mec, "maximum_enclosed_circle",
        lambda polygon: calls.append(polygon) or original(polygon),
    )
    relation = SpatialRelation("random", _polygons("random-a"))
    relation.columnar().approx("MEC")
    assert calls == []
    assert relation.columnar().pack_counts == {"MEC": 1}


# ---------------------------------------------------------------------------
# Degenerate geometry: finite, non-negative, no warnings.
# ---------------------------------------------------------------------------


def _degenerate() -> List[Tuple[str, Polygon]]:
    star = star_polygon(n=20, seed=3)
    return [
        ("zero-width", Polygon([(0, 0), (0, 2), (0, 1)])),
        ("zero-height", Polygon([(0, 0), (4, 0), (2, 0)])),
        ("point", Polygon.from_normalized([(1.0, 1.0)] * 3, [])),
        ("out-and-back", Polygon([(0, 0), (1, 0), (1, 1), (1, 0)])),
        ("collinear-diagonal", Polygon([(0, 0), (1, 1), (3, 3), (2, 2)])),
        ("sliver-1e3", Polygon([(0, 0), (1000, 0), (1000, 1), (0, 1)])),
        ("sliver-1e5", Polygon([(0, 0), (1e5, 0), (0, 1)])),
        ("offset-1e6", Polygon([(x + 1e6, y + 1e6) for x, y in star.shell])),
        ("offset-1e6-small",
         Polygon([(x * 1e-3 + 1e6, y * 1e-3 - 1e6) for x, y in star.shell])),
        ("hole-at-pole", Polygon(
            [(0, 0), (4, 0), (4, 4), (0, 4)],
            [[(1.9, 1.9), (2.1, 1.9), (2.1, 2.1), (1.9, 2.1)]],
        )),
    ]


DEGENERATE = _degenerate()


@pytest.mark.parametrize("name, polygon", DEGENERATE,
                         ids=[name for name, _ in DEGENERATE])
def test_degenerate_geometry_gives_a_finite_enclosed_circle(name, polygon):
    cx, cy, r = _one_row(polygon)
    assert all(math.isfinite(v) for v in (cx, cy, r))
    assert r >= 0.0
    assert polygon.contains_point((cx, cy))
    if polygon.area() == 0.0:
        assert r == 0.0


def test_degenerate_geometry_in_one_relation():
    polygons = [polygon for _, polygon in DEGENERATE]
    circles = SpatialRelation("degenerate", polygons).columnar()
    circles = circles.approx("MEC").circles
    assert np.isfinite(circles).all()
    assert _bits(circles) == _bits([_one_row(p) for p in polygons])
    empty = SpatialRelation("empty", []).columnar().approx("MEC").circles
    assert empty.shape == (0, 3)


def test_version_1_is_gone():
    for name in ("_sample_boundary", "_grid_fallback", "_refine",
                 "_DEFAULT_SAMPLES"):
        assert not hasattr(mec, name)
    for function in (mec.maximum_enclosed_circle, mec.MECApproximation.of):
        assert "samples" not in inspect.signature(function).parameters


# ---------------------------------------------------------------------------
# scipy stays off the runtime path.
# ---------------------------------------------------------------------------

_DISTANCE_JOINS = """
import sys
from repro.core.join import JoinConfig, SpatialJoinProcessor
from repro.core.parallel_exec import PROXIMITY_SERIAL_VOLUME
from repro.core.session import JoinSession
from repro.datasets.io import load_relation

rel_a, rel_b = load_relation(sys.argv[1]), load_relation(sys.argv[2])
assert len(rel_a) * len(rel_b) >= PROXIMITY_SERIAL_VOLUME
config = JoinConfig(predicate="distance", epsilon=0.05, engine="batched",
                    exact_method="vectorized")
serial = SpatialJoinProcessor(config).join(rel_a, rel_b).id_pairs()
with JoinSession(config=config, workers=2) as session:
    tiled = session.join(load_relation(sys.argv[1]),
                         load_relation(sys.argv[2]), grid=(2, 2)).id_pairs()
assert sorted(serial) == sorted(tiled), (serial, tiled)
assert serial
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert loaded == [], loaded
"""


@pytest.mark.parallel
def test_distance_joins_never_import_scipy(tmp_path):
    rel_a, rel_b = random_relation_pair(41, n_objects=12)
    paths = [tmp_path / "a.wkt", tmp_path / "b.wkt"]
    for relation, path in zip((rel_a, rel_b), paths):
        save_relation(relation, path)
    done = subprocess.run(
        [sys.executable, "-c", _DISTANCE_JOINS, *map(str, paths)],
        env={"PYTHONPATH": SRC, "PATH": ""}, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
