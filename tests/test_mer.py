"""The MER contract: version 2 (the cell-grid search) against version 1.

Version 1 of ``approximations/mer.py`` — the per-vertex chord loop and
the per-candidate rectangle loop with its binary search over the upper
ordinate — is kept below verbatim as the reference.  Version 2 must

* compute the same chord, bit for bit;
* return a rectangle ``EdgeArrays.rect_inside`` accepts, never with
  less area than version 1's;
* discard only candidates ``rect_inside`` rejects (the grid is a
  conservative prefilter);
* verify about one candidate per polygon, and return version 1's
  rectangle on at least 99 % of a fixed catalogue sample.

Inputs: the catalogue generators (Europe, BW, strategies A and B),
polygons with holes, and rectilinear polygons with many collinear
vertices whose edges lie exactly on candidate lines — the case the
``rect_inside`` pad exists for.  Every warning is an error here: padded
``+inf`` crossings must never reach a subtraction.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approximations import mer
from repro.approximations.mec import maximum_enclosed_circle
from repro.approximations.mer import (
    _MAX_CHORD_VERTICES,
    _MAX_X_CANDIDATES,
    _MAX_Y_CANDIDATES,
    _candidate_coords,
)
from repro.datasets.relations import bw, europe
from repro.datasets.testseries import strategy_a, strategy_b
from repro.geometry.fastops import EdgeArrays
from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rect
from tests.conftest import star_polygon

# Every warning of the code under test is an error.  Deprecations are
# exempt: hypothesis imports a deprecated helper while reporting a
# failure, which would otherwise replace the report.
pytestmark = [
    pytest.mark.filterwarnings("error"),
    pytest.mark.filterwarnings("ignore::DeprecationWarning"),
]


# ---------------------------------------------------------------------------
# Version 1, verbatim (the reference).
# ---------------------------------------------------------------------------


def _longest_vertex_chord(
    polygon: Polygon, fast: EdgeArrays
) -> Optional[Tuple[float, float, float]]:
    """Longest horizontal inside-chord through a polygon vertex.

    Returns ``(y, x_left, x_right)`` or ``None`` if no chord is found.
    """
    verts = list(polygon.shell)
    if len(verts) > _MAX_CHORD_VERTICES:
        step = len(verts) / _MAX_CHORD_VERTICES
        verts = [verts[int(i * step)] for i in range(_MAX_CHORD_VERTICES)]
    best: Optional[Tuple[float, float, float]] = None
    best_len = 0.0
    height = polygon.mbr().height
    for vx, vy in verts:
        # Nudge off the vertex's exact y to avoid degenerate crossings.
        for y in (vy + height * 1e-7, vy - height * 1e-7):
            interval = _inside_interval_at(fast, y, vx)
            if interval is None:
                continue
            xl, xr = interval
            if xr - xl > best_len:
                best_len = xr - xl
                best = (y, xl, xr)
    return best


def _inside_interval_at(
    fast: EdgeArrays, y: float, x_probe: float
) -> Optional[Tuple[float, float]]:
    """The inside-interval of the horizontal line at ``y`` containing
    (or adjacent to) ``x_probe``."""
    crosses = (fast.y1 > y) != (fast.y2 > y)
    if not crosses.any():
        return None
    y1c = fast.y1[crosses]
    y2c = fast.y2[crosses]
    x1c = fast.x1[crosses]
    x2c = fast.x2[crosses]
    xs = np.sort((x2c - x1c) * (y - y1c) / (y2c - y1c) + x1c)
    if len(xs) < 2:
        return None
    # Even-odd: intervals (xs[0], xs[1]), (xs[2], xs[3]), ... are inside.
    best = None
    best_dist = math.inf
    for i in range(0, len(xs) - 1, 2):
        xl, xr = float(xs[i]), float(xs[i + 1])
        if xl <= x_probe <= xr:
            return (xl, xr)
        dist = min(abs(x_probe - xl), abs(x_probe - xr))
        if dist < best_dist:
            best_dist = dist
            best = (xl, xr)
    # The probe vertex sits on the boundary; accept the nearest interval.
    return best


def _search_rectangles(
    polygon: Polygon,
    fast: EdgeArrays,
    y0: float,
    xl: float,
    xr: float,
) -> Optional[Rect]:
    """Best rectangle with vertex coordinates crossing the chord."""
    xs_all = [v[0] for v in polygon.shell if xl <= v[0] <= xr]
    xs = _candidate_coords(xs_all + [xl, xr], _MAX_X_CANDIDATES)
    ys_all = {v[1] for v in polygon.shell}
    # Candidate ordinates are spread evenly over the whole vertical range
    # (complex polygons have hundreds of vertex ordinates; taking only
    # the nearest ones would restrict the search to a thin band).
    below = sorted(
        _candidate_coords([y for y in ys_all if y <= y0], _MAX_Y_CANDIDATES),
        reverse=True,
    )
    above = sorted(
        _candidate_coords([y for y in ys_all if y >= y0], _MAX_Y_CANDIDATES)
    )
    if not below:
        below = [y0]
    if not above:
        above = [y0]

    best: Optional[Rect] = None
    best_area = 0.0
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            x1, x2 = xs[i], xs[j]
            width = x2 - x1
            if width <= 0:
                continue
            for ylo in below:
                # Upper bound on area is width * (max(above) - ylo);
                # skip candidates that cannot beat the best (taller
                # rectangles later in the loop may still win).
                if width * (above[-1] - ylo) <= best_area:
                    continue
                if not fast.rect_inside(x1, ylo, x2, above[0]):
                    continue
                # Valid yhi values form a prefix of `above`: binary-search
                # the largest one.
                lo, hi = 0, len(above) - 1
                while lo < hi:
                    mid = (lo + hi + 1) // 2
                    if fast.rect_inside(x1, ylo, x2, above[mid]):
                        lo = mid
                    else:
                        hi = mid - 1
                area = width * (above[lo] - ylo)
                if area > best_area:
                    best_area = area
                    best = Rect(x1, ylo, x2, above[lo])
    return best


def _v1_search(polygon: Polygon) -> Optional[Rect]:
    """Version 1's rectangle, or ``None`` where it fell back."""
    fast = EdgeArrays(polygon)
    chord = _longest_vertex_chord(polygon, fast)
    if chord is None:
        return None
    return _search_rectangles(polygon, fast, *chord)


# ---------------------------------------------------------------------------
# Inputs.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def catalogue_sample() -> Tuple[Polygon, ...]:
    """256 fixed catalogue shapes: 64 each of Europe, its strategy-A
    shift, its strategy-B shuffle, and BW (≈ 500 vertices)."""
    base = europe(size=64)
    return tuple(
        obj.polygon
        for relation in (
            base,
            strategy_a(base).relation_b,
            strategy_b(base).relation_a,
            bw(size=64),
        )
        for obj in relation
    )


@st.composite
def skylines(draw):
    """Rectilinear x-monotone polygons: integer columns, flat bottom.

    Every column boundary and every top is split by extra collinear
    vertices, so edges lie exactly on the candidate lines.
    """
    heights = draw(st.lists(st.integers(1, 6), min_size=1, max_size=9))
    scale = draw(st.sampled_from([1.0, 0.1, 37.5]))
    bottom = [(float(x), 0.0) for x in range(len(heights) + 1)]
    top = []
    for x in range(len(heights), 0, -1):
        h = float(heights[x - 1])
        top += [(float(x), h), (x - 0.5, h)]
    top.append((0.0, float(heights[0])))
    ring = [(x * scale, y * scale) for x, y in bottom + top]
    return Polygon(ring)


@st.composite
def holed_squares(draw):
    """A square with a vertex at every integer of its boundary (so the
    candidate lines are the integer grid) and one or two holes whose
    edges lie on those lines."""
    shell = (
        [(float(k), 0.0) for k in range(8)]
        + [(8.0, float(k)) for k in range(8)]
        + [(float(k), 8.0) for k in range(8, 0, -1)]
        + [(0.0, float(k)) for k in range(8, 0, -1)]
    )
    spots = draw(st.lists(st.sampled_from([(1, 1), (5, 1), (1, 5), (5, 5)]),
                          min_size=1, max_size=2, unique=True))
    holes = [[(x, y), (x + 2, y), (x + 2, y + 1), (x, y + 1)]
             for x, y in spots]
    return Polygon(shell, holes)


@st.composite
def holed_stars(draw):
    """A star with a small triangular hole near its centre."""
    star = star_polygon(
        n=draw(st.integers(8, 40)),
        seed=draw(st.integers(0, 10_000)),
        irregularity=draw(st.floats(0.05, 0.4)),
    )
    hx, hy = draw(st.floats(-0.25, 0.25)), draw(st.floats(-0.25, 0.25))
    return Polygon(star.shell, [[(hx, hy), (hx + 0.2, hy), (hx + 0.1, hy + 0.15)]])


stars = st.builds(
    star_polygon,
    n=st.integers(min_value=5, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
    irregularity=st.floats(min_value=0.1, max_value=0.7),
)

shapes = st.one_of(
    st.integers(0, 255).map(lambda k: catalogue_sample()[k]),
    stars,
    skylines(),
    holed_squares(),
    holed_stars(),
)


def _scored(fast, lines):
    """All candidates as ``(n, 4)`` rows, their areas and grid verdicts."""
    corners, area, survives = mer._scored_candidates(fast, *lines)
    return np.column_stack([c.ravel() for c in corners]), area, survives


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


# ---------------------------------------------------------------------------
# The contract.
# ---------------------------------------------------------------------------


class TestVersion2Contract:
    @given(shapes)
    @settings(max_examples=80, deadline=None)
    def test_against_version_1(self, polygon):
        fast = EdgeArrays(polygon)
        chord = mer._longest_vertex_chord(polygon, fast)
        reference = _longest_vertex_chord(polygon, fast)
        assert (chord is None) == (reference is None)
        if chord is not None:
            assert _bits(chord) == _bits(reference)
        rect = mer.maximum_enclosed_rectangle(polygon)
        assert fast.rect_inside(rect.xmin, rect.ymin, rect.xmax, rect.ymax)
        v1 = _v1_search(polygon)
        if v1 is not None:  # else version 1 fell back to a square
            assert rect.area() >= v1.area()

    @given(shapes)
    @settings(max_examples=60, deadline=None)
    def test_grid_discards_only_what_rect_inside_rejects(self, polygon):
        fast = EdgeArrays(polygon)
        chord = mer._longest_vertex_chord(polygon, fast)
        if chord is None:
            return
        lines = mer._candidate_lines(polygon, *chord)
        rects, area, survives = _scored(fast, lines)
        xs, below, above = lines
        pairs = len(xs) * (len(xs) - 1) // 2
        assert rects.shape == (pairs * len(below) * len(above), 4)
        rejected = np.flatnonzero(~survives & (area > 0))
        if len(rejected) > 300:  # bound the cost on large candidate sets
            rejected = rejected[np.linspace(0, len(rejected) - 1, 300).astype(int)]
        for x1, ylo, x2, yhi in rects[rejected].tolist():
            assert not fast.rect_inside(x1, ylo, x2, yhi)

    @given(shapes)
    @settings(max_examples=40, deadline=None)
    def test_cell_centres_decided_as_contains_points(self, polygon):
        fast = EdgeArrays(polygon)
        chord = mer._longest_vertex_chord(polygon, fast)
        if chord is None:
            return
        xs, below, above = mer._candidate_lines(polygon, *chord)
        x, y = np.asarray(xs), np.union1d(below, above)
        cx, cy = np.meshgrid((x[:-1] + x[1:]) / 2, (y[:-1] + y[1:]) / 2,
                             indexing="ij")
        mask = fast.contains_points(np.column_stack((cx.ravel(), cy.ravel())))
        inside = mer._centres_inside(fast, x, y)
        assert inside.shape == cx.shape
        assert inside.ravel().tolist() == mask.tolist()

    def test_result_is_the_largest_accepted_candidate(self):
        # A brute-force check of the ranking on shapes small enough to
        # verify every candidate.
        for seed in range(6):
            polygon = star_polygon(n=10, seed=seed, irregularity=0.6)
            fast = EdgeArrays(polygon)
            lines = mer._candidate_lines(
                polygon, *mer._longest_vertex_chord(polygon, fast)
            )
            rects, area, _ = _scored(fast, lines)
            accepted = [
                k for k, (x1, ylo, x2, yhi) in enumerate(rects.tolist())
                if area[k] > 0 and fast.rect_inside(x1, ylo, x2, yhi)
            ]
            best = max(accepted, key=lambda k: (area[k], -k))
            assert mer.maximum_enclosed_rectangle(polygon) == Rect(
                *rects[best].tolist()
            )

    @given(st.one_of(skylines(), holed_squares()))
    @settings(max_examples=40, deadline=None)
    def test_edges_on_lines_cost_one_verification(self, polygon):
        # Every edge lies on a candidate line, so no edge crosses a
        # shrunk cell: the cells outside (and in holes) are blocked by
        # their centres alone, and the first survivor is the answer.
        fast = EdgeArrays(polygon)
        xs, below, above = mer._candidate_lines(
            polygon, *mer._longest_vertex_chord(polygon, fast)
        )
        if not {v[0] for v in polygon.shell if xs[0] <= v[0] <= xs[-1]} <= set(xs):
            return  # subsampled: some vertex abscissae are not lines
        rects, area, survives = _scored(fast, (xs, below, above))
        best = np.flatnonzero(survives)[np.argmax(area[survives])]
        assert fast.rect_inside(*rects[best].tolist())

    def test_edges_on_candidate_lines(self):
        # An L: the reflex vertex's two edges lie on candidate lines and
        # the best rectangle shares them.
        polygon = Polygon([(0, 0), (4, 0), (4, 1), (1, 1), (1, 3), (0, 3)])
        rect = mer.maximum_enclosed_rectangle(polygon)
        assert rect == Rect(0.0, 0.0, 4.0, 1.0)

    def test_version_1_search_is_gone(self):
        for name in ("_search_rectangles", "_inside_interval_at"):
            assert not hasattr(mer, name)


class TestFallback:
    """Version 3: without a chord, the MER is the square in the MEC."""

    @pytest.mark.parametrize("ring", [
        [(0, 0), (4, 0), (2, 0)],
        [(0, 0), (0, 2), (0, 1)],
        [(0, 0), (1, 0), (1, 1), (1, 0)],
    ], ids=["zero-height", "zero-width", "out-and-back"])
    def test_chordless_polygons_take_the_fallback(self, ring):
        polygon = Polygon(ring)
        assert mer._longest_vertex_chord(polygon, EdgeArrays(polygon)) is None
        rect = mer.maximum_enclosed_rectangle(polygon)
        assert rect == mer._fallback_rect(polygon)
        cx, cy = maximum_enclosed_circle(polygon).center
        assert (rect.xmin + rect.xmax) / 2 == pytest.approx(cx, abs=1e-12)
        assert (rect.ymin + rect.ymax) / 2 == pytest.approx(cy, abs=1e-12)
        assert polygon.contains_point((cx, cy))

    @given(shapes)
    @settings(max_examples=40, deadline=None)
    def test_fallback_square_is_inscribed_in_the_mec(self, polygon):
        circle = maximum_enclosed_circle(polygon)
        rect = mer._fallback_rect(polygon)
        half = circle.radius / math.sqrt(2.0) * (1 - 1e-9)
        cx, cy = circle.center
        assert rect == Rect(cx - half, cy - half, cx + half, cy + half)
        assert EdgeArrays(polygon).rect_inside(
            rect.xmin, rect.ymin, rect.xmax, rect.ymax
        )


class TestCatalogueSample:
    @pytest.fixture(scope="class")
    def runs(self):
        """Per sample shape: version 1's and version 2's rectangle and
        the number of ``rect_inside`` calls version 2 made."""
        calls = [0]
        verify = EdgeArrays.rect_inside

        def counted(self, *rect):
            calls[0] += 1
            return verify(self, *rect)

        out = []
        for polygon in catalogue_sample():
            v1 = _v1_search(polygon) or mer._fallback_rect(polygon)
            before = calls[0]
            EdgeArrays.rect_inside = counted
            try:
                v2 = mer.maximum_enclosed_rectangle(polygon)
            finally:
                EdgeArrays.rect_inside = verify
            out.append((v1, v2, calls[0] - before))
        return out

    def test_sample_size(self, runs):
        assert len(runs) == 256

    def test_about_one_verification_per_object(self, runs):
        assert sum(n for _, _, n in runs) / len(runs) <= 2.0

    def test_same_rectangle_as_version_1(self, runs):
        changed = [
            (k, v1, v2) for k, (v1, v2, _) in enumerate(runs) if v1 != v2
        ]
        assert len(changed) <= len(runs) // 100, f"changed: {changed}"
        for _, v1, v2 in changed:
            assert v2.area() >= v1.area()
