"""Maximum enclosed rectangle (MER, 4 parameters) — progressive (§3.3).

The paper restricts the enclosed rectangles it searches to those that

1. intersect the longest enclosed horizontal connection (chord) starting
   in a vertex of the polygon, and
2. have x- and y-coordinates taken from the polygon's vertex coordinates.

We implement exactly this restricted search as one array program per
polygon, with :meth:`EdgeArrays.rect_inside` as the only acceptance
predicate.  Candidate coordinate sets are subsampled for very complex
polygons (hundreds of vertices); the result is always a rectangle
``rect_inside`` accepted, so the progressive invariant (rect ⊆ polygon)
holds.

**Chord.**  The (at most 64, evenly subsampled) shell vertices, each
nudged up and down by ``height * 1e-7`` off its exact ordinate, give at
most 128 horizontal probe lines, crossed with every edge at once
(:meth:`EdgeArrays.horizontal_crossings`).  Per line, the even-odd
inside-interval containing the vertex's abscissa wins, else the nearest
one (the vertex sits on the boundary); the longest interval over all
lines is the chord, the first of equal lengths.

**Candidates.**  Abscissae: the shell's vertex x-coordinates within the
chord plus the chord's two ends (at most 14); ordinates: vertex
y-coordinates below and above the chord (at most 12 each, spread evenly
over the whole vertical range).  A candidate rectangle is a pair of
abscissae, one ordinate below and one above.

**Grid.**  The candidate lines cut the search area into cells.  A cell
is *blocked* when its centre fails the even-odd test (decided as
:meth:`EdgeArrays.contains_points` does, from one crossing row per grid
row) or an edge crosses the cell shrunk by the margin ``m = 1e-6 *
span`` (``span``: the grid's larger side;
:func:`~repro.geometry.fastops.segments_cross_open_rects`, the SAT
``rect_inside`` uses); cells narrower or shorter than ``4 m`` never
block.  One 2-D prefix sum over the blocked cells scores every
candidate in one array expression; a candidate *survives* when it
covers no blocked cell and has positive area.  The temporaries sized by
the edge count are boolean masks of lines times edges; coordinates are
computed only at actual crossings and for (cell, edge) pairs whose
boxes overlap.

**Ranked verification.**  Survivors are ranked by area, largest first,
ties in candidate order (abscissa pair, then ordinate below, then
above — the order the search has always enumerated them in), and
verified with ``rect_inside`` in that order.  The first one accepted is
the MER; on the catalogue relations that is almost always the first one
tried.

**Soundness.**  The grid only discards candidates ``rect_inside``
rejects.  ``rect_inside`` shrinks a rectangle by ``pad = 1e-7 *
max(width, height, 1e-9)``, and ``pad < m`` (``m`` uses the same
``1e-9`` floor under the span), so each cell of a candidate, shrunk by
``m``, lies at least ``m - pad`` inside the rectangle ``rect_inside``
tests.  An edge crossing the shrunk cell therefore crosses that
rectangle (``m - pad`` is far above the SAT's rounding noise, about
``1e-16`` of the coordinates' magnitude), and a rectangle
``rect_inside`` accepts has an edge-free interior inside the polygon,
so every cell centre in it (at least ``2 m - pad`` from any edge)
passes the even-odd test.  The result is thus the largest rectangle
``rect_inside`` accepts among the candidates.

**Version 2.**  Version 1 looped over the abscissa pairs and lower
ordinates in Python, skipped a pair whose lowest upper ordinate failed,
and binary-searched the tallest accepted upper ordinate, assuming
acceptance is prefix-monotone in it — about a thousand ``rect_inside``
calls per polygon.  The size-relative ``pad`` does not guarantee that
monotonicity, so version 1 could miss its own best candidate.  Version
2 computes the same chord bit for bit, never returns less area than
version 1's candidate search found, and returns the same rectangle
wherever version 1's assumption held.

**Version 3.**  Where no chord is found, the fallback square is
inscribed in the MEC (:mod:`.mec`) instead of a circle from a separate
grid probe and hill-climb.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.fastops import EdgeArrays, segments_cross_open_rects
from ..geometry.polygon import Polygon
from ..geometry.rectangle import Rect
from .base import ConvexApproximation
from .mec import maximum_enclosed_circle

#: caps on candidate coordinate counts (subsampled evenly when exceeded).
_MAX_X_CANDIDATES = 14
_MAX_Y_CANDIDATES = 12
_MAX_CHORD_VERTICES = 64
#: cell shrink margin relative to the grid's span; must exceed the
#: ``1e-7`` pad of ``EdgeArrays.rect_inside`` for the grid to be sound.
_CELL_MARGIN = 1e-6


class MERApproximation(ConvexApproximation):
    """Maximum enclosed axis-aligned rectangle (paper's restricted def.)."""

    kind = "MER"
    is_conservative = False

    def __init__(self, rect: Rect):
        super().__init__(rect.corners())
        self.rect = rect

    @classmethod
    def of(cls, polygon: Polygon) -> "MERApproximation":
        return cls(maximum_enclosed_rectangle(polygon))

    @property
    def num_parameters(self) -> int:
        return 4

    def __repr__(self) -> str:
        return f"MERApproximation({self.rect!r})"


def maximum_enclosed_rectangle(polygon: Polygon) -> Rect:
    """Largest enclosed rectangle under the paper's two restrictions."""
    fast = EdgeArrays(polygon)
    chord = _longest_vertex_chord(polygon, fast)
    best: Optional[Rect] = None
    if chord is not None:
        best = _verified_best(fast, *_candidate_lines(polygon, *chord))
    if best is None:
        best = _fallback_rect(polygon)
    return best


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
    vx, vy = np.array(verts, dtype=float).T
    height = polygon.mbr().height
    # Nudge off each vertex's exact y to avoid degenerate crossings: one
    # probe line above, then one below, per vertex.
    ys = np.column_stack((vy + height * 1e-7, vy - height * 1e-7)).ravel()
    probe = np.repeat(vx, 2)[:, None]
    crossings = fast.horizontal_crossings(ys)
    n_pairs = crossings.shape[1] // 2
    if n_pairs == 0:
        return None
    # Even-odd: intervals (c0, c1), (c2, c3), ... of a row are inside;
    # an interval is real when its right end is a crossing, not padding.
    left = crossings[:, 0:2 * n_pairs:2]
    right = crossings[:, 1:2 * n_pairs:2]
    real = np.isfinite(right)
    holds = real & (left <= probe) & (probe <= right)
    dist = np.where(
        real, np.minimum(np.abs(probe - left), np.abs(probe - right)), np.inf
    )
    # The interval containing the probe abscissa, else the nearest one;
    # the first of equals either way.
    pick = np.where(
        holds.any(axis=1), holds.argmax(axis=1), dist.argmin(axis=1)
    )[:, None]
    found = real[:, 0]
    xl = np.where(found, np.take_along_axis(left, pick, axis=1)[:, 0], 0.0)
    xr = np.where(found, np.take_along_axis(right, pick, axis=1)[:, 0], 0.0)
    length = xr - xl
    row = int(np.argmax(length))
    if not length[row] > 0.0:
        return None
    return float(ys[row]), float(xl[row]), float(xr[row])


def _candidate_coords(values: Sequence[float], cap: int) -> List[float]:
    uniq = sorted(set(values))
    if len(uniq) <= cap:
        return uniq
    step = (len(uniq) - 1) / (cap - 1)
    return [uniq[int(round(i * step))] for i in range(cap)]


def _candidate_lines(
    polygon: Polygon, y0: float, xl: float, xr: float
) -> Tuple[List[float], List[float], List[float]]:
    """Candidate abscissae (ascending) and ordinates below (descending)
    and above (ascending) the chord at ``y0`` from ``xl`` to ``xr``."""
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
    return xs, below or [y0], above or [y0]


def _verified_best(
    fast: EdgeArrays,
    xs: Sequence[float],
    below: Sequence[float],
    above: Sequence[float],
) -> Optional[Rect]:
    """The largest surviving candidate that ``rect_inside`` accepts."""
    corners, area, survives = _scored_candidates(fast, xs, below, above)
    # Largest first; argmax takes the first of equals, so ties go in
    # candidate order.  Usually the first candidate tried is accepted.
    score = np.where(survives, area, 0.0)
    while True:
        k = int(np.argmax(score))
        if not score[k] > 0.0:
            return None
        x1, ylo, x2, yhi = (float(c.flat[k]) for c in corners)
        if fast.rect_inside(x1, ylo, x2, yhi):
            return Rect(x1, ylo, x2, yhi)
        score[k] = 0.0


def _scored_candidates(
    fast: EdgeArrays,
    xs: Sequence[float],
    below: Sequence[float],
    above: Sequence[float],
) -> Tuple[Sequence[np.ndarray], np.ndarray, np.ndarray]:
    """Every candidate rectangle, its area, and whether it survives the grid.

    ``corners`` are four broadcast views (not copies) holding ``x1, ylo,
    x2, yhi``; candidate ``k`` is ``c.flat[k]`` of each.  Candidates are
    in order of abscissa pairs ``i < j``, then ``below``, then ``above``.
    """
    x = np.asarray(xs, dtype=float)
    lo = np.asarray(below, dtype=float)
    hi = np.asarray(above, dtype=float)
    # (Not np.union1d: numpy's unique machinery costs a process 1.6 MB
    # of resident memory on first use, for two lists of at most 12.)
    y = np.array(sorted({*below, *above}), dtype=float)
    # prefix[a, b]: blocked cells left of line x[a] and below line y[b].
    prefix = np.zeros((len(x), len(y)), dtype=np.int32)
    prefix[1:, 1:] = _blocked_cells(fast, x, y).cumsum(axis=0).cumsum(axis=1)
    line = np.arange(len(x))
    i, j = np.nonzero(line[:, None] < line)  # pairs i < j, i-major
    i = i[:, None, None]
    j = j[:, None, None]
    b = np.searchsorted(y, lo)[None, :, None]
    t = np.searchsorted(y, hi)[None, None, :]
    blocked = prefix[j, t] - prefix[i, t] - prefix[j, b] + prefix[i, b]
    x1, x2 = x[i], x[j]
    ylo, yhi = lo[None, :, None], hi[None, None, :]
    area = (x2 - x1) * (yhi - ylo)
    corners = np.broadcast_arrays(x1, ylo, x2, yhi)
    return corners, area.ravel(), ((blocked == 0) & (area > 0)).ravel()


def _blocked_cells(fast: EdgeArrays, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``(len(x) - 1, len(y) - 1)`` mask of the cells no accepted
    rectangle can cover (see the module docstring)."""
    m = _CELL_MARGIN * max(x[-1] - x[0], y[-1] - y[0], 1e-9)
    # Shrunk cell bounds per column (left, right) and row (bottom, top).
    left, right = x[:-1] + m, x[1:] - m
    bottom, top = y[:-1] + m, y[1:] - m
    blocked = ~_centres_inside(fast, x, y)
    # Only (cell, edge) pairs whose boxes overlap go through the SAT;
    # box overlap is separable into a column and a row test.
    ex1, ey1, ex2, ey2 = fast.x1, fast.y1, fast.x2, fast.y2
    near_x = (np.maximum(ex1, ex2) > left[:, None]) & (
        np.minimum(ex1, ex2) < right[:, None]
    )
    near_y = (np.maximum(ey1, ey2) > bottom[:, None]) & (
        np.minimum(ey1, ey2) < top[:, None]
    )
    a, e = np.nonzero(near_x)
    b, k = np.nonzero(near_y[:, e])
    a, e = a[k], e[k]
    crossed = segments_cross_open_rects(
        ex1[e], ey1[e], ex2[e], ey2[e], left[a], bottom[b], right[a], top[b]
    )
    blocked[a[crossed], b[crossed]] = True
    wide = (x[1:] - x[:-1] >= 4 * m)[:, None] & (y[1:] - y[:-1] >= 4 * m)
    return wide & blocked


def _centres_inside(fast: EdgeArrays, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Even-odd test of every cell centre, as ``EdgeArrays.contains_points``.

    The centres of a grid row share one ordinate, so one crossing row
    per grid row serves them all: a centre is inside when an odd number
    of that row's crossings lie to its right.  Same crossings, same
    comparisons, hence the same decisions as ``contains_points`` —
    without its ``cells x edges`` temporaries.
    """
    crossings = fast.horizontal_crossings((y[:-1] + y[1:]) / 2)[None, :, :]
    centres = ((x[:-1] + x[1:]) / 2)[:, None, None]
    right = np.count_nonzero((centres < crossings) & np.isfinite(crossings), axis=2)
    return right % 2 == 1


def _fallback_rect(polygon: Polygon) -> Rect:
    """The square inscribed in the polygon's MEC.

    Used when the chord search fails (tiny or pathological polygons); a
    square inscribed in an enclosed circle is enclosed.  A zero radius
    (no interior point) still gives a square of half side ``1e-12``.
    """
    circle = maximum_enclosed_circle(polygon)
    cx, cy = circle.center
    half = max(circle.radius / math.sqrt(2.0) * (1 - 1e-9), 1e-12)
    return Rect(cx - half, cy - half, cx + half, cy + half)
