"""Maximum enclosed circle (MEC, 3 parameters) — progressive (§3.3).

The paper computes the MEC from the Voronoi diagram of the polygon's
*edges*.  scipy offers only a point-site Voronoi diagram, so we sample
the boundary densely, take the Voronoi vertices that fall strictly inside
the polygon as candidate centers (the point-sample diagram converges to
the edge diagram), and keep the candidate maximising the distance to the
true polygon boundary.  The radius is that exact boundary distance, so
the resulting circle is genuinely enclosed — the progressive invariant
(circle ⊆ polygon) holds regardless of sampling density; sampling only
affects how close we get to the true maximum.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from ..geometry import Circle, Coord, Polygon, Rect
from ..geometry.fastops import EdgeArrays
from .base import Approximation

#: target number of boundary samples for the Voronoi diagram.
_DEFAULT_SAMPLES = 256


class MECApproximation(Approximation):
    """Largest (approximately) enclosed circle of a polygon."""

    kind = "MEC"
    is_conservative = False
    shape_kind = "circle"

    def __init__(self, circle: Circle):
        self._circle = circle

    @classmethod
    def of(
        cls, polygon: Polygon, samples: int = _DEFAULT_SAMPLES
    ) -> "MECApproximation":
        return cls(maximum_enclosed_circle(polygon, samples=samples))

    @property
    def num_parameters(self) -> int:
        return 3

    def circle(self) -> Circle:
        return self._circle

    def area(self) -> float:
        return self._circle.area()

    def mbr(self) -> Rect:
        return self._circle.mbr()

    def contains_point(self, p: Coord) -> bool:
        return self._circle.contains_point(p)

    def __repr__(self) -> str:
        return f"MECApproximation({self._circle!r})"


def maximum_enclosed_circle(
    polygon: Polygon, samples: int = _DEFAULT_SAMPLES
) -> Circle:
    """Approximate largest enclosed circle; guaranteed to be enclosed."""
    # Imported here, not at module level: scipy.spatial is most of the
    # import time of ``repro.cli`` and only MEC *builds* need it.
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
