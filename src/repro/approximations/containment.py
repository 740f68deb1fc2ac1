"""Sound containment tests between approximations.

The paper notes (§1, §2.2) that the multi-step approach carries over to
other predicates such as inclusion.  For the *within* join (``a ⊆ b``)
the filter needs two one-sided, **sound** tests:

* :func:`certainly_contains` — True only if ``outer`` provably contains
  ``inner``.  Used to *prove* ``a ⊆ b`` from
  ``conservative(a) ⊆ progressive(b)``.
* :func:`certainly_not_contains` — True only if some point of ``inner``
  provably lies outside ``outer``.  Used to *disprove* ``a ⊆ b`` from
  ``progressive(a) ⊄ conservative(b)``.

Both exploit that every approximation shape here is convex: a convex
shape lies inside a convex set iff its (circumscribing) vertices do.
Where a shape has no vertices (circle, ellipse) a circumscribed polygon
is used for the positive test and boundary points for the negative one —
keeping both tests sound, at worst slightly conservative.
"""

from __future__ import annotations

import math
from typing import List

from ..geometry.predicates import Coord
from .base import Approximation


def _circumscribed_points(approx: Approximation, n: int = 16) -> List[Coord]:
    """Vertices of a convex polygon that certainly contains the shape."""
    if approx.shape_kind == "convex":
        return approx.convex_vertices()
    scale = 1.0 / math.cos(math.pi / n)
    if approx.shape_kind == "circle":
        circle = approx.circle()
        cx, cy = circle.center
        r = circle.radius * scale
        return [
            (cx + r * math.cos(2 * math.pi * i / n),
             cy + r * math.sin(2 * math.pi * i / n))
            for i in range(n)
        ]
    # Ellipse: scale boundary samples outward about the center.
    ell = approx.ellipse()
    cx, cy = ell.center
    return [
        (cx + (x - cx) * scale, cy + (y - cy) * scale)
        for x, y in ell.boundary_points(n)
    ]


def _inscribed_points(approx: Approximation, n: int = 16) -> List[Coord]:
    """Points that certainly belong to the shape."""
    if approx.shape_kind == "convex":
        return approx.convex_vertices()
    if approx.shape_kind == "circle":
        circle = approx.circle()
        return circle.boundary_points(n) + [circle.center]
    ell = approx.ellipse()
    return ell.boundary_points(n) + [ell.center]


def certainly_contains(outer: Approximation, inner: Approximation) -> bool:
    """True only if ``outer ⊇ inner`` provably holds.

    Exact when ``inner`` is polygon-shaped (convex-in-convex reduces to
    vertex containment); slightly conservative for circles/ellipses.
    """
    # Quick reject: inner ⊆ outer implies mbr(inner) ⊆ mbr(outer).
    if not outer.mbr().expand(1e-9).contains_rect(inner.mbr()):
        return False
    return all(
        outer.contains_point(p) for p in _circumscribed_points(inner)
    )


def certainly_not_contains(outer: Approximation, inner: Approximation) -> bool:
    """True only if some point of ``inner`` provably lies outside ``outer``.

    Exact when ``inner`` is polygon-shaped; slightly conservative (may
    return False despite non-containment) for circles/ellipses.
    """
    return any(
        not outer.contains_point(p) for p in _inscribed_points(inner)
    )
