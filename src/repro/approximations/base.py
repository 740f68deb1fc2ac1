"""Approximation protocol and cross-type intersection dispatch.

The geometric filter (step 2 of the paper) works on *approximations* of
spatial objects:

* **conservative** approximations contain the object — if two of them do
  not intersect, the objects do not intersect (false-hit elimination);
* **progressive** approximations are contained in the object — if two of
  them intersect, the objects intersect (hit identification).

Each concrete approximation reduces to one of three shape families
(convex polygon, circle, ellipse); :func:`approx_intersect` dispatches
the pairwise predicate over those families.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar, List, Sequence

from ..geometry.circle import Circle
from ..geometry.convex import (
    convex_contains_point,
    convex_intersect,
    convex_intersection_area,
)
from ..geometry.ellipse import Ellipse
from ..geometry.predicates import Coord, point_segment_distance
from ..geometry.rectangle import Rect


class Approximation(ABC):
    """A stored approximation of one spatial object.

    ``num_parameters`` is the storage footprint the paper reports in
    Figure 3 (e.g. 4 for the MBR, 5 for the RMBR, 10 for the 5-corner);
    it drives the page-capacity model of §3.4.
    """

    #: short identifier used in reports, e.g. ``"5-C"``.
    kind: ClassVar[str] = "?"
    #: True for conservative approximations, False for progressive ones.
    is_conservative: ClassVar[bool] = True
    #: shape family: ``"convex"``, ``"circle"`` or ``"ellipse"``.
    shape_kind: ClassVar[str] = "convex"

    @property
    @abstractmethod
    def num_parameters(self) -> int:
        """Number of stored float parameters."""

    @abstractmethod
    def area(self) -> float:
        """Area of the approximation."""

    @abstractmethod
    def mbr(self) -> Rect:
        """Bounding rectangle of the approximation."""

    @abstractmethod
    def contains_point(self, p: Coord) -> bool:
        """True if ``p`` lies inside or on the approximation."""

    def intersects(self, other: "Approximation") -> bool:
        """True if the two approximations share at least one point."""
        return approx_intersect(self, other)

    # Shape accessors; concrete classes override the one that applies.

    def convex_vertices(self) -> List[Coord]:
        raise TypeError(f"{self.kind} is not polygon-shaped")

    def circle(self) -> Circle:
        raise TypeError(f"{self.kind} is not circle-shaped")

    def ellipse(self) -> Ellipse:
        raise TypeError(f"{self.kind} is not ellipse-shaped")


class ConvexApproximation(Approximation):
    """Base for approximations stored as a convex CCW vertex list."""

    shape_kind = "convex"

    def __init__(self, vertices: Sequence[Coord]):
        self._vertices: List[Coord] = [(float(x), float(y)) for x, y in vertices]
        self._mbr: Rect = Rect.from_points(self._vertices)
        self._area: float = _convex_area(self._vertices)

    def convex_vertices(self) -> List[Coord]:
        return self._vertices

    def area(self) -> float:
        return self._area

    def mbr(self) -> Rect:
        return self._mbr

    def contains_point(self, p: Coord) -> bool:
        return convex_contains_point(self._vertices, p)


def _convex_area(vertices: Sequence[Coord]) -> float:
    from ..geometry.predicates import polygon_signed_area

    if len(vertices) < 3:
        return 0.0
    return abs(polygon_signed_area(vertices))


# ---------------------------------------------------------------------------
# pairwise intersection dispatch
# ---------------------------------------------------------------------------


def approx_intersect(a: Approximation, b: Approximation) -> bool:
    """Intersection predicate over all shape-family combinations.

    A cheap MBR pretest short-circuits disjoint pairs, mirroring the
    paper's architecture where the MBR test always precedes finer tests.
    """
    if not a.mbr().intersects(b.mbr()):
        return False
    ka, kb = a.shape_kind, b.shape_kind
    if ka == "convex" and kb == "convex":
        return convex_intersect(a.convex_vertices(), b.convex_vertices())
    if ka == "circle" and kb == "circle":
        return a.circle().intersects_circle(b.circle())
    if ka == "ellipse" and kb == "ellipse":
        return a.ellipse().intersects_ellipse(b.ellipse())
    if ka == "circle" and kb == "convex":
        return _circle_convex_intersect(a.circle(), b.convex_vertices())
    if ka == "convex" and kb == "circle":
        return _circle_convex_intersect(b.circle(), a.convex_vertices())
    if ka == "ellipse" or kb == "ellipse":
        ea = _as_ellipse(a)
        eb = _as_ellipse(b)
        if ea is not None and eb is not None:
            return ea.intersects_ellipse(eb)
        # ellipse vs convex: map the polygon into the ellipse's unit-disk
        # frame and run circle-vs-convex there.
        ell, verts = (
            (a.ellipse(), b.convex_vertices())
            if ka == "ellipse"
            else (b.ellipse(), a.convex_vertices())
        )
        return _ellipse_convex_intersect(ell, verts)
    raise TypeError(f"unsupported shape pair: {ka}/{kb}")


def _as_ellipse(a: Approximation) -> "Ellipse | None":
    import numpy as np

    if a.shape_kind == "ellipse":
        return a.ellipse()
    if a.shape_kind == "circle":
        c = a.circle()
        r = max(c.radius, 1e-15)
        return Ellipse(c.center, np.eye(2) / (r * r))
    return None


def _circle_convex_intersect(circle: Circle, verts: Sequence[Coord]) -> bool:
    if len(verts) >= 3 and convex_contains_point(verts, circle.center):
        return True
    n = len(verts)
    if n == 1:
        return circle.contains_point(verts[0])
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        if point_segment_distance(circle.center, a, b) <= circle.radius + 1e-12:
            return True
    return False


def _ellipse_convex_intersect(ell: Ellipse, verts: Sequence[Coord]) -> bool:
    import numpy as np

    try:
        chol = np.linalg.cholesky(ell.matrix)
    except np.linalg.LinAlgError:
        return ell.mbr().intersects(Rect.from_points(verts))
    lt = chol.T
    cx, cy = ell.center
    mapped = [
        tuple(lt @ np.array([x - cx, y - cy])) for x, y in verts
    ]
    mapped = [(float(x), float(y)) for x, y in mapped]
    unit = Circle((0.0, 0.0), 1.0)
    return _circle_convex_intersect(unit, mapped)


def approx_intersection_area(a: Approximation, b: Approximation) -> float:
    """Intersection area; implemented for the convex-polygon family.

    The false-area test (§3.3, Table 4) is only evaluated for polygonal
    conservative approximations (MBR, RMBR, 4-C, 5-C, CH), matching the
    paper.
    """
    if a.shape_kind == "convex" and b.shape_kind == "convex":
        return convex_intersection_area(a.convex_vertices(), b.convex_vertices())
    if a.shape_kind == "circle" and b.shape_kind == "circle":
        return a.circle().intersection_area_circle(b.circle())
    raise TypeError(
        f"intersection area not supported for {a.shape_kind}/{b.shape_kind}"
    )
