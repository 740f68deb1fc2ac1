"""Axis-aligned rectangles (MBRs).

The minimum bounding rectangle is the geometric key of the R*-tree and of
the first join step of the paper.  ``Rect`` is deliberately a slotted,
immutable value type: R*-tree nodes hold thousands of them and the
MBR-join performs millions of ``intersects`` calls.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Tuple

from .predicates import Coord


class Rect:
    """Closed axis-aligned rectangle ``[xmin, xmax] x [ymin, ymax]``."""

    __slots__ = ("xmin", "ymin", "xmax", "ymax")

    def __init__(self, xmin: float, ymin: float, xmax: float, ymax: float):
        if xmin > xmax or ymin > ymax:
            raise ValueError(
                f"degenerate rect: ({xmin}, {ymin}, {xmax}, {ymax})"
            )
        self.xmin = xmin
        self.ymin = ymin
        self.xmax = xmax
        self.ymax = ymax

    # -- construction -----------------------------------------------------

    @classmethod
    def from_points(cls, points: Iterable[Coord]) -> "Rect":
        """MBR of a non-empty point sequence."""
        it = iter(points)
        try:
            x, y = next(it)
        except StopIteration:
            raise ValueError("Rect.from_points: empty point sequence")
        xmin = xmax = x
        ymin = ymax = y
        for x, y in it:
            if x < xmin:
                xmin = x
            elif x > xmax:
                xmax = x
            if y < ymin:
                ymin = y
            elif y > ymax:
                ymax = y
        return cls(xmin, ymin, xmax, ymax)

    @classmethod
    def union_all(cls, rects: Sequence["Rect"]) -> "Rect":
        """Smallest rectangle enclosing all given rectangles."""
        if not rects:
            raise ValueError("Rect.union_all: empty sequence")
        xmin = min(r.xmin for r in rects)
        ymin = min(r.ymin for r in rects)
        xmax = max(r.xmax for r in rects)
        ymax = max(r.ymax for r in rects)
        return cls(xmin, ymin, xmax, ymax)

    # -- basic measures ---------------------------------------------------

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def center(self) -> Coord:
        return ((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    def area(self) -> float:
        return self.width * self.height

    def margin(self) -> float:
        """Half-perimeter; the R* split heuristic minimises its sum."""
        return self.width + self.height

    def corners(self) -> Tuple[Coord, Coord, Coord, Coord]:
        """Corners in counter-clockwise order."""
        return (
            (self.xmin, self.ymin),
            (self.xmax, self.ymin),
            (self.xmax, self.ymax),
            (self.xmin, self.ymax),
        )

    # -- predicates ---------------------------------------------------------

    def intersects(self, other: "Rect") -> bool:
        """True if the closed rectangles share at least one point."""
        return (
            self.xmin <= other.xmax
            and other.xmin <= self.xmax
            and self.ymin <= other.ymax
            and other.ymin <= self.ymax
        )

    def contains_point(self, p: Coord) -> bool:
        return self.xmin <= p[0] <= self.xmax and self.ymin <= p[1] <= self.ymax

    def contains_rect(self, other: "Rect") -> bool:
        return (
            self.xmin <= other.xmin
            and self.ymin <= other.ymin
            and other.xmax <= self.xmax
            and other.ymax <= self.ymax
        )

    # -- combination --------------------------------------------------------

    def union(self, other: "Rect") -> "Rect":
        return Rect(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
        )

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """Common rectangle, or ``None`` if disjoint.

        The paper calls this the *intersection rectangle*; both the plane
        sweep (§4.1) and the R*-tree join use it to restrict the search
        space.
        """
        xmin = max(self.xmin, other.xmin)
        ymin = max(self.ymin, other.ymin)
        xmax = min(self.xmax, other.xmax)
        ymax = min(self.ymax, other.ymax)
        if xmin > xmax or ymin > ymax:
            return None
        return Rect(xmin, ymin, xmax, ymax)

    def intersection_area(self, other: "Rect") -> float:
        w = min(self.xmax, other.xmax) - max(self.xmin, other.xmin)
        if w <= 0.0:
            return 0.0
        h = min(self.ymax, other.ymax) - max(self.ymin, other.ymin)
        if h <= 0.0:
            return 0.0
        return w * h

    def enlargement(self, other: "Rect") -> float:
        """Area growth needed to also cover ``other`` (R* ChooseSubtree)."""
        union_area = (
            (max(self.xmax, other.xmax) - min(self.xmin, other.xmin))
            * (max(self.ymax, other.ymax) - min(self.ymin, other.ymin))
        )
        return union_area - self.area()

    def expand(self, amount: float) -> "Rect":
        """Rectangle grown by ``amount`` on every side."""
        return Rect(
            self.xmin - amount,
            self.ymin - amount,
            self.xmax + amount,
            self.ymax + amount,
        )

    # -- dunder -------------------------------------------------------------

    def __iter__(self) -> Iterator[float]:
        return iter((self.xmin, self.ymin, self.xmax, self.ymax))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return (
            self.xmin == other.xmin
            and self.ymin == other.ymin
            and self.xmax == other.xmax
            and self.ymax == other.ymax
        )

    def __hash__(self) -> int:
        return hash((self.xmin, self.ymin, self.xmax, self.ymax))

    def __repr__(self) -> str:
        return (
            f"Rect({self.xmin:.6g}, {self.ymin:.6g}, "
            f"{self.xmax:.6g}, {self.ymax:.6g})"
        )
