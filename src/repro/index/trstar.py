"""TR*-tree [SK 91] — main-memory tree over one object's trapezoids.

The TR*-tree is structurally an R*-tree with a very small maximum node
capacity (the paper finds M = 3 optimal, §4.2/Fig. 17) that organises the
trapezoid decomposition of a *single* polygon.  It is built once at
object-insertion time (preprocessing) and used by the exact geometry
processor to test two objects for intersection by a synchronised
traversal of their two TR*-trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from ..geometry.rectangle import Rect
from .rstar import Node, RStarTree


class Trapezoid:
    """Trapezoid with two horizontal sides (decomposition component).

    Corners: ``(xl_bottom, y_bottom)``, ``(xr_bottom, y_bottom)``,
    ``(xr_top, y_top)``, ``(xl_top, y_top)``.  Degenerate triangles
    (one zero-length horizontal side) are allowed.
    """

    __slots__ = ("xl_bot", "xr_bot", "xl_top", "xr_top", "y_bot", "y_top", "_rect")

    def __init__(
        self,
        xl_bot: float,
        xr_bot: float,
        xl_top: float,
        xr_top: float,
        y_bot: float,
        y_top: float,
    ):
        self.xl_bot = xl_bot
        self.xr_bot = xr_bot
        self.xl_top = xl_top
        self.xr_top = xr_top
        self.y_bot = y_bot
        self.y_top = y_top
        self._rect: Optional[Rect] = None

    def corners(self) -> List[Tuple[float, float]]:
        """CCW corner list (duplicates removed for degenerate sides)."""
        pts = [
            (self.xl_bot, self.y_bot),
            (self.xr_bot, self.y_bot),
            (self.xr_top, self.y_top),
            (self.xl_top, self.y_top),
        ]
        out: List[Tuple[float, float]] = []
        for p in pts:
            if not out or (
                abs(p[0] - out[-1][0]) > 1e-15 or abs(p[1] - out[-1][1]) > 1e-15
            ):
                out.append(p)
        if (
            len(out) > 1
            and abs(out[0][0] - out[-1][0]) <= 1e-15
            and abs(out[0][1] - out[-1][1]) <= 1e-15
        ):
            out.pop()
        return out

    def mbr(self) -> Rect:
        if self._rect is None:
            self._rect = Rect(
                min(self.xl_bot, self.xl_top),
                self.y_bot,
                max(self.xr_bot, self.xr_top),
                self.y_top,
            )
        return self._rect

    def area(self) -> float:
        return (
            ((self.xr_bot - self.xl_bot) + (self.xr_top - self.xl_top))
            / 2.0
            * (self.y_top - self.y_bot)
        )

    def intersects(self, other: "Trapezoid") -> bool:
        """Convex SAT intersection test between two trapezoids."""
        from ..geometry.convex import convex_intersect

        a = self.corners()
        b = other.corners()
        if len(a) < 3 or len(b) < 3:
            return self.mbr().intersects(other.mbr())
        return convex_intersect(a, b)

    def __repr__(self) -> str:
        return (
            f"Trapezoid(y=[{self.y_bot:.4g},{self.y_top:.4g}], "
            f"bot=[{self.xl_bot:.4g},{self.xr_bot:.4g}], "
            f"top=[{self.xl_top:.4g},{self.xr_top:.4g}])"
        )


class TRStarTree(RStarTree):
    """Main-memory R*-tree variant storing trapezoids in its leaves."""

    def __init__(self, max_entries: int = 3):
        # The TR*-tree uses the same tiny capacity for leaves and
        # directory nodes; min fill of 40% rounds to 1 for M=3.
        super().__init__(
            max_entries=max_entries,
            min_entries=max(1, int(max_entries * 0.4)),
            directory_max=max_entries,
        )

    @classmethod
    def build(
        cls, trapezoids: Sequence[Trapezoid], max_entries: int = 3
    ) -> "TRStarTree":
        """Build a TR*-tree from a trapezoid decomposition."""
        tree = cls(max_entries=max_entries)
        for trap in trapezoids:
            tree.insert(trap.mbr(), trap)
        return tree

    def trapezoids(self) -> Iterator[Trapezoid]:
        for entry in self.all_entries():
            yield entry.item

    @property
    def average_height(self) -> int:
        return self.height


@dataclass
class TRJoinCounters:
    """Operation counters of one TR*-tree intersection test (§4.3)."""

    rect_tests: int = 0
    trapezoid_tests: int = 0

    def reset(self) -> None:
        self.rect_tests = 0
        self.trapezoid_tests = 0


def trstar_trees_intersect(
    tree_a: TRStarTree,
    tree_b: TRStarTree,
    counters: Optional[TRJoinCounters] = None,
) -> bool:
    """Synchronised traversal: do any two trapezoids intersect?

    The guiding property (§4.2): if the rectangles of two entries do not
    intersect, no trapezoid pair below them can intersect.  The search
    stops at the first intersecting trapezoid pair.
    """
    if counters is None:
        counters = TRJoinCounters()
    if tree_a.size == 0 or tree_b.size == 0:
        return False
    return _nodes_intersect(tree_a.root, tree_b.root, counters)


def _nodes_intersect(
    node_a: Node, node_b: Node, counters: TRJoinCounters
) -> bool:
    counters.rect_tests += 1
    inter = node_a.mbr().intersection(node_b.mbr())
    if inter is None:
        return False

    if node_a.is_leaf and node_b.is_leaf:
        for ea in node_a.entries:
            counters.rect_tests += 1
            if not ea.rect.intersects(inter):
                continue
            for eb in node_b.entries:
                counters.rect_tests += 1
                if not ea.rect.intersects(eb.rect):
                    continue
                counters.trapezoid_tests += 1
                if ea.item.intersects(eb.item):
                    return True
        return False

    if not node_a.is_leaf and (node_b.is_leaf or node_a.level >= node_b.level):
        for child in node_a.children:
            counters.rect_tests += 1
            if child.mbr().intersects(node_b.mbr()):
                if _nodes_intersect(child, node_b, counters):
                    return True
        return False

    for child in node_b.children:
        counters.rect_tests += 1
        if child.mbr().intersects(node_a.mbr()):
            if _nodes_intersect(node_a, child, counters):
                return True
    return False
