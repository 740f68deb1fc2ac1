"""TR*-tree based exact intersection test (paper §4.2).

The preprocessing step decomposes each polygon into trapezoids and
builds a TR*-tree over them; the join-time test is a synchronised
traversal of the two trees that stops at the first intersecting
trapezoid pair.  Operation counts map onto the paper's cost model
(rectangle and trapezoid intersection tests, Table 6).
"""

from __future__ import annotations

from typing import Optional

from ..geometry.polygon import Polygon
from ..index.trstar import TRJoinCounters, TRStarTree, trstar_trees_intersect
from .costmodel import (
    RECT_INTERSECTION,
    TRAPEZOID_INTERSECTION,
    OperationCounter,
)
from .decomposition import trapezoid_decomposition


def build_trstar(polygon: Polygon, max_entries: int = 3) -> TRStarTree:
    """Preprocess a polygon into its TR*-tree representation.

    This corresponds to the object-insertion-time preprocessing of §4.2
    whose cost the paper excludes from the join-time comparison.
    """
    return TRStarTree.build(
        trapezoid_decomposition(polygon), max_entries=max_entries
    )


def polygons_intersect_trstar(
    tree1: TRStarTree,
    tree2: TRStarTree,
    counter: Optional[OperationCounter] = None,
) -> bool:
    """Exact intersection test on two TR*-tree representations."""
    raw = TRJoinCounters()
    result = trstar_trees_intersect(tree1, tree2, raw)
    if counter is not None:
        counter.count(RECT_INTERSECTION, raw.rect_tests)
        counter.count(TRAPEZOID_INTERSECTION, raw.trapezoid_tests)
    return result


class TRStarObject:
    """A polygon bundled with its (lazily built) TR*-tree.

    The multi-step join processor stores these per relation so the
    decomposition cost is paid once per object, as in the paper.
    """

    __slots__ = ("polygon", "max_entries", "_tree")

    def __init__(self, polygon: Polygon, max_entries: int = 3):
        self.polygon = polygon
        self.max_entries = max_entries
        self._tree: Optional[TRStarTree] = None

    @property
    def tree(self) -> TRStarTree:
        if self._tree is None:
            self._tree = build_trstar(self.polygon, self.max_entries)
        return self._tree

    def intersects(
        self, other: "TRStarObject", counter: Optional[OperationCounter] = None
    ) -> bool:
        return polygons_intersect_trstar(self.tree, other.tree, counter)
