"""R+-tree [SRF 87] — the overlap-free alternative SAM of the paper.

Section 2.4 of the paper notes that "instead of R*-trees, any other
spatial access methods such as R+-trees [SRF 87] ... might be considered
for implementing the MBR-join".  This module provides that alternative
so the step-1 backend can be swapped and compared.

The R+-tree differs from the R-tree family in one structural decision:
**sibling directory regions never overlap**.  Data rectangles that span
several leaf regions are stored in *every* leaf they intersect
(duplication), which buys exactly-one-path point queries at the price of
redundant leaf entries and a more delicate split.

Implementation notes
---------------------
* Every node carries a *region* — its slice of the space partition — in
  addition to the tight MBR of its contents.  Regions of the children of
  any node partition the node's region, and the root region is the whole
  plane, so insertion routing always finds a target.
* Splits cut the region with an axis-parallel line.  Cutting a directory
  region recursively splits every child whose region straddles the line
  (the "downward split" of [SRF 87]).
* Queries prune with tight MBRs (not regions) and de-duplicate results,
  so the duplication is invisible to callers.
"""

from __future__ import annotations

import math
from typing import Any, Iterator, List, Optional, Sequence, Set, Tuple

from ..geometry.predicates import Coord
from ..geometry.rectangle import Rect
from .pagemodel import AccessCounter

#: pseudo-infinite bound of the root region (finite so Rect math stays
#: well-defined; far outside any data space used in this repository).
WORLD_BOUND = 1e18

WORLD = Rect(-WORLD_BOUND, -WORLD_BOUND, WORLD_BOUND, WORLD_BOUND)


class RPlusEntry:
    """Leaf entry: data rectangle plus stored item (possibly duplicated)."""

    __slots__ = ("rect", "item")

    def __init__(self, rect: Rect, item: Any):
        self.rect = rect
        self.item = item

    def __repr__(self) -> str:
        return f"RPlusEntry({self.rect!r}, {self.item!r})"


class RPlusNode:
    """One node of the R+-tree.  ``level == 0`` marks a leaf."""

    __slots__ = ("level", "region", "entries", "children", "page_id")

    _next_page_id = 0

    def __init__(self, level: int, region: Rect):
        self.level = level
        self.region = region
        self.entries: List[RPlusEntry] = []
        self.children: List["RPlusNode"] = []
        RPlusNode._next_page_id += 1
        self.page_id = RPlusNode._next_page_id

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def fanout(self) -> int:
        return len(self.entries) if self.is_leaf else len(self.children)

    def tight_mbr(self) -> Optional[Rect]:
        """MBR of the contents clipped to nothing (None when empty)."""
        if self.is_leaf:
            if not self.entries:
                return None
            return Rect.union_all([e.rect for e in self.entries])
        child_mbrs = [
            m for m in (c.tight_mbr() for c in self.children) if m is not None
        ]
        if not child_mbrs:
            return None
        return Rect.union_all(child_mbrs)


class RPlusTree:
    """R+-tree over ``(Rect, item)`` pairs.

    ``max_entries`` bounds node fanout.  Unlike R/R*-trees there is no
    hard minimum fill: downward splits may produce small nodes, which
    [SRF 87] accepts as the cost of overlap-freedom.
    """

    def __init__(self, max_entries: int = 32):
        if max_entries < 2:
            raise ValueError("max_entries must be >= 2")
        self.max_entries = max_entries
        self.root = RPlusNode(level=0, region=WORLD)
        #: number of *logical* items inserted (not counting duplication).
        self.size = 0

    # -- insertion -----------------------------------------------------------

    def insert(self, rect: Rect, item: Any) -> None:
        """Insert one ``(rect, item)`` pair, duplicating across regions."""
        self._insert_into(self.root, rect, item)
        self.size += 1
        if self.root.fanout() > self.max_entries:
            self._split_root()

    def _insert_into(self, node: RPlusNode, rect: Rect, item: Any) -> None:
        if node.is_leaf:
            node.entries.append(RPlusEntry(rect, item))
            return
        # Children regions partition node.region: route into every child
        # whose region intersects the rect (this is where duplication
        # happens for spanning rectangles).  Regions are half-open —
        # [xmin, xmax) x [ymin, ymax) — matching the split assignment, so
        # data on a cut line lands on exactly one side.
        overflowed: List[RPlusNode] = []
        for child in list(node.children):
            if _half_open_intersects(rect, child.region):
                self._insert_into(child, rect, item)
                if child.fanout() > self.max_entries:
                    overflowed.append(child)
        # Split after the routing loop: _split_child mutates
        # node.children, which must not happen mid-iteration.
        for child in overflowed:
            self._split_child(node, child)

    def _split_root(self) -> None:
        cut = self._choose_cut(self.root)
        if cut is None:
            return  # degenerate content; tolerate the oversized node
        axis, position = cut
        left, right = _split_subtree(self.root, axis, position)
        new_root = RPlusNode(level=self.root.level + 1, region=WORLD)
        new_root.children = [n for n in (left, right) if n.fanout() > 0]
        if len(new_root.children) < 2:
            # The cut failed to separate anything; keep the old root.
            return
        self.root = new_root

    def _split_child(self, parent: RPlusNode, child: RPlusNode) -> None:
        cut = self._choose_cut(child)
        if cut is None:
            return
        axis, position = cut
        left, right = _split_subtree(child, axis, position)
        parts = [n for n in (left, right) if n.fanout() > 0]
        if len(parts) < 2:
            return
        idx = parent.children.index(child)
        parent.children[idx : idx + 1] = parts

    def _choose_cut(self, node: RPlusNode) -> Optional[Tuple[int, float]]:
        """Pick the (axis, position) cut line for splitting ``node``.

        Candidate positions are the low coordinates of the members; the
        winner balances the two sides while crossing (duplicating) as few
        members as possible.  Returns None when no cut separates the
        members (e.g. all rectangles identical).
        """
        rects = (
            [e.rect for e in node.entries]
            if node.is_leaf
            else [c.region for c in node.children]
        )
        n = len(rects)
        best: Optional[Tuple[int, float]] = None
        best_key = (math.inf, math.inf)
        for axis in (0, 1):
            if axis == 0:
                lows = sorted(r.xmin for r in rects)
            else:
                lows = sorted(r.ymin for r in rects)
            for position in lows[1:]:  # lows[0] would leave one side empty
                left_count = right_count = crossed = 0
                for r in rects:
                    lo = r.xmin if axis == 0 else r.ymin
                    hi = r.xmax if axis == 0 else r.ymax
                    if hi < position:
                        left_count += 1
                    elif lo >= position:
                        right_count += 1
                    else:
                        crossed += 1
                if left_count + crossed == n or right_count + crossed == n:
                    continue  # does not separate
                balance = abs((left_count + crossed) - (right_count + crossed))
                key = (float(crossed), float(balance))
                if key < best_key:
                    best_key = key
                    best = (axis, position)
        return best

    # -- queries ---------------------------------------------------------------

    def window_query(
        self, window: Rect, counter: Optional[AccessCounter] = None
    ) -> List[Any]:
        """All distinct items whose rects intersect ``window``."""
        out: List[Any] = []
        seen: Set[int] = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if counter is not None:
                counter.visit(node.page_id)
            if node.is_leaf:
                for e in node.entries:
                    if e.rect.intersects(window) and id(e.item) not in seen:
                        seen.add(id(e.item))
                        out.append(e.item)
            else:
                for child in node.children:
                    mbr = child.tight_mbr()
                    if mbr is not None and mbr.intersects(window):
                        stack.append(child)
        return out

    def point_query(
        self, p: Coord, counter: Optional[AccessCounter] = None
    ) -> List[Any]:
        """All distinct items whose rects contain point ``p``.

        Thanks to region disjointness the *region* descent touches one
        path; the tight-MBR pruning used here can only visit fewer nodes.
        """
        rect = Rect(p[0], p[1], p[0], p[1])
        return self.window_query(rect, counter)

    def all_items(self) -> List[Any]:
        """Distinct stored items."""
        out: List[Any] = []
        seen: Set[int] = set()
        for entry in self._all_entries():
            if id(entry.item) not in seen:
                seen.add(id(entry.item))
                out.append(entry.item)
        return out

    def _all_entries(self) -> Iterator[RPlusEntry]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.entries
            else:
                stack.extend(node.children)

    # -- structure -----------------------------------------------------------

    @property
    def height(self) -> int:
        return self.root.level + 1

    def node_count(self) -> int:
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children)
        return count

    def entry_count(self) -> int:
        """Physical leaf entries, including duplicates."""
        return sum(1 for _ in self._all_entries())

    def duplication_factor(self) -> float:
        """Physical entries per logical item (1.0 = no duplication)."""
        if self.size == 0:
            return 1.0
        return self.entry_count() / self.size

    def check_invariants(self) -> None:
        """Assert the R+ structural invariants (for the test suite).

        * sibling regions have disjoint interiors and tile the parent
          region;
        * every leaf entry intersects its leaf's region;
        * levels decrease by one per step and the tree is balanced.
        """

        def recurse(node: RPlusNode) -> int:
            if node.is_leaf:
                for e in node.entries:
                    assert e.rect.intersects(node.region), (
                        "entry outside leaf region"
                    )
                return 0
            assert node.children, "empty directory node"
            area_sum = 0.0
            for i, child in enumerate(node.children):
                assert child.level == node.level - 1, "level mismatch"
                assert node.region.contains_rect(child.region), (
                    "child region escapes parent"
                )
                area_sum += child.region.area()
                for other in node.children[i + 1 :]:
                    overlap = child.region.intersection_area(other.region)
                    assert overlap <= 1e-6 * max(
                        child.region.area(), 1.0
                    ), "sibling regions overlap"
            depths = {recurse(c) for c in node.children}
            assert len(depths) == 1, "unbalanced tree"
            return depths.pop() + 1

        recurse(self.root)

    # -- bulk loading -----------------------------------------------------------

    @classmethod
    def bulk_load(
        cls, items: Sequence[Tuple[Rect, Any]], max_entries: int = 32
    ) -> "RPlusTree":
        """Build by repeated insertion (R+ packing is split-driven anyway)."""
        tree = cls(max_entries=max_entries)
        for rect, item in items:
            tree.insert(rect, item)
        return tree


def _split_subtree(
    node: RPlusNode, axis: int, position: float
) -> Tuple[RPlusNode, RPlusNode]:
    """Cut ``node`` by the line ``coordinate[axis] == position``.

    Returns the two halves (either may be empty).  Directory children
    straddling the line are themselves split recursively — the downward
    propagation of [SRF 87].
    """
    left_region, right_region = _cut_region(node.region, axis, position)
    left = RPlusNode(node.level, left_region)
    right = RPlusNode(node.level, right_region)
    if node.is_leaf:
        for e in node.entries:
            lo = e.rect.xmin if axis == 0 else e.rect.ymin
            hi = e.rect.xmax if axis == 0 else e.rect.ymax
            if lo < position:
                left.entries.append(e)
            if hi >= position:
                right.entries.append(RPlusEntry(e.rect, e.item))
        return left, right
    for child in node.children:
        lo = child.region.xmin if axis == 0 else child.region.ymin
        hi = child.region.xmax if axis == 0 else child.region.ymax
        if hi <= position:
            left.children.append(child)
        elif lo >= position:
            right.children.append(child)
        else:
            sub_left, sub_right = _split_subtree(child, axis, position)
            # Keep empty halves (as empty chains): dropping them would
            # punch holes into the region tiling and lose later inserts.
            left.children.append(_filled(sub_left))
            right.children.append(_filled(sub_right))
    return left, right


def _filled(node: RPlusNode) -> RPlusNode:
    """Guarantee a directory node has at least one child.

    A recursive split can empty one half of a directory node.  To keep
    the region tiling complete (insertion routing relies on it) the empty
    half is backed by a chain of empty nodes down to an empty leaf.
    """
    if not node.is_leaf and not node.children:
        node.children.append(_empty_chain(node.level - 1, node.region))
    return node


def _empty_chain(level: int, region: Rect) -> RPlusNode:
    node = RPlusNode(level, region)
    if level > 0:
        node.children.append(_empty_chain(level - 1, region))
    return node


def _half_open_intersects(rect: Rect, region: Rect) -> bool:
    """Does ``rect`` intersect the half-open region [min, max) x [min, max)?"""
    return (
        rect.xmin < region.xmax
        and rect.xmax >= region.xmin
        and rect.ymin < region.ymax
        and rect.ymax >= region.ymin
    )


def _cut_region(region: Rect, axis: int, position: float) -> Tuple[Rect, Rect]:
    if axis == 0:
        return (
            Rect(region.xmin, region.ymin, position, region.ymax),
            Rect(position, region.ymin, region.xmax, region.ymax),
        )
    return (
        Rect(region.xmin, region.ymin, region.xmax, position),
        Rect(region.xmin, position, region.xmax, region.ymax),
    )


def rplus_mbr_join(
    tree_a: RPlusTree,
    tree_b: RPlusTree,
    counter_a: Optional[AccessCounter] = None,
    counter_b: Optional[AccessCounter] = None,
) -> Iterator[Tuple[Any, Any]]:
    """MBR-join of two R+-trees by synchronized tight-MBR traversal.

    Yields each intersecting item pair exactly once (duplicated leaf
    entries are de-duplicated on the fly).
    """
    seen: Set[Tuple[int, int]] = set()
    root_a, root_b = tree_a.root, tree_b.root
    mbr_a, mbr_b = root_a.tight_mbr(), root_b.tight_mbr()
    if mbr_a is None or mbr_b is None or not mbr_a.intersects(mbr_b):
        return
    stack = [(root_a, root_b)]
    while stack:
        node_a, node_b = stack.pop()
        if counter_a is not None:
            counter_a.visit(node_a.page_id)
        if counter_b is not None:
            counter_b.visit(node_b.page_id)
        if node_a.is_leaf and node_b.is_leaf:
            for ea in node_a.entries:
                for eb in node_b.entries:
                    if not ea.rect.intersects(eb.rect):
                        continue
                    key = (id(ea.item), id(eb.item))
                    if key in seen:
                        continue
                    seen.add(key)
                    yield (ea.item, eb.item)
        elif node_a.is_leaf:
            for child in node_b.children:
                if _mbrs_touch(node_a, child):
                    stack.append((node_a, child))
        elif node_b.is_leaf:
            for child in node_a.children:
                if _mbrs_touch(child, node_b):
                    stack.append((child, node_b))
        else:
            for ca in node_a.children:
                for cb in node_b.children:
                    if _mbrs_touch(ca, cb):
                        stack.append((ca, cb))


def _mbrs_touch(node_a: RPlusNode, node_b: RPlusNode) -> bool:
    mbr_a = node_a.tight_mbr()
    mbr_b = node_b.tight_mbr()
    return mbr_a is not None and mbr_b is not None and mbr_a.intersects(mbr_b)
