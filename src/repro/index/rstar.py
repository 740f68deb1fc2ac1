"""R*-tree [BKSS 90] — the paper's spatial access method.

A faithful main-memory implementation of the R*-tree with the original
insertion heuristics:

* **ChooseSubtree** — minimal overlap enlargement at the leaf level,
  minimal area enlargement above;
* **forced reinsert** — on overflow, the 30% of entries farthest from the
  node's MBR center are reinserted once per level per insertion;
* **R\\*-split** — split axis chosen by minimal margin sum, split index by
  minimal overlap (ties: minimal total area).

Every node models one disk page; traversals report visits to an
:class:`~repro.index.pagemodel.AccessCounter` so the I/O experiments of
the paper (§3.4–§3.5, §5) can be reproduced.  An STR bulk loader is
provided for the large synthetic relations.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from ..geometry.predicates import Coord
from ..geometry.rectangle import Rect
from .pagemodel import AccessCounter

#: fraction of entries evicted by forced reinsert (paper: p = 30%).
REINSERT_FRACTION = 0.3


class Entry:
    """Leaf entry: a data rectangle plus the stored item."""

    __slots__ = ("rect", "item")

    def __init__(self, rect: Rect, item: Any):
        self.rect = rect
        self.item = item

    def __repr__(self) -> str:
        return f"Entry({self.rect!r}, {self.item!r})"


class Node:
    """Tree node (one disk page). ``level == 0`` marks a leaf.

    The node MBR is cached: recomputing it recursively on every
    ChooseSubtree step would make insertion quadratic.  Mutating code
    paths call :meth:`invalidate_mbr` on every affected ancestor.
    """

    __slots__ = ("level", "entries", "children", "page_id", "_mbr")

    _next_page_id = 0

    def __init__(self, level: int):
        self.level = level
        self.entries: List[Entry] = []  # leaf only
        self.children: List[Node] = []  # inner only
        self._mbr: Optional[Rect] = None
        Node._next_page_id += 1
        self.page_id = Node._next_page_id

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def invalidate_mbr(self) -> None:
        self._mbr = None

    def mbr(self) -> Rect:
        if self._mbr is None:
            if self.is_leaf:
                if not self.entries:
                    raise ValueError("empty leaf has no MBR")
                self._mbr = Rect.union_all([e.rect for e in self.entries])
            else:
                self._mbr = Rect.union_all([c.mbr() for c in self.children])
        return self._mbr

    def fanout(self) -> int:
        return len(self.entries) if self.is_leaf else len(self.children)

    def members(self) -> Sequence[Any]:
        return self.entries if self.is_leaf else self.children

    def member_rect(self, member: Any) -> Rect:
        return member.rect if self.is_leaf else member.mbr()


class RStarTree:
    """Dynamic R*-tree over ``(Rect, item)`` pairs."""

    def __init__(
        self,
        max_entries: int = 32,
        min_entries: Optional[int] = None,
        directory_max: Optional[int] = None,
    ):
        if max_entries < 2:
            raise ValueError("max_entries must be >= 2")
        self.max_entries = max_entries
        self.min_entries = (
            min_entries
            if min_entries is not None
            else max(1, int(math.ceil(max_entries * 0.4)))
        )
        if self.min_entries > max_entries // 2:
            self.min_entries = max(1, max_entries // 2)
        #: directory nodes may have a different capacity (page layout).
        self.directory_max = directory_max or max_entries
        self.directory_min = max(1, int(math.ceil(self.directory_max * 0.4)))
        self.root = Node(level=0)
        self.size = 0
        #: True after bulk loading; STR packing may leave remainder nodes
        #: below the dynamic min-fill, which is fine for a packed tree.
        self.bulk_loaded = False

    # -- capacity helpers ---------------------------------------------------

    def _cap(self, node: Node) -> int:
        return self.max_entries if node.is_leaf else self.directory_max

    def _min(self, node: Node) -> int:
        return self.min_entries if node.is_leaf else self.directory_min

    # -- insertion ------------------------------------------------------------

    def insert(self, rect: Rect, item: Any) -> None:
        """Insert one ``(rect, item)`` pair."""
        self._insert_entry(Entry(rect, item), level=0, reinsert_done=set())
        self.size += 1

    def _insert_entry(self, member: Any, level: int, reinsert_done: set) -> None:
        rect = member.rect if isinstance(member, Entry) else member.mbr()
        node, path = self._choose_subtree(rect, level)
        if node.is_leaf:
            node.entries.append(member)
        else:
            node.children.append(member)
        node.invalidate_mbr()
        for ancestor in path:
            ancestor.invalidate_mbr()
        self._handle_overflow(node, path, reinsert_done)

    def _choose_subtree(self, rect: Rect, level: int) -> Tuple[Node, List[Node]]:
        """Descend to the node at ``level`` best suited to host ``rect``."""
        node = self.root
        path: List[Node] = []
        while node.level > level:
            path.append(node)
            if node.level == level + 1 and node.children and node.children[0].is_leaf:
                child = self._pick_min_overlap(node.children, rect)
            else:
                child = self._pick_min_enlargement(node.children, rect)
            node = child
        return node, path

    @staticmethod
    def _pick_min_enlargement(children: List[Node], rect: Rect) -> Node:
        best = children[0]
        best_enl = math.inf
        best_area = math.inf
        for child in children:
            mbr = child.mbr()
            enl = mbr.enlargement(rect)
            area = mbr.area()
            if enl < best_enl - 1e-15 or (
                abs(enl - best_enl) <= 1e-15 and area < best_area
            ):
                best = child
                best_enl = enl
                best_area = area
        return best

    @staticmethod
    def _pick_min_overlap(children: List[Node], rect: Rect) -> Node:
        """Minimal overlap enlargement (R* heuristic for leaf parents)."""
        mbrs = [c.mbr() for c in children]
        best_idx = 0
        best_key = (math.inf, math.inf, math.inf)
        for i, child_mbr in enumerate(mbrs):
            enlarged = child_mbr.union(rect)
            overlap_before = 0.0
            overlap_after = 0.0
            for j, other in enumerate(mbrs):
                if j == i:
                    continue
                overlap_before += child_mbr.intersection_area(other)
                overlap_after += enlarged.intersection_area(other)
            key = (
                overlap_after - overlap_before,
                child_mbr.enlargement(rect),
                child_mbr.area(),
            )
            if key < best_key:
                best_key = key
                best_idx = i
        return children[best_idx]

    def _handle_overflow(
        self, node: Node, path: List[Node], reinsert_done: set
    ) -> None:
        while node.fanout() > self._cap(node):
            if node is not self.root and node.level not in reinsert_done:
                reinsert_done.add(node.level)
                self._forced_reinsert(node, path, reinsert_done)
            else:
                new_node = self._split(node)
                if node is self.root:
                    new_root = Node(level=node.level + 1)
                    new_root.children = [node, new_node]
                    self.root = new_root
                    return
                parent = path[-1]
                parent.children.append(new_node)
                parent.invalidate_mbr()
                node = parent
                path = path[:-1]
                continue
            return

    def _forced_reinsert(
        self, node: Node, path: List[Node], reinsert_done: set
    ) -> None:
        """Evict the p% entries farthest from the MBR center, reinsert."""
        center = node.mbr().center
        members = list(node.members())
        members.sort(
            key=lambda m: _center_dist(node.member_rect(m).center, center),
            reverse=True,
        )
        count = max(1, int(round(len(members) * REINSERT_FRACTION)))
        evicted = members[:count]
        keep = members[count:]
        if node.is_leaf:
            node.entries = keep  # type: ignore[assignment]
        else:
            node.children = keep  # type: ignore[assignment]
        node.invalidate_mbr()
        # Close reinsert: far entries first (paper's recommended variant
        # is close reinsert; BKSS 90 found far-first slightly worse, close
        # reinsert reinserts the *closest* of the evicted first).
        for member in reversed(evicted):
            self._insert_entry(member, node.level, reinsert_done)

    # -- R* split --------------------------------------------------------------

    def _split(self, node: Node) -> Node:
        members = list(node.members())
        min_fill = self._min(node)
        axis_groups = self._choose_split(members, node, min_fill)
        group1, group2 = axis_groups
        new_node = Node(level=node.level)
        if node.is_leaf:
            node.entries = group1  # type: ignore[assignment]
            new_node.entries = group2  # type: ignore[assignment]
        else:
            node.children = group1  # type: ignore[assignment]
            new_node.children = group2  # type: ignore[assignment]
        node.invalidate_mbr()
        new_node.invalidate_mbr()
        return new_node

    def _choose_split(
        self, members: List[Any], node: Node, min_fill: int
    ) -> Tuple[List[Any], List[Any]]:
        rect_of: Callable[[Any], Rect] = node.member_rect

        best_axis_margin = math.inf
        best_axis_sortings: List[List[Any]] = []
        for axis in (0, 1):
            if axis == 0:
                low = sorted(members, key=lambda m: (rect_of(m).xmin, rect_of(m).xmax))
                high = sorted(members, key=lambda m: (rect_of(m).xmax, rect_of(m).xmin))
            else:
                low = sorted(members, key=lambda m: (rect_of(m).ymin, rect_of(m).ymax))
                high = sorted(members, key=lambda m: (rect_of(m).ymax, rect_of(m).ymin))
            margin_sum = 0.0
            for sorting in (low, high):
                for split_at in range(min_fill, len(sorting) - min_fill + 1):
                    r1 = Rect.union_all([rect_of(m) for m in sorting[:split_at]])
                    r2 = Rect.union_all([rect_of(m) for m in sorting[split_at:]])
                    margin_sum += r1.margin() + r2.margin()
            if margin_sum < best_axis_margin:
                best_axis_margin = margin_sum
                best_axis_sortings = [low, high]

        best_key = (math.inf, math.inf)
        best_groups: Tuple[List[Any], List[Any]] = ([], [])
        for sorting in best_axis_sortings:
            for split_at in range(min_fill, len(sorting) - min_fill + 1):
                g1 = sorting[:split_at]
                g2 = sorting[split_at:]
                r1 = Rect.union_all([rect_of(m) for m in g1])
                r2 = Rect.union_all([rect_of(m) for m in g2])
                key = (r1.intersection_area(r2), r1.area() + r2.area())
                if key < best_key:
                    best_key = key
                    best_groups = (g1, g2)
        return best_groups

    # -- queries -----------------------------------------------------------------

    def window_query(
        self, window: Rect, counter: Optional[AccessCounter] = None
    ) -> List[Any]:
        """All items whose rects intersect ``window``."""
        out: List[Any] = []
        if self.size == 0:
            return out
        stack = [self.root]
        while stack:
            node = stack.pop()
            if counter is not None:
                counter.visit(node.page_id)
            if node.is_leaf:
                for e in node.entries:
                    if e.rect.intersects(window):
                        out.append(e.item)
            else:
                for child in node.children:
                    if child.mbr().intersects(window):
                        stack.append(child)
        return out

    def point_query(
        self, p: Coord, counter: Optional[AccessCounter] = None
    ) -> List[Any]:
        """All items whose rects contain point ``p``."""
        rect = Rect(p[0], p[1], p[0], p[1])
        return self.window_query(rect, counter)

    def all_entries(self) -> Iterator[Entry]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.entries
            else:
                stack.extend(node.children)

    # -- structure inspection ----------------------------------------------------

    @property
    def height(self) -> int:
        """Number of levels (1 for a single leaf root)."""
        return self.root.level + 1

    def node_count(self) -> int:
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.extend(node.children)
        return count

    def leaf_count(self) -> int:
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                count += 1
            else:
                stack.extend(node.children)
        return count

    def check_invariants(self, strict_min: Optional[bool] = None) -> None:
        """Raise AssertionError when structural invariants are violated.

        Checks fanout bounds, level consistency and MBR containment.
        ``strict_min`` controls whether minimum fill is enforced; it
        defaults to False for bulk-loaded trees (STR remainder nodes may
        be underfull) and True otherwise.  Intended for the test suite.
        """
        if strict_min is None:
            strict_min = not self.bulk_loaded

        def recurse(node: Node, is_root: bool) -> int:
            if node.is_leaf:
                if not is_root and strict_min:
                    assert (
                        self.min_entries <= len(node.entries) <= self.max_entries
                    ), f"leaf fanout {len(node.entries)}"
                else:
                    assert 1 <= len(node.entries) <= self.max_entries
                return 0
            if not is_root and strict_min:
                assert (
                    self.directory_min
                    <= len(node.children)
                    <= self.directory_max
                ), f"dir fanout {len(node.children)}"
            else:
                assert 1 <= len(node.children) <= self.directory_max
            depths = set()
            mbr = node.mbr()
            for child in node.children:
                assert child.level == node.level - 1, "level mismatch"
                assert mbr.contains_rect(child.mbr()), "MBR not covering child"
                depths.add(recurse(child, False))
            assert len(depths) == 1, "unbalanced tree"
            return depths.pop() + 1

        if self.size > 0:
            recurse(self.root, True)

    # -- bulk loading ----------------------------------------------------------

    @classmethod
    def bulk_load(
        cls,
        items: Sequence[Tuple[Rect, Any]],
        max_entries: int = 32,
        directory_max: Optional[int] = None,
        fill_factor: float = 0.7,
    ) -> "RStarTree":
        """Sort-Tile-Recursive bulk load (for the large §3.4 relations).

        Produces a packed tree with ``fill_factor`` average node
        utilisation, mirroring a freshly reorganised index.
        """
        tree = cls(max_entries=max_entries, directory_max=directory_max)
        if not items:
            return tree
        per_leaf = max(2, int(max_entries * fill_factor))
        entries = [Entry(rect, item) for rect, item in items]
        leaves = _str_pack(
            entries, per_leaf, key_rect=lambda e: e.rect, level=0
        )
        level = 0
        nodes = leaves
        per_dir = max(2, int(tree.directory_max * fill_factor))
        while len(nodes) > 1:
            level += 1
            nodes = _str_pack(
                nodes, per_dir, key_rect=lambda n: n.mbr(), level=level
            )
        tree.root = nodes[0]
        tree.size = len(entries)
        tree.bulk_loaded = True
        return tree


def rtree_over(
    mbrs,
    max_entries: int = 32,
    directory_max: Optional[int] = None,
    bulk: bool = False,
    expand: float = 0.0,
    rows=None,
) -> RStarTree:
    """R*-tree over the rows of an ``(n, 4)`` MBR array; leaf items are rows.

    Row ``i``, grown by ``expand`` on every side (the distance join's
    ε/2, as :meth:`Rect.expand` computes it), is stored with item ``i``:
    inserted in row order, or STR bulk-loaded when ``bulk``.  ``rows``
    takes only those rows, in that order, each with its row of ``mbrs``
    as item: the tree of ``mbrs[rows]``, labelled with parent rows.
    """
    labels = range(len(mbrs)) if rows is None else rows.tolist()
    rects = (mbrs if rows is None else mbrs[rows]).tolist()
    if expand:
        rects = [
            (xmin - expand, ymin - expand, xmax + expand, ymax + expand)
            for xmin, ymin, xmax, ymax in rects
        ]
    items = [(Rect(*rect), label) for label, rect in zip(labels, rects)]
    if bulk:
        return RStarTree.bulk_load(
            items, max_entries=max_entries, directory_max=directory_max
        )
    tree = RStarTree(max_entries=max_entries, directory_max=directory_max)
    for rect, row in items:
        tree.insert(rect, row)
    return tree


def _center_dist(a: Coord, b: Coord) -> float:
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return dx * dx + dy * dy


def _str_pack(
    members: Sequence[Any],
    per_node: int,
    key_rect: Callable[[Any], Rect],
    level: int,
) -> List[Node]:
    """One STR packing round: slice by x, tile by y."""
    n = len(members)
    node_count = math.ceil(n / per_node)
    slice_count = max(1, int(math.ceil(math.sqrt(node_count))))
    per_slice = int(math.ceil(n / slice_count))
    by_x = sorted(members, key=lambda m: key_rect(m).center[0])
    nodes: List[Node] = []
    for s in range(0, n, per_slice):
        chunk = sorted(
            by_x[s : s + per_slice], key=lambda m: key_rect(m).center[1]
        )
        for t in range(0, len(chunk), per_node):
            group = chunk[t : t + per_node]
            node = Node(level=level)
            if level == 0:
                node.entries = list(group)
            else:
                node.children = list(group)
            nodes.append(node)
    return nodes
