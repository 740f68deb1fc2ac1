"""MBR-join of two R*-trees — step 1 of the paper ([BKS 93a]).

Synchronised depth-first traversal of both trees with the two
optimisations of BKS 93a:

* **restricting the search space** — only entries intersecting the
  intersection rectangle of the two node MBRs can contribute pairs;
* **spatial sorting / plane sweep** — matching entry pairs inside a node
  pair are found by a sweep over xmin-sorted entries rather than nested
  loops, which keeps the number of MBR tests low.

Unequal tree heights are handled by fixing the shallower node while
descending the taller tree.  The join yields candidate pairs lazily so
subsequent filter steps can consume them without materialising the
candidate set (paper §2.4).

The traversal is an explicit-stack iteration, not recursion: the old
``yield from _join_nodes`` chain held one generator frame per tree
level, so joining deep trees (low-capacity nodes, or degenerate vines)
hit Python's recursion limit and every yielded pair paid O(depth)
delegation cost.  The stack holds lazy child-pair iterators, so page
visits and MBR-test counters fire in exactly the order the recursion
produced them, while each pair is yielded from the top-level frame in
O(1) (``tests/test_rstar_join.py`` pins both properties).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple

from ..geometry.rectangle import Rect
from .pagemodel import AccessCounter
from .rstar import Node, RStarTree


@dataclass
class JoinStats:
    """Counters of one MBR-join run."""

    mbr_tests: int = 0
    node_pairs: int = 0
    output_pairs: int = 0


def rstar_join(
    tree_a: RStarTree,
    tree_b: RStarTree,
    counter_a: Optional[AccessCounter] = None,
    counter_b: Optional[AccessCounter] = None,
    stats: Optional[JoinStats] = None,
) -> Iterator[Tuple[Any, Any]]:
    """Yield all ``(item_a, item_b)`` pairs with intersecting rects."""
    if tree_a.size == 0 or tree_b.size == 0:
        return
    stats = stats if stats is not None else JoinStats()
    root_a, root_b = tree_a.root, tree_b.root
    if counter_a is not None:
        counter_a.visit(root_a.page_id)
    if counter_b is not None:
        counter_b.visit(root_b.page_id)
    yield from _join_nodes(root_a, root_b, counter_a, counter_b, stats)


def _child_pairs(
    node_a: Node,
    node_b: Node,
    inter: Rect,
    counter_a: Optional[AccessCounter],
    counter_b: Optional[AccessCounter],
    stats: JoinStats,
) -> Iterator[Tuple[Node, Node]]:
    """Lazily yield the node pairs the recursion used to descend into.

    One side is expanded per step (the taller tree, leaves pinned), and
    the MBR-test counter and page-visit hooks fire exactly when a child
    pair is pulled — the same instant the recursive loop reached it.
    """
    if not node_a.is_leaf and (node_b.is_leaf or node_a.level >= node_b.level):
        # Descend tree A.
        for child in _restricted_members(node_a, inter):
            stats.mbr_tests += 1
            if child.mbr().intersects(node_b.mbr()):
                if counter_a is not None:
                    counter_a.visit(child.page_id)
                yield (child, node_b)
    else:
        # Descend tree B.
        for child in _restricted_members(node_b, inter):
            stats.mbr_tests += 1
            if child.mbr().intersects(node_a.mbr()):
                if counter_b is not None:
                    counter_b.visit(child.page_id)
                yield (node_a, child)


def _join_nodes(
    node_a: Node,
    node_b: Node,
    counter_a: Optional[AccessCounter],
    counter_b: Optional[AccessCounter],
    stats: JoinStats,
) -> Iterator[Tuple[Any, Any]]:
    """Depth-first synchronized traversal with an explicit frame stack.

    Each stack entry is the lazy child-pair iterator of one node pair;
    entering a pair bumps ``node_pairs``, leaf pairs emit through the
    plane sweep directly from this frame.  Identical visit order, counter
    sequence, and output to the former recursive formulation, but with
    O(1) delegation per yielded pair and no recursion-depth ceiling.
    """
    stack: List[Iterator[Tuple[Node, Node]]] = [iter(((node_a, node_b),))]
    while stack:
        descended = False
        for pair_a, pair_b in stack[-1]:
            stats.node_pairs += 1
            inter = pair_a.mbr().intersection(pair_b.mbr())
            if inter is None:
                continue
            if pair_a.is_leaf and pair_b.is_leaf:
                for ea, eb in _matching_pairs(pair_a, pair_b, inter, stats):
                    stats.output_pairs += 1
                    yield (ea.item, eb.item)
                continue
            stack.append(
                _child_pairs(
                    pair_a, pair_b, inter, counter_a, counter_b, stats
                )
            )
            descended = True
            break
        if not descended:
            stack.pop()


def _restricted_members(node: Node, inter: Rect) -> List[Any]:
    """Search-space restriction: members intersecting ``inter`` only."""
    if node.is_leaf:
        return [e for e in node.entries if e.rect.intersects(inter)]
    return [c for c in node.children if c.mbr().intersects(inter)]


def _matching_pairs(
    leaf_a: Node, leaf_b: Node, inter: Rect, stats: JoinStats
) -> Iterator[Tuple[Any, Any]]:
    """Plane sweep over xmin-sorted restricted entries of two leaves."""
    ents_a = sorted(_restricted_members(leaf_a, inter), key=lambda e: e.rect.xmin)
    ents_b = sorted(_restricted_members(leaf_b, inter), key=lambda e: e.rect.xmin)
    i = j = 0
    while i < len(ents_a) and j < len(ents_b):
        ea = ents_a[i]
        eb = ents_b[j]
        if ea.rect.xmin <= eb.rect.xmin:
            # Sweep: pair ea with all b's starting before ea ends.
            k = j
            while k < len(ents_b) and ents_b[k].rect.xmin <= ea.rect.xmax:
                stats.mbr_tests += 1
                if _y_overlap(ea.rect, ents_b[k].rect):
                    yield (ea, ents_b[k])
                k += 1
            i += 1
        else:
            k = i
            while k < len(ents_a) and ents_a[k].rect.xmin <= eb.rect.xmax:
                stats.mbr_tests += 1
                if _y_overlap(ents_a[k].rect, eb.rect):
                    yield (ents_a[k], eb)
                k += 1
            j += 1


def _y_overlap(r1: Rect, r2: Rect) -> bool:
    return r1.ymin <= r2.ymax and r2.ymin <= r1.ymax


def nested_loops_mbr_join(
    rects_a: List[Tuple[Rect, Any]], rects_b: List[Tuple[Rect, Any]]
) -> Iterator[Tuple[Any, Any]]:
    """Reference nested-loops MBR join (baseline and test oracle)."""
    for rect_a, item_a in rects_a:
        for rect_b, item_b in rects_b:
            if rect_a.intersects(rect_b):
                yield (item_a, item_b)
