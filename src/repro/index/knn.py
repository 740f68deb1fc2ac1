"""k-nearest-neighbour search on the R*-tree.

The paper names nearest-neighbour queries among the basic operations of
a spatial DBS (§2: "point queries, window queries, nearest neighbor
queries, and spatial joins").  This module provides the classic
best-first (priority-queue) k-NN traversal of [HS 95-style] over the
repository's R*-tree, with the same page-access accounting as the other
query paths.

Distances are measured between the query point and entry rectangles
(MINDIST); callers needing exact object distances refine the returned
candidate order (see :mod:`repro.core.distance`).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, List, Optional, Tuple

from ..geometry.predicates import Coord
from ..geometry.rectangle import Rect
from .pagemodel import AccessCounter
from .rstar import Node, RStarTree


def point_rect_distance(p: Coord, rect: Rect) -> float:
    """MINDIST: Euclidean distance from a point to a rectangle (0 inside)."""
    dx = max(rect.xmin - p[0], 0.0, p[0] - rect.xmax)
    dy = max(rect.ymin - p[1], 0.0, p[1] - rect.ymax)
    return (dx * dx + dy * dy) ** 0.5


def validate_k(k: int) -> int:
    """Boundary validation of a neighbour count.

    Raises ``ValueError`` naming the offending value for ``k < 1`` or a
    non-integer ``k`` (``bool`` included — ``True`` is a valid ``int``
    but never a deliberate neighbour count), so callers — including the
    CLI ``knn`` command — fail at the argument boundary instead of
    obscurely downstream.
    """
    if isinstance(k, bool) or not isinstance(k, int):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return k


def knn_query(
    tree: RStarTree,
    point: Coord,
    k: int,
    counter: Optional[AccessCounter] = None,
) -> List[Tuple[float, Any]]:
    """The ``k`` items with smallest MINDIST to ``point``.

    Returns ``(distance, item)`` pairs in ascending distance order.
    Best-first search: a single priority queue over nodes and entries
    guarantees no node is opened unless it could still contribute.
    """
    k = validate_k(k)
    if tree.size == 0:
        return []
    # tie-break heap entries by an insertion counter: items may not be
    # comparable with each other.
    tiebreak = itertools.count()
    heap: List[Tuple[float, int, bool, Any]] = [
        (0.0, next(tiebreak), False, tree.root)
    ]
    out: List[Tuple[float, Any]] = []
    while heap and len(out) < k:
        dist, _, is_entry, payload = heapq.heappop(heap)
        if is_entry:
            out.append((dist, payload))
            continue
        node: Node = payload
        if counter is not None:
            counter.visit(node.page_id)
        if node.is_leaf:
            for entry in node.entries:
                heapq.heappush(
                    heap,
                    (
                        point_rect_distance(point, entry.rect),
                        next(tiebreak),
                        True,
                        entry.item,
                    ),
                )
        else:
            for child in node.children:
                heapq.heappush(
                    heap,
                    (
                        point_rect_distance(point, child.mbr()),
                        next(tiebreak),
                        False,
                        child,
                    ),
                )
    return out


def nearest_query(
    tree: RStarTree, point: Coord, counter: Optional[AccessCounter] = None
) -> Optional[Tuple[float, Any]]:
    """The single nearest item, or None for an empty tree."""
    result = knn_query(tree, point, 1, counter)
    return result[0] if result else None


def knn_query_exact(
    tree: RStarTree,
    point: Coord,
    k: int,
    exact_distance,
    counter: Optional[AccessCounter] = None,
) -> List[Tuple[float, Any]]:
    """k-NN refined by an exact distance function (filter-refine k-NN).

    ``exact_distance(point, item) -> float`` supplies the true distance
    (e.g. point-to-polygon via :func:`repro.core.distance`).  The search
    is the classic incremental best-first scheme: because MINDIST to an
    item's MBR lower-bounds its exact distance, the scan can stop as
    soon as the next MINDIST exceeds the k-th best exact distance seen —
    the multi-step principle (cheap bound first, exact geometry last)
    applied to nearest-neighbour search.
    """
    k = validate_k(k)
    if tree.size == 0:
        return []
    tiebreak = itertools.count()
    heap: List[Tuple[float, int, bool, Any]] = [
        (0.0, next(tiebreak), False, tree.root)
    ]
    best: List[Tuple[float, int, Any]] = []  # max-heap via negated dist
    while heap:
        mindist, _, is_entry, payload = heapq.heappop(heap)
        if len(best) == k and mindist > -best[0][0]:
            break  # no remaining candidate can beat the k-th exact dist
        if is_entry:
            exact = exact_distance(point, payload)
            heapq.heappush(best, (-exact, next(tiebreak), payload))
            if len(best) > k:
                heapq.heappop(best)
            continue
        node: Node = payload
        if counter is not None:
            counter.visit(node.page_id)
        if node.is_leaf:
            for entry in node.entries:
                heapq.heappush(
                    heap,
                    (
                        point_rect_distance(point, entry.rect),
                        next(tiebreak),
                        True,
                        entry.item,
                    ),
                )
        else:
            for child in node.children:
                heapq.heappush(
                    heap,
                    (
                        point_rect_distance(point, child.mbr()),
                        next(tiebreak),
                        False,
                        child,
                    ),
                )
    return sorted(
        ((-neg, item) for neg, _, item in best), key=lambda t: t[0]
    )
