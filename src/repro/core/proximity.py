"""First-class proximity predicates on the multi-step join runtime.

The standalone :mod:`repro.core.distance` module transfers the paper's
multi-step shape to the within-distance join with its own result and
stats types.  This module promotes that transfer — plus a k-nearest-
neighbour join built on the same bounds — to first-class
:class:`~repro.core.join.JoinConfig` predicates (``predicate='distance'``
with ``epsilon``, ``predicate='knn'`` with ``k``): the pipelines report
into the ordinary :class:`~repro.core.stats.MultiStepStats`, run their
exact step on the batched kernel tier (:mod:`repro.geometry.kernels`,
selected by ``JoinConfig.kernels``), and therefore flow through every
runtime layer the intersection join has — CLI, sessions, and the join
service — unchanged.

Stats mapping (the Figure-1 invariants hold for both predicates):

* ``distance`` — candidates are the expanded-MBR-join pairs that
  survive the Euclidean MBR pre-test; the conservative MBC lower bound
  eliminates false hits, the progressive MEC upper bound proves hits,
  and the remainder is resolved by exact minimum edge distance
  (:func:`KernelDispatcher.min_edge_distance_bulk` — identical across
  kernel backends by construction).
* ``knn`` — best-first MINDIST traversal per left object; every exact
  distance computation is one candidate that goes straight to the
  exact step (``remaining == candidate_pairs``), the emitted ``k``
  nearest are exact hits and the rest exact false hits.

Neither predicate decomposes into independent *MBR* tiles (an ε-near
pair can straddle tiles without MBR overlap; a kNN result is a global
per-object ordering), but both decompose under ε-aware task formation
(:meth:`repro.core.partition.Partitioner.plan_proximity`): distance
tasks grow every probe region by ε — grid tiles collect each object
whose ε/2-expanded MBR touches them, replicated border candidates
deduplicated by the owning-task rule (the ``owns`` hook below, applied
*before* any counter moves so merged flow statistics equal the serial
pipeline's) — and kNN tasks bound each left object's probe radius with
the :func:`knn_probe_bounds` k-th-neighbour pass.  Tiny relations
still run these pipelines serially — see
``parallel_exec.parallel_partitioned_join``.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from ..datasets.relations import SpatialObject, SpatialRelation
from ..geometry.fastops import polygons_intersect_fast
from ..geometry.kernels import KernelDispatcher, dispatcher_for
from ..index import JoinStats, rstar_join
from .distance import (
    _expanded_tree,
    circle_distance,
    rect_distance,
)
from .join import JoinConfig
from .stats import MultiStepStats

Pair = Tuple[SpatialObject, SpatialObject]

def _exact_distance(
    obj_a: SpatialObject,
    obj_b: SpatialObject,
    kernels: KernelDispatcher,
    geometry_a,
    geometry_b,
    epsilon: Optional[float] = None,
) -> float:
    """Exact polygon distance through the kernel tier (0 intersecting).

    Same semantics as :func:`repro.core.distance.polygon_distance`: the
    backend-independent intersection oracle decides the zero case
    (containment and touching included), then the bulk minimum edge
    distance kernel — bit-identical across backends — resolves the
    disjoint case over the objects' edges (shell and holes, as the
    scalar function; a hole can never beat the shell of a disjoint
    polygon), read from the relations' edge tables
    (:class:`repro.exact.refine.RingGeometry`).

    With ``epsilon`` the caller only asks whether the distance is
    ``<= epsilon``: each side keeps the edges whose box lies within
    ``epsilon`` of the other object's bounds.  If the true minimum is
    ``<= epsilon`` both attaining edges survive, so that exact value is
    returned; otherwise the result stays ``> epsilon``.
    """
    if polygons_intersect_fast(obj_a.polygon, obj_b.polygon):
        return 0.0
    row_a = geometry_a.row_of(obj_a)
    row_b = geometry_b.row_of(obj_b)
    if epsilon is None:
        edges_a = geometry_a.edges(row_a)
        edges_b = geometry_b.edges(row_b)
    else:
        edges_a = geometry_a.edges_within(
            row_a, geometry_b.table.bounds[row_b], epsilon
        )
        edges_b = geometry_b.edges_within(
            row_b, geometry_a.table.bounds[row_a], epsilon
        )
    return kernels.min_edge_distance_bulk(*edges_a, *edges_b)


# ---------------------------------------------------------------------------
# predicate='distance'
# ---------------------------------------------------------------------------


def distance_join_pipeline(
    relation_a: SpatialRelation,
    relation_b: SpatialRelation,
    config: JoinConfig,
    stats: MultiStepStats,
    owns: Optional[Callable[[SpatialObject, SpatialObject], bool]] = None,
) -> Iterator[Pair]:
    """All pairs with exact distance <= ``config.epsilon``, multi-step.

    Pair order is the expanded MBR-join's candidate order — identical
    to :func:`repro.core.distance.within_distance_join` on the same
    relations and ε, and identical across kernel backends.

    ``owns`` is the parallel executor's deduplication hook: an
    ε-expanded grid task replicates border objects into every tile
    their expanded MBR touches, so the same candidate surfaces in
    several tasks.  The hook runs *first*, before the Euclidean
    pre-test and before any counter moves — a non-owned candidate only
    increments ``stats.dedup_dropped`` — so each global candidate is
    processed (and counted) by exactly one task and the merged flow
    statistics equal the serial pipeline's.  ``None`` (serial, and
    disjoint tree-guided tasks) owns everything.
    """
    epsilon = config.epsilon
    kernels = dispatcher_for(config.kernels, stats)
    geometry_a = relation_a.columnar().ring_geometry()
    geometry_b = relation_b.columnar().ring_geometry()
    half = epsilon / 2.0
    tree_a = _expanded_tree(relation_a, half, config.rtree_max_entries)
    tree_b = _expanded_tree(relation_b, half, config.rtree_max_entries)
    # The expanded join reports L∞ candidates; the Euclidean pre-test
    # below corner-tightens them.  Candidate accounting starts *after*
    # the pre-test, so raw tree stats go to a throwaway JoinStats and
    # only the traversal-cost counters are folded in — output_pairs is
    # set to the post-pre-test candidate count, keeping the Figure-1
    # flow conservation (`mbr_join.output_pairs == candidate_pairs`).
    raw = JoinStats()
    for obj_a, obj_b in rstar_join(tree_a, tree_b, None, None, raw):
        if owns is not None and not owns(obj_a, obj_b):
            stats.dedup_dropped += 1
            continue
        stats.mbr_join.mbr_tests += 1  # the Euclidean MBR pre-test
        if rect_distance(obj_a.mbr, obj_b.mbr) > epsilon:
            continue
        stats.candidate_pairs += 1
        stats.mbr_join.output_pairs += 1

        # Conservative bound: MBCs contain the objects, so their gap
        # lower-bounds the object distance — gap > ε is a false hit.
        stats.conservative_tests += 1
        circle_a = obj_a.approximation("MBC").circle()
        circle_b = obj_b.approximation("MBC").circle()
        lower = circle_distance(
            circle_a.center, circle_a.radius,
            circle_b.center, circle_b.radius,
        )
        if lower > epsilon:
            stats.filter_false_hits += 1
            continue

        # Progressive bound: MECs lie inside the objects, so their gap
        # upper-bounds the object distance — gap <= ε is a hit.
        stats.progressive_tests += 1
        disc_a = obj_a.approximation("MEC").circle()
        disc_b = obj_b.approximation("MEC").circle()
        upper = circle_distance(
            disc_a.center, disc_a.radius, disc_b.center, disc_b.radius
        )
        if upper <= epsilon:
            stats.filter_hits_progressive += 1
            yield (obj_a, obj_b)
            continue

        stats.remaining_candidates += 1
        if _exact_distance(
            obj_a, obj_b, kernels, geometry_a, geometry_b, epsilon
        ) <= epsilon:
            stats.exact_hits += 1
            yield (obj_a, obj_b)
        else:
            stats.exact_false_hits += 1
    stats.mbr_join.mbr_tests += raw.mbr_tests
    stats.mbr_join.node_pairs += raw.node_pairs


# ---------------------------------------------------------------------------
# predicate='knn'
# ---------------------------------------------------------------------------


def knn_join_pipeline(
    relation_a: SpatialRelation,
    relation_b: SpatialRelation,
    config: JoinConfig,
    stats: MultiStepStats,
) -> Iterator[Pair]:
    """Each left object's ``config.k`` nearest right objects.

    Classic best-first filter-refine per left object: MINDIST from the
    left MBR to tree rectangles lower-bounds the exact distance, so the
    traversal stops once no pending rectangle can beat the k-th best
    exact distance.  Per left object the neighbours are emitted in
    ascending ``(distance, oid)`` order; left objects follow relation
    order.  Fewer than ``k`` right objects means every one qualifies.

    Every exact distance computation is one candidate pair resolved by
    the exact step (``remaining == candidate_pairs``); the emitted
    neighbours are the exact hits.
    """
    k = config.k
    kernels = dispatcher_for(config.kernels, stats)
    geometry_a = relation_a.columnar().ring_geometry()
    geometry_b = relation_b.columnar().ring_geometry()
    tree_b = relation_b.rtree(config.rtree_max_entries)
    for obj_a in relation_a:
        if tree_b.size == 0:
            break
        tiebreak = itertools.count()
        heap: List[Tuple[float, int, bool, object]] = [
            (0.0, next(tiebreak), False, tree_b.root)
        ]
        # max-heap of the k best by (-exact, -oid): the root is the
        # current worst — largest distance, ties evicting the larger
        # oid — so the kept set is the k smallest by (exact, oid).
        best: List[Tuple[float, float, SpatialObject]] = []
        computed = 0
        while heap:
            mindist, _, is_entry, payload = heapq.heappop(heap)
            if len(best) == k and mindist > -best[0][0]:
                break  # no pending rectangle can beat the k-th best
            if is_entry:
                stats.candidate_pairs += 1
                stats.mbr_join.output_pairs += 1
                stats.remaining_candidates += 1
                computed += 1
                exact = _exact_distance(
                    obj_a, payload, kernels, geometry_a, geometry_b
                )
                heapq.heappush(best, (-exact, -payload.oid, payload))
                if len(best) > k:
                    heapq.heappop(best)
                continue
            node = payload
            stats.mbr_join.node_pairs += 1
            if node.is_leaf:
                for entry in node.entries:
                    stats.mbr_join.mbr_tests += 1
                    heapq.heappush(
                        heap,
                        (
                            rect_distance(obj_a.mbr, entry.rect),
                            next(tiebreak),
                            True,
                            entry.item,
                        ),
                    )
            else:
                for child in node.children:
                    stats.mbr_join.mbr_tests += 1
                    heapq.heappush(
                        heap,
                        (
                            rect_distance(obj_a.mbr, child.mbr()),
                            next(tiebreak),
                            False,
                            child,
                        ),
                    )
        emitted = sorted(
            ((-neg, -negoid, obj) for neg, negoid, obj in best),
            key=lambda t: (t[0], t[1]),
        )
        stats.exact_hits += len(emitted)
        stats.exact_false_hits += computed - len(emitted)
        for _, _, obj_b in emitted:
            yield (obj_a, obj_b)


def rect_max_distance(a, b) -> float:
    """Maximum distance between any point of rect ``a`` and any of ``b``.

    Upper-bounds the exact distance of any two polygons contained in
    the rectangles (the exact distance is a *minimum* over point pairs,
    each of which is at most this).  The per-axis maximum separation is
    ``max(a.max - b.min, b.max - a.min)`` — non-negative whenever both
    rectangles are non-empty.
    """
    dx = max(a.xmax - b.xmin, b.xmax - a.xmin)
    dy = max(a.ymax - b.ymin, b.ymax - a.ymin)
    return float(np.hypot(max(dx, 0.0), max(dy, 0.0)))


def knn_probe_bounds(
    relation_a: SpatialRelation,
    relation_b: SpatialRelation,
    k: int,
    max_entries: int,
) -> np.ndarray:
    """Per-left-object probe radius for parallel kNN task formation.

    For each left object ``a`` returns ``d_k(a)``: the k-th smallest
    :func:`rect_max_distance` from ``a``'s MBR to the right relation's
    MBRs, found by a cheap serial best-first pass over the right
    relation's bulk-loaded R*-tree (``partition_tree``) — node MINDIST
    lower-bounds every member's max-distance, so subtrees that cannot
    improve the current k-th best are pruned without visiting them.

    ``d_k(a)`` upper-bounds the exact distance of ``a``'s k-th nearest
    neighbour: at least ``k`` right objects have exact distance
    ``<= rect_max_distance <= d_k(a)``.  Therefore every right object
    that can appear in ``a``'s result satisfies
    ``rect_distance(mbr_a, mbr_b) <= exact <= d_k(a)`` — i.e. its MBR
    intersects ``mbr_a`` expanded by ``d_k(a)`` — which is exactly the
    replication rule :meth:`Partitioner.plan_proximity` applies.

    ``k >= |B|`` disables the bound (``inf``: every right object
    qualifies, so every task probes the whole right relation).
    """
    bounds = np.full(len(relation_a), np.inf, dtype=np.float64)
    n_b = len(relation_b)
    if n_b == 0 or k >= n_b or len(relation_a) == 0:
        return bounds
    tree_b = relation_b.columnar().partition_tree(max_entries)
    for row, obj_a in enumerate(relation_a):
        mbr_a = obj_a.mbr
        tiebreak = itertools.count()
        heap = [(0.0, next(tiebreak), tree_b.root)]
        # max-heap of the k smallest max-distances seen so far.
        worst: List[float] = []
        while heap:
            mindist, _, node = heapq.heappop(heap)
            if len(worst) == k and mindist > -worst[0]:
                break  # no pending subtree can improve the k-th best
            if node.is_leaf:
                for entry in node.entries:
                    top = rect_max_distance(mbr_a, entry.rect)
                    if len(worst) < k:
                        heapq.heappush(worst, -top)
                    elif top < -worst[0]:
                        heapq.heapreplace(worst, -top)
            else:
                for child in node.children:
                    heapq.heappush(
                        heap,
                        (
                            rect_distance(mbr_a, child.mbr()),
                            next(tiebreak),
                            child,
                        ),
                    )
        bounds[row] = -worst[0]
    return bounds


def brute_force_knn_join(
    relation_a: SpatialRelation,
    relation_b: SpatialRelation,
    k: int,
) -> List[Tuple[int, int]]:
    """Nested-loops oracle for :func:`knn_join_pipeline` (oid pairs)."""
    from .distance import polygon_distance

    out: List[Tuple[int, int]] = []
    for obj_a in relation_a:
        ranked = sorted(
            (
                (polygon_distance(obj_a.polygon, obj_b.polygon), obj_b.oid)
                for obj_b in relation_b
            ),
        )
        out.extend((obj_a.oid, oid) for _, oid in ranked[:k])
    return out
