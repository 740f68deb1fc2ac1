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
  and the remainder is resolved by exact polygon distance.
* ``knn`` — best-first MINDIST traversal per left object; every exact
  distance computation is one candidate that goes straight to the
  exact step (``remaining == candidate_pairs``), the emitted ``k``
  nearest are exact hits and the rest exact false hits.

**The exact step is set-at-a-time.**  Exact distances are computed for
a whole set of pairs at once (:func:`_capped_distances`), on the
relations' edge tables (:class:`repro.exact.refine.RingGeometry`):

* the zero-distance test is the intersects decision the batched
  refinement makes (:func:`repro.exact.refine.intersects_rows` — MBR
  test, ragged crossing kernel, containment), one call for the set;
* the other pairs go through one
  :func:`KernelDispatcher.min_edge_distance_ragged` call, which prunes
  edges and edge pairs by a per-pair **reach** ``min(cap, bound +
  margin)``: ``bound`` is the distance of one edge pair picked by
  nearest vertices (:func:`repro.geometry.fastops.vertex_distance_bounds`),
  so never below the true distance, and ``cap`` is the largest value the caller
  can still use — ε for the distance join, the current k-th best
  (``inf`` until ``k`` are known) for a kNN search.  The kernel returns
  the exact distance, bit for bit, wherever it is ``<= reach`` and
  ``inf`` elsewhere, so a value that could still decide a distance pair
  or enter a kNN result is always exact.

The **distance join** collects its remaining candidates in candidate
order and resolves them with one such call per join, then yields pairs
in the original interleaved order.  The **kNN join** advances every left
object's best-first search in lock-step *rounds*: each active search
pops until it needs an exact distance (or stops), and the round's pairs
share one call.  Heap contents and pop order per object are those of a
one-object-at-a-time search — a pair beyond the k-th best gets ``inf``
instead of its true value, is pushed and immediately evicted either way
— so candidates, counters and emitted order are unchanged; results are
emitted per left object in relation order.

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
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..datasets.relations import SpatialObject, SpatialRelation
from ..exact.refine import RingGeometry, clip_margins, intersects_rows
from ..geometry.fastops import vertex_distance_bounds
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


def _capped_distances(
    kernels: KernelDispatcher,
    geometry_a: RingGeometry,
    geometry_b: RingGeometry,
    pairs: Sequence[Pair],
    caps: np.ndarray,
) -> np.ndarray:
    """Exact polygon distance per pair (0 intersecting), ``inf`` beyond ``caps``.

    Same semantics as :func:`repro.core.distance.polygon_distance`: the
    intersects decision settles the zero case (containment and touching
    included), then the minimum edge distance over the objects' edges
    (shell and holes; a hole can never beat the shell of a disjoint
    polygon) resolves the rest — exactly where it is ``<= caps[p]``,
    ``inf`` where it is larger.
    """
    table_a, table_b = geometry_a.table, geometry_b.table
    rows_a = np.array([geometry_a.row_of(a) for a, _ in pairs], dtype=np.intp)
    rows_b = np.array([geometry_b.row_of(b) for _, b in pairs], dtype=np.intp)
    dist = np.zeros(len(pairs))
    apart = np.flatnonzero(
        ~intersects_rows(kernels, table_a, table_b, rows_a, rows_b)
    )
    if len(apart):
        rows_a = rows_a[apart]
        rows_b = rows_b[apart]
        margin = clip_margins(table_a.bounds[rows_a], table_b.bounds[rows_b])
        bound = vertex_distance_bounds(table_a, table_b, rows_a, rows_b)
        dist[apart] = kernels.min_edge_distance_ragged(
            table_a, table_b, rows_a, rows_b,
            np.minimum(caps[apart], bound + margin), margin,
        )
    return dist


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
    relations and ε, and identical across kernel backends.  The exact
    step runs once, after the filter, over all remaining candidates.

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
    half = epsilon / 2.0
    tree_a = _expanded_tree(relation_a, half, config.rtree_max_entries)
    tree_b = _expanded_tree(relation_b, half, config.rtree_max_entries)
    # Progressive hits and remaining candidates, in candidate order; the
    # positions of the remaining ones wait for the exact step.
    survivors: List[Pair] = []
    remaining: List[int] = []
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
        if upper > epsilon:
            stats.remaining_candidates += 1
            remaining.append(len(survivors))
        else:
            stats.filter_hits_progressive += 1
        survivors.append((obj_a, obj_b))
    stats.mbr_join.mbr_tests += raw.mbr_tests
    stats.mbr_join.node_pairs += raw.node_pairs

    accept = np.ones(len(survivors), dtype=bool)
    if remaining:
        near = _capped_distances(
            kernels,
            relation_a.columnar().ring_geometry(),
            relation_b.columnar().ring_geometry(),
            [survivors[i] for i in remaining],
            np.full(len(remaining), epsilon),
        ) <= epsilon
        stats.exact_hits += int(near.sum())
        stats.exact_false_hits += len(remaining) - int(near.sum())
        accept[remaining] = near
    for pair, hit in zip(survivors, accept.tolist()):
        if hit:
            yield pair


# ---------------------------------------------------------------------------
# predicate='knn'
# ---------------------------------------------------------------------------


class _KnnSearch:
    """One left object's best-first search, advanced a pair at a time.

    ``heap`` holds pending tree nodes and entries by MINDIST (ties by
    push order via ``tiebreak``); ``best`` is a max-heap of the k best by
    ``(-exact, -oid)``: the root is the current worst — largest
    distance, ties evicting the larger oid — so the kept set is the k
    smallest by ``(exact, oid)``.
    """

    __slots__ = ("obj", "k", "heap", "tiebreak", "best", "computed")

    def __init__(self, obj: SpatialObject, root, k: int):
        self.obj = obj
        self.k = k
        self.tiebreak = itertools.count()
        self.heap: List[Tuple[float, int, bool, object]] = [
            (0.0, next(self.tiebreak), False, root)
        ]
        self.best: List[Tuple[float, float, SpatialObject]] = []
        self.computed = 0

    def next_candidate(self, stats: MultiStepStats) -> Optional[SpatialObject]:
        """Pop until an entry needs its exact distance; ``None`` once done."""
        heap, best, mbr = self.heap, self.best, self.obj.mbr
        while heap:
            mindist, _, is_entry, payload = heapq.heappop(heap)
            if len(best) == self.k and mindist > -best[0][0]:
                return None  # no pending rectangle can beat the k-th best
            if is_entry:
                stats.candidate_pairs += 1
                stats.mbr_join.output_pairs += 1
                stats.remaining_candidates += 1
                self.computed += 1
                return payload
            stats.mbr_join.node_pairs += 1
            if payload.is_leaf:
                for entry in payload.entries:
                    stats.mbr_join.mbr_tests += 1
                    heapq.heappush(
                        heap,
                        (
                            rect_distance(mbr, entry.rect),
                            next(self.tiebreak),
                            True,
                            entry.item,
                        ),
                    )
            else:
                for child in payload.children:
                    stats.mbr_join.mbr_tests += 1
                    heapq.heappush(
                        heap,
                        (
                            rect_distance(mbr, child.mbr()),
                            next(self.tiebreak),
                            False,
                            child,
                        ),
                    )
        return None

    def cap(self) -> float:
        """The largest exact distance that can still enter the k best."""
        return -self.best[0][0] if len(self.best) == self.k else np.inf

    def admit(self, obj_b: SpatialObject, exact: float) -> None:
        heapq.heappush(self.best, (-exact, -obj_b.oid, obj_b))
        if len(self.best) > self.k:
            heapq.heappop(self.best)

    def neighbours(self) -> List[SpatialObject]:
        """The kept objects in ascending ``(distance, oid)`` order."""
        ranked = sorted(self.best, key=lambda t: (t[0], t[1]), reverse=True)
        return [obj for _, _, obj in ranked]


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
    neighbours are the exact hits.  The searches advance in lock-step
    rounds, one exact-distance kernel call per round.
    """
    tree_b = relation_b.rtree(config.rtree_max_entries)
    if tree_b.size == 0:
        return
    kernels = dispatcher_for(config.kernels, stats)
    geometry_a = relation_a.columnar().ring_geometry()
    geometry_b = relation_b.columnar().ring_geometry()
    searches = [
        _KnnSearch(obj_a, tree_b.root, config.k) for obj_a in relation_a
    ]
    active = searches
    while active:
        pending = [
            (search, search.next_candidate(stats)) for search in active
        ]
        pending = [
            (search, obj_b) for search, obj_b in pending if obj_b is not None
        ]
        if pending:
            exact = _capped_distances(
                kernels, geometry_a, geometry_b,
                [(search.obj, obj_b) for search, obj_b in pending],
                np.array([search.cap() for search, _ in pending]),
            )
            for (search, obj_b), distance in zip(pending, exact.tolist()):
                search.admit(obj_b, distance)
        active = [search for search, _ in pending]
    for search in searches:
        emitted = search.neighbours()
        stats.exact_hits += len(emitted)
        stats.exact_false_hits += search.computed - len(emitted)
        for obj_b in emitted:
            yield (search.obj, obj_b)


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
