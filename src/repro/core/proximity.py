"""First-class proximity predicates on the multi-step join runtime.

This module transfers the paper's multi-step shape (§2.2) to the
within-distance join — plus a k-nearest-neighbour join on the same
bounds — as :class:`~repro.core.join.JoinConfig` predicates
(``'distance'`` with ``epsilon``, ``'knn'`` with ``k``) that report into the ordinary
:class:`~repro.core.stats.MultiStepStats`, run their exact step on the
kernel tier (``JoinConfig.kernels``), and flow through the CLI,
sessions and the join service unchanged.

**Both predicates are row programs.**  They read a :class:`ProximityRows`
bundle per side (oids, MBR rows, MBC/MEC circle rows, the
:class:`~repro.geometry.fastops.EdgeTable`) and produce ``(row_a,
row_b)`` index arrays; objects (serial joins) or oids (tile tasks, which
gather their rows from the mapped segments and never build an object)
are attached only when pairs are emitted.  The exact step
(:func:`_capped_distances`) settles distance 0 with the batched
intersects decision (:func:`repro.exact.refine.intersects_rows`) and
the rest with one :func:`KernelDispatcher.min_edge_distance_ragged`
call, which returns the exact distance, bit for bit, wherever it is
``<= cap`` and ``inf`` elsewhere.

``distance`` — candidates are the ε/2-expanded R*-tree join's row pairs
(its candidate order, ``mbr_tests`` and ``node_pairs``) that survive the
Euclidean MBR pre-test; the MBC lower bound eliminates false hits, the
MEC upper bound proves hits — each a mask over the candidate rows with
the scalar ``math.hypot`` decisions (:func:`_hypot_gaps`), each counter
a mask sum — and one exact call per join resolves the remainder.  Pairs
come out in candidate order.

``knn`` — **bound-first in two rounds**, one exact call each.  Per left
row ``a``, ``d_k(a)`` is the k-th smallest MBR max-distance (``inf``
when ``k >= |B|``).  Round 1 computes the ``k`` right rows smallest by
``(MINDIST, oid)``, capped at ``d_k(a)``; ``cap(a)`` is the smaller of
``d_k(a)`` and the largest round-1 distance.  Round 2 computes every
other right row with ``MINDIST <= cap(a)``, capped at ``cap(a)``.  The
top ``k`` by ``(distance, oid)`` are emitted, left rows in order.
*Exact:* the round-1 rows and the k rows attaining ``d_k(a)`` are k real
objects within ``cap(a)``, so every result row has ``MINDIST <= exact
<= cap(a)`` — it is in one of the rounds, and its distance comes back
exact (caps and MINDIST limits are :func:`loosen`-ed, so rounding only
adds candidates).  Such rows lie within ``d_k(a)`` of ``a``'s MBR, so a
kNN task's replicated right set holds them, the per-left-row work is
the same in every plan, and so are the counters:

* ``candidate_pairs = remaining_candidates = mbr_join.output_pairs`` =
  pairs of both rounds; ``exact_hits`` = pairs emitted,
  ``exact_false_hits`` = the rest;
* ``mbr_join.mbr_tests`` = Σₐ |{b : MINDIST ≤ d_k(a)}|;
  ``mbr_join.node_pairs`` = 0.

Both decompose under ε-aware task formation
(:meth:`repro.core.partition.Partitioner.plan_proximity`): distance
tasks grow every probe region by ε, replicated border candidates
deduplicated by the ``owns`` row hook *before* any counter moves; kNN
tasks probe each left row's MBR grown by :func:`knn_probe_bounds`, the
same ``d_k``.  Tiny relations run serially — see
``parallel_exec.parallel_partitioned_join``.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..datasets.relations import SpatialRelation
from ..exact.refine import clip_margins, intersects_rows
from ..geometry.fastops import EdgeTable, vertex_distance_bounds
from ..geometry.kernels import KernelDispatcher, dispatcher_for
from ..geometry.rectangle import Rect
from ..index.join import JoinStats, rstar_join
from ..index.rstar import RStarTree
from .join import JoinConfig
from .stats import MultiStepStats

#: ``owns(rows_a, rows_b) -> bool mask``: which candidate row pairs a
#: task owns (the parallel executor's deduplication hook).
RowOwner = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: relative slack of :func:`loosen` (2**-44 ≈ 256 ulps), and of the band
#: in which :func:`_hypot_gaps` re-checks with ``math.hypot``.
_SLACK = 2.0 ** -44

#: left x right rows of one dense block of the kNN bound pass: keeps its
#: temporaries at a few MB whatever the relation sizes.
_BLOCK_PAIRS = 1 << 16


class ProximityRows(NamedTuple):
    """What a proximity predicate reads of one relation, row by row.

    ``mbrs`` are the shell MBRs (``EdgeTable.mbrs`` equals
    ``ColumnarRelation.mbrs`` bit for bit); ``mbc``/``mec`` are ``(n, 3)``
    circle rows ``(cx, cy, r)``, for the ``distance`` predicate only.
    """

    oids: np.ndarray
    mbrs: np.ndarray
    table: EdgeTable
    mbc: Optional[np.ndarray] = None
    mec: Optional[np.ndarray] = None

    @classmethod
    def of(cls, columnar, predicate: str) -> "ProximityRows":
        """The rows of a :class:`~repro.datasets.columnar.ColumnarRelation`."""
        circles = (
            (columnar.approx("MBC").circles, columnar.approx("MEC").circles)
            if predicate == "distance"
            else ()
        )
        return cls(
            columnar.oids, columnar.mbrs, columnar.ring_geometry().table,
            *circles,
        )


Side = Union[SpatialRelation, ProximityRows]


def _bind(side: Side, predicate: str):
    """``(rows, items)``: a relation yields objects, bare rows their oids."""
    if isinstance(side, ProximityRows):
        return side, side.oids.tolist()
    columnar = side.columnar()
    return ProximityRows.of(columnar, predicate), columnar.objects


def loosen(bound: np.ndarray) -> np.ndarray:
    """``bound`` grown by a few hundred ulps (``inf`` stays ``inf``).

    MINDIST, max-distance and exact distance are different expressions;
    a kNN cap or MINDIST limit is loosened so rounding only adds
    candidates, never drops one.
    """
    return bound * (1.0 + _SLACK)


def _capped_distances(
    kernels: KernelDispatcher,
    table_a: EdgeTable,
    table_b: EdgeTable,
    rows_a: np.ndarray,
    rows_b: np.ndarray,
    caps: np.ndarray,
    tighten: bool = True,
) -> np.ndarray:
    """Exact polygon distance per row pair (0 intersecting), ``inf`` beyond ``caps``.

    Same semantics as :func:`repro.core.distance.polygon_distance`: the
    intersects decision settles the zero case (containment and touching
    included), then the minimum edge distance over the objects' edges
    (shell and holes; a hole can never beat the shell of a disjoint
    polygon) resolves the rest — exactly where it is ``<= caps[p]``,
    ``inf`` where it is larger.  ``tighten`` prunes the kernel by the
    vertex bound as well: it changes the work, never the values.
    """
    dist = np.zeros(len(rows_a))
    apart = np.flatnonzero(
        ~intersects_rows(kernels, table_a, table_b, rows_a, rows_b)
    )
    if len(apart):
        rows_a = rows_a[apart]
        rows_b = rows_b[apart]
        margin = clip_margins(table_a.bounds[rows_a], table_b.bounds[rows_b])
        reach = caps[apart]
        if tighten:
            bound = vertex_distance_bounds(table_a, table_b, rows_a, rows_b)
            reach = np.minimum(reach, bound + margin)
        dist[apart] = kernels.min_edge_distance_ragged(
            table_a, table_b, rows_a, rows_b, reach, margin
        )
    return dist


# ---------------------------------------------------------------------------
# predicate='distance'
# ---------------------------------------------------------------------------


def _hypot_gaps(dx, dy, radius_a, radius_b, epsilon: float) -> np.ndarray:
    """``math.hypot(dx, dy) - radius_a - radius_b`` wherever it decides ``> ε``.

    The scalar decisions (:func:`repro.core.distance.rect_distance`
    and the disc gaps of the per-object reference pipeline the tests
    keep) use ``math.hypot``, which ``np.hypot`` misses by an ulp on
    about one input in 500; gaps within ``_SLACK`` of the operands'
    scale around ε (far more than those ulps can move) are recomputed
    with it.
    """
    hyp = np.hypot(dx, dy)
    gaps = hyp - radius_a - radius_b
    scale = hyp + radius_a + radius_b + epsilon
    for i in np.flatnonzero(np.abs(gaps - epsilon) <= _SLACK * scale).tolist():
        gaps[i] = math.hypot(dx[i], dy[i]) - radius_a[i] - radius_b[i]
    return gaps


def _mbr_gaps(a: np.ndarray, b: np.ndarray):
    """``rect_distance``'s per-axis gaps of (broadcast) MBR rows."""
    return (
        np.maximum(np.maximum(a[..., 0] - b[..., 2], 0.0), b[..., 0] - a[..., 2]),
        np.maximum(np.maximum(a[..., 1] - b[..., 3], 0.0), b[..., 1] - a[..., 3]),
    )


def _circle_gaps(circles_a, circles_b, epsilon: float) -> np.ndarray:
    """Disc-to-disc gaps of ``(k, 3)`` circle rows (negative: overlap)."""
    return _hypot_gaps(
        circles_a[:, 0] - circles_b[:, 0], circles_a[:, 1] - circles_b[:, 1],
        circles_a[:, 2], circles_b[:, 2], epsilon,
    )


def _expanded_tree(mbrs: np.ndarray, amount: float, max_entries: int) -> RStarTree:
    """R*-tree of the MBR rows grown by ``amount`` (``Rect.expand``), items = rows."""
    tree = RStarTree(max_entries=max_entries)
    for row, (xmin, ymin, xmax, ymax) in enumerate(mbrs.tolist()):
        tree.insert(
            Rect(xmin - amount, ymin - amount, xmax + amount, ymax + amount),
            row,
        )
    return tree


def distance_rows(
    rows_a: ProximityRows,
    rows_b: ProximityRows,
    config: JoinConfig,
    stats: MultiStepStats,
    owns: Optional[RowOwner] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Row pairs with exact distance <= ``config.epsilon``, candidate order."""
    epsilon = config.epsilon
    half = epsilon / 2.0
    # L∞ candidates of the expanded join; counting starts after the
    # Euclidean pre-test, so only the traversal counters are folded in.
    raw = JoinStats()
    found = np.array(
        list(rstar_join(
            _expanded_tree(rows_a.mbrs, half, config.rtree_max_entries),
            _expanded_tree(rows_b.mbrs, half, config.rtree_max_entries),
            None, None, raw,
        )),
        dtype=np.intp,
    ).reshape(-1, 2)
    ra, rb = found[:, 0], found[:, 1]
    if owns is not None:
        kept = owns(ra, rb)
        stats.dedup_dropped += len(ra) - int(kept.sum())
        ra, rb = ra[kept], rb[kept]
    stats.mbr_join.mbr_tests += len(ra) + raw.mbr_tests
    stats.mbr_join.node_pairs += raw.node_pairs
    # Euclidean MBR pre-test: rect_distance(mbr_a, mbr_b) <= ε.
    zero = np.zeros(len(ra))
    gaps = _mbr_gaps(rows_a.mbrs[ra], rows_b.mbrs[rb])
    near = _hypot_gaps(*gaps, zero, zero, epsilon) <= epsilon
    ra, rb = ra[near], rb[near]
    stats.candidate_pairs += len(ra)
    stats.mbr_join.output_pairs += len(ra)
    # Conservative bound: MBCs contain the objects, so their gap
    # lower-bounds the object distance — gap > ε is a false hit.
    stats.conservative_tests += len(ra)
    far = _circle_gaps(rows_a.mbc[ra], rows_b.mbc[rb], epsilon) > epsilon
    stats.filter_false_hits += int(far.sum())
    ra, rb = ra[~far], rb[~far]
    # Progressive bound: MECs lie inside the objects, so their gap
    # upper-bounds the object distance — gap <= ε is a hit.
    stats.progressive_tests += len(ra)
    hit = _circle_gaps(rows_a.mec[ra], rows_b.mec[rb], epsilon) <= epsilon
    stats.filter_hits_progressive += int(hit.sum())
    rest = np.flatnonzero(~hit)
    stats.remaining_candidates += len(rest)
    if len(rest):
        close = _capped_distances(
            dispatcher_for(config.kernels, stats), rows_a.table, rows_b.table,
            ra[rest], rb[rest], np.full(len(rest), epsilon),
        ) <= epsilon
        stats.exact_hits += int(close.sum())
        stats.exact_false_hits += len(rest) - int(close.sum())
        hit[rest] = close
    return ra[hit], rb[hit]


def distance_join_pipeline(
    relation_a: Side,
    relation_b: Side,
    config: JoinConfig,
    stats: MultiStepStats,
    owns: Optional[RowOwner] = None,
) -> Iterator[Tuple[object, object]]:
    """All pairs with exact distance <= ``config.epsilon``, multi-step.

    Pairs come in the expanded MBR-join's candidate order on every
    kernel backend: object pairs for relations, oid pairs for
    :class:`ProximityRows`.  ``owns`` is the parallel executor's
    deduplication hook over candidate rows (ε-expanded grid tasks
    replicate border objects).  It runs *first*: a non-owned candidate
    only increments ``stats.dedup_dropped``, so each global candidate is
    counted by one task and merged flow statistics equal the serial
    pipeline's.  ``None`` (serial, disjoint tree tasks) owns everything.
    """
    rows_a, items_a = _bind(relation_a, "distance")
    rows_b, items_b = _bind(relation_b, "distance")
    ra, rb = distance_rows(rows_a, rows_b, config, stats, owns)
    for i, j in zip(ra.tolist(), rb.tolist()):
        yield items_a[i], items_b[j]


# ---------------------------------------------------------------------------
# predicate='knn'
# ---------------------------------------------------------------------------


def _left_blocks(n_a: int, n_b: int) -> List[slice]:
    """Left-row slices whose dense ``rows x n_b`` blocks stay small."""
    step = max(1, _BLOCK_PAIRS // max(n_b, 1))
    return [slice(start, start + step) for start in range(0, n_a, step)]


def _kth_max_distances(mbrs_a: np.ndarray, mbrs_b: np.ndarray, k: int) -> np.ndarray:
    """``d_k`` per left row: the k-th smallest MBR max-distance to ``mbrs_b``.

    The max-distance of two rectangles (per axis ``max(a.max - b.min,
    b.max - a.min)``) bounds the distance of any polygons inside them
    from above.  ``inf`` when ``k >= |B|``.
    """
    if k >= len(mbrs_b):
        return np.full(len(mbrs_a), np.inf)
    a, b = mbrs_a[:, None, :], mbrs_b[None, :, :]
    dx = np.maximum(a[..., 2] - b[..., 0], b[..., 2] - a[..., 0])
    dy = np.maximum(a[..., 3] - b[..., 1], b[..., 3] - a[..., 1])
    top = np.hypot(np.maximum(dx, 0.0), np.maximum(dy, 0.0))
    return np.partition(top, k - 1, axis=1)[:, k - 1]


def _rank_in_group(groups: np.ndarray) -> np.ndarray:
    """Position of each element within its run of a sorted group column."""
    return np.arange(len(groups)) - np.searchsorted(groups, groups)


def knn_rows(
    rows_a: ProximityRows,
    rows_b: ProximityRows,
    k: int,
    kernels: KernelDispatcher,
    stats: MultiStepStats,
) -> Tuple[np.ndarray, np.ndarray]:
    """Each left row's ``k`` nearest right rows, two exact rounds (module docstring)."""
    n_a, n_b = len(rows_a.oids), len(rows_b.oids)
    if n_a == 0 or n_b == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    # Bound pass: d_k per left row and the (row, row, MINDIST) triples
    # within the loosened d_k — a superset of both rounds' candidates.
    bounds, near = [], []
    for block in _left_blocks(n_a, n_b):
        mind = np.hypot(*_mbr_gaps(rows_a.mbrs[block, None], rows_b.mbrs))
        d_k = _kth_max_distances(rows_a.mbrs[block], rows_b.mbrs, k)
        stats.mbr_join.mbr_tests += int((mind <= d_k[:, None]).sum())
        a, b = np.nonzero(mind <= loosen(d_k)[:, None])
        bounds.append(d_k)
        near.append((a + block.start, b, mind[a, b]))
    d_k = np.concatenate(bounds)
    near_a, near_b, near_d = (np.concatenate(col) for col in zip(*near))
    oids_b = rows_b.oids
    order = np.lexsort((oids_b[near_b], near_d, near_a))
    near_a, near_b, near_d = near_a[order], near_b[order], near_d[order]
    # Round 1: the k smallest by (MINDIST, oid) per left row, capped at
    # d_k.  Every left row has at least min(k, |B|) of them.
    first = _rank_in_group(near_a) < k
    r1_a, r1_b = near_a[first], near_b[first]
    dist_1 = _capped_distances(
        kernels, rows_a.table, rows_b.table, r1_a, r1_b, loosen(d_k[r1_a])
    )
    starts = np.flatnonzero(np.r_[True, r1_a[1:] != r1_a[:-1]])
    cap = loosen(np.minimum(np.maximum.reduceat(dist_1, starts), d_k))
    # Round 2: every other near row whose MINDIST can still beat cap;
    # cap is already a k-th-neighbour bound, so no vertex bound.
    second = ~first & (near_d <= cap[near_a])
    r2_a, r2_b = near_a[second], near_b[second]
    dist_2 = (
        _capped_distances(
            kernels, rows_a.table, rows_b.table, r2_a, r2_b, cap[r2_a],
            tighten=False,
        )
        if len(r2_a) else np.empty(0)
    )
    pair_a = np.concatenate((r1_a, r2_a))
    pair_b = np.concatenate((r1_b, r2_b))
    dist = np.concatenate((dist_1, dist_2))
    order = np.lexsort((oids_b[pair_b], dist, pair_a))
    pair_a, pair_b = pair_a[order], pair_b[order]
    emit = _rank_in_group(pair_a) < k
    computed, emitted = len(pair_a), int(emit.sum())
    stats.candidate_pairs += computed
    stats.mbr_join.output_pairs += computed
    stats.remaining_candidates += computed
    stats.exact_hits += emitted
    stats.exact_false_hits += computed - emitted
    return pair_a[emit], pair_b[emit]


def knn_join_pipeline(
    relation_a: Side,
    relation_b: Side,
    config: JoinConfig,
    stats: MultiStepStats,
) -> Iterator[Tuple[object, object]]:
    """Each left object's ``config.k`` nearest right objects (all if fewer).

    Left objects in relation order, each one's neighbours by ascending
    ``(distance, oid)``; object pairs for relations, oid pairs for
    :class:`ProximityRows`.  Two exact rounds (module docstring).
    """
    rows_a, items_a = _bind(relation_a, "knn")
    rows_b, items_b = _bind(relation_b, "knn")
    ra, rb = knn_rows(
        rows_a, rows_b, config.k, dispatcher_for(config.kernels, stats), stats
    )
    for i, j in zip(ra.tolist(), rb.tolist()):
        yield items_a[i], items_b[j]


def knn_probe_bounds(mbrs_a: np.ndarray, mbrs_b: np.ndarray, k: int) -> np.ndarray:
    """Per-left-row probe radius ``d_k(a)`` for parallel kNN task formation.

    The kNN pipeline's own bound: at least ``k`` right objects are
    within it, so every right object in ``a``'s result has
    ``rect_distance(mbr_a, mbr_b) <= exact <= d_k(a)`` — its MBR meets
    ``a``'s MBR grown by ``d_k(a)``, the rule
    :meth:`Partitioner.plan_proximity` replicates by.  ``inf`` for
    ``k >= |B|`` (every task probes every right row).
    """
    if len(mbrs_a) == 0 or len(mbrs_b) == 0:
        return np.full(len(mbrs_a), np.inf)
    return np.concatenate([
        _kth_max_distances(mbrs_a[block], mbrs_b, k)
        for block in _left_blocks(len(mbrs_a), len(mbrs_b))
    ])


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
