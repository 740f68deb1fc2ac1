"""Batched (set-at-a-time) execution of the multi-step join.

The :class:`BatchedEngine` drains candidate row pairs from the R*-tree
MBR-join in blocks of ``config.batch_size`` and classifies each block
with :class:`BatchGeometricFilter`, which evaluates the geometric filter
of §3 as array operations over each relation's own approximation
columns, indexed by the block's row indices:

* bulk MBR overlap of the stored approximation MBRs,
* one compiled separating-axis call per filter step for the convex
  conservative/progressive kinds (RMBR, 4-C, 5-C, CH, MER, and the MBR
  itself): ``convex_intersect_rows`` of the kernel tier,
* bulk circle tests for MBC/MEC,
* a bulk false-area screen (§3.3) that bounds the approximation
  intersection area by the MBR intersection area.

Only the pairs a bulk kernel cannot decide *identically* to the scalar
predicate — degenerate (< 3 vertex) convex shapes, circle pairs within
an ulp-scale margin of tangency, ellipses (MBE), and false-area screen
survivors — fall back to the scalar code on ``store.objects[row]``,
so the classification of every candidate pair (and therefore every
counter in :class:`~repro.core.stats.MultiStepStats`) is exactly the
streaming engine's.  The remaining candidates are refined in consecutive
chunks of ``exact_batch`` rows, in candidate order, and the qualifying
rows are emitted in candidate order, so the result sequence and the
refinement counters equal the streaming engine's at every batch size.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..approximations.base import approx_intersect
from ..approximations.batch import BatchApproxArrays, stored_family
from ..approximations.false_area import false_area_test
from ..core.filters import FilterConfig
from ..core.stats import MultiStepStats
from ..datasets.columnar import ColumnarRelation
from ..geometry.fastops import (
    circle_slack_bulk,
    rects_contain_bulk,
    rects_intersection_area_bulk,
)
from ..geometry.kernels import KernelDispatcher, get_kernels
from .base import (
    CANDIDATE,
    FALSE_HIT,
    HIT,
    OUTCOME_CODE,
    Engine,
    RowPair,
    refine_in_order,
)

#: circle pairs whose |(r_a + r_b) - distance| falls below this margin
#: *relative to the operand magnitude* are re-checked with the scalar
#: predicate (numpy vs math hypot can differ in the last ulps; the
#: margin is ~1e7 times that noise at any coordinate scale).
_CIRCLE_MARGIN = 1e-9


class KindColumns:
    """One relation's arrays of one approximation kind, by relation row.

    A kind with a stored form (:func:`stored_family`) is the relation's
    own columns (``ColumnarRelation.approx(kind)``, built at most once
    per relation), and relation row ``r`` is array row ``r``.  A kind
    without one (RMBR, MBE) is appended for this join only, for the
    rows that reach the filter; ``_slots`` maps relation rows to the
    rows they were appended as.  The values are bit-identical either way.
    """

    def __init__(self, kind: str, store: ColumnarRelation):
        self.objects = store.objects
        if stored_family(kind):
            self.arrays = store.approx(kind)
            self._slots: Optional[np.ndarray] = None
        else:
            self.arrays = BatchApproxArrays(kind)
            self._slots = np.full(len(store), -1, dtype=np.intp)

    def rows(self, rows: np.ndarray) -> np.ndarray:
        """Array rows of relation ``rows``, packing unseen ones first."""
        slots = self._slots
        if slots is None:
            return rows
        missing = np.unique(rows[slots[rows] < 0])
        if missing.size:
            slots[missing] = self.arrays.append(
                [self.objects[row] for row in missing.tolist()]
            )
        return slots[rows]


class BatchGeometricFilter:
    """Set-at-a-time geometric filter for the ``intersects`` predicate.

    Classifies aligned row arrays of the two relations of ``columnar``
    (their :class:`~repro.datasets.columnar.ColumnarRelation` stores)
    into hit / false hit / remaining candidate, with the same outcome
    per pair as :func:`repro.core.filters.geometric_filter` on
    ``objects[row_a]``, ``objects[row_b]``.
    """

    def __init__(
        self,
        config: FilterConfig,
        columnar: Sequence[ColumnarRelation],
        kernels: Optional[KernelDispatcher] = None,
    ):
        self.config = config
        self._columnar: Tuple[ColumnarRelation, ColumnarRelation] = tuple(
            columnar
        )
        self._sides: Dict[str, Tuple[KindColumns, KindColumns]] = {}
        self._kernels = (
            kernels
            if kernels is not None
            else KernelDispatcher(get_kernels("numpy"))
        )

    def side(self, kind: str) -> Tuple[KindColumns, KindColumns]:
        """Both relations' columns of ``kind`` (see :class:`KindColumns`)."""
        sides = self._sides.get(kind)
        if sides is None:
            store_a, store_b = self._columnar
            sides = (KindColumns(kind, store_a), KindColumns(kind, store_b))
            self._sides[kind] = sides
        return sides

    def classify(
        self,
        rows_a: Sequence[int],
        rows_b: Sequence[int],
        stats: Optional[MultiStepStats] = None,
    ) -> np.ndarray:
        """Outcome codes (FALSE_HIT / HIT / CANDIDATE) per row pair."""
        cfg = self.config
        rows_a = np.asarray(rows_a, dtype=np.intp)
        rows_b = np.asarray(rows_b, dtype=np.intp)
        self._kernels.bind(stats)
        outcomes = np.full(len(rows_a), CANDIDATE, dtype=np.int8)
        unresolved = np.arange(len(rows_a))
        steps = (
            ("progressive", "conservative")
            if cfg.progressive_first
            else ("conservative", "progressive")
        )
        for step in steps:
            if unresolved.size == 0:
                return outcomes
            if step == "conservative" and cfg.conservative:
                if stats is not None:
                    stats.conservative_tests += len(unresolved)
                hit = self._bulk_intersect(
                    cfg.conservative, rows_a[unresolved], rows_b[unresolved]
                )
                eliminated = unresolved[~hit]
                outcomes[eliminated] = FALSE_HIT
                if stats is not None:
                    stats.filter_false_hits += len(eliminated)
                unresolved = unresolved[hit]
            elif step == "progressive" and cfg.progressive:
                if stats is not None:
                    stats.progressive_tests += len(unresolved)
                hit = self._bulk_intersect(
                    cfg.progressive, rows_a[unresolved], rows_b[unresolved]
                )
                proven = unresolved[hit]
                outcomes[proven] = HIT
                if stats is not None:
                    stats.filter_hits_progressive += len(proven)
                unresolved = unresolved[~hit]
        if cfg.use_false_area_test and cfg.conservative and unresolved.size:
            if stats is not None:
                stats.false_area_tests += len(unresolved)
            proven = self._bulk_false_area(
                cfg.conservative, rows_a[unresolved], rows_b[unresolved]
            )
            outcomes[unresolved[proven]] = HIT
            if stats is not None:
                stats.filter_hits_false_area += int(proven.sum())
        return outcomes

    # -- bulk approximation tests -------------------------------------------

    def _bulk_intersect(
        self, kind: str, rows_a: np.ndarray, rows_b: np.ndarray
    ) -> np.ndarray:
        """Bulk ``approx_intersect`` of the row pairs ``rows_a``, ``rows_b``."""
        side_a, side_b = self.side(kind)
        enc_a, enc_b = side_a.arrays, side_b.arrays
        ra = side_a.rows(rows_a)
        rb = side_b.rows(rows_b)
        # MBR pretest — the scalar predicate's first move, in bulk.
        result = self._kernels.rects_intersect_bulk(
            enc_a.mbrs[ra], enc_b.mbrs[rb]
        )
        live = np.flatnonzero(result)
        if live.size == 0:
            return result
        family = enc_a.family or enc_b.family
        if family == "convex":
            degenerate = enc_a.degenerate[ra[live]] | enc_b.degenerate[rb[live]]
            solid = live[~degenerate]
            if solid.size:
                result[solid] = self._kernels.convex_intersect_rows(
                    enc_a.vx, enc_a.vy, ra[solid], enc_b.vx, enc_b.vy, rb[solid]
                )
            fallback = live[degenerate]
        elif family == "circle":
            circles_a = enc_a.circles[ra[live]]
            circles_b = enc_b.circles[rb[live]]
            slack = circle_slack_bulk(circles_a, circles_b)
            result[live] = slack >= 0.0
            # slack = (r_a + r_b) - distance; its rounding noise scales
            # with those operands, so the re-check margin must too.
            radius_sum = circles_a[:, 2] + circles_b[:, 2]
            scale = np.maximum(1.0, np.maximum(radius_sum, radius_sum - slack))
            fallback = live[np.abs(slack) <= _CIRCLE_MARGIN * scale]
        else:  # ellipse (MBE): no bulk kernel, scalar per pair
            fallback = live
        objects_a, objects_b = side_a.objects, side_b.objects
        for j in fallback.tolist():
            result[j] = approx_intersect(
                objects_a[rows_a[j]].approximation(kind),
                objects_b[rows_b[j]].approximation(kind),
            )
        return result

    def _bulk_false_area(
        self, kind: str, rows_a: np.ndarray, rows_b: np.ndarray
    ) -> np.ndarray:
        """Mask of the row pairs proven hits by the false-area test.

        The scalar test proves an intersection when
        ``area(Appr_a ∩ Appr_b) > fa_a + fa_b`` (both approximations
        polygon-shaped).  The intersection of two convex shapes fits in
        the intersection of their MBRs, so that rectangle's area is an
        upper bound; pairs whose bound cannot clear the stored false-area
        sum — virtually all of them — are decided without clipping.  The
        few survivors run the exact scalar test.
        """
        proven = np.zeros(len(rows_a), dtype=bool)
        side_a, side_b = self.side(kind)
        enc_a, enc_b = side_a.arrays, side_b.arrays
        if (enc_a.family or enc_b.family) != "convex":
            return proven
        ra = side_a.rows(rows_a)
        rb = side_b.rows(rows_b)
        fa_sum = enc_a.false_areas[ra] + enc_b.false_areas[rb]
        bound = rects_intersection_area_bulk(enc_a.mbrs[ra], enc_b.mbrs[rb])
        # Generous margin: the scalar clipping result can exceed the true
        # area only by ulp-scale rounding, orders of magnitude below this.
        maybe = np.flatnonzero(bound * (1.0 + 1e-9) + 1e-12 > fa_sum)
        objects_a, objects_b = side_a.objects, side_b.objects
        for j in maybe.tolist():
            obj_a = objects_a[rows_a[j]]
            obj_b = objects_b[rows_b[j]]
            proven[j] = false_area_test(
                obj_a.polygon,
                obj_a.approximation(kind),
                obj_b.polygon,
                obj_b.approximation(kind),
            )
        return proven


class BatchWithinFilter:
    """Set-at-a-time filter for the ``within`` predicate (``a ⊆ b``).

    The MBR-containment pretest — necessary for inclusion and the
    filter's dominant eliminator — runs in bulk on the two relations'
    object-MBR columns (the floats of the scalar ``obj.mbr``); the sound
    containment tests on approximations run scalar on the survivors'
    objects, matching :func:`repro.core.within.within_filter`
    outcome-for-outcome.
    """

    def __init__(
        self, config: FilterConfig, columnar: Sequence[ColumnarRelation]
    ):
        self.config = config
        self._columnar: Tuple[ColumnarRelation, ColumnarRelation] = tuple(
            columnar
        )

    def classify(
        self,
        rows_a: Sequence[int],
        rows_b: Sequence[int],
        stats: Optional[MultiStepStats] = None,
    ) -> np.ndarray:
        from ..core.within import within_filter

        store_a, store_b = self._columnar
        rows_a = np.asarray(rows_a, dtype=np.intp)
        rows_b = np.asarray(rows_b, dtype=np.intp)
        outcomes = np.full(len(rows_a), FALSE_HIT, dtype=np.int8)
        contained = rects_contain_bulk(store_b.mbrs[rows_b], store_a.mbrs[rows_a])
        if stats is not None:
            stats.filter_false_hits += int(np.count_nonzero(~contained))
        for i in np.flatnonzero(contained).tolist():
            outcome = within_filter(
                store_a.objects[rows_a[i]],
                store_b.objects[rows_b[i]],
                self.config,
                stats,
            )
            outcomes[i] = OUTCOME_CODE[outcome]
        return outcomes


class BatchedEngine(Engine):
    """Vectorized block-at-a-time pipeline over the candidate row pairs.

    The filter reads the two column stores it is handed: a relation's
    cached store packs a stored kind once per (relation, kind), not once
    per join, so sweeping many filter configurations over the same
    relations pays no repack cost, and a tile reads its parents' stores
    at its rows (see :class:`KindColumns`).
    """

    name = "batched"

    def make_filter(
        self, store_a: ColumnarRelation, store_b: ColumnarRelation
    ):
        stores = (store_a, store_b)
        if self.config.predicate == "within":
            return BatchWithinFilter(self.config.filter, stores)
        return BatchGeometricFilter(
            self.config.filter,
            stores,
            kernels=KernelDispatcher(get_kernels(self.config.kernels)),
        )

    def process(
        self,
        store_a: ColumnarRelation,
        store_b: ColumnarRelation,
        candidates: Iterator[RowPair],
        stats: MultiStepStats,
        refinement,
    ) -> Iterator[RowPair]:
        """Filter blocks of ``batch_size`` candidates; refine in order."""
        return refine_in_order(
            self._classified_blocks(store_a, store_b, candidates, stats),
            stats,
            refinement,
        )

    def _classified_blocks(
        self,
        store_a: ColumnarRelation,
        store_b: ColumnarRelation,
        candidates: Iterator[RowPair],
        stats: MultiStepStats,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        batch_filter = self.make_filter(store_a, store_b)
        batch_size = self.config.batch_size
        while True:
            batch = list(islice(candidates, batch_size))
            if not batch:
                return
            stats.candidate_pairs += len(batch)
            rows = np.array(batch, dtype=np.intp)
            yield rows, batch_filter.classify(rows[:, 0], rows[:, 1], stats)
