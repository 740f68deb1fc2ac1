"""Batched (set-at-a-time) execution of the multi-step join.

The :class:`BatchedEngine` drains candidate pairs from the R*-tree
MBR-join in blocks of ``config.batch_size`` and classifies each block
with :class:`BatchGeometricFilter`, which evaluates the geometric filter
of §3 as numpy array operations:

* bulk MBR overlap of the stored approximation MBRs,
* bulk separating-axis tests for the convex conservative/progressive
  kinds (RMBR, 4-C, 5-C, CH, MER, and the MBR itself),
* bulk circle tests for MBC/MEC,
* a bulk false-area screen (§3.3) that bounds the approximation
  intersection area by the MBR intersection area.

Only the pairs a bulk kernel cannot decide *identically* to the scalar
predicate — degenerate (< 3 vertex) convex shapes, circle pairs within
an ulp-scale margin of tangency, ellipses (MBE), and false-area screen
survivors — fall back to the scalar code, so the classification of every
candidate pair (and therefore every counter in
:class:`~repro.core.stats.MultiStepStats`) is exactly the streaming
engine's.  Remaining candidates are handed to the refinement pipeline
(:class:`~repro.engine.base.RefinementPipeline`): per-pair scalar
processors at ``exact_batch=1``, batched columnar kernels above — either
way the result order of the streaming pipeline is preserved.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..approximations import approx_intersect, false_area_test
from ..approximations.batch import BatchApproxArrays, stored_family
from ..core.filters import FilterConfig, FilterOutcome
from ..core.stats import MultiStepStats
from ..datasets.columnar import ColumnarRelation
from ..datasets.relations import SpatialObject, SpatialRelation
from ..geometry.fastops import (
    circle_slack_bulk,
    convex_intersect_bulk,
    rects_contain_bulk,
    rects_intersection_area_bulk,
)
from ..geometry.kernels import KernelDispatcher, get_kernels
from .base import Engine, Pair

#: outcome codes used by the batch classifiers.
FALSE_HIT, HIT, CANDIDATE = 0, 1, 2

_OUTCOME_ENUM = {
    FALSE_HIT: FilterOutcome.FALSE_HIT,
    HIT: FilterOutcome.HIT,
    CANDIDATE: FilterOutcome.CANDIDATE,
}
_OUTCOME_CODE = {v: k for k, v in _OUTCOME_ENUM.items()}

#: circle pairs whose |(r_a + r_b) - distance| falls below this margin
#: *relative to the operand magnitude* are re-checked with the scalar
#: predicate (numpy vs math hypot can differ in the last ulps; the
#: margin is ~1e7 times that noise at any coordinate scale).
_CIRCLE_MARGIN = 1e-9


class BatchGeometricFilter:
    """Set-at-a-time geometric filter for the ``intersects`` predicate.

    Classifies aligned object lists into hit / false hit / remaining
    candidate with the same outcome per pair as
    :func:`repro.core.filters.geometric_filter`.

    ``columnar`` holds the relations' column stores
    (:class:`~repro.datasets.columnar.ColumnarRelation`).  Which arrays
    a kind is read from is decided per kind, in :meth:`encoder` alone.
    """

    def __init__(
        self,
        config: FilterConfig,
        columnar: Sequence[ColumnarRelation] = (),
        kernels: Optional[KernelDispatcher] = None,
    ):
        self.config = config
        self._columnar: Tuple[ColumnarRelation, ...] = tuple(columnar or ())
        self._encoders: Dict[str, BatchApproxArrays] = {}
        self._kernels = (
            kernels
            if kernels is not None
            else KernelDispatcher(get_kernels("numpy"))
        )

    def encoder(self, kind: str) -> BatchApproxArrays:
        """The arrays of ``kind``: stored columns, or packed per join.

        A kind with a stored form (:func:`stored_family`) is read from
        the relations' columns — built at most once per relation, at
        ``store.approx(kind)``, the get-or-build point.  A kind without
        one (RMBR, MBE) is packed incrementally for this join, so it is
        derived only for the objects that reach the filter.  The values
        are bit-identical either way.
        """
        enc = self._encoders.get(kind)
        if enc is None:
            if self._columnar and stored_family(kind):
                enc = BatchApproxArrays.from_columnar(
                    kind, [store.approx(kind) for store in self._columnar]
                )
            else:
                enc = BatchApproxArrays(kind)
            self._encoders[kind] = enc
        return enc

    def classify(
        self,
        objs_a: Sequence[SpatialObject],
        objs_b: Sequence[SpatialObject],
        stats: Optional[MultiStepStats] = None,
    ) -> np.ndarray:
        """Outcome codes (FALSE_HIT / HIT / CANDIDATE) per pair."""
        cfg = self.config
        n = len(objs_a)
        self._kernels.bind(stats)
        outcomes = np.full(n, CANDIDATE, dtype=np.int8)
        unresolved = np.arange(n)
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
                    cfg.conservative, objs_a, objs_b, unresolved
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
                    cfg.progressive, objs_a, objs_b, unresolved
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
                cfg.conservative, objs_a, objs_b, unresolved
            )
            outcomes[proven] = HIT
            if stats is not None:
                stats.filter_hits_false_area += len(proven)
        return outcomes

    def classify_pair(
        self,
        obj_a: SpatialObject,
        obj_b: SpatialObject,
        stats: Optional[MultiStepStats] = None,
    ) -> FilterOutcome:
        """Single-pair convenience wrapper returning a FilterOutcome."""
        code = int(self.classify([obj_a], [obj_b], stats)[0])
        return _OUTCOME_ENUM[code]

    # -- bulk approximation tests -------------------------------------------

    def _bulk_intersect(
        self,
        kind: str,
        objs_a: Sequence[SpatialObject],
        objs_b: Sequence[SpatialObject],
        idx: np.ndarray,
    ) -> np.ndarray:
        """Bulk ``approx_intersect`` of the pairs selected by ``idx``."""
        enc = self.encoder(kind)
        sub_a = [objs_a[i] for i in idx]
        sub_b = [objs_b[i] for i in idx]
        ra = enc.rows(sub_a)
        rb = enc.rows(sub_b)
        # MBR pretest — the scalar predicate's first move, in bulk.
        result = self._kernels.rects_intersect_bulk(enc.mbrs[ra], enc.mbrs[rb])
        live = np.nonzero(result)[0]
        if live.size == 0:
            return result
        if enc.family == "convex":
            degenerate = enc.degenerate[ra[live]] | enc.degenerate[rb[live]]
            solid = live[~degenerate]
            if solid.size:
                result[solid] = convex_intersect_bulk(
                    enc.vx[ra[solid]],
                    enc.vy[ra[solid]],
                    enc.vx[rb[solid]],
                    enc.vy[rb[solid]],
                )
            fallback = live[degenerate]
        elif enc.family == "circle":
            slack = circle_slack_bulk(enc.circles[ra[live]], enc.circles[rb[live]])
            result[live] = slack >= 0.0
            # slack = (r_a + r_b) - distance; its rounding noise scales
            # with those operands, so the re-check margin must too.
            radius_sum = enc.circles[ra[live], 2] + enc.circles[rb[live], 2]
            scale = np.maximum(1.0, np.maximum(radius_sum, radius_sum - slack))
            fallback = live[np.abs(slack) <= _CIRCLE_MARGIN * scale]
        else:  # ellipse (MBE): no bulk kernel, scalar per pair
            fallback = live
        for j in fallback:
            result[j] = approx_intersect(
                sub_a[j].approximation(kind), sub_b[j].approximation(kind)
            )
        return result

    def _bulk_false_area(
        self,
        kind: str,
        objs_a: Sequence[SpatialObject],
        objs_b: Sequence[SpatialObject],
        idx: np.ndarray,
    ) -> List[int]:
        """Pair indices (into the batch) proven hits by the false-area test.

        The scalar test proves an intersection when
        ``area(Appr_a ∩ Appr_b) > fa_a + fa_b`` (both approximations
        polygon-shaped).  The intersection of two convex shapes fits in
        the intersection of their MBRs, so that rectangle's area is an
        upper bound; pairs whose bound cannot clear the stored false-area
        sum — virtually all of them — are decided without clipping.  The
        few survivors run the exact scalar test.
        """
        enc = self.encoder(kind)
        if enc.family != "convex":
            return []
        sub_a = [objs_a[i] for i in idx]
        sub_b = [objs_b[i] for i in idx]
        ra = enc.rows(sub_a)
        rb = enc.rows(sub_b)
        fa_sum = enc.false_areas[ra] + enc.false_areas[rb]
        bound = rects_intersection_area_bulk(enc.mbrs[ra], enc.mbrs[rb])
        # Generous margin: the scalar clipping result can exceed the true
        # area only by ulp-scale rounding, orders of magnitude below this.
        maybe = np.nonzero(bound * (1.0 + 1e-9) + 1e-12 > fa_sum)[0]
        proven: List[int] = []
        for j in maybe:
            if false_area_test(
                sub_a[j].polygon,
                sub_a[j].approximation(kind),
                sub_b[j].polygon,
                sub_b[j].approximation(kind),
            ):
                proven.append(int(idx[j]))
        return proven


class BatchWithinFilter:
    """Set-at-a-time filter for the ``within`` predicate (``a ⊆ b``).

    The MBR-containment pretest — necessary for inclusion and the
    filter's dominant eliminator — runs in bulk; the sound containment
    tests on approximations run scalar on the survivors, matching
    :func:`repro.core.within.within_filter` outcome-for-outcome.

    With ``columnar`` stores supplied, the MBR rows are gathered from
    the relations' pre-built object-MBR columns (same floats as the
    scalar ``obj.mbr`` accessor) instead of rebuilt per batch.
    """

    def __init__(
        self,
        config: FilterConfig,
        columnar: Sequence[ColumnarRelation] = (),
    ):
        self.config = config
        self._columnar: Tuple[ColumnarRelation, ...] = tuple(columnar or ())
        self._row_of: Optional[Dict[int, int]] = None
        self._mbr_columns: Optional[np.ndarray] = None

    def _prime(self) -> None:
        """Concatenate the stores' object-MBR columns (once per filter)."""
        if self._row_of is not None:
            return
        row_of: Dict[int, int] = {}
        base = 0
        for store in self._columnar:
            for i, obj in enumerate(store.objects):
                row_of[id(obj)] = base + i
            base += len(store)
        self._row_of = row_of
        self._mbr_columns = (
            np.concatenate([store.mbrs for store in self._columnar])
            if self._columnar
            else np.empty((0, 4))
        )

    def _mbr_rows(self, objs: Sequence[SpatialObject]) -> np.ndarray:
        if self._columnar:
            self._prime()
            rows = [self._row_of.get(id(obj)) for obj in objs]
            if all(row is not None for row in rows):
                return self._mbr_columns[np.array(rows, dtype=np.intp)]
        rows = np.empty((len(objs), 4))
        for i, obj in enumerate(objs):
            m = obj.mbr  # cached on the polygon
            rows[i] = (m.xmin, m.ymin, m.xmax, m.ymax)
        return rows

    def classify(
        self,
        objs_a: Sequence[SpatialObject],
        objs_b: Sequence[SpatialObject],
        stats: Optional[MultiStepStats] = None,
    ) -> np.ndarray:
        from ..core.within import within_filter

        n = len(objs_a)
        outcomes = np.full(n, FALSE_HIT, dtype=np.int8)
        contained = rects_contain_bulk(
            self._mbr_rows(objs_b), self._mbr_rows(objs_a)
        )
        if stats is not None:
            stats.filter_false_hits += int(np.count_nonzero(~contained))
        for i in np.nonzero(contained)[0]:
            outcome = within_filter(objs_a[i], objs_b[i], self.config, stats)
            outcomes[i] = _OUTCOME_CODE[outcome]
        return outcomes


class BatchedEngine(Engine):
    """Vectorized block-at-a-time pipeline over the candidate stream.

    The filter reads the two relations' cached column stores: a stored
    kind is packed once per (relation, kind), not once per join, so
    sweeping many filter configurations over the same relations pays no
    repack cost (see :meth:`BatchGeometricFilter.encoder`).
    """

    name = "batched"

    def __init__(self, config=None):
        super().__init__(config)
        self._columnar_stores: Tuple[ColumnarRelation, ...] = ()

    def execute(
        self,
        relation_a: SpatialRelation,
        relation_b: SpatialRelation,
        stats: MultiStepStats,
        refinement=None,
    ) -> Iterator[Pair]:
        self._columnar_stores = (relation_a.columnar(), relation_b.columnar())
        return super().execute(
            relation_a, relation_b, stats, refinement=refinement
        )

    def make_filter(self):
        if self.config.predicate == "within":
            return BatchWithinFilter(self.config.filter, self._columnar_stores)
        return BatchGeometricFilter(
            self.config.filter,
            self._columnar_stores,
            kernels=KernelDispatcher(get_kernels(self.config.kernels)),
        )

    def process(
        self, candidates: Iterator[Pair], stats: MultiStepStats, refinement=None
    ) -> Iterator[Pair]:
        batch_filter = self.make_filter()
        batch_size = self.config.batch_size
        refine = self.refinement_pipeline(stats, refinement)
        while True:
            batch = list(islice(candidates, batch_size))
            if not batch:
                yield from refine.flush()
                return
            stats.candidate_pairs += len(batch)
            objs_a = [pair[0] for pair in batch]
            objs_b = [pair[1] for pair in batch]
            outcomes = batch_filter.classify(objs_a, objs_b, stats)
            # Pushed in candidate order; the refinement pipeline emits
            # in that same order, so the result sequence is identical to
            # the streaming engine's for every exact_batch.
            for i, pair in enumerate(batch):
                code = outcomes[i]
                if code == FALSE_HIT:
                    continue
                yield from refine.push(pair, code == CANDIDATE)
