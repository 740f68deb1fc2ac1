"""The :class:`Engine` abstraction shared by both execution backends.

An engine owns steps 2 and 3 of the multi-step join for one
:class:`~repro.core.join.JoinConfig`: it consumes the candidate stream
of the R*-tree MBR-join and decides, per pair, hit / false hit / exact
test.  Step 1 (tree building, I/O accounting, the synchronised traversal)
is identical for every engine and lives here in :meth:`Engine.execute`.

Step 3 — the exact-geometry test on the remaining candidates — is
factored into its own strategy, the **refinement step**.  A
:class:`RefinementStep` resolves remaining candidates either one pair at
a time with the scalar processors (:class:`PerPairRefinement`: TR*-tree,
plane sweep, quadratic, or the vectorized oracle) or in batches of
``config.exact_batch`` with the columnar kernels of
:mod:`repro.exact.refine`.  The :class:`RefinementPipeline` drives a
step for one engine run and preserves the candidate order of the output
stream, so swapping refinement strategies never reorders results.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar, Iterator, List, Optional, Sequence, Tuple

from ..core.join import ENGINES, JoinConfig
from ..core.stats import MultiStepStats
from ..datasets.relations import SpatialObject, SpatialRelation
from ..exact import (
    polygons_intersect_quadratic,
    polygons_intersect_trstar,
)
from ..geometry.fastops import polygons_intersect_fast
from ..geometry.kernels import KernelDispatcher, get_kernels
from ..index import AccessCounter, LRUBuffer, rstar_join

Pair = Tuple[SpatialObject, SpatialObject]


class RefinementStep(ABC):
    """Step-3 strategy: how remaining candidates are exactly resolved.

    Implementations decide geometry only; the pipeline owns the
    bookkeeping counters (``remaining_candidates``, ``exact_hits``,
    ``exact_false_hits``).  ``batch_capacity`` tells the pipeline how
    many candidates to accumulate before calling :meth:`resolve_batch`.
    """

    #: candidates accumulated per :meth:`resolve_batch` call.
    batch_capacity: int = 1

    @abstractmethod
    def resolve_batch(
        self, pairs: Sequence[Pair], stats: MultiStepStats
    ) -> List[bool]:
        """Exact-test each pair; qualified flags in input order."""

    def release(self) -> None:
        """Drop references to external geometry buffers (optional)."""


class PerPairRefinement(RefinementStep):
    """Scalar per-pair backends: TR*, plane sweep, quadratic, vectorized.

    The paper's §4 processors, unchanged — one candidate pair at a time,
    with the operation counting of the configured method.
    """

    batch_capacity = 1

    def __init__(self, config: JoinConfig):
        self.config = config
        # The plane sweep routes through the configured kernel backend
        # (the loop sweep core when kernels='python'); all backends
        # produce identical results and operation counts.
        self._kernels = KernelDispatcher(get_kernels(config.kernels))

    def resolve_batch(
        self, pairs: Sequence[Pair], stats: MultiStepStats
    ) -> List[bool]:
        return [self.resolve_pair(a, b, stats) for a, b in pairs]

    def resolve_pair(
        self, obj_a: SpatialObject, obj_b: SpatialObject, stats: MultiStepStats
    ) -> bool:
        """Exact test of one pair with the configured processor."""
        cfg = self.config
        if cfg.predicate == "within":
            from ..core.within import within_exact

            return within_exact(obj_a, obj_b)
        if cfg.exact_method == "trstar":
            return polygons_intersect_trstar(
                obj_a.trstar(cfg.trstar_max_entries),
                obj_b.trstar(cfg.trstar_max_entries),
                stats.exact_ops,
            )
        if cfg.exact_method == "planesweep":
            return self._kernels.bind(stats).planesweep(
                obj_a.polygon,
                obj_b.polygon,
                stats.exact_ops,
                restrict_search_space=cfg.restrict_search_space,
            )
        if cfg.exact_method == "quadratic":
            return polygons_intersect_quadratic(
                obj_a.polygon, obj_b.polygon, stats.exact_ops
            )
        return polygons_intersect_fast(obj_a.polygon, obj_b.polygon)


class RefinementPipeline:
    """Order-preserving driver around one :class:`RefinementStep`.

    Engines push every non-false-hit pair here instead of testing
    inline: filter-proven hits emit immediately while no candidate is
    awaiting refinement, otherwise they are buffered behind it so the
    output order stays exactly the per-pair pipeline's.  Candidates
    accumulate until ``step.batch_capacity`` are pending, then the whole
    backlog is resolved in one batch and drained in candidate order.
    With capacity 1 (the scalar backends) nothing is ever buffered and
    the behaviour is the classic tuple-at-a-time step 3.
    """

    def __init__(self, step: RefinementStep, stats: MultiStepStats):
        self.step = step
        self.stats = stats
        #: (pair, qualified) in arrival order; ``None`` = awaiting exact.
        self._pending: List[List] = []
        self._awaiting: List[int] = []

    def push(self, pair: Pair, needs_exact: bool) -> List[Pair]:
        """Feed one filter outcome; return the pairs ready to emit."""
        if not needs_exact:
            if not self._awaiting:
                return [pair]
            self._pending.append([pair, True])
            return []
        self.stats.remaining_candidates += 1
        self._pending.append([pair, None])
        self._awaiting.append(len(self._pending) - 1)
        if len(self._awaiting) >= self.step.batch_capacity:
            return self._resolve_pending()
        return []

    def flush(self) -> List[Pair]:
        """Resolve the remaining backlog at end of stream."""
        return self._resolve_pending()

    def _resolve_pending(self) -> List[Pair]:
        if self._awaiting:
            batch = [self._pending[i][0] for i in self._awaiting]
            qualified = self.step.resolve_batch(batch, self.stats)
            for i, ok in zip(self._awaiting, qualified):
                ok = bool(ok)
                if ok:
                    self.stats.exact_hits += 1
                else:
                    self.stats.exact_false_hits += 1
                self._pending[i][1] = ok
            self._awaiting = []
        out = [pair for pair, ok in self._pending if ok]
        self._pending = []
        return out


class Engine(ABC):
    """One execution strategy for steps 2 and 3 of the multi-step join."""

    #: engine name as used by ``JoinConfig.engine`` and the CLI.
    name: ClassVar[str] = "?"

    def __init__(self, config: JoinConfig = None):
        self.config = config if config is not None else JoinConfig()

    # -- step 1 (shared) ----------------------------------------------------

    def execute(
        self,
        relation_a: SpatialRelation,
        relation_b: SpatialRelation,
        stats: MultiStepStats,
        refinement: Optional[RefinementStep] = None,
    ) -> Iterator[Pair]:
        """Run the full three-step join, yielding result pairs.

        ``refinement`` overrides the step built by
        :meth:`build_refinement` — the parallel tile executor injects a
        step bound to the shared-memory ring columns it already mapped.
        """
        cfg = self.config
        counter_a = counter_b = None
        if cfg.buffer_pages is not None:
            buffer = LRUBuffer(cfg.buffer_pages)
            counter_a = AccessCounter(buffer=buffer)
            counter_b = AccessCounter(buffer=buffer)
        tree_a = relation_a.rtree(cfg.rtree_max_entries)
        tree_b = relation_b.rtree(cfg.rtree_max_entries)
        if refinement is None:
            refinement = self.build_refinement(relation_a, relation_b)
        candidates = rstar_join(
            tree_a, tree_b, counter_a, counter_b, stats.mbr_join
        )
        return self.process(candidates, stats, refinement)

    # -- steps 2 + 3 (strategy) ---------------------------------------------

    @abstractmethod
    def process(
        self,
        candidates: Iterator[Pair],
        stats: MultiStepStats,
        refinement: Optional[RefinementStep] = None,
    ) -> Iterator[Pair]:
        """Classify the candidate stream; yield the qualifying pairs.

        ``refinement`` is the run's step-3 strategy; ``None`` (direct
        ``process`` calls in tests) means per-pair scalar resolution.
        """

    # -- step 3 helpers (shared) --------------------------------------------

    def build_refinement(
        self, relation_a: SpatialRelation, relation_b: SpatialRelation
    ) -> RefinementStep:
        """The refinement step selected by ``config.exact_batch``."""
        if self.config.exact_batch > 1:
            # Imported lazily: repro.exact.refine imports this module.
            from ..exact.refine import BatchedRefinement

            return BatchedRefinement.from_relations(
                self.config, relation_a, relation_b
            )
        return PerPairRefinement(self.config)

    def refinement_pipeline(
        self, stats: MultiStepStats, refinement: Optional[RefinementStep]
    ) -> RefinementPipeline:
        """A fresh pipeline over the given step (per-pair when ``None``)."""
        if refinement is None:
            refinement = PerPairRefinement(self.config)
        return RefinementPipeline(refinement, stats)


def create_engine(config: JoinConfig = None) -> Engine:
    """Instantiate the engine selected by ``config.engine``."""
    from .batched import BatchedEngine
    from .streaming import StreamingEngine

    config = config if config is not None else JoinConfig()
    if config.engine == StreamingEngine.name:
        return StreamingEngine(config)
    if config.engine == BatchedEngine.name:
        return BatchedEngine(config)
    raise ValueError(
        f"unknown engine {config.engine!r}; expected one of {ENGINES}"
    )
