"""The :class:`Engine` abstraction shared by both execution backends.

An engine owns steps 2 and 3 of the multi-step join for one
:class:`~repro.core.join.JoinConfig`: it consumes the candidate stream
of the R*-tree MBR-join and decides, per pair, hit / false hit / exact
test.  Step 1 (tree building, I/O accounting, the synchronised traversal)
is identical for every engine and lives here in :meth:`Engine.execute`.

Step 3 — the exact-geometry test on the remaining candidates — is one
array program per batch: :class:`~repro.exact.refine.BatchedRefinement`
resolves ``config.exact_batch`` remaining candidates at a time with the
edge-table kernels.  The :class:`RefinementPipeline` drives it for one
engine run and preserves the candidate order of the output stream, so
the batch size never reorders results.  The paper's scalar processors
(TR*-tree, plane sweep, quadratic) stay in :mod:`repro.exact` for the
§4 benchmarks and as test oracles.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, ClassVar, Iterator, List, Optional, Tuple

from ..core.join import ENGINES, JoinConfig
from ..core.stats import MultiStepStats
from ..datasets.relations import SpatialObject, SpatialRelation
from ..index.join import rstar_join
from ..index.pagemodel import AccessCounter, LRUBuffer

if TYPE_CHECKING:
    from ..exact.refine import BatchedRefinement

Pair = Tuple[SpatialObject, SpatialObject]


class RefinementPipeline:
    """Order-preserving runner around one refinement step.

    Engines push every non-false-hit pair here instead of testing
    inline: filter-proven hits emit immediately while no candidate is
    awaiting refinement, otherwise they are buffered behind it so the
    output order stays exactly the tuple-at-a-time pipeline's.
    Candidates accumulate until ``step.batch_capacity`` are pending,
    then the whole backlog is resolved in one batch and drained in
    candidate order.  With capacity 1 nothing is ever buffered.
    """

    def __init__(self, step: "BatchedRefinement", stats: MultiStepStats):
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
        refinement: Optional["BatchedRefinement"] = None,
    ) -> Iterator[Pair]:
        """Run the full three-step join, yielding result pairs.

        ``refinement`` overrides the step built by
        :meth:`build_refinement` — the parallel tile executor injects a
        step bound to the edge tables of the rows it already mapped.
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
        return self.process(
            candidates, stats, RefinementPipeline(refinement, stats)
        )

    # -- steps 2 + 3 (strategy) ---------------------------------------------

    @abstractmethod
    def process(
        self,
        candidates: Iterator[Pair],
        stats: MultiStepStats,
        refine: RefinementPipeline,
    ) -> Iterator[Pair]:
        """Classify the candidate stream; yield the qualifying pairs.

        Remaining candidates go to ``refine``, the run's step 3.
        """

    def build_refinement(
        self, relation_a: SpatialRelation, relation_b: SpatialRelation
    ) -> "BatchedRefinement":
        """The exact step over the relations' cached edge tables."""
        # Imported lazily: repro.exact.refine imports this module.
        from ..exact.refine import BatchedRefinement

        return BatchedRefinement.from_relations(
            self.config, relation_a, relation_b
        )


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
