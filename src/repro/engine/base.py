"""The :class:`Engine` abstraction shared by both execution backends.

An engine owns steps 2 and 3 of the multi-step join for one
:class:`~repro.core.join.JoinConfig`: it consumes the candidate stream
of the R*-tree MBR-join and decides, per pair, hit / false hit / exact
test.  Step 1 (I/O accounting, the synchronised traversal) is identical
for every engine and lives here in :meth:`Engine.execute`.

An engine reads two column stores
(:class:`~repro.datasets.columnar.ColumnarRelation`: oids, MBR rows,
approximation columns, edge table and a row sequence of objects) and
two R*-trees over their MBR rows, never a relation: a serial join hands
it each relation's store and memoised tree
(:meth:`~repro.datasets.relations.SpatialRelation.rtree`), a partitioned
join the parents' stores and, per tile, trees over the tile's rows
labelled with parent rows (:func:`repro.core.partition.run_tile`).  Its currency
is the **row index**: the trees store each object's row as its leaf
item, so step 1 emits ``(row_a, row_b)`` pairs, the filter and the
exact step index the stores' columns and edge tables with them, and an
engine yields qualifying row pairs.  No step maps an object back to its
row; the caller attaches objects (or oids) to the result.

Step 3 — the exact-geometry test on the remaining candidates — is one
array program per batch: :class:`~repro.exact.refine.BatchedRefinement`
resolves ``config.exact_batch`` remaining candidates at a time with the
edge-table kernels, consecutive chunks of the remaining rows in
candidate order, so the batch size never reorders results.  The paper's
scalar processors (TR*-tree, plane sweep, quadratic) stay in
:mod:`repro.exact` for the §4 benchmarks and as test oracles.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, ClassVar, Iterable, Iterator, Tuple

import numpy as np

from ..core.filters import FilterOutcome
from ..core.join import ENGINES, JoinConfig
from ..core.stats import MultiStepStats
from ..datasets.columnar import ColumnarRelation
from ..index.join import rstar_join
from ..index.pagemodel import AccessCounter, LRUBuffer
from ..index.rstar import RStarTree

if TYPE_CHECKING:
    from ..exact.refine import BatchedRefinement

#: one candidate or result pair: a row of each relation.
RowPair = Tuple[int, int]

#: outcome codes of a classified block of candidate pairs.
FALSE_HIT, HIT, CANDIDATE = 0, 1, 2

#: the code of each scalar filter outcome.
OUTCOME_CODE = {
    FilterOutcome.FALSE_HIT: FALSE_HIT,
    FilterOutcome.HIT: HIT,
    FilterOutcome.CANDIDATE: CANDIDATE,
}


def refine_in_order(
    blocks: Iterable[Tuple[np.ndarray, np.ndarray]],
    stats: MultiStepStats,
    refinement: "BatchedRefinement",
) -> Iterator[RowPair]:
    """Refine the remaining candidates of classified blocks, in order.

    ``blocks`` yields ``(rows, codes)``: an ``(n, 2)`` array of candidate
    row pairs and their outcome codes, in candidate order.  ``held``
    keeps the non-false-hit rows that cannot be emitted yet (they follow
    a candidate still awaiting refinement), ``ok`` their verdicts and
    ``waiting`` the positions in ``held`` of the candidates not refined
    yet.  Every full chunk of ``refinement.batch_capacity`` waiting
    candidates is refined as soon as it exists and the last, shorter one
    at the end of the stream, so the chunks — and the refinement
    counters — do not depend on how the stream is cut into blocks, and
    rows leave in candidate order.
    """
    capacity = refinement.batch_capacity
    held = np.empty((0, 2), dtype=np.intp)
    ok = np.empty(0, dtype=bool)
    waiting = np.empty(0, dtype=np.intp)
    blocks = iter(blocks)
    while True:
        block = next(blocks, None)
        if block is not None:
            rows, codes = block
            kept = codes != FALSE_HIT
            codes = codes[kept]
            fresh = len(held) + np.flatnonzero(codes == CANDIDATE)
            stats.remaining_candidates += len(fresh)
            held = np.concatenate((held, rows[kept]))
            ok = np.concatenate((ok, codes == HIT))
            waiting = np.concatenate((waiting, fresh))
            chunks = len(waiting) - len(waiting) % capacity
        else:
            chunks = len(waiting)
        for lo in range(0, chunks, capacity):
            chunk = waiting[lo:lo + capacity]
            qualified = refinement.resolve_batch(held[chunk], stats)
            hits = int(np.count_nonzero(qualified))
            stats.exact_hits += hits
            stats.exact_false_hits += len(chunk) - hits
            ok[chunk] = qualified
        waiting = waiting[chunks:]
        ready = int(waiting[0]) if len(waiting) else len(held)
        emit = held[:ready][ok[:ready]]
        yield from zip(emit[:, 0].tolist(), emit[:, 1].tolist())
        if block is None:
            return
        held, ok = held[ready:], ok[ready:]
        waiting -= ready


class Engine(ABC):
    """One execution strategy for steps 2 and 3 of the multi-step join."""

    #: engine name as used by ``JoinConfig.engine`` and the CLI.
    name: ClassVar[str] = "?"

    def __init__(self, config: JoinConfig = None):
        self.config = config if config is not None else JoinConfig()

    # -- step 1 (shared) ----------------------------------------------------

    def execute(
        self,
        store_a: ColumnarRelation,
        store_b: ColumnarRelation,
        tree_a: RStarTree,
        tree_b: RStarTree,
        stats: MultiStepStats,
    ) -> Iterator[RowPair]:
        """Run the full three-step join, yielding result row pairs.

        ``store_a``/``store_b`` are the two relations' column stores,
        ``tree_a``/``tree_b`` R*-trees over their MBR rows (all of them,
        or a tile's) whose leaf items are those rows.
        """
        cfg = self.config
        counter_a = counter_b = None
        if cfg.buffer_pages is not None:
            buffer = LRUBuffer(cfg.buffer_pages)
            counter_a = AccessCounter(buffer=buffer)
            counter_b = AccessCounter(buffer=buffer)
        candidates = rstar_join(
            tree_a, tree_b, counter_a, counter_b, stats.mbr_join
        )
        return self.process(
            store_a, store_b, candidates, stats,
            self.build_refinement(store_a, store_b),
        )

    # -- steps 2 + 3 (strategy) ---------------------------------------------

    @abstractmethod
    def process(
        self,
        store_a: ColumnarRelation,
        store_b: ColumnarRelation,
        candidates: Iterator[RowPair],
        stats: MultiStepStats,
        refinement: "BatchedRefinement",
    ) -> Iterator[RowPair]:
        """Classify the candidate row pairs; yield the qualifying ones.

        Remaining candidates go to ``refinement``, the run's step 3.
        """

    def build_refinement(
        self, store_a: ColumnarRelation, store_b: ColumnarRelation
    ) -> "BatchedRefinement":
        """The exact step over the stores' edge tables."""
        # Imported lazily: repro.exact.refine imports repro.core.join.
        from ..exact.refine import BatchedRefinement

        return BatchedRefinement(
            self.config, store_a.ring_geometry(), store_b.ring_geometry(),
            store_a.objects, store_b.objects,
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
