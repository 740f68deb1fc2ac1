"""The multi-step spatial join processor (paper §2.4, Figure 1).

Execution of the three steps:

1. **MBR-join** on R*-trees over the objects' MBRs ([BKS 93a]);
2. **geometric filter** on conservative/progressive approximations;
3. **exact geometry** test, one array program per batch of remaining
   candidates (:mod:`repro.exact.refine`).  The paper's processors
   (quadratic, plane sweep, TR*-tree) stay in :mod:`repro.exact` for
   the §4 benchmarks and as test oracles.

How candidate pairs flow through steps 2 and 3 is the job of an
execution *engine* (:mod:`repro.engine`): the ``streaming`` engine pipes
one pair at a time (the paper's "no additional cost arises for handling
these candidates"), the ``batched`` engine drains candidates in blocks
and runs the filter as numpy array operations.  Both produce identical
results and statistics; :class:`JoinConfig.engine` selects one.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass, field, replace
from typing import Iterator, List, Optional, Tuple

from ..datasets.relations import SpatialObject, SpatialRelation
from ..geometry.fastops import polygons_intersect_fast
from ..geometry.kernels import KERNEL_BACKENDS
from .filters import FilterConfig
from .stats import MultiStepStats

#: exact-step names accepted by :class:`JoinConfig`: only the batched
#: edge-table refinement runs inside a join.
EXACT_METHODS = ("vectorized",)

#: join predicates accepted by :class:`JoinConfig`: the paper's
#: intersection join, the containment variant, and the proximity
#: predicates promoted to first-class joins (``distance`` needs
#: ``epsilon``, ``knn`` needs ``k``; see :mod:`repro.core.proximity`).
PREDICATES = ("intersects", "within", "distance", "knn")

#: execution engine names accepted by :class:`JoinConfig` (see
#: :mod:`repro.engine` for the execution models).
ENGINES = ("streaming", "batched")

#: tile-formation strategies accepted by :class:`JoinConfig` (see
#: :mod:`repro.core.partition` for the partitioner layer): 'grid' cuts
#: the joint data space into uniform tiles, 'rtree' forms tasks from
#: the leaf-overlap pairs of a synchronized R*-tree traversal.
PARTITIONERS = ("grid", "rtree")

#: :class:`JoinConfig` fields that select *how* a join executes but can
#: never change what it returns — pairs, order, or statistics.  The
#: differential suites prove each one result-neutral: worker count
#: (``tests/test_parallel_exec_equivalence.py``,
#: ``tests/test_session_equivalence.py``), the kernel backend
#: (``tests/test_kernel_tier.py``), and the session handle (a
#: resource-lifecycle choice).  :meth:`JoinConfig.canonical_key` strips
#: exactly these, so two configs that differ only here share one result
#: fingerprint — the contract the service result cache and request
#: coalescing (:mod:`repro.service`) are built on.
EXECUTION_ONLY_FIELDS = ("workers", "session", "kernels")


def _default_kernels() -> str:
    """Default kernel backend: the ``REPRO_KERNELS`` env var or 'auto'.

    The env override lets CI (and local runs) force every default
    config in a test run onto one backend — e.g. run the differential
    suites once with ``REPRO_KERNELS=numpy`` and once with
    ``REPRO_KERNELS=c`` — without touching any call site.  Since
    ``kernels`` is execution-only, the override can never change
    results or cache fingerprints.
    """
    return os.environ.get("REPRO_KERNELS", "auto")


def validate_grid(grid) -> Tuple[int, int]:
    """Validate a partition grid at the config/CLI boundary.

    Returns the grid as a plain ``(nx, ny)`` tuple of ints; raises
    ``ValueError`` (never a deep ``plan_tile_indices`` traceback) when
    the shape or the dimensions are wrong.  Every message names the
    minimum — a 1x1 grid — so the fix is obvious.
    """
    try:
        nx, ny = grid
    except (TypeError, ValueError):
        raise ValueError(
            f"grid must be two integer dimensions (nx, ny), at least "
            f"1x1, got {grid!r}"
        ) from None
    for dim in (nx, ny):
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise ValueError(
                f"grid dimensions must be integers (at least a 1x1 "
                f"grid), got {grid!r}"
            )
    if nx < 1 or ny < 1:
        raise ValueError(f"grid must be at least 1x1, got {nx}x{ny}")
    return (int(nx), int(ny))


@dataclass(frozen=True)
class JoinConfig:
    """Configuration of the multi-step join processor."""

    filter: FilterConfig = field(default_factory=FilterConfig)
    #: exact step: 'vectorized', the batched edge-table refinement of
    #: :mod:`repro.exact.refine` (the only value).
    exact_method: str = "vectorized"
    #: R*-tree node capacity for the MBR-join.
    rtree_max_entries: int = 32
    #: LRU buffer pages for I/O accounting (None = unbuffered counting).
    buffer_pages: Optional[int] = None
    #: join predicate: 'intersects' (the paper's focus), 'within'
    #: ("a in b", the paper's forests-in-cities example), 'distance'
    #: (all pairs with exact distance <= ``epsilon``), or 'knn' (each
    #: left object's ``k`` nearest right objects by exact distance).
    predicate: str = "intersects"
    #: distance threshold for the 'distance' predicate (>= 0, finite).
    epsilon: float = 0.0
    #: neighbours per left object for the 'knn' predicate (>= 1).
    k: int = 1
    #: kernel backend for the bulk filter/refine hot paths: 'numpy'
    #: (vectorised oracle), 'c' (the loop kernels compiled from C,
    #: built on first use), 'python' (the loop kernels, interpreted,
    #: for differential testing), or 'auto' (c when the library
    #: loads, else numpy).  Execution-only: results, order, and
    #: statistics are identical across backends (see
    #: :mod:`repro.geometry.kernels`).
    kernels: str = field(default_factory=_default_kernels)
    #: execution engine: 'streaming' (per-pair) or 'batched' (vectorized
    #: filter over candidate blocks); see :mod:`repro.engine`.
    engine: str = "streaming"
    #: candidate pairs drained per block by the batched engine.
    batch_size: int = 1024
    #: remaining candidates accumulated per refinement batch (step 3,
    #: :mod:`repro.exact.refine`).  Results, order, and the Figure-1
    #: statistics are identical at every batch size.
    exact_batch: int = 64
    #: worker processes for the partitioned tile executor
    #: (:mod:`repro.core.parallel_exec`): 1 = serial in-process
    #: execution, N > 1 = tiles run on a process pool.
    workers: int = 1
    #: tile-formation strategy for the partitioned executor: 'grid'
    #: (default) cuts the joint data space into ``grid`` uniform tiles
    #: with reference-tile de-duplication; 'rtree' bulk-loads (or
    #: reuses) R*-trees over both relations' MBR columns, runs the
    #: restricted synchronized traversal to a work budget, and emits
    #: leaf-overlap tasks — disjoint candidate index-sets that need no
    #: de-duplication and follow the data's clustering instead of a
    #: uniform grid (see :mod:`repro.core.partition`).
    partitioner: str = "grid"
    #: task-count budget for the tree partitioner: the synchronized
    #: R*-tree traversal stops descending once a node pair's candidate
    #: volume falls under ``|A|*|B| / target_tasks``, so larger values
    #: produce more, smaller tasks.  Result-affecting for
    #: ``partitioner='rtree'`` (the decomposition shapes the partition
    #: stats), inert for the grid strategy — included in the canonical
    #: key unconditionally, like ``grid``.
    target_tasks: int = 64
    #: partition grid ``(nx, ny)`` for the tile executor; validated
    #: here (integers, both >= 1) instead of deep inside
    #: ``plan_tile_indices``.
    grid: Tuple[int, int] = (4, 4)
    #: optional :class:`repro.core.session.JoinSession` that the
    #: partitioned executor should run inside (persistent worker pool +
    #: shared-segment cache).  Never shipped to workers — tasks carry a
    #: copy of the config with the session stripped.
    session: Optional[object] = None

    def __post_init__(self):
        if self.exact_method not in EXACT_METHODS:
            raise ValueError(
                f"unknown exact method {self.exact_method!r}; "
                f"expected one of {EXACT_METHODS}"
            )
        if self.predicate not in PREDICATES:
            raise ValueError(
                f"unknown predicate {self.predicate!r}; "
                f"expected one of {PREDICATES}"
            )
        if self.kernels not in KERNEL_BACKENDS:
            raise ValueError(
                f"unknown kernel backend {self.kernels!r}; "
                f"expected one of {KERNEL_BACKENDS}"
            )
        if self.kernels == "c":
            # Fail at the configuration boundary (clean CLI/service
            # errors) rather than deep inside the first join; 'auto'
            # stays lazy because it can always fall back to numpy.
            from ..geometry.kernels import resolve_backend

            resolve_backend("c")
        # Proximity parameters are validated unconditionally (they sit
        # in the canonical key), with the same boundary errors the
        # standalone distance/knn pipelines raise.
        from ..index.knn import validate_k
        from .distance import validate_epsilon

        object.__setattr__(self, "epsilon", validate_epsilon(self.epsilon))
        validate_k(self.k)
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; "
                f"expected one of {ENGINES}"
            )
        if self.partitioner not in PARTITIONERS:
            raise ValueError(
                f"unknown partitioner {self.partitioner!r}; "
                f"expected one of {PARTITIONERS}"
            )
        if not isinstance(self.target_tasks, int) or isinstance(
            self.target_tasks, bool
        ):
            raise ValueError(
                f"target_tasks must be an integer >= 1, got "
                f"{self.target_tasks!r}"
            )
        if self.target_tasks < 1:
            raise ValueError(
                f"target_tasks must be >= 1, got {self.target_tasks}"
            )
        # Coerce list/sequence grids (e.g. from the CLI) to a tuple so
        # the config stays hashable and comparable.
        object.__setattr__(self, "grid", validate_grid(self.grid))
        if self.session is not None:
            from .session import JoinSession  # lazy: session imports us

            if not isinstance(self.session, JoinSession):
                raise ValueError(
                    f"session must be a JoinSession or None, "
                    f"got {self.session!r}"
                )
        for name in ("batch_size", "exact_batch"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(
                    f"{name} must be an integer >= 1, got {value!r}"
                )
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if not isinstance(self.workers, int) or isinstance(self.workers, bool):
            raise ValueError(
                f"workers must be an integer, got {self.workers!r}; "
                "valid choices: 1 (serial in-process join) or N > 1 "
                "(multi-process tile executor)"
            )
        if self.workers < 1:
            raise ValueError(
                f"workers must be >= 1, got {self.workers}; "
                "valid choices: 1 (serial in-process join) or N > 1 "
                "(multi-process tile executor)"
            )
        if self.workers > 1:
            # Tile tasks ship the whole config to worker processes, so a
            # parallel config must pickle.  Failing here gives a clear
            # one-frame error instead of a mid-join traceback from
            # inside the process pool.  The session stays behind in the
            # parent (the executor strips it before building tasks), so
            # it is stripped from the probe too.
            try:
                probe = (
                    self
                    if self.session is None
                    else replace(self, session=None)
                )
                pickle.dumps(probe)
            except Exception as exc:
                raise ValueError(
                    f"JoinConfig with workers={self.workers} must be "
                    "picklable so tiles can be shipped to worker "
                    f"processes, but pickling failed: {exc}"
                ) from exc

    def approximation_kinds(self) -> Tuple[str, ...]:
        """The approximation kinds a join under this config reads.

        What the parallel executor ships to its workers as stored
        columns: the filter's conservative and progressive kinds for
        ``intersects`` / ``within``, MBC and MEC for the ``distance``
        bound cascade, none for ``knn`` (its bounds are MBR distances).
        """
        if self.predicate == "distance":
            return ("MBC", "MEC")
        if self.predicate == "knn":
            return ()
        kinds = (self.filter.conservative, self.filter.progressive)
        return tuple(dict.fromkeys(kind for kind in kinds if kind))

    # -- canonical identity --------------------------------------------------

    def canonical_key(self) -> Tuple:
        """Hashable key of every result-affecting setting.

        Two configs with equal canonical keys produce byte-identical
        partitioned-join responses — same pairs, same order, same merged
        :class:`~repro.core.stats.MultiStepStats` — regardless of how
        they differ in the :data:`EXECUTION_ONLY_FIELDS` (worker count,
        kernel backend, session handle).  Everything else is
        included conservatively: the filter configuration, the exact
        method, engine and batch sizes (proven result-identical, but
        kept in the key so the cache never has to rely on that proof),
        the partitioner and the grid (both shape the partitioned stats).
        """
        f = self.filter
        return (
            self.predicate,
            self.epsilon,
            self.k,
            f.conservative,
            f.progressive,
            f.use_false_area_test,
            f.progressive_first,
            self.exact_method,
            self.rtree_max_entries,
            self.buffer_pages,
            self.engine,
            self.batch_size,
            self.exact_batch,
            self.partitioner,
            self.target_tasks,
            self.grid,
        )

    def fingerprint(self) -> str:
        """Stable digest of :meth:`canonical_key` (cache/coalescing key).

        Combined with the two relations'
        :attr:`~repro.datasets.columnar.ColumnarRelation.fingerprint`
        content digests, this identifies a join request completely: the
        service result cache and request coalescing key on the triple.
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(repr(self.canonical_key()).encode("utf-8"))
        return digest.hexdigest()


@dataclass
class JoinResult:
    """Result pairs (by object) plus full pipeline statistics."""

    pairs: List[Tuple[SpatialObject, SpatialObject]]
    stats: MultiStepStats

    def id_pairs(self) -> List[Tuple[int, int]]:
        return [(a.oid, b.oid) for a, b in self.pairs]

    def __len__(self) -> int:
        return len(self.pairs)


class SpatialJoinProcessor:
    """Executes intersection joins with the paper's three-step pipeline."""

    def __init__(self, config: Optional[JoinConfig] = None):
        self.config = config or JoinConfig()

    # -- public API ---------------------------------------------------------

    def join(
        self,
        relation_a: SpatialRelation,
        relation_b: SpatialRelation,
        refinement=None,
    ) -> JoinResult:
        """Intersection join of two relations.

        ``refinement`` optionally injects a pre-built
        :class:`~repro.exact.refine.BatchedRefinement` — the parallel
        tile executor uses this to refine directly on the edge tables of
        the rows shipped to the worker instead of repacking per tile.
        """
        stats = MultiStepStats()
        pairs = list(self._pipeline(relation_a, relation_b, stats, refinement))
        return JoinResult(pairs=pairs, stats=stats)

    def join_iter(
        self, relation_a: SpatialRelation, relation_b: SpatialRelation
    ) -> Iterator[Tuple[SpatialObject, SpatialObject]]:
        """Streaming variant of :meth:`join` (stats are discarded)."""
        yield from self._pipeline(relation_a, relation_b, MultiStepStats())

    # -- pipeline -------------------------------------------------------------

    def _pipeline(
        self,
        relation_a: SpatialRelation,
        relation_b: SpatialRelation,
        stats: MultiStepStats,
        refinement=None,
    ) -> Iterator[Tuple[SpatialObject, SpatialObject]]:
        if self.config.predicate in ("distance", "knn"):
            # Proximity predicates run their own pipelines on the
            # batched kernel tier (no intersection filter step).
            from .proximity import distance_join_pipeline, knn_join_pipeline

            pipeline = (
                distance_join_pipeline
                if self.config.predicate == "distance"
                else knn_join_pipeline
            )
            yield from pipeline(relation_a, relation_b, self.config, stats)
            return
        # Imported lazily: repro.engine pulls in the concrete engines,
        # which themselves import from repro.core.
        from ..engine.base import create_engine

        engine = create_engine(self.config)
        yield from engine.execute(
            relation_a, relation_b, stats, refinement=refinement
        )


def nested_loops_join(
    relation_a: SpatialRelation, relation_b: SpatialRelation
) -> List[Tuple[int, int]]:
    """The paper's §2.3 baseline: exact nested-loops intersection join.

    Used as the correctness oracle for every pipeline configuration.
    """
    out: List[Tuple[int, int]] = []
    for obj_a in relation_a:
        for obj_b in relation_b:
            if not obj_a.mbr.intersects(obj_b.mbr):
                continue
            if polygons_intersect_fast(obj_a.polygon, obj_b.polygon):
                out.append((obj_a.oid, obj_b.oid))
    return out
