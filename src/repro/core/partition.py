"""Partitioned spatial joins — the paper's §6 parallelism outlook.

The paper closes by naming CPU- and I/O-parallelism as future work.  This
module implements the standard spatial declustering that later became
PBSM-style partitioned joins: the data space is cut into a grid of
tiles, objects are replicated into every tile their MBR intersects, each
tile is joined independently (each tile's work could run on its own
processor/disk), and duplicates are avoided with the reference-point
rule — a candidate pair is reported only by the tile containing the
lower-left corner of the two MBRs' intersection rectangle.

Execution here is sequential; the per-tile work statistics quantify the
achievable parallel speedup (total work / slowest tile).  The grid
decomposition is a vectorized index computation over the relations'
columnar MBR columns (:func:`assign_tile_indices` /
:func:`plan_tile_indices` — masks built from exactly the comparisons of
:meth:`Rect.intersects`, so membership cannot diverge from the scalar
reference-tile rule).  Every tile relation, serial or in a worker, is
cut by :func:`tile_relation`, which gathers the parent's stored
approximation rows, so no tile derives a stored kind.  The helpers
(:func:`joint_space`, :func:`tile_rects`, :func:`owning_tile`,
:func:`tile_relation`) are shared with the real multi-process executor
in :mod:`repro.core.parallel_exec`, which runs the same tiles on a
:class:`concurrent.futures.ProcessPoolExecutor`.

**Tile formation is a pluggable strategy** (``JoinConfig(partitioner=...)``,
CLI ``join --partitioner``).  :class:`GridPartitioner` produces the
uniform grid decomposition described above.  :class:`TreePartitioner`
instead bulk-loads (or reuses, via
:meth:`repro.datasets.columnar.ColumnarRelation.partition_tree`)
R*-trees over both relations' MBR columns and runs the restricted
synchronized traversal of [BKS 93a] down to a work budget, emitting
**leaf-overlap tasks** — pairs of candidate row-index sets.  Because an
R*-tree stores every object in exactly one leaf, the emitted tasks
partition the candidate-pair space *disjointly*: no object replication,
no reference-tile de-duplication, and task extents follow the data's
clustering instead of a uniform grid (hot clusters split into many
small tasks, empty space produces none).  Tasks are listed along a
Hilbert or Z-order space-filling curve (:mod:`repro.index.hilbert` /
:mod:`repro.index.zorder`) over the task regions; the executor
dispatches largest-first and keeps that order among equal-cost tasks.
Either strategy yields a :class:`PartitionPlan` in the same index-array
shape, so both run behind the executor's one ``ColumnarTileTask`` wire
format with byte-identical results to the serial join.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..approximations.batch import ApproxColumns, stored_family
from ..datasets.relations import SpatialObject, SpatialRelation
from ..geometry.rectangle import Rect
from .join import PARTITIONERS, JoinConfig, JoinResult, SpatialJoinProcessor
from .stats import MultiStepStats


@dataclass
class PartitionStats:
    """Work performed by one tile's local join."""

    tile: Tuple[int, int]
    objects_a: int = 0
    objects_b: int = 0
    candidate_pairs: int = 0
    output_pairs: int = 0

    @property
    def work(self) -> int:
        """Work proxy: candidate pairs examined by this tile."""
        return self.candidate_pairs


@dataclass
class PartitionedJoinResult:
    """Join result plus per-tile work breakdown."""

    pairs: List[Tuple[SpatialObject, SpatialObject]]
    partitions: List[PartitionStats]
    stats: MultiStepStats

    def __len__(self) -> int:
        return len(self.pairs)

    def id_pairs(self) -> List[Tuple[int, int]]:
        return [(a.oid, b.oid) for a, b in self.pairs]

    @property
    def total_work(self) -> int:
        return sum(p.work for p in self.partitions)

    @property
    def max_tile_work(self) -> int:
        return max((p.work for p in self.partitions), default=0)

    def parallel_speedup_bound(self) -> float:
        """Ideal speedup with one processor per tile (work balance)."""
        if self.max_tile_work == 0:
            return 1.0
        return self.total_work / self.max_tile_work


def partitioned_join(
    relation_a: SpatialRelation,
    relation_b: SpatialRelation,
    grid: Tuple[int, int] = (2, 2),
    config: Optional[JoinConfig] = None,
) -> PartitionedJoinResult:
    """Grid-partitioned multi-step join (results equal the plain join).

    ``intersects`` and ``within`` only: MBR-overlap tiles would drop
    proximity pairs whose MBRs do not meet, so ``distance`` and ``knn``
    raise ``ValueError`` (the executor's ε-aware plans cover them).
    """
    config = config or JoinConfig()
    if config.predicate in ("distance", "knn"):
        raise ValueError(
            f"partitioned_join cannot run predicate={config.predicate!r}; "
            "use parallel_partitioned_join, whose ε-aware plans keep "
            "pairs whose MBRs do not intersect"
        )
    nx, ny = grid
    space, plan = plan_tile_indices(relation_a, relation_b, grid)
    # The parent's stored columns: built here at most once per relation.
    kinds = [k for k in config.approximation_kinds() if stored_family(k)]
    stored_a = [relation_a.columnar().approx(k).columns() for k in kinds]
    stored_b = [relation_b.columnar().approx(k).columns() for k in kinds]
    objs_a, objs_b = relation_a.objects, relation_b.objects

    processor = SpatialJoinProcessor(config)
    all_pairs: List[Tuple[SpatialObject, SpatialObject]] = []
    partitions: List[PartitionStats] = []
    merged = MultiStepStats()
    for key, idx_a, idx_b in plan:
        pstats = PartitionStats(
            tile=key, objects_a=len(idx_a), objects_b=len(idx_b)
        )
        partitions.append(pstats)
        if idx_a.size == 0 or idx_b.size == 0:
            continue
        sub_a = tile_relation(
            relation_a.name, [objs_a[i] for i in idx_a], stored_a, idx_a
        )
        sub_b = tile_relation(
            relation_b.name, [objs_b[i] for i in idx_b], stored_b, idx_b
        )
        result = processor.join(sub_a, sub_b)
        pstats.candidate_pairs = result.stats.candidate_pairs
        merged.merge(result.stats)
        for obj_a, obj_b in result.pairs:
            if owning_tile(obj_a.mbr, obj_b.mbr, space, nx, ny) == key:
                pstats.output_pairs += 1
                all_pairs.append((obj_a, obj_b))
    return PartitionedJoinResult(
        pairs=all_pairs, partitions=partitions, stats=merged
    )


def plan_tile_indices(
    relation_a: SpatialRelation,
    relation_b: SpatialRelation,
    grid: Tuple[int, int],
) -> Tuple[
    Rect,
    List[Tuple[Tuple[int, int], np.ndarray, np.ndarray]],
]:
    """The shared tile plan as index arrays into the relations' columns.

    ``(space, [(tile, idx_a, idx_b), ...])`` where the index arrays
    select each tile's objects out of ``relation.objects`` (and out of
    every column of ``relation.columnar()``).  Single source of truth
    for the grid decomposition consumed by the serial
    :func:`partitioned_join` and the multi-process
    executor (:mod:`repro.core.parallel_exec`) — one definition of tile
    order, replication, and which tiles exist, so the serial-vs-parallel
    byte-identity guarantee cannot drift.
    """
    nx, ny = grid
    if nx < 1 or ny < 1:
        raise ValueError(f"grid must be at least 1x1, got {grid}")
    space = joint_space(relation_a, relation_b)
    tiles = tile_rects(space, nx, ny)
    indices_a = assign_tile_indices(relation_a.columnar().mbrs, tiles)
    indices_b = assign_tile_indices(relation_b.columnar().mbrs, tiles)
    return space, [
        (key, indices_a[key], indices_b[key]) for key in tiles
    ]


def joint_space(
    relation_a: SpatialRelation, relation_b: SpatialRelation
) -> Rect:
    """Bounding rectangle of both relations (the partitioned data space).

    Computed as column-wise min/max over the relations' MBR columns —
    the same floats ``Rect.union_all`` over the per-object MBRs yields.
    """
    columns = [
        rel.columnar().mbrs for rel in (relation_a, relation_b) if len(rel)
    ]
    if not columns:
        return Rect(0, 0, 1, 1)
    mbrs = np.concatenate(columns)
    return Rect(
        float(mbrs[:, 0].min()),
        float(mbrs[:, 1].min()),
        float(mbrs[:, 2].max()),
        float(mbrs[:, 3].max()),
    )


def tile_rects(space: Rect, nx: int, ny: int) -> Dict[Tuple[int, int], Rect]:
    """The ``nx`` × ``ny`` grid tiles covering ``space``, keyed ``(i, j)``."""
    tiles = {}
    for i in range(nx):
        for j in range(ny):
            tiles[(i, j)] = Rect(
                space.xmin + space.width * i / nx,
                space.ymin + space.height * j / ny,
                space.xmin + space.width * (i + 1) / nx,
                space.ymin + space.height * (j + 1) / ny,
            )
    return tiles


def assign_tile_indices(
    mbrs: np.ndarray,
    tiles: Dict[Tuple[int, int], Rect],
    expand: float = 0.0,
) -> Dict[Tuple[int, int], np.ndarray]:
    """Replication as index arrays: rows of ``mbrs`` per intersected tile.

    Vectorized over the ``(n, 4)`` MBR columns; each tile's mask uses
    exactly the comparisons of :meth:`Rect.intersects` (closed
    rectangles), so membership can never diverge from the scalar rule
    that :func:`owning_tile` relies on.  Index arrays are ascending,
    i.e. objects keep their relation order inside every tile.

    ``expand`` grows every MBR by that amount on each side before the
    intersection masks (the ε/2 expansion of distance-join task
    formation) — the same subtractions/additions :meth:`Rect.expand`
    performs, so the vectorized masks agree bit-for-bit with the scalar
    expanded-ownership rule the workers apply.
    """
    out: Dict[Tuple[int, int], np.ndarray] = {}
    if len(mbrs) == 0:
        empty = np.empty(0, dtype=np.intp)
        return {key: empty for key in tiles}
    xmin, ymin, xmax, ymax = mbrs.T
    if expand:
        xmin = xmin - expand
        ymin = ymin - expand
        xmax = xmax + expand
        ymax = ymax + expand
    for key, tile in tiles.items():
        mask = (
            (xmin <= tile.xmax)
            & (tile.xmin <= xmax)
            & (ymin <= tile.ymax)
            & (tile.ymin <= ymax)
        )
        out[key] = np.nonzero(mask)[0]
    return out


class _SubRelation(SpatialRelation):
    """A view over existing SpatialObjects (shares their caches)."""

    def __init__(self, name: str, objects: List[SpatialObject]):
        self.name = name
        self.objects = objects


def subrelation(name: str, objects: List[SpatialObject]) -> SpatialRelation:
    """A relation view over existing objects, keeping their oids intact."""
    return _SubRelation(name, objects)


def subrelation_from_indices(
    relation: SpatialRelation, indices: Sequence[int]
) -> SpatialRelation:
    """A relation view selected by index array (rows of the columns)."""
    objects = relation.objects
    return _SubRelation(relation.name, [objects[i] for i in indices])


def tile_relation(
    name: str,
    objects: List[SpatialObject],
    stored: Sequence[ApproxColumns],
    indices: np.ndarray,
) -> SpatialRelation:
    """A tile of ``objects`` (the parent's rows ``indices``).

    The rows ``indices`` of each of the parent's ``stored`` columns are
    installed in the tile's column store, which also seeds the objects'
    approximation caches: the tile reads stored kinds, never derives.
    """
    relation = subrelation(name, objects)
    if stored:
        store = relation.columnar()
        for columns in stored:
            store.install_approx(columns.take(indices))
    return relation


def owning_tile(
    mbr_a: Rect, mbr_b: Rect, space: Rect, nx: int, ny: int
) -> Tuple[int, int]:
    """Duplicate avoidance: the tile owning the pair's reference point.

    The reference point is the lower-left corner of the intersection of
    the two MBRs; mapping it to a tile index assigns every qualifying
    pair to exactly one tile.
    """
    inter = mbr_a.intersection(mbr_b)
    if inter is None:
        return (-1, -1)
    ix = int((inter.xmin - space.xmin) / space.width * nx) if space.width else 0
    iy = int((inter.ymin - space.ymin) / space.height * ny) if space.height else 0
    return (min(nx - 1, max(0, ix)), min(ny - 1, max(0, iy)))


def owning_tiles(
    mbrs_a: np.ndarray, mbrs_b: np.ndarray, space: Rect, nx: int, ny: int
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`owning_tile` of every row pair of two ``(k, 4)`` MBR arrays.

    The same expressions element by element, so the tile indices equal
    the scalar rule's bit for bit (``(-1, -1)`` for disjoint rows).
    """
    xmin = np.maximum(mbrs_a[:, 0], mbrs_b[:, 0])
    ymin = np.maximum(mbrs_a[:, 1], mbrs_b[:, 1])
    disjoint = (xmin > np.minimum(mbrs_a[:, 2], mbrs_b[:, 2])) | (
        ymin > np.minimum(mbrs_a[:, 3], mbrs_b[:, 3])
    )
    cells = []
    for low, origin, extent, n in (
        (xmin, space.xmin, space.width, nx), (ymin, space.ymin, space.height, ny)
    ):
        cell = (
            ((low - origin) / extent * n).astype(np.int64)
            if extent
            else np.zeros(len(low), dtype=np.int64)
        )
        cells.append(np.where(disjoint, -1, np.clip(cell, 0, n - 1)))
    return cells[0], cells[1]


def _owning_cells(
    mbrs: np.ndarray, space: Rect, nx: int, ny: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Disjoint owner tile per row: the cell of the MBR's lower-left.

    Every MBR corner lies inside ``space`` (the joint bounding box), so
    the raw cell index is non-negative; the upper clamp folds the
    ``xmin == space.xmax`` edge into the last column, mirroring
    :func:`owning_tile`.  Used by kNN task formation, where *any*
    deterministic disjoint assignment of left objects is correct.
    """
    n = len(mbrs)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if space.width:
        cell_x = (
            (mbrs[:, 0] - space.xmin) / space.width * nx
        ).astype(np.int64)
    else:
        cell_x = np.zeros(n, dtype=np.int64)
    if space.height:
        cell_y = (
            (mbrs[:, 1] - space.ymin) / space.height * ny
        ).astype(np.int64)
    else:
        cell_y = np.zeros(n, dtype=np.int64)
    return (
        np.clip(cell_x, 0, nx - 1),
        np.clip(cell_y, 0, ny - 1),
    )


def _probe_rows(
    mbrs_a: np.ndarray,
    bounds: np.ndarray,
    idx_a: np.ndarray,
    mbrs_b: np.ndarray,
) -> np.ndarray:
    """Right rows a kNN task must probe: MBRs inside the task's bbox.

    The probe bounding box is the union of each member's MBR expanded
    by its per-object bound ``d_k(a)`` — a superset of the union of the
    per-object probe regions, so coverage is preserved (extra rows only
    add work; each left object's exact top-k filters them out).  The
    bound is the kNN filter's loosened one, and the box is widened by
    two ulps for the rounding of its own sums, so every right row whose
    computed MINDIST the task's filter can accept is inside it.  An
    ``inf`` bound (``k >= |B|``) makes the box unbounded and selects
    every right row.
    """
    from .proximity import loosen

    if idx_a.size == 0 or len(mbrs_b) == 0:
        return np.empty(0, dtype=np.intp)
    d = loosen(bounds[idx_a])
    low = np.nextafter(np.nextafter(
        np.min(mbrs_a[idx_a, :2] - d[:, None], axis=0), -np.inf), -np.inf)
    high = np.nextafter(np.nextafter(
        np.max(mbrs_a[idx_a, 2:] + d[:, None], axis=0), np.inf), np.inf)
    (box_xmin, box_ymin), (box_xmax, box_ymax) = low, high
    mask = (
        (mbrs_b[:, 0] <= box_xmax)
        & (box_xmin <= mbrs_b[:, 2])
        & (mbrs_b[:, 1] <= box_ymax)
        & (box_ymin <= mbrs_b[:, 3])
    )
    return np.nonzero(mask)[0]


# ---------------------------------------------------------------------------
# Tile formation strategies (JoinConfig.partitioner).
# ---------------------------------------------------------------------------

#: declustering curves accepted by :class:`TreePartitioner`.
DECLUSTER_CURVES = ("hilbert", "zorder")

#: curve resolution for task declustering: 2**10 cells per axis is far
#: finer than any task count the partitioner produces.
_DECLUSTER_ORDER = 10


@dataclass
class PartitionPlan:
    """One join's task decomposition, produced by a :class:`Partitioner`.

    ``entries`` is ``[(key, idx_a, idx_b), ...]`` in *plan* order —
    ascending ``key`` order for the grid strategy, space-filling-curve
    order for the tree strategy (declustering).  The executor dispatches
    largest-first, keeping plan order among equal-cost tasks, and
    always folds outcomes back in ascending ``key`` order, so dispatch
    order never affects results.  Grid plans include empty tiles (their
    :class:`PartitionStats` shells appear with zero counts, as the
    serial partitioned join reports them); tree plans contain only
    non-empty tasks.

    ``space``/``grid`` carry the reference-tile de-duplication frame of
    the grid strategy.  Both are ``None`` for tree plans: leaf-overlap
    tasks partition the candidate-pair space disjointly, so every pair a
    task's local join emits is owned by that task.
    """

    partitioner: str
    space: Optional[Rect]
    grid: Optional[Tuple[int, int]]
    entries: List[Tuple[Tuple[int, int], np.ndarray, np.ndarray]]

    @property
    def space_tuple(self) -> Optional[Tuple[float, float, float, float]]:
        if self.space is None:
            return None
        return (
            self.space.xmin, self.space.ymin,
            self.space.xmax, self.space.ymax,
        )

    def partition_shells(self) -> List[PartitionStats]:
        """Zero-count :class:`PartitionStats` per entry, in key order."""
        return [
            PartitionStats(tile=key, objects_a=len(idx_a),
                           objects_b=len(idx_b))
            for key, idx_a, idx_b in sorted(
                self.entries, key=lambda entry: entry[0]
            )
        ]


class Partitioner(ABC):
    """Strategy turning two relations into per-task candidate index sets."""

    #: strategy name as used by ``JoinConfig.partitioner`` and the CLI.
    name: ClassVar[str] = "?"

    @abstractmethod
    def plan(
        self,
        relation_a: SpatialRelation,
        relation_b: SpatialRelation,
        grid: Tuple[int, int],
    ) -> PartitionPlan:
        """Decompose the join (``grid`` is the grid strategy's shape)."""

    @abstractmethod
    def plan_proximity(
        self,
        relation_a: SpatialRelation,
        relation_b: SpatialRelation,
        grid: Tuple[int, int],
        config: JoinConfig,
    ) -> PartitionPlan:
        """ε-aware decomposition for the proximity predicates.

        The MBR-overlap plans of :meth:`plan` lose qualifying pairs for
        ``predicate='distance'``/``'knn'``: an ε-near pair can straddle
        tiles without any MBR overlap.  This variant grows every task's
        probe region so each qualifying pair is covered by at least one
        task:

        * ``distance`` — probe regions grow by ε.  A pair with exact
          distance ≤ ε has MBR gap ≤ ε on both axes, so the two ε/2-
          expanded MBRs intersect — any decomposition that co-locates
          expanded-MBR-overlapping objects covers the pair.  Where
          expansion replicates border objects into several tasks (the
          grid), the plan carries the ``space``/``grid`` frame and
          workers apply the owning-task rule *on the expanded MBRs*
          before any counter moves; tree-guided tasks stay disjoint and
          need no deduplication.
        * ``knn`` — left objects are partitioned disjointly; each
          task's right rows are every MBR within the task's probe
          bounding box, the union of each member's MBR expanded by its
          :func:`~repro.core.proximity.knn_probe_bounds` k-th-neighbour
          upper bound ``d_k(a)`` (any right object in ``a``'s result
          satisfies ``rect_distance ≤ exact ≤ d_k(a)``).  Right-side
          replication is invisible in the result: each left object's
          top-k is computed whole inside its one owning task.

        The plan depends only on the relations and the canonical config
        (ε, k, partitioner shape) — never on worker count or dispatch
        order — so merged results stay byte-identical across every execution
        configuration.
        """


class GridPartitioner(Partitioner):
    """Uniform-grid tiles with reference-tile de-duplication (PBSM-style).

    A thin strategy wrapper over :func:`plan_tile_indices` — the single
    source of truth for the grid decomposition — so the executor's
    historical behaviour is byte-for-byte unchanged.
    """

    name = "grid"

    def plan(
        self,
        relation_a: SpatialRelation,
        relation_b: SpatialRelation,
        grid: Tuple[int, int],
    ) -> PartitionPlan:
        space, entries = plan_tile_indices(relation_a, relation_b, grid)
        return PartitionPlan(
            partitioner=self.name, space=space, grid=grid, entries=entries
        )

    def plan_proximity(
        self,
        relation_a: SpatialRelation,
        relation_b: SpatialRelation,
        grid: Tuple[int, int],
        config: JoinConfig,
    ) -> PartitionPlan:
        nx, ny = grid
        space = joint_space(relation_a, relation_b)
        tiles = tile_rects(space, nx, ny)
        if config.predicate == "distance":
            # ε/2-expanded replication: both members of any qualifying
            # pair land together in the tile owning the expanded-MBR
            # intersection's reference point, so the worker-side
            # expanded owning-tile rule sees every candidate exactly
            # once across tasks.
            half = config.epsilon / 2.0
            indices_a = assign_tile_indices(
                relation_a.columnar().mbrs, tiles, expand=half
            )
            indices_b = assign_tile_indices(
                relation_b.columnar().mbrs, tiles, expand=half
            )
            entries = [
                (key, indices_a[key], indices_b[key]) for key in tiles
            ]
            return PartitionPlan(
                partitioner=self.name, space=space, grid=grid,
                entries=entries,
            )
        # knn: disjoint left partition (each object owned by the tile
        # of its MBR's lower-left corner), right rows replicated by the
        # per-object probe bound.  No dedup frame: each left object's
        # top-k is produced whole by its one task.
        from .proximity import knn_probe_bounds

        mbrs_a = relation_a.columnar().mbrs
        mbrs_b = relation_b.columnar().mbrs
        bounds = knn_probe_bounds(mbrs_a, mbrs_b, config.k)
        cell_x, cell_y = _owning_cells(mbrs_a, space, nx, ny)
        entries = []
        for key in tiles:
            idx_a = np.nonzero(
                (cell_x == key[0]) & (cell_y == key[1])
            )[0]
            idx_b = _probe_rows(mbrs_a, bounds, idx_a, mbrs_b)
            entries.append((key, idx_a, idx_b))
        return PartitionPlan(
            partitioner=self.name, space=None, grid=None, entries=entries
        )


class TreePartitioner(Partitioner):
    """Tree-guided tile formation: leaf-overlap tasks from an R*-tree join.

    Bulk-loads (or reuses) an R*-tree over each relation's MBR column
    (items are row indices) and runs the restricted synchronized
    traversal of [BKS 93a] — descend the taller tree, prune node pairs
    with disjoint MBRs — but stops descending once a node pair's
    candidate volume ``|A'| * |B'|`` falls under a work budget derived
    from ``target_tasks`` (or both nodes are leaves), emitting the pair
    as one task over the two subtrees' row-index sets.

    Disjointness: every object lives in exactly one leaf of its tree,
    and each traversal step partitions a node pair's candidate space
    among child pairs (dropping only provably-disjoint combinations),
    so every candidate pair lands in **exactly one** task — no
    replication, no reference-tile de-duplication, and the task count
    is a deterministic function of the relations alone (never of the
    worker count), which keeps results identical across worker counts.

    Plan order is declustered along a space-filling curve
    (``decluster='hilbert'`` default, or ``'zorder'``) over the task
    regions' centers; the executor dispatches largest-first, so the
    curve order breaks ties among equal-cost tasks.
    """

    name = "rtree"

    def __init__(
        self,
        target_tasks: int = 64,
        max_entries: int = 8,
        decluster: str = "hilbert",
    ):
        if target_tasks < 1:
            raise ValueError(
                f"target_tasks must be >= 1, got {target_tasks}"
            )
        if decluster not in DECLUSTER_CURVES:
            raise ValueError(
                f"unknown declustering curve {decluster!r}; "
                f"expected one of {DECLUSTER_CURVES}"
            )
        self.target_tasks = target_tasks
        self.max_entries = max_entries
        self.decluster = decluster

    def plan(
        self,
        relation_a: SpatialRelation,
        relation_b: SpatialRelation,
        grid: Tuple[int, int],
    ) -> PartitionPlan:
        del grid  # the grid shape belongs to the grid strategy
        n_a, n_b = len(relation_a), len(relation_b)
        if n_a == 0 or n_b == 0:
            return PartitionPlan(
                partitioner=self.name, space=None, grid=None, entries=[]
            )
        tree_a = relation_a.columnar().partition_tree(self.max_entries)
        tree_b = relation_b.columnar().partition_tree(self.max_entries)
        budget = max(1, -(-(n_a * n_b) // self.target_tasks))
        tasks = self._synchronized_tasks(tree_a, tree_b, budget)
        entries = [
            ((ordinal, -1), rows_a, rows_b)
            for ordinal, (_, rows_a, rows_b) in enumerate(tasks)
        ]
        self._decluster(entries, [region for region, _, _ in tasks])
        return PartitionPlan(
            partitioner=self.name, space=None, grid=None, entries=entries
        )

    def _synchronized_tasks(
        self, tree_a, tree_b, budget: int, epsilon: float = 0.0
    ) -> List[Tuple[Rect, np.ndarray, np.ndarray]]:
        """The budgeted synchronized traversal, ε-aware when asked.

        ``epsilon == 0`` is the historical MBR-overlap traversal
        (``rect_distance == 0`` is exactly :meth:`Rect.intersects`, and
        the emitted region is the node-MBR intersection).  ``epsilon >
        0`` keeps node pairs whose MBR gap is at most ε — node MBRs
        contain their members' MBRs, so the node gap lower-bounds every
        member pair's gap, and pruned pairs can contain no candidate of
        the ε-distance join — and emits the intersection of the two
        ε/2-expanded node MBRs as the task region (non-empty whenever
        the gap is ≤ ε on both axes).  Either way each traversal step
        partitions a node pair's candidate space among child pairs, so
        tasks stay **disjoint**: no replication, no owning-task filter.
        """
        from .distance import rect_distance

        half = epsilon / 2.0
        rows_cache: Dict[int, np.ndarray] = {}
        tasks: List[Tuple[Rect, np.ndarray, np.ndarray]] = []
        stack = [(tree_a.root, tree_b.root)]
        while stack:
            node_a, node_b = stack.pop()
            if rect_distance(node_a.mbr(), node_b.mbr()) > epsilon:
                continue
            rows_a = _subtree_rows(node_a, rows_cache)
            rows_b = _subtree_rows(node_b, rows_cache)
            if (node_a.is_leaf and node_b.is_leaf) or (
                rows_a.size * rows_b.size <= budget
            ):
                region = (
                    node_a.mbr().expand(half).intersection(
                        node_b.mbr().expand(half)
                    )
                    if half
                    else node_a.mbr().intersection(node_b.mbr())
                )
                tasks.append((region, rows_a, rows_b))
                continue
            # Descend the taller tree (leaves pinned), reverse order so
            # the LIFO stack visits children in tree order — the task
            # (key) order stays a deterministic traversal invariant.
            if not node_a.is_leaf and (
                node_b.is_leaf or node_a.level >= node_b.level
            ):
                for child in reversed(node_a.children):
                    if rect_distance(child.mbr(), node_b.mbr()) <= epsilon:
                        stack.append((child, node_b))
            else:
                for child in reversed(node_b.children):
                    if rect_distance(node_a.mbr(), child.mbr()) <= epsilon:
                        stack.append((node_a, child))
        return tasks

    def plan_proximity(
        self,
        relation_a: SpatialRelation,
        relation_b: SpatialRelation,
        grid: Tuple[int, int],
        config: JoinConfig,
    ) -> PartitionPlan:
        del grid  # the grid shape belongs to the grid strategy
        n_a, n_b = len(relation_a), len(relation_b)
        if n_a == 0 or n_b == 0:
            return PartitionPlan(
                partitioner=self.name, space=None, grid=None, entries=[]
            )
        if config.predicate == "distance":
            tree_a = relation_a.columnar().partition_tree(self.max_entries)
            tree_b = relation_b.columnar().partition_tree(self.max_entries)
            budget = max(1, -(-(n_a * n_b) // self.target_tasks))
            tasks = self._synchronized_tasks(
                tree_a, tree_b, budget, epsilon=config.epsilon
            )
            entries = [
                ((ordinal, -1), rows_a, rows_b)
                for ordinal, (_, rows_a, rows_b) in enumerate(tasks)
            ]
            self._decluster(entries, [region for region, _, _ in tasks])
            return PartitionPlan(
                partitioner=self.name, space=None, grid=None,
                entries=entries,
            )
        # knn: the left tree alone is descended to a row budget — its
        # subtrees partition the left relation disjointly and follow
        # the data's clustering — and each task's right rows come from
        # the probe bounding box of its members' d_k(a)-expanded MBRs.
        from .proximity import knn_probe_bounds

        mbrs_a = relation_a.columnar().mbrs
        mbrs_b = relation_b.columnar().mbrs
        bounds = knn_probe_bounds(mbrs_a, mbrs_b, config.k)
        tree_a = relation_a.columnar().partition_tree(self.max_entries)
        row_budget = max(1, -(-n_a // self.target_tasks))
        rows_cache: Dict[int, np.ndarray] = {}
        subtrees: List[Tuple[Rect, np.ndarray]] = []
        stack = [tree_a.root]
        while stack:
            node = stack.pop()
            rows = _subtree_rows(node, rows_cache)
            if node.is_leaf or rows.size <= row_budget:
                subtrees.append((node.mbr(), rows))
                continue
            for child in reversed(node.children):
                stack.append(child)
        entries = [
            (
                (ordinal, -1),
                rows,
                _probe_rows(mbrs_a, bounds, rows, mbrs_b),
            )
            for ordinal, (_, rows) in enumerate(subtrees)
        ]
        self._decluster(entries, [mbr for mbr, _ in subtrees])
        return PartitionPlan(
            partitioner=self.name, space=None, grid=None, entries=entries
        )

    def _decluster(self, entries, regions: List[Rect]) -> None:
        """Order dispatch along the space-filling curve of task centers."""
        if len(entries) < 2:
            return
        from ..index.hilbert import HilbertMapper, hilbert_d_from_xy
        from ..index.zorder import interleave_bits

        mapper = HilbertMapper(
            Rect.union_all(regions), order=_DECLUSTER_ORDER
        )
        curve = (
            hilbert_d_from_xy
            if self.decluster == "hilbert"
            else lambda order, x, y: interleave_bits(x, y, order)
        )

        def curve_index(region: Rect) -> int:
            x, y = mapper.cell_of(region.center)
            return curve(_DECLUSTER_ORDER, x, y)

        order = sorted(
            range(len(entries)),
            key=lambda i: (curve_index(regions[i]), i),
        )
        entries[:] = [entries[i] for i in order]


def _subtree_rows(node, cache: Dict[int, np.ndarray]) -> np.ndarray:
    """Ascending row indices stored under ``node`` (cached per node).

    Ascending order keeps each task's objects in relation order, exactly
    as the grid partitioner's index arrays do.
    """
    rows = cache.get(id(node))
    if rows is None:
        out: List[int] = []
        stack = [node]
        while stack:
            current = stack.pop()
            if current.is_leaf:
                out.extend(entry.item for entry in current.entries)
            else:
                stack.extend(current.children)
        out.sort()
        rows = np.asarray(out, dtype=np.intp)
        cache[id(node)] = rows
    return rows


def create_partitioner(name: str, target_tasks: int = 64) -> Partitioner:
    """Instantiate the strategy selected by ``JoinConfig.partitioner``.

    ``target_tasks`` is the tree strategy's budget knob
    (``JoinConfig.target_tasks``, CLI ``--target-tasks``); the grid
    strategy has no use for it.
    """
    if name == GridPartitioner.name:
        return GridPartitioner()
    if name == TreePartitioner.name:
        return TreePartitioner(target_tasks=target_tasks)
    raise ValueError(
        f"unknown partitioner {name!r}; expected one of {PARTITIONERS}"
    )
