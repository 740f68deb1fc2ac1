"""Grid vs tree-guided task formation on a hot-tile workload (ISSUE 6).

One measurement, one report (``benchmarks/reports/tree_partition.txt``):
clustered relations concentrate ~75% of the join work inside a single
grid tile — a lattice of detailed polygons, each overlapping a handful
of neighbours.  The uniform grid is hurt twice on this input:

* the hot tile ships as **one indivisible straggler task**, so no
  dispatch order can push the makespan below that task's own run time;
* hot polygons near the tile border straddle into neighbour tiles, so
  the grid's replicate-and-filter ownership rule **duplicates their
  exact tests** in every tile they touch.

The tree partitioner (``JoinConfig(partitioner="rtree")``) forms tasks
from R*-tree leaf overlaps under a candidate-volume budget instead:
the cluster's work arrives as many small node-pair tasks (spread over
workers by hilbert declustering), and the tasks partition the
candidate-pair space disjointly — no replicated exact work at all.

Both decompositions must return exactly the same result pairs.  As
with the other parallel benchmarks, wall clock on a small CI host is
noise (one sample of the grid's hot tile varies by 3x between runs),
so the gate is the **modeled makespan of the counted work**: each
task's candidate pairs (``PartitionStats.work``) replayed through the
deterministic pull-queue model (largest-first dispatch for both sides —
the comparison isolates the decomposition, not the dispatch order).
Tree-guided formation must beat the grid at 2 and 4 modeled workers,
and its largest task must carry a smaller share of the total work than
the grid's hot tile.  The measured wall clock stays in the report.

Measured with the MBR+exact serving pipeline (no approximation
filter), so every candidate pair a task counts goes to the exact step.
"""

from __future__ import annotations

import heapq
import math
import os
import random
import time
from dataclasses import replace

from repro.core.filters import FilterConfig
from repro.core.join import JoinConfig
from repro.core.parallel_exec import live_shared_segments
from repro.core.session import JoinSession
from repro.datasets.relations import SpatialRelation
from repro.geometry.polygon import Polygon

WORKERS = 2
GRID = (4, 4)
HOT_FRACTION = 0.75


def _star(rng, cx, cy, radius, n):
    pts = []
    for i in range(n):
        angle = 2 * math.pi * i / n
        r = radius * (0.45 + 0.55 * rng.random())
        pts.append((cx + r * math.cos(angle), cy + r * math.sin(angle)))
    return Polygon(pts)


def _hot_tile_pair(seed, n_objects, grid=GRID):
    """Relations whose heat concentrates inside one grid tile.

    The hot cluster is a jittered lattice filling the upper-right tile:
    vertex-heavy polygons, each overlapping a few lattice neighbours
    (dense in work, local in overlap — the structure an R*-tree splits
    cleanly and a uniform grid cannot).  Lattice radii are large enough
    that border polygons straddle into neighbour tiles, which the grid
    pays for twice via replicate-and-filter.  The cool remainder
    spreads thin, cheap polygons over the rest of the space.
    """
    nx, ny = grid
    rng = random.Random(seed)
    hot_w, hot_h = 1.0 / nx, 1.0 / ny
    n_hot = max(1, int(round(n_objects * HOT_FRACTION)))
    k = max(2, int(math.ceil(math.sqrt(n_hot))))
    relations = []
    for rel_idx in range(2):
        anchor = 0.005
        polys = [
            _star(rng, anchor, anchor, 0.004, 6),
            _star(rng, 1 - anchor, 1 - anchor, 0.004, 6),
        ]
        for h in range(n_hot):
            i, j = divmod(h, k)
            polys.append(_star(
                rng,
                1.0 - hot_w + (i + 0.5 + rng.uniform(-0.2, 0.2)) * hot_w / k,
                1.0 - hot_h + (j + 0.5 + rng.uniform(-0.2, 0.2)) * hot_h / k,
                3.0 * hot_w / k,
                rng.randint(40, 80),
            ))
        for _ in range(n_objects - n_hot):
            polys.append(_star(
                rng,
                rng.uniform(0.05, 0.95),
                rng.uniform(0.05, 0.95),
                rng.uniform(0.03, 0.07),
                rng.randint(6, 10),
            ))
        relations.append(
            SpatialRelation(f"{'AB'[rel_idx]}hot{seed}", polys)
        )
    return relations[0], relations[1]


def _modeled_makespan(result, workers, cost):
    """Deterministic pull-queue model: greedy next-task-to-free-worker.

    Tasks arrive in the executor's dispatch order (biggest candidate
    volume first, key order breaking ties — for grid tiles that is plan
    order); ``cost`` maps a :class:`PartitionStats` to its cost.
    """
    free = [0] * workers
    heapq.heapify(free)
    for p in sorted(
        result.partitions, key=lambda p: (-p.objects_a * p.objects_b, p.tile)
    ):
        heapq.heappush(free, heapq.heappop(free) + cost(p))
    return max(free)


def test_tree_partitioner_beats_grid_on_hot_tile(report, scale):
    n_objects = 60 if scale.name == "quick" else 120
    rel_a, rel_b = _hot_tile_pair(9601, n_objects)
    config = JoinConfig(
        filter=FilterConfig(conservative=None, progressive=None),
        exact_method="vectorized", engine="batched",
        workers=WORKERS, grid=GRID,
    )

    rows = {}
    with JoinSession(config=config) as session:
        for partitioner in ("grid", "rtree"):
            cfg = replace(config, partitioner=partitioner)
            start = time.perf_counter()
            result = session.join(rel_a, rel_b, config=cfg)
            wall = time.perf_counter() - start
            rows[partitioner] = (result, wall)
    assert live_shared_segments() == frozenset()

    grid_result = rows["grid"][0]
    tree_result = rows["rtree"][0]
    # The decompositions must agree exactly on the join result.
    assert sorted(grid_result.id_pairs()) == sorted(tree_result.id_pairs())
    assert grid_result.partitioner == "grid"
    assert tree_result.partitioner == "rtree"

    def max_share(result):
        if not result.total_work:
            return 0.0
        return result.max_tile_work / result.total_work

    def seconds(result):
        return lambda p: result.tile_seconds.get(p.tile, 0.0)

    lines = [
        f" hot-tile relations ({len(rel_a)} x {len(rel_b)} objects, "
        f"~{HOT_FRACTION:.0%} of the work in one {GRID[0]}x{GRID[1]} "
        f"grid tile), MBR+exact pipeline, workers={WORKERS}, "
        f"{len(grid_result)} result pairs",
        "",
        " task decomposition (identical result pairs from both):",
        f" {'partitioner':>12} {'tasks':>6} {'wall':>9} "
        f"{'busy':>9} {'work':>7} {'max-task share':>15}",
    ]
    for partitioner in ("grid", "rtree"):
        result, wall = rows[partitioner]
        lines.append(
            f" {partitioner:>12} {result.tile_tasks:>6} "
            f"{wall * 1e3:>7.0f}ms {result.busy_seconds * 1e3:>7.0f}ms "
            f"{result.total_work:>7} {max_share(result):>14.0%}"
        )
    lines += [
        " (work = candidate pairs examined; the grid ships the hot tile",
        "  as one indivisible task and re-tests every border-straddling",
        "  pair in each tile it touches; the tree partitioner's volume",
        "  budget splits the same work into disjoint node-pair tasks)",
        "",
        " modeled makespan, largest-first dispatch both: the counted",
        " work per task (the gate) and, for reference, the measured",
        " per-task worker times (one sample each):",
        f" {'workers':>8} {'grid':>7} {'rtree':>7} {'gain':>7}"
        f" {'grid':>9} {'rtree':>9}",
    ]

    for workers in (2, 4):
        modeled_grid = _modeled_makespan(
            grid_result, workers, lambda p: p.work
        )
        modeled_tree = _modeled_makespan(
            tree_result, workers, lambda p: p.work
        )
        wall_grid = _modeled_makespan(
            grid_result, workers, seconds(grid_result)
        )
        wall_tree = _modeled_makespan(
            tree_result, workers, seconds(tree_result)
        )
        lines.append(
            f" {workers:>8} {modeled_grid:>7} {modeled_tree:>7} "
            f"{modeled_grid / modeled_tree:>6.2f}x "
            f"{wall_grid * 1e3:>7.0f}ms {wall_tree * 1e3:>7.0f}ms"
        )
        # The grid's makespan is floored by its indivisible hot tile
        # plus the replicated border work; the tree decomposition must
        # beat it in the model.
        assert modeled_tree < modeled_grid, (
            f"modeled rtree makespan ({modeled_tree} candidate pairs) not "
            f"below grid ({modeled_grid}) at {workers} workers"
        )
    lines += [
        f"  (measured on a {os.cpu_count()}-core host; the model makes",
        "   the decomposition effect visible even when the host has",
        "   too few cores for the wall clock to show it)",
    ]
    report.table(
        "Tree Partition",
        "grid vs tree-guided task formation on a hot-tile workload",
        lines,
    )

    # The structural claim behind the makespan: the tree's largest
    # task carries a strictly smaller share of its work than the
    # grid's hot tile carries of its own.
    assert max_share(tree_result) < max_share(grid_result), (
        "tree-guided formation did not reduce the straggler share "
        f"({max_share(tree_result):.0%} vs {max_share(grid_result):.0%})"
    )
