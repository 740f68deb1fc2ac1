"""Shared helpers for the differential-testing harnesses.

Seeded-random generation of small relations with adversarial geometry
(touching edges, slivers with degenerate convex hulls, contained
objects), a boundary-straddling generator for the partition
de-duplication fuzz tests, the equivalence assertions used to prove
that the batched engine and the multi-process tile executor produce
exactly the streaming serial pipeline's results and statistics, and the
per-object within-distance join that the distance row pipeline is
checked against.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace
from typing import Dict, List, Tuple

import numpy as np

from repro.core.distance import polygon_distance, rect_distance
from repro.core.join import JoinConfig, JoinResult, SpatialJoinProcessor
from repro.core.stats import MultiStepStats
from repro.datasets.relations import SpatialRelation
from repro.geometry.fastops import _point_segment_distance_bulk
from repro.geometry.polygon import Polygon
from repro.index.join import rstar_join
from repro.index.rstar import RStarTree


def random_star(
    rng: random.Random, cx: float, cy: float, radius: float, n: int
) -> Polygon:
    """Star-shaped simple polygon around ``(cx, cy)``."""
    pts = []
    for i in range(n):
        angle = 2 * math.pi * i / n
        r = radius * (0.45 + 0.55 * rng.random())
        pts.append((cx + r * math.cos(angle), cy + r * math.sin(angle)))
    return Polygon(pts)


def grid_square(cx: float, cy: float, half: float) -> Polygon:
    return Polygon(
        [
            (cx - half, cy - half),
            (cx + half, cy - half),
            (cx + half, cy + half),
            (cx - half, cy + half),
        ]
    )


def sliver(cx: float, cy: float, length: float) -> Polygon:
    """Nearly-collinear triangle: its convex hull degenerates to 2 points."""
    return Polygon([(cx, cy), (cx + length, cy), (cx + length / 2, cy)])


def random_relation_pair(
    seed: int, n_objects: int = 12, degenerate: bool = True
) -> Tuple[SpatialRelation, SpatialRelation]:
    """Two overlapping random relations exercising the filter edge cases.

    The mix per relation: irregular stars (general position), axis-aligned
    squares snapped to a shared grid (touching MBRs and shared edges
    between the relations), slivers (degenerate hulls), and for relation A
    a few shrunken copies of B's objects (within-predicate hits).

    ``degenerate=False`` drops the zero-area slivers — needed when every
    candidate reaches the TR*-tree exact processor, whose trapezoid
    decomposition rejects fully collinear polygons (a pre-existing
    limitation of that processor, independent of the engine).
    """
    rng = random.Random(seed)
    polys_a: List[Polygon] = []
    polys_b: List[Polygon] = []
    for polys in (polys_a, polys_b):
        for _ in range(n_objects):
            cx = rng.uniform(0.0, 1.0)
            cy = rng.uniform(0.0, 1.0)
            kind = rng.random()
            if kind < 0.55 or (kind >= 0.8 and not degenerate):
                polys.append(
                    random_star(rng, cx, cy, rng.uniform(0.04, 0.16),
                                rng.randint(5, 14))
                )
            elif kind < 0.8:
                # Snap to a coarse grid so squares of both relations share
                # edges and corners exactly (touching-geometry cases).
                gx = round(cx * 8) / 8
                gy = round(cy * 8) / 8
                polys.append(grid_square(gx, gy, 0.0625))
            else:
                polys.append(sliver(cx, cy, rng.uniform(0.02, 0.1)))
    # Containment cases: small copies of B objects centred inside them.
    for i in range(0, len(polys_b), 4):
        target = polys_b[i]
        m = target.mbr()
        ccx, ccy = m.center
        polys_a[i % len(polys_a)] = grid_square(
            ccx, ccy, max(m.width, m.height) * 0.05 + 1e-4
        )
    return (
        SpatialRelation(f"A{seed}", polys_a),
        SpatialRelation(f"B{seed}", polys_b),
    )


def boundary_straddling_pair(
    seed: int,
    grid: Tuple[int, int],
    n_objects: int = 10,
) -> Tuple[SpatialRelation, SpatialRelation]:
    """Two relations whose objects deliberately straddle tile boundaries.

    The partition grid cuts the joint data space into ``nx`` × ``ny``
    tiles; this generator centres squares *on* those cut lines (and on
    their crossings), mixes in random stars, and pins the data space to
    the unit square with two tiny corner anchors so the tile lines are
    known in advance.  Worst-case input for the reference-tile
    de-duplication rule: most objects are replicated into 2–4 tiles and
    many MBR intersections have their reference point exactly on a tile
    edge.
    """
    nx, ny = grid
    rng = random.Random(seed)
    relations = []
    for rel_idx in range(2):
        # Anchors pin the joint space to [0,1]^2 for both relations.
        polys: List[Polygon] = [
            grid_square(0.005, 0.005, 0.005),
            grid_square(0.995, 0.995, 0.005),
        ]
        for _ in range(n_objects):
            kind = rng.random()
            if kind < 0.4:
                # Square centred on a vertical or horizontal tile line.
                if rng.random() < 0.5 and nx > 1:
                    cx = rng.randrange(1, nx) / nx
                    cy = rng.uniform(0.05, 0.95)
                elif ny > 1:
                    cx = rng.uniform(0.05, 0.95)
                    cy = rng.randrange(1, ny) / ny
                else:
                    cx, cy = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
                polys.append(grid_square(cx, cy, rng.uniform(0.02, 0.12)))
            elif kind < 0.6 and nx > 1 and ny > 1:
                # Square centred exactly on a tile-corner crossing.
                cx = rng.randrange(1, nx) / nx
                cy = rng.randrange(1, ny) / ny
                polys.append(grid_square(cx, cy, rng.uniform(0.02, 0.12)))
            else:
                polys.append(
                    random_star(
                        rng,
                        rng.uniform(0.05, 0.95),
                        rng.uniform(0.05, 0.95),
                        rng.uniform(0.05, 0.2),
                        rng.randint(5, 12),
                    )
                )
        relations.append(
            SpatialRelation(f"{'AB'[rel_idx]}straddle{seed}", polys)
        )
    return relations[0], relations[1]


def clustered_relation_pair(
    seed: int,
    grid: Tuple[int, int] = (4, 4),
    n_objects: int = 16,
    hot_fraction: float = 0.75,
) -> Tuple[SpatialRelation, SpatialRelation]:
    """Two skewed relations whose candidate pairs crowd into one hot tile.

    The joint space is pinned to the unit square with tiny corner
    anchors; ``hot_fraction`` of each relation's objects are packed
    into the grid's lower-left tile with radii large enough to overlap
    each other densely (one tile owns almost all candidate pairs),
    while the rest are sprinkled thinly across the remaining tiles.
    Worst case for tile-order dispatch — the hot tile straggles while
    every other tile finishes instantly — and therefore the generator
    behind the largest-first dispatch differential and fuzz suites.
    """
    nx, ny = grid
    rng = random.Random(seed)
    hot_w, hot_h = 1.0 / nx, 1.0 / ny
    relations = []
    for rel_idx in range(2):
        polys: List[Polygon] = [
            grid_square(0.005, 0.005, 0.005),
            grid_square(0.995, 0.995, 0.005),
        ]
        n_hot = max(1, int(round(n_objects * hot_fraction)))
        for _ in range(n_hot):
            cx = rng.uniform(0.15, 0.85) * hot_w
            cy = rng.uniform(0.15, 0.85) * hot_h
            polys.append(
                random_star(
                    rng, cx, cy,
                    rng.uniform(0.25, 0.6) * min(hot_w, hot_h),
                    rng.randint(5, 12),
                )
            )
        for _ in range(n_objects - n_hot):
            polys.append(
                random_star(
                    rng,
                    rng.uniform(0.05, 0.95),
                    rng.uniform(0.05, 0.95),
                    rng.uniform(0.02, 0.08),
                    rng.randint(5, 10),
                )
            )
        relations.append(
            SpatialRelation(f"{'AB'[rel_idx]}hot{seed}", polys)
        )
    return relations[0], relations[1]


def stats_fingerprint(stats: MultiStepStats) -> Dict[str, object]:
    """Every counter a differential test must see agree across engines."""
    return {
        "candidate_pairs": stats.candidate_pairs,
        "filter_false_hits": stats.filter_false_hits,
        "filter_hits_progressive": stats.filter_hits_progressive,
        "filter_hits_false_area": stats.filter_hits_false_area,
        "remaining_candidates": stats.remaining_candidates,
        "exact_hits": stats.exact_hits,
        "exact_false_hits": stats.exact_false_hits,
        "conservative_tests": stats.conservative_tests,
        "progressive_tests": stats.progressive_tests,
        "false_area_tests": stats.false_area_tests,
        "mbr_tests": stats.mbr_join.mbr_tests,
        "mbr_output_pairs": stats.mbr_join.output_pairs,
    }


def run_both_engines(
    relation_a: SpatialRelation,
    relation_b: SpatialRelation,
    config: JoinConfig,
    batch_size: int = 64,
):
    """Run the join with both engines; return (streaming, batched) results."""
    streaming = SpatialJoinProcessor(
        replace(config, engine="streaming")
    ).join(relation_a, relation_b)
    batched = SpatialJoinProcessor(
        replace(config, engine="batched", batch_size=batch_size)
    ).join(relation_a, relation_b)
    return streaming, batched


def run_on_worker_stores(task):
    """``(oid pairs, stats)`` of a tile task run as a pool worker's first
    task runs it: on fresh stores over the segments the task names
    (objects built on first read), closed afterwards."""
    from repro.core.parallel_exec import _MappedRelation, _tile_pairs

    stores = [_MappedRelation(spec) for spec in (task.spec_a, task.spec_b)]
    try:
        return _tile_pairs(task, *stores)
    finally:
        for store in stores:
            store.close()


def assert_parallel_equivalent(
    relation_a: SpatialRelation,
    relation_b: SpatialRelation,
    config: JoinConfig,
    grid: Tuple[int, int],
    workers: int,
    plain_sorted_pairs=None,
    serial_partitioned=None,
) -> None:
    """Assert the multi-process executor equals the serial pipeline.

    Checks, for the given engine/predicate/worker-count combination:
    the sorted result-pair list is byte-identical to the plain serial
    streaming-pipeline join, the merged ``MultiStepStats`` fingerprint
    is identical to the serial partitioned join on the same grid, no
    pair is emitted twice, and the merged stats satisfy the Figure-1
    flow invariants.  The two baselines can be passed in pre-computed so
    parameterised sweeps don't recompute them per worker count.
    """
    from repro.core.parallel_exec import parallel_partitioned_join
    from repro.core.partition import partitioned_join

    if plain_sorted_pairs is None:
        plain = SpatialJoinProcessor(config).join(relation_a, relation_b)
        plain_sorted_pairs = sorted(plain.id_pairs())
    if serial_partitioned is None:
        serial_partitioned = partitioned_join(
            relation_a, relation_b, grid=grid, config=config
        )
    parallel = parallel_partitioned_join(
        relation_a, relation_b, grid=grid, config=config, workers=workers
    )
    got = parallel.id_pairs()
    assert len(got) == len(set(got)), (
        f"workers={workers} {config}: duplicate pairs in parallel output"
    )
    assert sorted(got) == plain_sorted_pairs, (
        f"workers={workers} {config}: {len(got)} parallel pairs != "
        f"{len(plain_sorted_pairs)} serial pairs"
    )
    assert got == serial_partitioned.id_pairs(), (
        f"workers={workers} {config}: pair order diverges from the "
        "serial partitioned join"
    )
    fp_parallel = stats_fingerprint(parallel.stats)
    fp_serial = stats_fingerprint(serial_partitioned.stats)
    assert fp_parallel == fp_serial, (
        f"workers={workers} {config}: merged stats mismatch: "
        f"{fp_parallel} != {fp_serial}"
    )
    parallel.stats.check_invariants()


def assert_engines_equivalent(
    relation_a: SpatialRelation,
    relation_b: SpatialRelation,
    config: JoinConfig,
    batch_size: int = 64,
) -> None:
    """Assert identical result pairs, order, and statistics."""
    streaming, batched = run_both_engines(
        relation_a, relation_b, config, batch_size
    )
    assert streaming.id_pairs() == batched.id_pairs(), (
        f"result mismatch for {config}: "
        f"{len(streaming)} streaming vs {len(batched)} batched pairs"
    )
    fp_s = stats_fingerprint(streaming.stats)
    fp_b = stats_fingerprint(batched.stats)
    assert fp_s == fp_b, f"stats mismatch for {config}: {fp_s} != {fp_b}"
    streaming.stats.check_invariants()
    batched.stats.check_invariants()


def min_edge_distance_bulk(
    ax1: np.ndarray,
    ay1: np.ndarray,
    ax2: np.ndarray,
    ay2: np.ndarray,
    bx1: np.ndarray,
    by1: np.ndarray,
    bx2: np.ndarray,
    by2: np.ndarray,
) -> float:
    """Minimum closed-segment distance over all ``n1 x n2`` edge pairs.

    The dense oracle of ``fastops.min_edge_distance_ragged``: the bulk
    counterpart of ``core.distance.segment_distance`` reduced over every
    pair — 0 for a properly crossing pair (the raw-sign crossing test,
    no epsilon), else the minimum of the four endpoint-to-segment
    distances; ``inf`` for empty edge sets.  No pruning, no reach.
    """
    if len(ax1) == 0 or len(bx1) == 0:
        return float("inf")
    p1x = ax1[:, None]
    p1y = ay1[:, None]
    p2x = ax2[:, None]
    p2y = ay2[:, None]
    q1x = bx1[None, :]
    q1y = by1[None, :]
    q2x = bx2[None, :]
    q2y = by2[None, :]

    def cross(ax, ay, bx, by, cx, cy):
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)

    d1 = cross(q1x, q1y, q2x, q2y, p1x, p1y)
    d2 = cross(q1x, q1y, q2x, q2y, p2x, p2y)
    d3 = cross(p1x, p1y, p2x, p2y, q1x, q1y)
    d4 = cross(p1x, p1y, p2x, p2y, q2x, q2y)
    proper = (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))) & (
        ((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0))
    )
    dist = np.minimum(
        np.minimum(
            _point_segment_distance_bulk(p1x, p1y, q1x, q1y, q2x, q2y),
            _point_segment_distance_bulk(p2x, p2y, q1x, q1y, q2x, q2y),
        ),
        np.minimum(
            _point_segment_distance_bulk(q1x, q1y, p1x, p1y, p2x, p2y),
            _point_segment_distance_bulk(q2x, q2y, p1x, p1y, p2x, p2y),
        ),
    )
    dist = np.where(proper, 0.0, dist)
    return float(dist.min())


# ---------------------------------------------------------------------------
# Per-object distance-join reference
# ---------------------------------------------------------------------------


def circle_distance(
    center_a: Tuple[float, float],
    radius_a: float,
    center_b: Tuple[float, float],
    radius_b: float,
) -> float:
    """Minimum distance between two discs (0 when overlapping)."""
    gap = math.hypot(
        center_a[0] - center_b[0], center_a[1] - center_b[1]
    ) - radius_a - radius_b
    return max(0.0, gap)


def expanded_tree(
    relation: SpatialRelation, amount: float, max_entries: int
) -> RStarTree:
    """R*-tree over the relation's MBRs, each grown by ``amount``."""
    tree = RStarTree(max_entries=max_entries)
    for obj in relation:
        tree.insert(obj.mbr.expand(amount), obj)
    return tree


def scalar_distance_join(
    relation_a: SpatialRelation,
    relation_b: SpatialRelation,
    epsilon: float,
    rtree_max_entries: int = 32,
) -> JoinResult:
    """The per-object within-distance join, one ``math.hypot`` at a time.

    The reference for the row pipeline of ``JoinConfig(predicate=
    "distance")``: the ε/2-expanded R*-tree join's candidates in its
    order, the Euclidean MBR pre-test, the MBC lower bound (false
    hits), the MEC upper bound (hits, counted as progressive) and
    :func:`polygon_distance` for the rest.  Pairs come in candidate
    order; the flow counters are filled, the test counters are not.
    """
    stats = MultiStepStats()
    pairs = []
    half = epsilon / 2.0
    tree_a = expanded_tree(relation_a, half, rtree_max_entries)
    tree_b = expanded_tree(relation_b, half, rtree_max_entries)
    for obj_a, obj_b in rstar_join(tree_a, tree_b, None, None, stats.mbr_join):
        if rect_distance(obj_a.mbr, obj_b.mbr) > epsilon:
            continue
        stats.candidate_pairs += 1
        circle_a = obj_a.approximation("MBC").circle()
        circle_b = obj_b.approximation("MBC").circle()
        if circle_distance(
            circle_a.center, circle_a.radius, circle_b.center, circle_b.radius
        ) > epsilon:
            stats.filter_false_hits += 1
            continue
        # Progressive discs lie inside the objects: their distance is
        # an upper bound of the object distance.
        disc_a = obj_a.approximation("MEC").circle()
        disc_b = obj_b.approximation("MEC").circle()
        if circle_distance(
            disc_a.center, disc_a.radius, disc_b.center, disc_b.radius
        ) <= epsilon:
            stats.filter_hits_progressive += 1
            pairs.append((obj_a, obj_b))
            continue
        stats.remaining_candidates += 1
        if polygon_distance(obj_a.polygon, obj_b.polygon) <= epsilon:
            stats.exact_hits += 1
            pairs.append((obj_a, obj_b))
        else:
            stats.exact_false_hits += 1
    return JoinResult(pairs=pairs, stats=stats)
