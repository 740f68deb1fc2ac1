"""Seeded workload generator and brute-force oracle of the e2e benchmark.

``prepare(workload, seed, sizes, workdir)`` writes everything one
workload needs — WKT files (and, for the in-process workloads, a packed
store), the seeded op sequence, and the expected result of every
distinct request — and returns the manifest that ``driver.py`` replays.
The program under test only ever sees those files, never the seed.

**What the seed draws.**  The shape catalogue (the repo's synthetic
Europe relation, its strategy-A shifted copy and its strategy-B random
placement, the query windows and points) is fixed; the seed draws a
similarity transform of the whole map (scale, translation), the storage
order of every relation's objects, and the request order.  Fresh
shapes per seed were measured first: at the toy sizes the time budget
allows, MER build cost and candidate counts moved 20-47 % between
seeds (IQR / median over ten seeds), which would bury every regression
bound.  The transform keeps the work identical — same candidate and
result counts on every seed — while changing every coordinate, every
fingerprint and every R*-tree insertion order, so nothing keyed on
content can survive from one seed to the next.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.join import nested_loops_join
from repro.datasets import SpatialRelation, europe, strategy_a, strategy_b
from repro.datasets.io import save_relation
from repro.datasets.store import RelationStore
from repro.geometry import Polygon, Rect
from repro.geometry.fastops import polygons_intersect_fast
from repro.index.knn import point_rect_distance

WORKLOADS = ("cold_oneshot", "warm_serial", "tiled_filter", "service_mixed")

#: seed of the fixed shape catalogue (the paper's year, as everywhere
#: else in this repo).
CATALOGUE_SEED = 1994

#: objects per relation.  Set by today's costs (MER build ~30 ms/object,
#: ``import repro.cli`` ~0.8 s, the tile path rebuilding approximations
#: on every join) and the 15 s measured per run; toy-scale next to the
#: paper's 810 objects — see README.md for the rescaling rule.
SIZES = {
    "cold_oneshot": {"n": 24},
    "warm_serial": {"n": 40},
    "tiled_filter": {"n": 32},
    "service_mixed": {"n": 16, "n_big": 96},
}
SMOKE_SIZES = {
    "cold_oneshot": {"n": 12},
    "warm_serial": {"n": 12},
    "tiled_filter": {"n": 12},
    "service_mixed": {"n": 8, "n_big": 16},
}

#: the join flags every workload shares: the paper's default 5-C + MER
#: filter on the batched engine with batched vectorized refinement.
ENGINE_ARGS = {"engine": "batched", "exact": "vectorized", "exact_batch": 64}

#: service_mixed request mix per cycle (120 requests).  Sorted by cost
#: they are 30 result-cache hits < 40 kNN point queries <= 20 small
#: windows (a tree rebuild like the kNN query, plus 30 ms per MER build
#: on the first touch of an object) < 12 kNN-joins < 14 distance joins
#: < 4 intersects joins.  p50 (between the 60th and 61st) falls ten
#: places inside the kNN-query group and p90 (the 108th) in the middle
#: of the distance group, never on a boundary between two request
#: kinds.  With 48 windows of 10-20 % of the extent and 12 points, p50
#: sat on the edge between cheap and first-touch windows and moved 3x
#: between seeds, and windows touching three new objects outran the
#: distance joins and took the tail with them.
SERVICE_GRIDS = ((1, 1), (1, 2), (2, 1), (2, 2))
SERVICE_EPSILONS = (0.01, 0.02, 0.03, 0.045, 0.06, 0.08, 0.1)
SERVICE_DISTANCE_GRIDS = ((1, 1), (2, 2))
SERVICE_KS = (1, 2, 3)
SERVICE_KNN_GRIDS = ((1, 1), (2, 2), (3, 3), (4, 4))
SERVICE_WINDOWS = 20
SERVICE_POINTS = 40
SERVICE_POINT_K = 5


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------


def _catalogue(n: int, n_big: int = 0) -> Dict[str, SpatialRelation]:
    """The fixed shapes: Europe A pair, Europe B pair, query target."""
    base = europe(seed=CATALOGUE_SEED, size=n)
    pair_a = strategy_a(base)
    pair_b = strategy_b(base, seed=CATALOGUE_SEED + 7)
    shapes = {
        "a": pair_a.relation_a,
        "b": pair_a.relation_b,
        "b1": pair_b.relation_a,
        "b2": pair_b.relation_b,
    }
    if n_big:
        shapes["c"] = europe(seed=CATALOGUE_SEED + 1, size=n_big)
    return shapes


class Placement:
    """The seed's similarity transform and per-relation storage orders."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.scale = 2.0 ** rng.uniform(-1.0, 1.0)
        self.dx = rng.uniform(-1.0, 1.0)
        self.dy = rng.uniform(-1.0, 1.0)

    def point(self, x: float, y: float) -> Tuple[float, float]:
        return (x * self.scale + self.dx, y * self.scale + self.dy)

    def relation(self, name: str, shapes: SpatialRelation) -> SpatialRelation:
        polygons = [obj.polygon for obj in shapes]
        self.rng.shuffle(polygons)
        return SpatialRelation(
            name,
            [
                Polygon(
                    [self.point(x, y) for x, y in poly.shell],
                    holes=[
                        [self.point(x, y) for x, y in hole]
                        for hole in poly.holes
                    ],
                )
                for poly in polygons
            ],
        )


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def _rings(polygon: Polygon) -> List[np.ndarray]:
    return [np.asarray(ring, dtype=np.float64) for ring in
            (polygon.shell, *polygon.holes)]


def _points_to_edges(points: np.ndarray, rings: Sequence[np.ndarray]) -> float:
    """Smallest distance from any of ``points`` to any ring edge."""
    best = math.inf
    for ring in rings:
        start = ring[None, :, :]
        delta = np.roll(ring, -1, axis=0)[None, :, :] - start
        rel = points[:, None, :] - start
        length2 = (delta * delta).sum(axis=2)
        t = np.clip((rel * delta).sum(axis=2) / np.where(length2 > 0, length2, 1.0),
                    0.0, 1.0)
        gap = rel - t[:, :, None] * delta
        best = min(best, float(np.sqrt((gap * gap).sum(axis=2)).min()))
    return best


def polygon_distance_scan(a: Polygon, b: Polygon) -> float:
    """Exact polygon distance by exhaustive vertex-to-edge scan.

    0 when the polygons intersect (decided by the same
    ``polygons_intersect_fast`` that ``nested_loops_join`` uses);
    otherwise the minimum is attained at a vertex of one polygon
    against an edge of the other, so scanning all of them is exact.
    Independent of the kernel tier and of every index.  The repo's own
    ``brute_force_distance_join`` / ``brute_force_knn_join`` take 27 ms
    per pair (7 s for 16 x 16 objects), more than a whole measured
    round; ``cross_check_oracle`` proves this scan equal to them on a
    sub-sample in ``--smoke``.
    """
    if polygons_intersect_fast(a, b):
        return 0.0
    rings_a, rings_b = _rings(a), _rings(b)
    return min(
        _points_to_edges(np.concatenate(rings_a), rings_b),
        _points_to_edges(np.concatenate(rings_b), rings_a),
    )


def distance_matrix(rel_a: SpatialRelation, rel_b: SpatialRelation) -> np.ndarray:
    return np.array(
        [
            [polygon_distance_scan(obj_a.polygon, obj_b.polygon) for obj_b in rel_b]
            for obj_a in rel_a
        ]
    )


def distance_pairs(matrix: np.ndarray, epsilon: float) -> List[List[int]]:
    rows, cols = np.nonzero(matrix <= epsilon)
    return sorted([int(i), int(j)] for i, j in zip(rows, cols))


def knn_pairs(matrix: np.ndarray, k: int) -> List[List[int]]:
    out = []
    for i, row in enumerate(matrix):
        ranked = sorted((float(d), j) for j, d in enumerate(row))
        out.extend([i, j] for _, j in ranked[:k])
    return sorted(out)


def window_oids(relation: SpatialRelation, window: Sequence[float]) -> List[int]:
    rect = Rect(*window)
    window_poly = Polygon(rect.corners())
    return sorted(
        obj.oid
        for obj in relation
        if obj.mbr.intersects(rect)
        and polygons_intersect_fast(obj.polygon, window_poly)
    )


def knn_distances(relation: SpatialRelation, point, k: int) -> Dict[str, object]:
    """Every object's MINDIST plus the k smallest (ties leave the oids open)."""
    by_oid = {obj.oid: point_rect_distance(point, obj.mbr) for obj in relation}
    return {"by_oid": {str(o): d for o, d in by_oid.items()},
            "top": sorted(by_oid.values())[:k]}


def cross_check_oracle(rel_a: SpatialRelation, rel_b: SpatialRelation) -> None:
    """Prove the scan oracle equal to the repo's brute-force joins."""
    from repro.core.distance import brute_force_distance_join
    from repro.core.proximity import brute_force_knn_join

    sub_a = SpatialRelation("a", [o.polygon for o in list(rel_a)[:5]])
    sub_b = SpatialRelation("b", [o.polygon for o in list(rel_b)[:5]])
    matrix = distance_matrix(sub_a, sub_b)
    # Halfway between two neighbouring distances: the two oracles round
    # differently in the last place, so a threshold must not sit on one.
    ranked = np.unique(matrix)
    epsilon = float(ranked[len(ranked) // 2 - 1] + ranked[len(ranked) // 2]) / 2.0
    expected = sorted(map(list, brute_force_distance_join(sub_a, sub_b, epsilon)))
    if distance_pairs(matrix, epsilon) != expected:
        raise AssertionError("scan oracle disagrees with brute_force_distance_join")
    expected = sorted(map(list, brute_force_knn_join(sub_a, sub_b, 2)))
    if knn_pairs(matrix, 2) != expected:
        raise AssertionError("scan oracle disagrees with brute_force_knn_join")


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


def _intersect_pairs(rel_a, rel_b) -> List[List[int]]:
    return sorted(map(list, nested_loops_join(rel_a, rel_b)))


def _service_ops(rng, placement, relations, big) -> Tuple[List[Dict], Dict]:
    """One cycle of 120 requests in seeded order, with expected results."""
    rel_a, rel_b = relations["a"], relations["b"]
    matrix = distance_matrix(rel_a, rel_b)
    joins: List[Dict] = []
    expected: Dict[str, object] = {}

    def add_join(key: str, fields: Dict, pairs) -> None:
        joins.append({"op": "join", "relation_a": "$a", "relation_b": "$b",
                      **ENGINE_ARGS, **fields, "expect": key})
        expected[key] = pairs

    intersect = _intersect_pairs(rel_a, rel_b)
    for grid in SERVICE_GRIDS:
        add_join("intersects", {"grid": list(grid)}, intersect)
    for base_eps in SERVICE_EPSILONS:
        eps = base_eps * placement.scale
        for grid in SERVICE_DISTANCE_GRIDS:
            add_join(f"distance:{base_eps}",
                     {"predicate": "distance", "epsilon": eps,
                      "grid": list(grid)},
                     distance_pairs(matrix, eps))
    for k in SERVICE_KS:
        for grid in SERVICE_KNN_GRIDS:
            add_join(f"knn:{k}", {"predicate": "knn", "k": k,
                                  "grid": list(grid)},
                     knn_pairs(matrix, k))

    # Windows and points belong to the catalogue, like the shapes: drawn
    # in the unit data space from the catalogue seed, then moved with the
    # map.  Every seed therefore touches the same objects — seeded
    # windows moved the cycle's MER builds, and with them ops_per_s and
    # cpu_ms_per_op, by 7-11 % between seeds.
    fixed = random.Random(CATALOGUE_SEED)
    singles: List[Dict] = []
    for i in range(SERVICE_WINDOWS):
        side = fixed.uniform(0.02, 0.06)
        x = fixed.uniform(0.0, 1.0 - side)
        y = fixed.uniform(0.0, 1.0 - side)
        window = [*placement.point(x, y), *placement.point(x + side, y + side)]
        key = f"window:{i}"
        singles.append({"op": "window", "relation": "$c", "window": window,
                        "expect": key})
        expected[key] = window_oids(big, window)
    for i in range(SERVICE_POINTS):
        point = list(placement.point(fixed.random(), fixed.random()))
        key = f"point:{i}"
        singles.append({"op": "knn", "relation": "$c", "point": point,
                        "k": SERVICE_POINT_K, "expect": key})
        expected[key] = knn_distances(big, point, SERVICE_POINT_K)

    # Seeded order; every repeat of a join key sorts after its first
    # execution, so it is a result-cache hit and never coalesces.
    slots = []
    for request in joins:
        first = rng.random()
        slots.append((first, {**request, "cached": False}))
        slots.append((first + (1.0 - first) * rng.random(),
                      {**request, "cached": True}))
    slots.extend((rng.random(), request) for request in singles)
    slots.sort(key=lambda slot: slot[0])
    return [request for _, request in slots], expected


def prepare(workload: str, seed: int, sizes: Dict[str, int],
            workdir: Path) -> Dict:
    """Generate one workload's inputs; return (and write) its manifest."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    placement = Placement(rng)
    shapes = _catalogue(sizes["n"], sizes.get("n_big", 0))
    wanted = {
        "cold_oneshot": ("a", "b"),
        "warm_serial": ("a", "b", "b1", "b2"),
        "tiled_filter": ("a", "b"),
        "service_mixed": ("a", "b", "c"),
    }[workload]
    relations = {name: placement.relation(name, shapes[name]) for name in wanted}
    manifest: Dict[str, object] = {
        "workload": workload,
        "sizes": sizes,
        "wkt": {},
        "objects": {name: len(rel) for name, rel in relations.items()},
    }
    for name, relation in relations.items():
        path = workdir / f"{name}.wkt"
        save_relation(relation, path)
        manifest["wkt"][name] = str(path)
    if workload in ("warm_serial", "tiled_filter"):
        # These workloads start from "already stored" relations: the
        # pack is not part of what they measure (cold_oneshot and
        # service_mixed time it as their set-up).
        store = RelationStore(workdir / "store")
        manifest["store"] = str(store.directory)
        manifest["fingerprints"] = {
            name: store.save(relation) for name, relation in relations.items()
        }
    if workload == "service_mixed":
        ops, expected = _service_ops(rng, placement, relations, relations["c"])
        manifest["ops"] = ops
        manifest["expected"] = expected
    else:
        manifest["expected"] = {
            "a|b": _intersect_pairs(relations["a"], relations["b"])
        }
        if workload == "warm_serial":
            manifest["expected"]["b1|b2"] = _intersect_pairs(
                relations["b1"], relations["b2"]
            )
    (workdir / "manifest.json").write_text(json.dumps(manifest))
    return manifest
