"""Synthetic cartographic data (stand-in for the paper's Europe/BW maps).

The paper evaluates on two real relations: *Europe* (810 EC counties,
84 vertices on average) and *BW* (374 Baden-Württemberg municipalities,
527 vertices on average).  Those maps are not redistributable, so we
generate deterministic synthetic tessellations with the same structural
properties (see DESIGN.md → substitutions):

1. a Voronoi tessellation of random sites clipped to the unit data
   space gives county-like convex cells that tile the space;
2. each cell boundary is *roughened* by recursive midpoint displacement
   to the paper's vertex counts, producing the ragged borders that give
   the MBR its ~1.0 normalized false area (Table 1).

The roughening keeps displacement amplitudes small relative to the
subdivided segment, so the polygons remain simple (validated in tests).
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..geometry.polygon import Polygon
from ..geometry.predicates import Coord
from ..geometry.rectangle import Rect

#: the unit data space used throughout the reproduction.
DATA_SPACE = Rect(0.0, 0.0, 1.0, 1.0)


def voronoi_cells(
    n_sites: int, rng: random.Random, data_space: Rect = DATA_SPACE
) -> List[List[Coord]]:
    """Voronoi cells of ``n_sites`` random sites, clipped to the space.

    Clipping uses the mirror trick: the sites are reflected across all
    four boundary edges, so the cells of the original sites are finite
    and exactly tile the data space.
    """
    if n_sites < 3:
        raise ValueError("need at least 3 sites for a tessellation")
    # Imported here, not at module level: loading or joining stored
    # relations must not pay for scipy.spatial.
    from scipy.spatial import Voronoi

    sites = np.array(
        [
            (
                data_space.xmin + rng.random() * data_space.width,
                data_space.ymin + rng.random() * data_space.height,
            )
            for _ in range(n_sites)
        ]
    )
    mirrored = [sites]
    mirrored.append(np.column_stack([2 * data_space.xmin - sites[:, 0], sites[:, 1]]))
    mirrored.append(np.column_stack([2 * data_space.xmax - sites[:, 0], sites[:, 1]]))
    mirrored.append(np.column_stack([sites[:, 0], 2 * data_space.ymin - sites[:, 1]]))
    mirrored.append(np.column_stack([sites[:, 0], 2 * data_space.ymax - sites[:, 1]]))
    all_sites = np.vstack(mirrored)
    vor = Voronoi(all_sites)
    cells: List[List[Coord]] = []
    for i in range(n_sites):
        region = vor.regions[vor.point_region[i]]
        if -1 in region or not region:
            continue  # cannot happen with the mirror trick, but be safe
        cell = [
            (float(vor.vertices[v][0]), float(vor.vertices[v][1])) for v in region
        ]
        cells.append(cell)
    return cells


def roughen_ring(
    ring: Sequence[Coord],
    target_vertices: int,
    roughness: float,
    rng: random.Random,
) -> List[Coord]:
    """Subdivide and displace a ring to ~``target_vertices`` vertices.

    Each edge is recursively halved; every new midpoint is displaced
    perpendicular to its segment by a zero-mean offset bounded by
    ``roughness`` times the segment length.  Displacements shrink with
    the subdivision level, which keeps the curve inside a narrow lens
    around the original edge and the ring simple for roughness ≲ 0.25.
    """
    n_edges = len(ring)
    if target_vertices <= n_edges:
        return list(ring)
    lengths = [
        math.hypot(
            ring[(i + 1) % n_edges][0] - ring[i][0],
            ring[(i + 1) % n_edges][1] - ring[i][1],
        )
        for i in range(n_edges)
    ]
    total_len = sum(lengths) or 1.0
    extra_budget = target_vertices - n_edges
    out: List[Coord] = []
    for i in range(n_edges):
        a = ring[i]
        b = ring[(i + 1) % n_edges]
        share = int(round(extra_budget * lengths[i] / total_len))
        levels = max(0, math.ceil(math.log2(share + 1)))
        chain = _displaced_chain(a, b, levels, roughness, rng)
        chain = _downsample_chain(chain, share + 2)
        out.extend(chain[:-1])
    return out


def _downsample_chain(chain: List[Coord], target_points: int) -> List[Coord]:
    """Evenly subsample a chain to ``target_points`` (endpoints kept).

    Midpoint displacement produces power-of-two segment counts; this
    trims the chain so per-object vertex targets are met exactly.
    """
    if len(chain) <= target_points:
        return chain
    step = (len(chain) - 1) / (target_points - 1)
    return [chain[int(round(i * step))] for i in range(target_points)]


def _displaced_chain(
    a: Coord, b: Coord, levels: int, roughness: float, rng: random.Random
) -> List[Coord]:
    """Midpoint-displacement curve from ``a`` to ``b`` (inclusive)."""
    if levels <= 0:
        return [a, b]
    points = [a, b]
    amp = roughness
    for _ in range(levels):
        refined: List[Coord] = []
        for p, q in zip(points, points[1:]):
            mx = (p[0] + q[0]) / 2.0
            my = (p[1] + q[1]) / 2.0
            dx = q[0] - p[0]
            dy = q[1] - p[1]
            length = math.hypot(dx, dy)
            if length > 0:
                offset = (rng.random() * 2.0 - 1.0) * amp * length
                mx += -dy / length * offset
                my += dx / length * offset
            refined.append(p)
            refined.append((mx, my))
        refined.append(points[-1])
        points = refined
        amp *= 0.55  # decay keeps lower levels from folding the curve
    return points


def lognormal_vertex_targets(
    count: int,
    mean_vertices: float,
    min_vertices: int,
    max_vertices: int,
    rng: random.Random,
) -> List[int]:
    """Per-object vertex targets with a cartography-like skew.

    Real municipality maps have many mid-complexity objects and a long
    tail (Europe: 4…869 around a mean of 84).  A lognormal with σ≈0.8
    reproduces that skew; the sample is rescaled to hit the mean.
    """
    sigma = 0.8
    mu = math.log(mean_vertices) - sigma * sigma / 2.0
    raw = [rng.lognormvariate(mu, sigma) for _ in range(count)]
    scale = mean_vertices * count / sum(raw)
    return [
        int(max(min_vertices, min(max_vertices, round(r * scale)))) for r in raw
    ]


def cartographic_polygons(
    n_objects: int,
    mean_vertices: float,
    min_vertices: int = 4,
    max_vertices: int = 2000,
    roughness: float = 0.24,
    coverage: float = 0.78,
    seed: int = 1994,
) -> List[Polygon]:
    """Generate a synthetic cartographic relation (list of polygons).

    ``coverage`` shrinks every cell linearly towards its centroid: real
    cartographic relations do not tile their data space completely
    (coastlines, lakes, unmapped area), and a full tessellation would
    roughly double the MBR-join candidate count relative to the paper's
    Table 2.  0.78 linear coverage calibrates the candidate-per-object
    ratio to the paper's while leaving the hit/false-hit ratio (~2:1)
    untouched.
    """
    rng = random.Random(seed)
    cells = voronoi_cells(n_objects, rng)
    targets = lognormal_vertex_targets(
        len(cells), mean_vertices, min_vertices, max_vertices, rng
    )
    polygons: List[Polygon] = []
    for cell, target in zip(cells, targets):
        ring = roughen_ring(cell, target, roughness, rng)
        poly = Polygon(ring)
        if coverage < 1.0:
            poly = poly.scaled(coverage)
        polygons.append(poly)
    return polygons


def relation_statistics(polygons: Sequence[Polygon]) -> Dict[str, float]:
    """#objects and vertex-count statistics (paper Figure 2)."""
    counts = [p.num_vertices for p in polygons]
    return {
        "objects": len(polygons),
        "m_avg": sum(counts) / len(counts) if counts else 0.0,
        "m_min": min(counts) if counts else 0,
        "m_max": max(counts) if counts else 0,
    }


def uniform_rect_items(
    n: int, seed: int, avg_extent: float = 0.01
) -> List[Tuple[Rect, int]]:
    """Plain random rectangles (index micro-benchmarks and tests)."""
    rng = random.Random(seed)
    out: List[Tuple[Rect, int]] = []
    for i in range(n):
        w = rng.random() * 2 * avg_extent
        h = rng.random() * 2 * avg_extent
        x = rng.random() * (1 - w)
        y = rng.random() * (1 - h)
        out.append((Rect(x, y, x + w, y + h), i))
    return out
