"""Clipping fuzz tests: concave polygons vs a Monte-Carlo area oracle."""

import math
import random

import pytest

from repro.geometry.clipping import intersect_rings
from repro.geometry.predicates import polygon_signed_area


def star_polygon(seed, cx=0.5, cy=0.5, n=None, r_lo=0.1, r_hi=0.45):
    """Random star-shaped (simple, generally concave) polygon."""
    rng = random.Random(seed)
    count = n or rng.randint(5, 14)
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(count))
    # Collapse near-duplicate angles to keep edges non-degenerate.
    ring = []
    last = None
    for a in angles:
        if last is not None and a - last < 1e-3:
            continue
        r = rng.uniform(r_lo, r_hi)
        ring.append((cx + r * math.cos(a), cy + r * math.sin(a)))
        last = a
    return ring if len(ring) >= 3 else star_polygon(seed + 1, cx, cy, n)


def point_in_ring(p, ring):
    x, y = p
    inside = False
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            if x < x1 + (y - y1) * (x2 - x1) / (y2 - y1):
                inside = not inside
    return inside


def monte_carlo_area(rings_predicate, samples=20_000, seed=0):
    """Fraction of unit-square samples satisfying the predicate."""
    rng = random.Random(seed)
    hits = sum(
        1
        for _ in range(samples)
        if rings_predicate((rng.random(), rng.random()))
    )
    return hits / samples


@pytest.mark.parametrize("seed", range(10))
def test_concave_intersection_area_vs_monte_carlo(seed):
    ring_a = star_polygon(seed * 2 + 1)
    ring_b = star_polygon(seed * 2 + 2, cx=0.55, cy=0.45)
    regions = intersect_rings(ring_a, ring_b)
    computed = sum(abs(polygon_signed_area(r)) for r in regions)
    sampled = monte_carlo_area(
        lambda p: point_in_ring(p, ring_a) and point_in_ring(p, ring_b),
        seed=seed,
    )
    # Monte-Carlo with 20k samples: stddev ~ sqrt(p/n) <= 0.0036
    assert computed == pytest.approx(sampled, abs=0.02)


@pytest.mark.parametrize("seed", range(10))
def test_intersection_commutes(seed):
    ring_a = star_polygon(seed + 100)
    ring_b = star_polygon(seed + 200, cx=0.52, cy=0.5)
    ab = sum(abs(polygon_signed_area(r)) for r in intersect_rings(ring_a, ring_b))
    ba = sum(abs(polygon_signed_area(r)) for r in intersect_rings(ring_b, ring_a))
    assert ab == pytest.approx(ba, abs=1e-6)


@pytest.mark.parametrize("seed", range(10))
def test_intersection_bounded(seed):
    ring_a = star_polygon(seed + 300)
    ring_b = star_polygon(seed + 400, cx=0.45, cy=0.55)
    inter = sum(abs(polygon_signed_area(r)) for r in intersect_rings(ring_a, ring_b))
    cap = min(abs(polygon_signed_area(ring_a)), abs(polygon_signed_area(ring_b)))
    assert inter <= cap + 1e-9
