"""Property tests for the newer join variants (invariants 14-16)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import brute_force_distance_join
from repro.core.inside import brute_force_inside_join, points_in_regions_join
from repro.core.join import JoinConfig, SpatialJoinProcessor
from repro.core.lineregion import (
    brute_force_line_region_join,
    line_region_join,
)
from repro.datasets.relations import SpatialRelation
from repro.geometry.polyline import Polyline
from tests.conftest import star_polygon


def random_relation(seed: int, count: int) -> SpatialRelation:
    rng = random.Random(seed)
    polys = []
    for i in range(count):
        polys.append(
            star_polygon(
                rng.random() * 2.0,
                rng.random() * 2.0,
                n=rng.randint(5, 15),
                radius=0.1 + rng.random() * 0.25,
                seed=seed * 1000 + i,
            )
        )
    return SpatialRelation(f"rand-{seed}", polys)


def random_lines(seed: int, count: int):
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        x, y = rng.random() * 2.0, rng.random() * 2.0
        pts = [(x, y)]
        for _ in range(rng.randint(2, 8)):
            x += rng.uniform(-0.3, 0.3)
            y += rng.uniform(-0.3, 0.3)
            pts.append((x, y))
        try:
            lines.append(Polyline(pts))
        except ValueError:
            pass
    return lines


def _distance_pairs(rel_a, rel_b, epsilon):
    config = JoinConfig(predicate="distance", epsilon=epsilon)
    return SpatialJoinProcessor(config).join(rel_a, rel_b).id_pairs()


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    epsilon=st.floats(0, 0.5, allow_nan=False),
)
def test_distance_join_equals_oracle(seed, epsilon):
    rel_a = random_relation(seed, 8)
    rel_b = random_relation(seed + 1, 8)
    got = sorted(_distance_pairs(rel_a, rel_b, epsilon))
    expected = sorted(brute_force_distance_join(rel_a, rel_b, epsilon))
    assert got == expected


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_inside_join_equals_oracle(seed):
    regions = random_relation(seed, 10)
    rng = random.Random(seed + 77)
    points = [(rng.random() * 2.0, rng.random() * 2.0) for _ in range(60)]
    got = sorted(points_in_regions_join(points, regions).id_pairs())
    expected = sorted(brute_force_inside_join(points, regions))
    assert got == expected


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_line_region_join_equals_oracle(seed):
    regions = random_relation(seed, 8)
    lines = random_lines(seed + 5, 10)
    got = sorted(line_region_join(lines, regions).id_pairs())
    expected = sorted(brute_force_line_region_join(lines, regions))
    assert got == expected


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000), eps_pair=st.tuples(
    st.floats(0, 0.3, allow_nan=False), st.floats(0, 0.3, allow_nan=False)
))
def test_distance_join_monotone(seed, eps_pair):
    lo, hi = sorted(eps_pair)
    rel_a = random_relation(seed, 7)
    rel_b = random_relation(seed + 3, 7)
    small = set(_distance_pairs(rel_a, rel_b, lo))
    large = set(_distance_pairs(rel_a, rel_b, hi))
    assert small <= large
