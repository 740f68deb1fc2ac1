"""Shared fixtures and polygon factories for the test suite."""

from __future__ import annotations

import math
import random

import pytest

from repro.geometry.polygon import Polygon


def star_polygon(
    cx: float = 0.0,
    cy: float = 0.0,
    n: int = 24,
    radius: float = 1.0,
    irregularity: float = 0.45,
    seed: int = 0,
) -> Polygon:
    """Star-shaped simple polygon with controllable complexity.

    Star-shaped about its center by construction, hence always simple —
    a convenient random-polygon factory for property tests.
    """
    rng = random.Random(seed)
    points = []
    for i in range(n):
        angle = 2 * math.pi * i / n
        r = radius * (1 - irregularity + irregularity * rng.random())
        points.append((cx + r * math.cos(angle), cy + r * math.sin(angle)))
    return Polygon(points)


def square(cx: float, cy: float, half: float) -> Polygon:
    return Polygon(
        [
            (cx - half, cy - half),
            (cx + half, cy - half),
            (cx + half, cy + half),
            (cx - half, cy + half),
        ]
    )


@pytest.fixture(autouse=True)
def no_leaked_shared_segments():
    """Every test must leave shared memory clean.

    The parallel executor and :class:`repro.core.session.JoinSession`
    own shared-memory segment lifecycles; a segment still registered in
    ``live_shared_segments()`` after a test is a leak — ring segments
    and the approximation blocks shipped beside them alike (every
    block is a :class:`repro.core.parallel_exec.SharedColumns` and so
    registers in the same set;
    ``tests/test_stored_approximations.py`` pins that).  This autouse
    fixture replaces the ad-hoc per-test live-set assertions the shm
    suite used to carry, and extends the guarantee to every test that
    touches the parallel machinery (including sessions left open by
    accident).
    """
    yield
    from repro.core.parallel_exec import live_shared_segments

    leaked = live_shared_segments()
    assert leaked == frozenset(), (
        f"test leaked shared-memory segments: {sorted(leaked)}"
    )


@pytest.fixture(scope="session")
def tiny_europe():
    """A 60-object Europe-like relation (session-cached for speed)."""
    from repro.datasets.relations import europe

    return europe(size=60)


@pytest.fixture(scope="session")
def tiny_series(tiny_europe):
    """Strategy-A series over the tiny relation."""
    from repro.datasets.testseries import strategy_a

    return strategy_a(tiny_europe)


@pytest.fixture(scope="session")
def tiny_oracle(tiny_series):
    """Exact nested-loops join result of the tiny series."""
    from repro.core.join import nested_loops_join

    return set(
        nested_loops_join(tiny_series.relation_a, tiny_series.relation_b)
    )
