"""JoinSession amortisation: first join vs warm session.

One measurement, one report (``benchmarks/reports/session.txt``): the
same join run three times as independent sessionless
``parallel_partitioned_join`` calls (each runs in a private session
that forks a pool, ships fresh shared segments and closes before the
call returns) and three times through one
:class:`~repro.core.session.JoinSession` (pool forked once, segments
shipped once, warm joins reuse both).  Warm joins must ship zero new
shared bytes; wall clock shows how much setup the session amortises.
Measured on serving-sized relations with the MBR+exact pipeline (no
approximation filter), where per-join setup (pool fork + segment
shipping) is a real fraction of the latency — that is the regime
sessions exist for.  On large compute-bound joins the setup is noise
either way.

As with the other parallel benchmarks, the assertion bar is
correctness plus reporting, plus one robust latency floor: CI boxes
are too noisy to gate on parallel wall clock.
"""

from __future__ import annotations

import math
import os
import random
import time

from repro.core.filters import FilterConfig
from repro.core.join import JoinConfig
from repro.core.parallel_exec import (
    live_shared_segments,
    parallel_partitioned_join,
)
from repro.core.session import JoinSession
from repro.datasets.relations import SpatialRelation
from repro.geometry.polygon import Polygon

WORKERS = 2
GRID = (4, 4)
REPEATS = 3


def _star(rng, cx, cy, radius, n):
    pts = []
    for i in range(n):
        angle = 2 * math.pi * i / n
        r = radius * (0.45 + 0.55 * rng.random())
        pts.append((cx + r * math.cos(angle), cy + r * math.sin(angle)))
    return Polygon(pts)


def _uniform_pair(seed, n_objects):
    """Serving-sized relations: uniformly spread stars over [0, 1]^2."""
    rng = random.Random(seed)
    relations = []
    for rel_idx in range(2):
        polys = [
            _star(
                rng,
                rng.uniform(0.02, 0.98),
                rng.uniform(0.02, 0.98),
                rng.uniform(0.02, 0.07),
                rng.randint(8, 24),
            )
            for _ in range(n_objects)
        ]
        relations.append(
            SpatialRelation(f"{'AB'[rel_idx]}serve{seed}", polys)
        )
    return relations[0], relations[1]


def test_session_reuse(report, scale):
    n_serving = 40 if scale.name == "quick" else 80
    rel_a, rel_b = _uniform_pair(9401, n_serving)
    #: the serving config: MBR join + vectorized exact step, no
    #: approximation filter (workers would recompute approximations on
    #: every join — see module docstring).
    serving_config = JoinConfig(
        filter=FilterConfig(conservative=None, progressive=None),
        exact_method="vectorized", engine="batched",
        workers=WORKERS, grid=GRID,
    )

    # -- sessionless joins vs one warm session --------------------------------
    sessionless = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        sessionless_result = parallel_partitioned_join(
            rel_a, rel_b, config=serving_config
        )
        sessionless.append(time.perf_counter() - start)

    session_lat = []
    with JoinSession(config=serving_config) as session:
        for _ in range(REPEATS):
            start = time.perf_counter()
            session_result = session.join(rel_a, rel_b)
            session_lat.append(time.perf_counter() - start)
        assert sorted(session_result.id_pairs()) == sorted(
            sessionless_result.id_pairs()
        )
        # Warm joins reuse everything: 0 new shared bytes.
        assert session_result.shared_payload_bytes == 0
        assert session_result.segment_cache_hits == 2
        assert session.pools_created == 1
        cached_bytes = session.cached_segment_bytes
    assert live_shared_segments() == frozenset()

    sessionless_avg = sum(sessionless) / len(sessionless)
    cold = session_lat[0]
    warm_avg = sum(session_lat[1:]) / len(session_lat[1:])
    warm_best = min(session_lat[1:])

    lines = [
        f" serving-sized relations ({len(rel_a)} x {len(rel_b)} objects), "
        f"MBR+exact pipeline, workers={WORKERS}, "
        f"grid {GRID[0]}x{GRID[1]}, {len(sessionless_result)} result pairs",
        "",
        " first-join vs warm-session latency "
        f"({REPEATS} joins each):",
        f"   sessionless joins (private session each):"
        f"{sessionless_avg * 1e3:8.0f} ms avg",
        f"   session first join (fork + ship once):   "
        f"{cold * 1e3:8.0f} ms",
        f"   session warm joins (reuse pool+segments):"
        f"{warm_avg * 1e3:8.0f} ms avg, {warm_best * 1e3:.0f} ms best",
        f"   warm-session speedup vs sessionless:     "
        f"{sessionless_avg / warm_avg:8.2f}x",
        f"   shared bytes shipped warm: 0 (cache holds {cached_bytes} "
        "bytes across 2 segments)",
        f"   measured on a {os.cpu_count()}-core host",
    ]

    report.table("Session", "join-session reuse", lines)

    # Correctness-plus-reporting bar (see module docstring) plus one
    # robust latency floor: in the setup-dominated serving regime a
    # warm session join must beat the sessionless average (locally it
    # is ~3-4x faster; the bar leaves room for CI noise).
    assert warm_best < sessionless_avg, (
        f"warm session join ({warm_best:.3f}s) not faster than sessionless "
        f"average ({sessionless_avg:.3f}s) — session reuse lost its point"
    )
