"""Hypothesis fuzz: static and stealing schedulers are interchangeable.

For randomly generated *skewed* relations — the clustered hot-tile
generator concentrates most candidate pairs into one tile, the
stealing scheduler's reason to exist — the two schedulers must produce
the identical result pairs, pair order, and ``MultiStepStats`` at
worker counts {1, 2, 4}.  Completion order is the only thing allowed
to differ; the tile-sorted merge must hide it completely.

Each example shares one :class:`JoinSession` across all of its joins so
the pool is forked once per worker count, not once per configuration;
``REPRO_PAR_QUICK=1`` shrinks the sweep for the CI quick job.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import clustered_relation_pair, stats_fingerprint
from repro.core import SCHEDULERS, JoinConfig
from repro.core.session import JoinSession

pytestmark = [pytest.mark.parallel, pytest.mark.slow]

QUICK = os.environ.get("REPRO_PAR_QUICK") == "1"
WORKERS = (1, 2) if QUICK else (1, 2, 4)
MAX_EXAMPLES = 2 if QUICK else 5


@given(
    seed=st.integers(min_value=0, max_value=10 ** 6),
    hot_fraction=st.sampled_from((0.6, 0.8, 0.9)),
    grid=st.sampled_from(((3, 3), (4, 2))),
)
@settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_schedulers_agree_on_skewed_relations(seed, hot_fraction, grid):
    rel_a, rel_b = clustered_relation_pair(
        seed, grid=grid, n_objects=10, hot_fraction=hot_fraction
    )
    base = JoinConfig(
        exact_method="vectorized",
        engine="batched",
        batch_size=16,
        grid=grid,
    )
    with JoinSession(config=base) as session:
        for workers in WORKERS:
            results = {}
            for scheduler in SCHEDULERS:
                results[scheduler] = session.join(
                    rel_a,
                    rel_b,
                    config=replace(
                        base, workers=workers, scheduler=scheduler
                    ),
                )
            label = f"seed={seed} workers={workers}"
            static, stealing = results["static"], results["stealing"]
            assert static.id_pairs() == stealing.id_pairs(), label
            assert stats_fingerprint(static.stats) == (
                stats_fingerprint(stealing.stats)
            ), label
            static.stats.check_invariants()
            stealing.stats.check_invariants()
            assert static.steal_count == 0, label
            assert stealing.wire_format == "columnar-shm", label
