"""Differential suite: JoinSession vs the serial pipeline.

The guarantee under test: largest-first tile dispatch and warm
:class:`~repro.core.session.JoinSession` reuse — persistent pool,
fingerprint-cached shared segments — produce result
pairs, pair order, and merged ``MultiStepStats`` identical to the
serial partitioned join (and, up to order, the plain serial join) on
well over 100 generated cases spanning both predicates, both engines,
uniform and skewed (hot-tile) relations, and workers {1, 2, 4}.  Every
case runs twice through the same session, so the second run exercises
a fully warm cache (0 newly shipped bytes) and the reused pool.

The worker count is the *outer* loop so each parameterised test forks
at most one pool per worker count; ``REPRO_PAR_QUICK=1`` shrinks the
sweep for the CI quick job.
"""

from __future__ import annotations

import os

import pytest

from helpers import (
    clustered_relation_pair,
    random_relation_pair,
    stats_fingerprint,
)
from repro.core.join import JoinConfig, SpatialJoinProcessor
from repro.core.parallel_exec import live_shared_segments
from repro.core.partition import partitioned_join
from repro.core.session import JoinSession

pytestmark = pytest.mark.parallel

QUICK = os.environ.get("REPRO_PAR_QUICK") == "1"

SEEDS = (300, 301) if QUICK else (300, 301, 302, 303)
WORKERS = (1, 2) if QUICK else (1, 2, 4)
#: (generator, grid): uniform relations on a 3x3 grid plus skewed
#: hot-tile relations on a 4x4 grid (largest-first dispatch's target).
GENERATORS = (
    (random_relation_pair, (3, 3)),
    (clustered_relation_pair, (4, 4)),
)

CASES = [
    pytest.param(predicate, engine, id=f"{predicate}-{engine}")
    for predicate in ("intersects", "within")
    for engine in ("streaming", "batched")
]


def _config(predicate: str, engine: str) -> JoinConfig:
    return JoinConfig(
        exact_method="vectorized",
        predicate=predicate,
        engine=engine,
        batch_size=16,
    )


_relations = {}
_plain = {}
_serial = {}


def _pair(maker, seed):
    key = (maker.__name__, seed)
    if key not in _relations:
        if maker is clustered_relation_pair:
            _relations[key] = maker(seed, grid=(4, 4), n_objects=14)
        else:
            _relations[key] = maker(seed, n_objects=10)
    return _relations[key]


def _plain_sorted_pairs(config, maker, seed):
    key = (config.predicate, config.engine, maker.__name__, seed)
    if key not in _plain:
        rel_a, rel_b = _pair(maker, seed)
        result = SpatialJoinProcessor(config).join(rel_a, rel_b)
        _plain[key] = sorted(result.id_pairs())
    return _plain[key]

def _serial_partitioned(config, maker, seed, grid):
    key = (config.predicate, config.engine, maker.__name__, seed, grid)
    if key not in _serial:
        rel_a, rel_b = _pair(maker, seed)
        _serial[key] = partitioned_join(
            rel_a, rel_b, grid=grid, config=config
        )
    return _serial[key]


@pytest.mark.parametrize("predicate,engine", CASES)
def test_warm_session_matches_serial(predicate, engine):
    config = _config(predicate, engine)
    cases = 0
    with JoinSession(config=config) as session:
        for workers in WORKERS:
            for maker, grid in GENERATORS:
                for seed in SEEDS:
                    rel_a, rel_b = _pair(maker, seed)
                    plain = _plain_sorted_pairs(config, maker, seed)
                    serial = _serial_partitioned(config, maker, seed, grid)
                    for run in ("cold", "warm"):
                        result = session.join(
                            rel_a, rel_b, grid=grid, workers=workers
                        )
                        label = (
                            f"{predicate}/{engine} {maker.__name__} "
                            f"seed={seed} workers={workers} {run}"
                        )
                        got = result.id_pairs()
                        assert len(got) == len(set(got)), label
                        assert sorted(got) == plain, label
                        assert got == serial.id_pairs(), label
                        assert stats_fingerprint(result.stats) == (
                            stats_fingerprint(serial.stats)
                        ), label
                        result.stats.check_invariants()
                        cases += 1
                    # The second run of a pair must have been fully warm.
                    assert result.segment_cache_hits == 2, label
                    assert result.shared_payload_bytes == 0, label
                    assert result.reused_payload_bytes > 0, label
        # Session-level accounting: every pair shipped once, reused often.
        assert session.joins_run == cases
        assert session.segment_cache_misses == 2 * len(GENERATORS) * len(SEEDS)
        assert session.segment_cache_hits > session.segment_cache_misses
        # One pool per multi-worker count, reused across every join.
        assert session.pools_created == sum(1 for w in WORKERS if w > 1)
    assert session.closed
    assert live_shared_segments() == frozenset()
    expected = len(WORKERS) * len(GENERATORS) * len(SEEDS) * 2
    assert cases == expected


def _worker_suicide_runner(task):
    """Module-level so fork workers can resolve it by reference."""
    import os

    os._exit(1)


def test_session_replaces_pool_after_worker_death(monkeypatch):
    """A join whose worker process dies breaks that pool, not the session."""
    from concurrent.futures.process import BrokenProcessPool

    from repro.core import parallel_exec
    from repro.core.parallel_exec import TileExecutionError

    rel_a, rel_b = _pair(random_relation_pair, 300)
    config = _config("intersects", "batched")
    with JoinSession(config=config) as session:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                parallel_exec,
                "run_columnar_tile_task",
                _worker_suicide_runner,
            )
            with pytest.raises((TileExecutionError, BrokenProcessPool)):
                session.join(rel_a, rel_b, grid=(3, 3), workers=2)
        # The broken pool was discarded; the next join forks a fresh
        # one and succeeds.
        result = session.join(rel_a, rel_b, grid=(3, 3), workers=2)
        assert sorted(result.id_pairs()) == _plain_sorted_pairs(
            config, random_relation_pair, 300
        )
        assert session.pools_created == 2


def test_session_rejects_joins_after_close():
    rel_a, rel_b = _pair(random_relation_pair, 300)
    session = JoinSession(config=_config("intersects", "batched"))
    session.close()
    with pytest.raises(RuntimeError, match="closed"):
        session.join(rel_a, rel_b, grid=(2, 2))
    session.close()  # idempotent


def test_sessions_share_segments_across_relation_copies():
    """The cache keys on content fingerprint, not object identity."""
    rel_a, rel_b = _pair(random_relation_pair, 302)
    copy_a, copy_b = _pair(random_relation_pair, 302)
    assert copy_a is rel_a  # same cached instances...
    from helpers import random_relation_pair as fresh_maker

    fresh_a, fresh_b = fresh_maker(302, n_objects=10)  # ...vs rebuilt ones
    assert fresh_a is not rel_a
    with JoinSession(config=_config("intersects", "batched")) as session:
        session.join(rel_a, rel_b, grid=(2, 2), workers=1)
        result = session.join(fresh_a, fresh_b, grid=(2, 2), workers=1)
        assert result.segment_cache_hits == 2
        assert result.shared_payload_bytes == 0


def test_session_argument_routes_through_session():
    """``parallel_partitioned_join(session=...)`` runs inside that session."""
    from repro.core.parallel_exec import parallel_partitioned_join

    rel_a, rel_b = _pair(random_relation_pair, 303)
    config = _config("intersects", "batched")
    with JoinSession(config=config) as session:
        first = parallel_partitioned_join(
            rel_a, rel_b, grid=(2, 2), config=config, workers=1,
            session=session,
        )
        warm = parallel_partitioned_join(
            rel_a, rel_b, grid=(2, 2), config=config, workers=1,
            session=session,
        )
        assert first.segment_cache_misses == 2
        assert warm.segment_cache_hits == 2
        assert warm.shared_payload_bytes == 0
        assert session.joins_run == 2
        assert first.id_pairs() == warm.id_pairs()
