"""Integration tests for the compiled kernel tier and proximity joins.

Four contracts, end to end:

1. **Backend resolution** — ``JoinConfig.kernels`` / ``REPRO_KERNELS``
   validate at the configuration boundary; ``auto`` resolves to the C
   kernels (their build/fallback contract is
   ``tests/test_ckernels_build.py``).
2. **Execution-only** — joins are byte-identical (pairs, order, every
   Figure-1 counter) across kernel backends, on every engine and exact
   method; kernel telemetry is recorded but invisible to stats
   equality and to the service wire format.
3. **Pre-warm** — the parent warms a pool's backend once before
   forking, each worker once at start-up, and never again per tile
   (timing-insensitive: asserted on the warm-event log, not on elapsed
   time).
4. **Proximity predicates** — ``distance`` and ``knn`` joins match
   their nested-loops oracles through the processor, the parallel
   executor (ε-aware tasks for real workloads, serial routing for tiny
   ones), the service payload parser, and the CLI.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from helpers import random_relation_pair, scalar_distance_join, stats_fingerprint
from repro.cli import main as cli_main
from repro.core.distance import brute_force_distance_join
from repro.core.join import (
    EXECUTION_ONLY_FIELDS,
    JoinConfig,
    SpatialJoinProcessor,
)
from repro.core.parallel_exec import parallel_partitioned_join
from repro.core.proximity import brute_force_knn_join
from repro.core.session import JoinSession
from repro.core.stats import MultiStepStats
from repro.datasets.io import save_relation
from repro.datasets.relations import SpatialRelation
from repro.geometry.kernels import (
    KERNEL_BACKENDS,
    resolve_backend,
    warm_events,
    warm_up,
)
from repro.service.api import BadRequestError, stats_to_dict
from repro.service.server import _join_config_from_payload

#: backends every default-config join must match bit-for-bit.
ALT_BACKENDS = ["python", "c"]


def _relations(seed, n_objects=20):
    # degenerate=False: the TR*-tree exact processor rejects fully
    # collinear slivers (documented pre-existing limitation).
    return random_relation_pair(seed, n_objects=n_objects, degenerate=False)


# ---------------------------------------------------------------------------
# 1. Backend resolution and validation
# ---------------------------------------------------------------------------


class TestBackendResolution:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("fortran")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            JoinConfig(kernels="fortran")

    def test_auto_resolves_to_concrete_backend(self):
        # A C compiler is part of the supported environment: a silent
        # fallback here would run every "c" differential against numpy.
        assert resolve_backend("auto") == "c"
        for name in KERNEL_BACKENDS:
            assert resolve_backend(name) != "auto"

    def test_repro_kernels_env_sets_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "python")
        assert JoinConfig().kernels == "python"
        monkeypatch.delenv("REPRO_KERNELS")
        assert JoinConfig().kernels == "auto"
        monkeypatch.setenv("REPRO_KERNELS", "gpu")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            JoinConfig()

    def test_warm_up_records_event(self):
        before = warm_events()
        assert warm_up("python") == "python"
        assert warm_events() == before + ("python",)


# ---------------------------------------------------------------------------
# 2. Execution-only: backends are invisible in results and statistics
# ---------------------------------------------------------------------------

#: engine/refinement-batch variety exercising every kernel call site.
ENGINE_CONFIGS = [
    JoinConfig(),
    JoinConfig(engine="batched"),
    JoinConfig(exact_batch=1),
    JoinConfig(engine="batched", exact_batch=7),
    JoinConfig(predicate="within", engine="batched"),
]


class TestBackendDifferential:
    @pytest.mark.parametrize(
        "config", ENGINE_CONFIGS,
        ids=lambda c: f"{c.engine}-b{c.exact_batch}-{c.predicate}",
    )
    @pytest.mark.parametrize("backend", ALT_BACKENDS)
    def test_joins_identical_across_backends(self, config, backend):
        rel_a, rel_b = _relations(41)
        oracle = SpatialJoinProcessor(
            replace(config, kernels="numpy")
        ).join(rel_a, rel_b)
        got = SpatialJoinProcessor(
            replace(config, kernels=backend)
        ).join(rel_a, rel_b)
        assert got.id_pairs() == oracle.id_pairs()
        assert len(oracle) > 0
        if config.predicate == "intersects":
            # Batched refinement ran on this backend's loop twin.
            ragged = f"{backend}.edge_pairs_intersect_ragged"
            assert got.stats.kernel_calls[ragged] == got.stats.refine_batches
        # Telemetry differs (different backend prefixes) but is
        # compare=False: the Figure-1 statistics must be *equal*.
        assert got.stats == oracle.stats
        assert stats_fingerprint(got.stats) == stats_fingerprint(oracle.stats)

    @pytest.mark.parametrize("backend", ALT_BACKENDS)
    def test_proximity_identical_across_backends(self, backend):
        rel_a, rel_b = _relations(42)
        for config in (
            JoinConfig(predicate="distance", epsilon=0.2),
            JoinConfig(predicate="knn", k=3),
        ):
            oracle = SpatialJoinProcessor(
                replace(config, kernels="numpy")
            ).join(rel_a, rel_b)
            got = SpatialJoinProcessor(
                replace(config, kernels=backend)
            ).join(rel_a, rel_b)
            assert got.id_pairs() == oracle.id_pairs()
            assert got.stats == oracle.stats


class TestKernelTelemetry:
    def test_distance_join_records_kernel_calls(self):
        rel_a, rel_b = _relations(43)
        config = JoinConfig(predicate="distance", epsilon=0.3,
                            kernels="python")
        result = SpatialJoinProcessor(config).join(rel_a, rel_b)
        stats = result.stats
        assert stats.kernel_calls, "no kernel telemetry recorded"
        assert all(key.startswith("python.") for key in stats.kernel_calls)
        assert stats.kernel_calls.keys() == stats.kernel_pairs.keys()
        assert stats.kernel_calls.keys() == stats.kernel_seconds.keys()
        assert "python.min_edge_distance_ragged" in stats.kernel_calls
        assert all(n >= 1 for n in stats.kernel_calls.values())
        assert all(s >= 0.0 for s in stats.kernel_seconds.values())

    def test_distance_join_makes_one_exact_call(self):
        """The exact step resolves every remaining candidate at once."""
        rel_a, rel_b = _relations(43)
        config = JoinConfig(predicate="distance", epsilon=0.3,
                            kernels="numpy")
        stats = SpatialJoinProcessor(config).join(rel_a, rel_b).stats
        assert stats.remaining_candidates > 1
        for kernel in ("min_edge_distance_ragged", "rects_intersect_bulk",
                       "edge_pairs_intersect_ragged"):
            assert stats.kernel_calls.get(f"numpy.{kernel}", 0) <= 1, kernel

    def test_knn_join_makes_at_most_two_exact_calls(self):
        """The kNN join is bound-first in two rounds: at most two
        exact-distance calls per join, never one per candidate, and the
        per-left-object work is that of a one-object join."""
        rel_a, rel_b = _relations(43)
        config = JoinConfig(predicate="knn", k=3, kernels="numpy")
        stats = SpatialJoinProcessor(config).join(rel_a, rel_b).stats
        per_object = [
            SpatialJoinProcessor(config).join(
                SpatialRelation("one", [obj.polygon]), rel_b
            ).stats.remaining_candidates
            for obj in rel_a
        ]
        assert sum(per_object) == stats.remaining_candidates
        calls = stats.kernel_calls["numpy.min_edge_distance_ragged"]
        assert calls <= 2
        assert calls < stats.remaining_candidates

    def test_telemetry_excluded_from_equality_and_wire_format(self):
        a, b = MultiStepStats(), MultiStepStats()
        a.kernel_calls["numpy.edge_pairs_intersect_ragged"] = 7
        a.kernel_pairs["numpy.edge_pairs_intersect_ragged"] = 7
        a.kernel_seconds["numpy.edge_pairs_intersect_ragged"] = 0.1
        assert a == b  # compare=False: execution detail, not a result
        wire = stats_to_dict(a)
        assert not any("kernel" in key for key in wire)

    def test_telemetry_merges_across_tiles(self):
        merged = MultiStepStats()
        ragged = "python.edge_pairs_intersect_ragged"
        for calls in ({ragged: 2},
                      {ragged: 3, "python.rects_intersect_bulk": 1}):
            tile = MultiStepStats()
            tile.kernel_calls.update(calls)
            merged.merge(tile)
        assert merged.kernel_calls == {
            ragged: 5,
            "python.rects_intersect_bulk": 1,
        }


# ---------------------------------------------------------------------------
# 3. Pre-warm: one warm-up per worker, never per tile
# ---------------------------------------------------------------------------


def _fetch_warm_events():
    """Top-level so the pool can pickle it by reference (fork context)."""
    from repro.geometry.kernels import warm_events

    return warm_events()


class TestPoolPreWarm:
    @pytest.mark.parametrize("backend", ALT_BACKENDS)
    def test_session_workers_warm_once_and_never_rewarm(self, backend):
        """The parent warms the backend once before the pool forks (for
        ``c``: builds and loads the library, so no worker runs the
        compiler); every worker warms once more at start-up; running
        joins adds no further warm-ups, in the parent or any worker.
        Timing-insensitive: asserted on the warm-event log."""
        config = JoinConfig(workers=2, kernels=backend, grid=(2, 2))
        with JoinSession(config=config) as session:
            parent_snapshot = warm_events()
            pool = session.pool(2, kernels=backend)
            parent = parent_snapshot + (backend,)
            assert warm_events() == parent
            # Children inherit the parent's events, then append their own.
            expected = parent + (backend,)
            for _ in range(8):
                assert pool.submit(_fetch_warm_events).result() == expected

            rel_a, rel_b = _relations(44, n_objects=16)
            session.join(rel_a, rel_b)
            session.join(rel_a, rel_b)
            for _ in range(8):
                assert pool.submit(_fetch_warm_events).result() == expected
            assert session.pools_created == 1  # joins reused the pool
            assert warm_events() == parent

    def test_backend_switch_rebuilds_pool_with_new_warmup(self):
        with JoinSession(config=JoinConfig(workers=2)) as session:
            parent_snapshot = warm_events()
            pool = session.pool(2, kernels="python")
            assert pool.submit(_fetch_warm_events).result() == (
                parent_snapshot + ("python", "python")
            )
            pool = session.pool(2, kernels="numpy")
            assert pool.submit(_fetch_warm_events).result() == (
                parent_snapshot + ("python", "numpy", "numpy")
            )
            assert session.pools_created == 2


# ---------------------------------------------------------------------------
# 4. Proximity predicates end to end
# ---------------------------------------------------------------------------


class TestDistanceJoin:
    def test_matches_brute_force_and_standalone(self):
        rel_a, rel_b = _relations(45)
        for epsilon in (0.0, 0.05, 0.25):
            config = JoinConfig(predicate="distance", epsilon=epsilon)
            result = SpatialJoinProcessor(config).join(rel_a, rel_b)
            assert sorted(result.id_pairs()) == sorted(
                brute_force_distance_join(rel_a, rel_b, epsilon)
            )
            # Pair *order* matches the per-object reference pipeline.
            reference = scalar_distance_join(rel_a, rel_b, epsilon)
            assert result.id_pairs() == reference.id_pairs()
        assert len(result) > 0  # epsilon=0.25 finds neighbours
        result.stats.check_invariants()

    def test_parallel_executor_runs_epsilon_aware_tasks(self):
        """Real workloads take the ε-aware parallel path: objects are
        replicated into every tile their ε/2-expanded MBR touches, the
        owning-task rule deduplicates, and the merged result matches
        the plain serial pipeline pair-for-pair."""
        rel_a, rel_b = _relations(46)
        config = JoinConfig(predicate="distance", epsilon=0.2, workers=3,
                            grid=(3, 3))
        parallel = parallel_partitioned_join(rel_a, rel_b, config=config)
        serial = SpatialJoinProcessor(
            replace(config, workers=1)
        ).join(rel_a, rel_b)
        assert parallel.workers == 3
        assert parallel.tile_tasks > 0
        assert sorted(parallel.id_pairs()) == sorted(serial.id_pairs())
        # The flow counters (every Figure-1 stage) match the serial
        # pipeline exactly — dedup runs before any counter moves.
        assert parallel.stats.candidate_pairs == serial.stats.candidate_pairs
        assert parallel.stats.exact_hits == serial.stats.exact_hits
        assert (
            parallel.stats.remaining_candidates
            == serial.stats.remaining_candidates
        )
        parallel.stats.check_invariants()

    def test_tiny_relations_still_route_serial(self):
        """Below the candidate-volume floor a task plan costs more than
        the join itself; the executor runs the ordinary serial join."""
        rel_a, rel_b = _relations(46, n_objects=4)  # 16 < 64 volume
        config = JoinConfig(predicate="distance", epsilon=0.2, workers=3,
                            grid=(3, 3))
        parallel = parallel_partitioned_join(rel_a, rel_b, config=config)
        serial = SpatialJoinProcessor(
            replace(config, workers=1)
        ).join(rel_a, rel_b)
        assert parallel.workers == 1
        assert parallel.tile_tasks == 0
        assert list(parallel.id_pairs()) == serial.id_pairs()
        assert parallel.stats == serial.stats


class TestKnnJoin:
    @pytest.mark.parametrize("k", [1, 3, 40])
    def test_matches_brute_force(self, k):
        # k=40 > |B|: every left object pairs with all right objects.
        rel_a, rel_b = _relations(47)
        config = JoinConfig(predicate="knn", k=k)
        result = SpatialJoinProcessor(config).join(rel_a, rel_b)
        assert result.id_pairs() == brute_force_knn_join(rel_a, rel_b, k)
        assert len(result) == len(list(rel_a)) * min(k, len(list(rel_b)))
        result.stats.check_invariants()

    def test_session_join_runs_parallel_knn(self):
        """kNN through a session engages the partitioned executor and
        reproduces the serial pipeline's pairs in the exact same
        left-relation order."""
        rel_a, rel_b = _relations(48)
        config = JoinConfig(predicate="knn", k=2, workers=2)
        with JoinSession(config=config) as session:
            inside = session.join(rel_a, rel_b)
            assert session.joins_run == 1
        serial = SpatialJoinProcessor(
            replace(config, workers=1)
        ).join(rel_a, rel_b)
        assert inside.tile_tasks > 0
        assert list(inside.id_pairs()) == serial.id_pairs()


class TestServicePayload:
    def test_proximity_and_kernel_fields_accepted(self):
        base = JoinConfig()
        request = {"op": "join", "relation_a": "a", "relation_b": "b"}
        config = _join_config_from_payload(
            {**request, "predicate": "distance", "epsilon": 0.05,
             "kernels": "python"},
            base,
        )
        assert config.predicate == "distance"
        assert config.epsilon == 0.05
        assert config.kernels == "python"
        config = _join_config_from_payload(
            {**request, "predicate": "knn", "k": 3}, base
        )
        assert config.predicate == "knn"
        assert config.k == 3
        config = _join_config_from_payload(
            {**request, "partitioner": "rtree", "target_tasks": 12}, base
        )
        assert config.target_tasks == 12

    def test_invalid_values_are_boundary_errors(self):
        base = JoinConfig()
        request = {"op": "join", "relation_a": "a", "relation_b": "b"}
        with pytest.raises(BadRequestError, match="epsilon"):
            _join_config_from_payload({**request, "epsilon": -1.0}, base)
        with pytest.raises(BadRequestError, match="k "):
            _join_config_from_payload(
                {**request, "predicate": "knn", "k": 0}, base
            )
        with pytest.raises(BadRequestError, match="target_tasks"):
            _join_config_from_payload({**request, "target_tasks": 0}, base)
        with pytest.raises(BadRequestError, match="unknown join fields"):
            _join_config_from_payload({**request, "epsilo": 0.1}, base)
        with pytest.raises(BadRequestError, match="unknown kernel backend"):
            _join_config_from_payload({**request, "kernels": "gpu"}, base)


class TestCli:
    @pytest.fixture()
    def wkt_paths(self, tmp_path):
        rel_a, rel_b = _relations(49, n_objects=12)
        path_a, path_b = tmp_path / "a.wkt", tmp_path / "b.wkt"
        save_relation(rel_a, path_a)
        save_relation(rel_b, path_b)
        return str(path_a), str(path_b)

    def test_distance_predicate(self, wkt_paths, capsys):
        path_a, path_b = wkt_paths
        rc = cli_main([
            "join", path_a, path_b, "--predicate", "distance",
            "--epsilon", "0.2", "--kernels", "python",
        ])
        assert rc == 0
        assert "distance (eps=0.2) join:" in capsys.readouterr().out

    def test_knn_predicate(self, wkt_paths, capsys):
        path_a, path_b = wkt_paths
        rc = cli_main([
            "join", path_a, path_b, "--predicate", "knn", "--k", "2",
        ])
        assert rc == 0
        assert "knn (k=2) join:" in capsys.readouterr().out


class TestCanonicalKernels:
    def test_kernels_listed_execution_only(self):
        assert "kernels" in EXECUTION_ONLY_FIELDS

    def test_all_backends_share_one_fingerprint(self):
        fingerprints = {
            JoinConfig(kernels=name).fingerprint()
            for name in KERNEL_BACKENDS
        }
        assert len(fingerprints) == 1
