"""JoinConfig must reject bad settings at construction time.

An unknown exact method, engine, or predicate — and a worker count
below 1 or a parallel config that cannot be pickled to worker
processes — raises ``ValueError`` immediately (not deep inside the
pipeline or the process pool), and the message names the valid choices
so the fix is obvious from the traceback alone.
"""

from __future__ import annotations

import pytest

from repro.core.filters import FilterConfig
from repro.core.join import (
    ENGINES,
    EXACT_METHODS,
    JoinConfig,
    SpatialJoinProcessor,
)


def test_unknown_exact_method_names_choices():
    with pytest.raises(ValueError) as excinfo:
        JoinConfig(exact_method="magic")
    message = str(excinfo.value)
    assert "magic" in message
    for choice in EXACT_METHODS:
        assert choice in message


def test_unknown_engine_names_choices():
    with pytest.raises(ValueError) as excinfo:
        JoinConfig(engine="warp-drive")
    message = str(excinfo.value)
    assert "warp-drive" in message
    for choice in ENGINES:
        assert choice in message
    assert "streaming" in message and "batched" in message


def test_unknown_predicate_names_choices():
    with pytest.raises(ValueError) as excinfo:
        JoinConfig(predicate="touches")
    message = str(excinfo.value)
    assert "touches" in message
    assert "intersects" in message and "within" in message


@pytest.mark.parametrize("batch_size", (0, -1, -100))
def test_invalid_batch_size_rejected(batch_size):
    with pytest.raises(ValueError, match="batch_size"):
        JoinConfig(batch_size=batch_size)


@pytest.mark.parametrize("batch_size", (2.5, True, "8", None))
def test_non_integer_batch_size_rejected(batch_size):
    """Validated like exact_batch and workers: an int, not a bool."""
    with pytest.raises(ValueError, match="batch_size"):
        JoinConfig(batch_size=batch_size)


@pytest.mark.parametrize("exact", ("trstar", "planesweep", "quadratic"))
def test_scalar_exact_methods_rejected(exact):
    """The paper's scalar processors are oracles, not join options."""
    with pytest.raises(ValueError) as excinfo:
        JoinConfig(exact_method=exact)
    message = str(excinfo.value)
    assert exact in message and "('vectorized',)" in message


@pytest.mark.parametrize(
    "field", ("trstar_max_entries", "restrict_search_space")
)
def test_scalar_processor_fields_removed(field):
    with pytest.raises(TypeError):
        JoinConfig(**{field: 3})


@pytest.mark.parametrize("exact_batch", (0, -1, -64))
def test_exact_batch_below_one_rejected(exact_batch):
    with pytest.raises(ValueError) as excinfo:
        JoinConfig(exact_method="vectorized", exact_batch=exact_batch)
    message = str(excinfo.value)
    assert str(exact_batch) in message
    # The message names the field and its minimum.
    assert "exact_batch" in message and ">= 1" in message


@pytest.mark.parametrize("exact_batch", (1.5, "64", None, True))
def test_non_integer_exact_batch_rejected(exact_batch):
    with pytest.raises(ValueError, match="exact_batch"):
        JoinConfig(exact_method="vectorized", exact_batch=exact_batch)


def test_exact_batch_accepted_for_vectorized():
    for exact_batch in (1, 2, 64, 4096):
        config = JoinConfig(exact_batch=exact_batch)
        assert config.exact_batch == exact_batch
    assert JoinConfig().exact_batch == 64
    assert EXACT_METHODS == ("vectorized",)
    assert JoinConfig().exact_method == "vectorized"


@pytest.mark.parametrize(
    "grid", ((0, 4), (4, 0), (0, 0), (-1, 2), (2, -3))
)
def test_grid_below_one_rejected(grid):
    """Bad grids fail at the config boundary, not inside the planner."""
    with pytest.raises(ValueError) as excinfo:
        JoinConfig(grid=grid)
    message = str(excinfo.value)
    # Mirrors the workers/batch_size style: the message names the
    # offending value's field and the minimum (a 1x1 grid).
    assert "grid" in message and "1x1" in message


@pytest.mark.parametrize(
    "grid",
    ((1.5, 2), ("4", 4), (2, True), (4,), (1, 2, 3), 4, None),
)
def test_malformed_grid_rejected(grid):
    with pytest.raises(ValueError, match="grid"):
        JoinConfig(grid=grid)


def test_grid_coerced_to_tuple():
    """CLI-style list grids become tuples so the config stays hashable."""
    config = JoinConfig(grid=[3, 2])
    assert config.grid == (3, 2)
    assert isinstance(config.grid, tuple)


def test_validate_grid_helper_shared_with_executor():
    """The executor's explicit grid argument uses the same validation."""
    from repro.core.join import validate_grid

    assert validate_grid([2, 5]) == (2, 5)
    with pytest.raises(ValueError, match="1x1"):
        validate_grid((0, 4))


def test_scheduler_is_not_a_config_field():
    """Tiles always dispatch largest-first: there is nothing to choose."""
    with pytest.raises(TypeError, match="scheduler"):
        JoinConfig(scheduler="static")


def test_unknown_partitioner_names_choices():
    from repro.core.join import PARTITIONERS

    with pytest.raises(ValueError) as excinfo:
        JoinConfig(partitioner="voronoi")
    message = str(excinfo.value)
    assert "voronoi" in message
    for choice in PARTITIONERS:
        assert choice in message


def test_valid_partitioners_accepted():
    from repro.core.join import PARTITIONERS

    for partitioner in PARTITIONERS:
        assert JoinConfig(partitioner=partitioner).partitioner == partitioner
    assert set(PARTITIONERS) == {"grid", "rtree"}


def test_partitioner_registry_consistent_with_factory():
    """Config choices, CLI choices, and the factory agree."""
    from repro.core.join import PARTITIONERS
    from repro.core.partition import create_partitioner

    for name in PARTITIONERS:
        assert create_partitioner(name).name == name
    with pytest.raises(ValueError, match="voronoi"):
        create_partitioner("voronoi")


class TestTargetTasksValidation:
    """``target_tasks`` — the tree partitioner's task budget — is
    validated at the config boundary like every other knob."""

    @pytest.mark.parametrize("bad", (0, -1, -64))
    def test_below_one_rejected(self, bad):
        with pytest.raises(ValueError, match="target_tasks"):
            JoinConfig(target_tasks=bad)

    @pytest.mark.parametrize("bad", (1.5, "8", True, None))
    def test_non_integers_rejected(self, bad):
        with pytest.raises(ValueError, match="target_tasks"):
            JoinConfig(target_tasks=bad)

    def test_valid_budgets_accepted(self):
        assert JoinConfig().target_tasks == 64
        assert JoinConfig(target_tasks=1).target_tasks == 1
        assert JoinConfig(target_tasks=500).target_tasks == 500

    def test_budget_reaches_tree_partitioner(self):
        from repro.core.partition import create_partitioner

        assert create_partitioner("rtree", target_tasks=7).target_tasks == 7

    def test_in_canonical_key(self):
        """The budget shapes rtree task plans, hence result telemetry —
        it must split service cache entries."""
        assert (
            JoinConfig(target_tasks=8).canonical_key()
            != JoinConfig(target_tasks=64).canonical_key()
        )


class TestEpsilonValidation:
    """``validate_epsilon`` guards the distance-join boundary."""

    def test_negative_epsilon_rejected(self):
        from repro.core.distance import validate_epsilon

        with pytest.raises(ValueError) as excinfo:
            validate_epsilon(-0.5)
        message = str(excinfo.value)
        assert "-0.5" in message and "epsilon" in message

    @pytest.mark.parametrize("epsilon", (float("nan"), float("inf"),
                                         float("-inf")))
    def test_non_finite_epsilon_rejected(self, epsilon):
        from repro.core.distance import validate_epsilon

        with pytest.raises(ValueError, match="finite"):
            validate_epsilon(epsilon)

    def test_valid_epsilon_coerced_to_float(self):
        from repro.core.distance import validate_epsilon

        assert validate_epsilon(0) == 0.0
        assert validate_epsilon(0.25) == 0.25
        assert isinstance(validate_epsilon(1), float)

    def test_join_rejects_negative_epsilon_at_the_boundary(self):
        with pytest.raises(ValueError, match="epsilon"):
            SpatialJoinProcessor(
                JoinConfig(predicate="distance", epsilon=-1.0)
            ).join([], [])


class TestKValidation:
    """``validate_k`` guards the knn query boundary."""

    @pytest.mark.parametrize("k", (0, -1, -10))
    def test_k_below_one_rejected(self, k):
        from repro.index.knn import validate_k

        with pytest.raises(ValueError) as excinfo:
            validate_k(k)
        message = str(excinfo.value)
        assert str(k) in message and "k must be" in message

    @pytest.mark.parametrize("k", (1.5, "4", None, True))
    def test_non_integer_k_rejected(self, k):
        from repro.index.knn import validate_k

        with pytest.raises(ValueError, match="integer"):
            validate_k(k)

    def test_valid_k_passes_through(self):
        from repro.index.knn import validate_k

        assert validate_k(1) == 1
        assert validate_k(50) == 50

    @pytest.mark.parametrize("k", (0, -3))
    def test_queries_reject_bad_k_at_the_boundary(self, k):
        from repro.index.knn import knn_query
        from repro.index.rstar import RStarTree

        tree = RStarTree()
        with pytest.raises(ValueError, match="k must be"):
            knn_query(tree, (0.5, 0.5), k)


def test_session_field_removed():
    """Sessions are passed to the executor, never carried by a config."""
    with pytest.raises(TypeError):
        JoinConfig(session=None)


@pytest.mark.parametrize("workers", (0, -1, -8))
def test_workers_below_one_rejected(workers):
    with pytest.raises(ValueError) as excinfo:
        JoinConfig(workers=workers)
    message = str(excinfo.value)
    assert str(workers) in message
    # The message names the valid choices, like the engine validation.
    assert "serial" in message and "multi-process" in message


@pytest.mark.parametrize("workers", (1.5, "4", None))
def test_non_integer_workers_rejected(workers):
    with pytest.raises(ValueError, match="workers"):
        JoinConfig(workers=workers)


def test_non_picklable_parallel_config_rejected_early():
    class LocalFilter(FilterConfig):
        """Instances of test-local classes cannot be pickled."""

    unpicklable = LocalFilter()
    # Serial configs never cross a process boundary: accepted.
    JoinConfig(filter=unpicklable, workers=1)
    with pytest.raises(ValueError, match="picklable"):
        JoinConfig(filter=unpicklable, workers=2)


def test_parallel_config_accepts_picklable_defaults():
    config = JoinConfig(workers=4)
    assert config.workers == 4
    import pickle

    assert pickle.loads(pickle.dumps(config)) == config


def test_valid_configs_construct():
    for engine in ENGINES:
        for exact in EXACT_METHODS:
            config = JoinConfig(engine=engine, exact_method=exact,
                                batch_size=1)
            assert config.engine == engine
            assert config.exact_method == exact


def test_registry_constants_are_consistent():
    """The CLI choices, config validation, and engine factory agree."""
    from repro.engine.batched import BatchedEngine
    from repro.engine.streaming import StreamingEngine

    assert set(ENGINES) == {StreamingEngine.name, BatchedEngine.name}
