"""Tests for the partitioned (parallelism-oriented) join."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_relation_pair
from repro.core.join import JoinConfig, SpatialJoinProcessor, nested_loops_join
from repro.core.parallel import simulate_parallel_join
from repro.core.parallel_exec import parallel_partitioned_join
from repro.core.partition import (
    assign_tile_indices,
    partitioned_join,
    tile_rects,
)
from repro.geometry.rectangle import Rect


class TestPartitionedJoin:
    @pytest.mark.parametrize("grid", [(1, 1), (2, 2), (3, 2), (4, 4)])
    def test_matches_plain_join(self, tiny_series, tiny_oracle, grid):
        result = partitioned_join(
            tiny_series.relation_a,
            tiny_series.relation_b,
            grid=grid,
            config=JoinConfig(exact_method="vectorized"),
        )
        assert set(result.id_pairs()) == tiny_oracle
        # No duplicates: the reference-point rule assigns each pair once.
        assert len(result.id_pairs()) == len(set(result.id_pairs()))

    def test_invalid_grid_rejected(self, tiny_series):
        with pytest.raises(ValueError):
            partitioned_join(
                tiny_series.relation_a, tiny_series.relation_b, grid=(0, 2)
            )

    @pytest.mark.parametrize(
        "proximity", [{"epsilon": 0.05}, {"k": 2}], ids=["distance", "knn"]
    )
    def test_proximity_predicates_are_rejected(self, proximity):
        """MBR-overlap tiles would drop pairs whose MBRs do not meet.

        Measured before the rejection on this pair and grid: 24 of 35
        distance pairs, 23 of 40 kNN pairs.  The ε-aware executor keeps
        them all, in-process at ``workers=1``.
        """
        rel_a, rel_b = random_relation_pair(5, n_objects=20)
        predicate = "distance" if "epsilon" in proximity else "knn"
        config = JoinConfig(
            engine="batched", exact_method="vectorized",
            predicate=predicate, **proximity,
        )
        with pytest.raises(ValueError, match="parallel_partitioned_join"):
            partitioned_join(rel_a, rel_b, grid=(3, 3), config=config)
        with pytest.raises(ValueError, match="parallel_partitioned_join"):
            simulate_parallel_join(rel_a, rel_b, grid=(3, 3), config=config)
        serial = SpatialJoinProcessor(config).join(rel_a, rel_b)
        tiled = parallel_partitioned_join(
            rel_a, rel_b, grid=(3, 3), config=config, workers=1
        )
        assert tiled.tile_tasks > 0
        assert sorted(tiled.id_pairs()) == sorted(serial.id_pairs())

    def test_partition_stats_cover_grid(self, tiny_series):
        result = partitioned_join(
            tiny_series.relation_a,
            tiny_series.relation_b,
            grid=(3, 3),
            config=JoinConfig(exact_method="vectorized"),
        )
        assert len(result.partitions) == 9
        assert {p.tile for p in result.partitions} == {
            (i, j) for i in range(3) for j in range(3)
        }

    def test_speedup_bound_reasonable(self, tiny_series):
        result = partitioned_join(
            tiny_series.relation_a,
            tiny_series.relation_b,
            grid=(2, 2),
            config=JoinConfig(exact_method="vectorized"),
        )
        bound = result.parallel_speedup_bound()
        # 4 tiles: bound in (1, 4]; uniform-ish data should parallelise.
        assert 1.0 <= bound <= 4.0 + 1e-9
        assert result.total_work >= result.max_tile_work

    def test_replication_increases_candidate_work(self, tiny_series):
        plain = SpatialJoinProcessor(
            JoinConfig(exact_method="vectorized")
        ).join(tiny_series.relation_a, tiny_series.relation_b)
        part = partitioned_join(
            tiny_series.relation_a,
            tiny_series.relation_b,
            grid=(3, 3),
            config=JoinConfig(exact_method="vectorized"),
        )
        # Border objects are replicated, so the summed candidate count is
        # at least the plain join's.
        assert part.stats.candidate_pairs >= plain.stats.candidate_pairs

    def test_finer_grid_smaller_max_tile(self, tiny_series):
        coarse = partitioned_join(
            tiny_series.relation_a,
            tiny_series.relation_b,
            grid=(1, 1),
            config=JoinConfig(exact_method="vectorized"),
        )
        fine = partitioned_join(
            tiny_series.relation_a,
            tiny_series.relation_b,
            grid=(4, 4),
            config=JoinConfig(exact_method="vectorized"),
        )
        assert fine.max_tile_work < coarse.max_tile_work


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.sampled_from([0.0, 1.0 / 64.0, 0.013, 0.5]),
)
def test_grid_assignment_equals_per_object_intersects(seed, n, nx, ny, half):
    """The broadcast tile assignment keeps exactly the rows whose MBR,
    grown by ``half`` as ``Rect.expand`` grows it, meets each closed
    tile, in ascending order.  Half the coordinates sit on a 1/8 lattice,
    so MBR sides fall on tile borders."""
    rng = np.random.default_rng(seed)
    corners = rng.random((n, 2))
    sizes = rng.random((n, 2)) * 0.4
    on_lattice = rng.random(n) < 0.5
    corners[on_lattice] = np.floor(corners[on_lattice] * 8) / 8
    sizes[on_lattice] = np.ceil(sizes[on_lattice] * 8) / 8
    mbrs = np.column_stack((corners, corners + sizes))
    tiles = tile_rects(Rect(0.0, 0.0, 1.25, 1.25), nx, ny)
    got = assign_tile_indices(mbrs, tiles, expand=half)
    assert list(got) == list(tiles)
    for key, tile in tiles.items():
        want = [
            row for row in range(n)
            if Rect(*mbrs[row].tolist()).expand(half).intersects(tile)
        ]
        assert got[key].dtype == np.intp
        assert got[key].tolist() == want, key
