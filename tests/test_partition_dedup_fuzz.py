"""Fuzz the reference-tile de-duplication rule with boundary straddlers.

The partitioned join replicates an object into every tile its MBR
intersects; a qualifying pair must then be reported by *exactly one*
tile — the one owning the lower-left corner of the two MBRs'
intersection.  These tests generate data whose objects sit exactly on
tile cut lines and corners (``helpers.boundary_straddling_pair``) and
assert, against the nested-loops oracle, that no result pair is ever
lost or double-counted — serially, and through the multi-process
executor.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import boundary_straddling_pair
from repro.core.join import JoinConfig, nested_loops_join
from repro.core.parallel_exec import parallel_partitioned_join
from repro.core.partition import (
    joint_space,
    owning_tile,
    partitioned_join,
    tile_rects,
)

CONFIG = JoinConfig(exact_method="vectorized")


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    nx=st.integers(min_value=1, max_value=5),
    ny=st.integers(min_value=1, max_value=5),
)
def test_no_pair_lost_or_duplicated(seed, nx, ny):
    rel_a, rel_b = boundary_straddling_pair(seed, (nx, ny))
    oracle = Counter(nested_loops_join(rel_a, rel_b))
    result = partitioned_join(rel_a, rel_b, grid=(nx, ny), config=CONFIG)
    got = Counter(result.id_pairs())
    assert got == oracle, (
        f"grid ({nx},{ny}): lost {oracle - got}, duplicated {got - oracle}"
    )
    # Per-tile output counts must sum to the de-duplicated total.
    assert sum(p.output_pairs for p in result.partitions) == len(
        result.id_pairs()
    )


@pytest.mark.parallel
@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    nx=st.integers(min_value=2, max_value=4),
    ny=st.integers(min_value=2, max_value=4),
)
def test_no_pair_lost_or_duplicated_across_processes(seed, nx, ny):
    """The same guarantee when tiles run on separate worker processes."""
    rel_a, rel_b = boundary_straddling_pair(seed, (nx, ny))
    oracle = Counter(nested_loops_join(rel_a, rel_b))
    result = parallel_partitioned_join(
        rel_a, rel_b, grid=(nx, ny), config=CONFIG, workers=2
    )
    assert Counter(result.id_pairs()) == oracle


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    nx=st.integers(min_value=1, max_value=6),
    ny=st.integers(min_value=1, max_value=6),
)
def test_owning_tile_assigns_exactly_one_tile(seed, nx, ny):
    """Every intersecting MBR pair is owned by exactly one grid tile,
    and that tile intersects both MBRs (so both replicas are present)."""
    rel_a, rel_b = boundary_straddling_pair(seed, (nx, ny), n_objects=6)
    space = joint_space(rel_a, rel_b)
    tiles = tile_rects(space, nx, ny)
    for obj_a in rel_a:
        for obj_b in rel_b:
            if not obj_a.mbr.intersects(obj_b.mbr):
                continue
            owner = owning_tile(obj_a.mbr, obj_b.mbr, space, nx, ny)
            assert owner in tiles, (
                "owning_tile must name a real grid tile even for pairs "
                "touching the space boundary"
            )
            # The owner must hold replicas of both objects, otherwise
            # its local join could never report the pair.
            tile = tiles[owner]
            assert tile.intersects(obj_a.mbr)
            assert tile.intersects(obj_b.mbr)
