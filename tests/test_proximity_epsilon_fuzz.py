"""Fuzz the ε-expanded proximity task formation against brute force.

The ε-aware decomposition has four sharp edges, each targeted here with
hypothesis-generated lattice geometry (binary-fraction coordinates, so
axis-aligned gaps and exact distances are *exact* floats):

* **ε = 0** — the expansion degenerates to the plain intersect
  decomposition; touching objects (gap exactly 0) are hits.
* **pairs exactly at distance ε** — the predicate is closed
  (``dist <= ε``); a pair whose gap equals ε to the last bit must be
  found even when its objects land in different tiles and only meet
  through the ε/2-expanded replication.
* **ε larger than the joint space** — every object is replicated into
  every tile, every pair qualifies, and the owning-task rule still
  reports each exactly once.
* **k ≥ |B| and coincident objects** — the k-th-neighbour bound is
  unbounded (every task probes all of B), and exact-distance ties
  (stacked duplicate geometry) must break identically to the serial
  pipeline (ascending oid).

Each property is checked through the partitioned executor's in-process
path (workers=1 runs the identical ε-aware task plan without pool
overhead, so hypothesis can afford real example counts) for **both**
partitioners, against the nested-loops oracles; a final pool-backed
test replays a smaller sweep at workers=2 to pin process-boundary
behaviour.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import brute_force_distance_join
from repro.core.join import JoinConfig
from repro.core.parallel_exec import parallel_partitioned_join
from repro.core.proximity import brute_force_knn_join
from repro.datasets.relations import SpatialRelation
from repro.geometry.polygon import Polygon

#: lattice pitch and square half-width: exact binary fractions, so the
#: axis-aligned gap between row-adjacent squares is exactly
#: ``PITCH - 2 * HALF`` and a Euclidean distance along one axis equals
#: that gap to the last bit.
PITCH = 0.25
HALF = 0.0625
EXACT_GAP = PITCH - 2 * HALF  # 0.125, exact


def _square(cx, cy, half=HALF):
    return Polygon(
        [
            (cx - half, cy - half),
            (cx + half, cy - half),
            (cx + half, cy + half),
            (cx - half, cy + half),
        ]
    )


def _lattice_relations(cells_a, cells_b, name):
    """Two relations of lattice squares at the given (col, row) cells."""
    rel_a = SpatialRelation(
        f"A{name}", [_square(c * PITCH, r * PITCH) for c, r in cells_a]
    )
    rel_b = SpatialRelation(
        f"B{name}", [_square(c * PITCH, r * PITCH) for c, r in cells_b]
    )
    return rel_a, rel_b


#: ≥ 9 cells per relation keeps the candidate volume ≥ 81... above the
#: serial-routing floor only when 81 >= 64 — hence minimum 9 squares, so
#: every drawn example takes the ε-aware parallel path.
_cells = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
    ),
    min_size=9,
    max_size=14,
)


def _distance_case(rel_a, rel_b, epsilon, grid=(3, 3)):
    oracle = Counter(brute_force_distance_join(rel_a, rel_b, epsilon))
    for partitioner in ("grid", "rtree"):
        config = JoinConfig(
            predicate="distance",
            epsilon=epsilon,
            workers=1,
            grid=grid,
            partitioner=partitioner,
        )
        result = parallel_partitioned_join(rel_a, rel_b, config=config)
        got = Counter(result.id_pairs())
        assert got == oracle, (
            f"{partitioner} ε={epsilon}: lost {oracle - got}, "
            f"duplicated {got - oracle}"
        )
        result.stats.check_invariants()


@settings(max_examples=30, deadline=None)
@given(cells_a=_cells, cells_b=_cells)
def test_pairs_exactly_at_epsilon(cells_a, cells_b):
    """Row/column-adjacent squares sit at distance exactly ε; the closed
    predicate must report them even across tile borders."""
    rel_a, rel_b = _lattice_relations(cells_a, cells_b, "exact")
    _distance_case(rel_a, rel_b, EXACT_GAP)
    # One lattice pitch is also exact; diagonal neighbours then sit at
    # hypot(gap, gap) — irrational, strictly between the two ε values.
    _distance_case(rel_a, rel_b, PITCH)


@settings(max_examples=30, deadline=None)
@given(cells_a=_cells, cells_b=_cells)
def test_epsilon_zero_degenerates_to_intersect(cells_a, cells_b):
    """ε=0: only overlapping or exactly-touching squares qualify, and
    the expansion-free task plan still dedups replicated borders."""
    # Double the half-width so lattice neighbours share edges exactly
    # (gap 0) — the touching case ε=0 must include.
    rel_a = SpatialRelation(
        "Atouch", [_square(c * PITCH, r * PITCH, PITCH / 2)
                   for c, r in cells_a]
    )
    rel_b = SpatialRelation(
        "Btouch", [_square(c * PITCH, r * PITCH, PITCH / 2)
                   for c, r in cells_b]
    )
    _distance_case(rel_a, rel_b, 0.0)


@settings(max_examples=15, deadline=None)
@given(cells_a=_cells, cells_b=_cells)
def test_epsilon_exceeds_joint_space(cells_a, cells_b):
    """ε beyond the joint-space diagonal: every pair qualifies, every
    object is replicated everywhere, each pair reported exactly once."""
    rel_a, rel_b = _lattice_relations(cells_a, cells_b, "huge")
    epsilon = 64.0  # lattice spans < 2 units
    _distance_case(rel_a, rel_b, epsilon)
    result = parallel_partitioned_join(
        rel_a,
        rel_b,
        config=JoinConfig(
            predicate="distance", epsilon=epsilon, workers=1, grid=(3, 3)
        ),
    )
    assert len(result.id_pairs()) == len(list(rel_a)) * len(list(rel_b))


@settings(max_examples=20, deadline=None)
@given(cells_a=_cells, cells_b=_cells, k=st.integers(1, 20))
def test_knn_bounds_and_ties(cells_a, cells_b, k):
    """kNN across k ≥ |B| (unbounded probe regions) and coincident
    geometry (duplicate lattice cells → exact-distance ties): parallel
    pairs equal the nested-loops oracle in order."""
    rel_a, rel_b = _lattice_relations(cells_a, cells_b, f"knn{k}")
    oracle = brute_force_knn_join(rel_a, rel_b, k)
    for partitioner in ("grid", "rtree"):
        config = JoinConfig(
            predicate="knn",
            k=k,
            workers=1,
            grid=(3, 3),
            partitioner=partitioner,
        )
        result = parallel_partitioned_join(rel_a, rel_b, config=config)
        assert list(result.id_pairs()) == oracle, partitioner
        n_a, n_b = len(list(rel_a)), len(list(rel_b))
        assert len(result.id_pairs()) == n_a * min(k, n_b)
        result.stats.check_invariants()


@pytest.mark.parallel
@settings(max_examples=6, deadline=None)
@given(
    cells_a=_cells,
    cells_b=_cells,
    epsilon=st.sampled_from([0.0, EXACT_GAP, 64.0]),
)
def test_pool_matches_in_process_plan(cells_a, cells_b, epsilon):
    """A real 2-worker pool reproduces the in-process plan run byte for
    byte (pairs, order, stats) on the adversarial ε values."""
    rel_a, rel_b = _lattice_relations(cells_a, cells_b, "pool")
    config = JoinConfig(
        predicate="distance", epsilon=epsilon, workers=2, grid=(3, 3)
    )
    pooled = parallel_partitioned_join(rel_a, rel_b, config=config)
    oracle = parallel_partitioned_join(
        rel_a, rel_b, config=JoinConfig(
            predicate="distance", epsilon=epsilon, workers=1, grid=(3, 3)
        )
    )
    assert list(pooled.id_pairs()) == list(oracle.id_pairs())
    assert pooled.stats == oracle.stats
    assert pooled.stats.dedup_dropped == oracle.stats.dedup_dropped
