"""Counter invariants of ``MultiStepStats`` — locked in for both engines.

After any completed join: every MBR-join candidate is classified exactly
once (``filter_hits + filter_false_hits + remaining_candidates ==
candidate_pairs``), every remaining candidate gets exactly one exact
test (``exact_tests == remaining_candidates``), and the buffer
page-access counters only ever grow.  ``MultiStepStats.merge`` must be
an associative, commutative fold with the empty stats as identity, so
per-tile statistics can be aggregated in any order — the property the
multi-process tile executor relies on.
"""

from __future__ import annotations

import random

import pytest

from helpers import random_relation_pair, stats_fingerprint
from repro.core.filters import FilterConfig
from repro.core.join import JoinConfig, SpatialJoinProcessor
from repro.core.stats import MultiStepStats
from repro.index.pagemodel import LRUBuffer

ENGINES = ("streaming", "batched")

CONFIGS = [
    JoinConfig(exact_method="vectorized"),
    JoinConfig(
        filter=FilterConfig(conservative=None, progressive=None),
        exact_method="vectorized",
    ),
    JoinConfig(
        filter=FilterConfig(conservative="MBC", progressive="MEC",
                            use_false_area_test=True),
        exact_method="vectorized",
    ),
    JoinConfig(exact_method="vectorized", predicate="within"),
]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("cfg_index", range(len(CONFIGS)))
def test_flow_conservation_after_join(engine, cfg_index):
    from dataclasses import replace

    config = replace(CONFIGS[cfg_index], engine=engine, batch_size=32)
    rel_a, rel_b = random_relation_pair(cfg_index + 50)
    stats = SpatialJoinProcessor(config).join(rel_a, rel_b).stats
    stats.check_invariants()
    assert (
        stats.filter_hits + stats.filter_false_hits + stats.exact_tests
        == stats.candidate_pairs
    )
    assert stats.exact_tests == stats.remaining_candidates
    assert stats.identified_pairs + stats.remaining_candidates == (
        stats.candidate_pairs
    )


def _random_valid_stats(rng: random.Random) -> MultiStepStats:
    """Random stats satisfying the Figure-1 flow invariants."""
    stats = MultiStepStats()
    stats.filter_hits_progressive = rng.randint(0, 50)
    stats.filter_hits_false_area = rng.randint(0, 10)
    stats.filter_false_hits = rng.randint(0, 50)
    stats.exact_hits = rng.randint(0, 30)
    stats.exact_false_hits = rng.randint(0, 30)
    stats.remaining_candidates = stats.exact_hits + stats.exact_false_hits
    stats.candidate_pairs = (
        stats.filter_hits + stats.filter_false_hits
        + stats.remaining_candidates
    )
    stats.mbr_join.output_pairs = stats.candidate_pairs
    stats.mbr_join.mbr_tests = stats.candidate_pairs + rng.randint(0, 100)
    stats.mbr_join.node_pairs = rng.randint(0, 20)
    stats.conservative_tests = rng.randint(0, stats.candidate_pairs)
    stats.progressive_tests = rng.randint(0, stats.candidate_pairs)
    stats.false_area_tests = rng.randint(0, 10)
    stats.refine_batch_pairs = rng.randint(0, stats.exact_tests)
    stats.refine_batches = min(stats.refine_batch_pairs, rng.randint(1, 5))
    stats.refine_fallback_pairs = rng.randint(0, stats.refine_batch_pairs)
    stats.check_invariants()
    return stats


class TestMerge:
    def test_merge_is_commutative(self):
        rng = random.Random(71)
        for _ in range(20):
            a, b = _random_valid_stats(rng), _random_valid_stats(rng)
            ab = MultiStepStats.merged([a, b])
            ba = MultiStepStats.merged([b, a])
            assert stats_fingerprint(ab) == stats_fingerprint(ba)
            assert ab.mbr_join.node_pairs == ba.mbr_join.node_pairs

    def test_merge_is_associative(self):
        rng = random.Random(72)
        for _ in range(20):
            a, b, c = (_random_valid_stats(rng) for _ in range(3))
            left = MultiStepStats.merged([MultiStepStats.merged([a, b]), c])
            right = MultiStepStats.merged([a, MultiStepStats.merged([b, c])])
            assert stats_fingerprint(left) == stats_fingerprint(right)

    def test_empty_stats_is_merge_identity(self):
        rng = random.Random(73)
        stats = _random_valid_stats(rng)
        fingerprint = stats_fingerprint(stats)
        merged = MultiStepStats.merged([MultiStepStats(), stats])
        assert stats_fingerprint(merged) == fingerprint
        merged.merge(MultiStepStats())
        assert stats_fingerprint(merged) == fingerprint

    def test_merge_returns_self_and_mutates_in_place(self):
        target = MultiStepStats()
        other = MultiStepStats()
        other.candidate_pairs = other.mbr_join.output_pairs = 3
        other.remaining_candidates = other.exact_hits = 3
        assert target.merge(other) is target
        assert target.candidate_pairs == 3
        # The source is never mutated by a merge.
        assert other.candidate_pairs == 3

    def test_invariants_hold_on_any_merge_of_valid_parts(self):
        rng = random.Random(74)
        for _ in range(10):
            parts = [
                _random_valid_stats(rng)
                for _ in range(rng.randint(1, 6))
            ]
            merged = MultiStepStats.merged(parts)
            merged.check_invariants()
            assert merged.candidate_pairs == sum(
                p.candidate_pairs for p in parts
            )
            assert merged.refine_batch_pairs == sum(
                p.refine_batch_pairs for p in parts
            )

    def test_merged_tile_stats_equal_partitioned_join_stats(self):
        """Folding real per-tile worker stats reproduces the serial sum."""
        from repro.core.parallel_exec import (
            plan_columnar_tile_tasks,
            run_columnar_tile_task,
        )
        from repro.core.partition import partitioned_join

        rel_a, rel_b = random_relation_pair(61)
        config = JoinConfig(exact_method="vectorized")
        serial = partitioned_join(rel_a, rel_b, grid=(3, 3), config=config)
        tasks, _, session = plan_columnar_tile_tasks(
            rel_a, rel_b, (3, 3), config
        )
        try:
            merged = MultiStepStats.merged(
                run_columnar_tile_task(task).stats for task in tasks
            )
        finally:
            session.close()
        assert stats_fingerprint(merged) == stats_fingerprint(serial.stats)
        merged.check_invariants()


def test_check_invariants_catches_leaks():
    stats = MultiStepStats()
    stats.candidate_pairs = 3
    stats.filter_false_hits = 1
    stats.remaining_candidates = 1  # one candidate unaccounted for
    with pytest.raises(AssertionError, match="leak"):
        stats.check_invariants()


class _RecordingBuffer(LRUBuffer):
    """LRU buffer that snapshots its counters after every access."""

    def __init__(self, capacity_pages):
        super().__init__(capacity_pages)
        self.snapshots = []

    def access(self, page_id):
        hit = super().access(page_id)
        self.snapshots.append((self.hits, self.misses, self.accesses))
        return hit


@pytest.mark.parametrize("engine", ENGINES)
def test_buffer_page_counters_monotone(engine, monkeypatch):
    """hits/misses/accesses never decrease while a join runs."""
    import repro.engine.base as engine_base

    buffers = []

    def capture(capacity_pages):
        buf = _RecordingBuffer(capacity_pages)
        buffers.append(buf)
        return buf

    monkeypatch.setattr(engine_base, "LRUBuffer", capture)
    rel_a, rel_b = random_relation_pair(9)
    config = JoinConfig(
        exact_method="vectorized", buffer_pages=4, engine=engine,
        batch_size=16,
    )
    SpatialJoinProcessor(config).join(rel_a, rel_b)

    assert buffers, "join with buffer_pages must allocate an LRU buffer"
    for buf in buffers:
        assert buf.snapshots, "buffer never accessed"
        prev = (0, 0, 0)
        for snap in buf.snapshots:
            hits, misses, accesses = snap
            assert accesses == hits + misses
            assert snap >= prev, f"counter went backwards: {prev} -> {snap}"
            assert accesses == prev[2] + 1, "exactly one access per visit"
            prev = snap


@pytest.mark.parametrize("engine", ENGINES)
def test_buffer_accounting_identical_across_engines(engine):
    """Total page reads with a buffer are engine-independent."""
    from dataclasses import replace

    rel_a, rel_b = random_relation_pair(13)
    base = JoinConfig(exact_method="vectorized", buffer_pages=4)
    result = SpatialJoinProcessor(
        replace(base, engine=engine, batch_size=16)
    ).join(rel_a, rel_b)
    reference = SpatialJoinProcessor(base).join(rel_a, rel_b)
    assert result.stats.mbr_join.node_pairs == (
        reference.stats.mbr_join.node_pairs
    )
    assert result.id_pairs() == reference.id_pairs()
