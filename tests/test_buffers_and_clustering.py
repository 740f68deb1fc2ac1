"""Buffer replacement policies and global object clustering."""

import random

import pytest

from repro.core.join import SpatialJoinProcessor
from repro.datasets.relations import europe
from repro.index.buffers import (
    BUFFER_POLICIES,
    ClockBuffer,
    FIFOBuffer,
    make_buffer,
)
from repro.index.clustering import (
    ClusteringReport,
    ObjectStore,
    compare_placements,
    object_size_bytes,
    simulate_join_object_access,
)
from repro.index.pagemodel import LRUBuffer


class TestBufferPolicies:
    @pytest.mark.parametrize("policy", sorted(BUFFER_POLICIES))
    def test_hit_after_access(self, policy):
        buf = make_buffer(policy, 4)
        assert buf.access("p1") is False
        assert buf.access("p1") is True
        assert buf.hits == 1
        assert buf.misses == 1

    @pytest.mark.parametrize("policy", sorted(BUFFER_POLICIES))
    def test_capacity_eviction(self, policy):
        buf = make_buffer(policy, 2)
        buf.access("a")
        buf.access("b")
        buf.access("c")  # evicts one page
        resident_hits = sum(buf.access(p) for p in ("a", "b", "c"))
        assert resident_hits <= 2 + 1  # at most capacity survive + re-read

    @pytest.mark.parametrize("policy", sorted(BUFFER_POLICIES))
    def test_counters_reset(self, policy):
        buf = make_buffer(policy, 4)
        buf.access("a")
        buf.access("a")
        buf.reset_counters()
        assert buf.hits == 0 and buf.misses == 0
        assert buf.access("a") is True  # contents survive a counter reset

    @pytest.mark.parametrize("policy", sorted(BUFFER_POLICIES))
    def test_clear_drops_contents(self, policy):
        buf = make_buffer(policy, 4)
        buf.access("a")
        buf.clear()
        assert buf.access("a") is False

    def test_fifo_ignores_recency(self):
        buf = FIFOBuffer(2)
        buf.access("a")
        buf.access("b")
        buf.access("a")  # hit, but FIFO order unchanged
        buf.access("c")  # evicts "a" (first in), not "b"
        assert buf.access("b") is True
        assert buf.access("a") is False

    def test_lru_respects_recency(self):
        buf = LRUBuffer(2)
        buf.access("a")
        buf.access("b")
        buf.access("a")  # refreshes "a"
        buf.access("c")  # evicts "b"
        assert buf.access("a") is True
        assert buf.access("b") is False

    def test_clock_second_chance(self):
        buf = ClockBuffer(2)
        buf.access("a")
        buf.access("b")
        buf.access("a")  # sets a's reference bit
        buf.access("c")  # b has no second chance -> evicted
        assert buf.access("a") is True
        assert buf.access("b") is False

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_buffer("arc", 8)

    @pytest.mark.parametrize("policy", sorted(BUFFER_POLICIES))
    def test_sequential_scan_all_miss(self, policy):
        buf = make_buffer(policy, 8)
        for i in range(100):
            assert buf.access(i) is False
        assert buf.misses == 100

    @pytest.mark.parametrize("policy", sorted(BUFFER_POLICIES))
    def test_working_set_within_capacity_all_hits(self, policy):
        buf = make_buffer(policy, 10)
        pages = list(range(10))
        for p in pages:
            buf.access(p)
        buf.reset_counters()
        rng = random.Random(1)
        for _ in range(200):
            assert buf.access(rng.choice(pages)) is True


class TestObjectStore:
    def test_object_size(self):
        assert object_size_bytes(0) == 32
        assert object_size_bytes(100) == 32 + 1600

    def test_invalid_order_rejected(self):
        rel = europe(size=5)
        with pytest.raises(ValueError):
            ObjectStore(rel, order="sorted-by-name")

    def test_small_page_rejected(self):
        rel = europe(size=5)
        with pytest.raises(ValueError):
            ObjectStore(rel, page_size=16)

    @pytest.mark.parametrize("order", ["insertion", "hilbert", "zorder", "random"])
    def test_every_object_placed(self, order):
        rel = europe(size=40)
        store = ObjectStore(rel, order=order)
        assert len(store) == 40
        for obj in rel:
            assert store.pages_of(obj.oid)

    def test_pages_contiguous(self):
        rel = europe(size=40)
        store = ObjectStore(rel, order="hilbert")
        for obj in rel:
            pages = store.pages_of(obj.oid)
            assert list(pages) == list(range(pages[0], pages[-1] + 1))

    def test_unbuffered_read_counts_all_pages(self):
        rel = europe(size=10)
        store = ObjectStore(rel)
        obj = rel[0]
        assert store.read_object(obj.oid) == len(store.pages_of(obj.oid))

    def test_buffered_reread_is_free(self):
        rel = europe(size=10)
        store = ObjectStore(rel)
        buf = LRUBuffer(64)
        store.read_object(rel[0].oid, buf)
        assert store.read_object(rel[0].oid, buf) == 0


class TestClusteringImpact:
    def join_pairs(self, rel_a, rel_b):
        result = SpatialJoinProcessor().join(rel_a, rel_b)
        return result.id_pairs()

    def test_reports_have_consistent_totals(self):
        rel_a = europe(size=40)
        rel_b = europe(seed=5, size=40)
        pairs = self.join_pairs(rel_a, rel_b)
        store_a = ObjectStore(rel_a, order="hilbert")
        store_b = ObjectStore(rel_b, order="hilbert")
        report = simulate_join_object_access(pairs, store_a, store_b)
        assert report.objects_fetched == 2 * len(pairs)
        assert report.page_reads + report.buffer_hits > 0
        assert 0.0 <= report.hit_ratio <= 1.0

    def test_clustering_beats_random_placement(self):
        """Global clustering must reduce join object-access I/O ([BK 94])."""
        rel_a = europe(size=80)
        rel_b = europe(seed=9, size=80)
        pairs = self.join_pairs(rel_a, rel_b)
        reports = {
            r.order: r
            for r in compare_placements(
                rel_a, rel_b, pairs, page_size=2048, buffer_pages=16
            )
        }
        assert reports["hilbert"].page_reads <= reports["random"].page_reads
        assert isinstance(reports["hilbert"], ClusteringReport)

    def test_empty_pair_sequence(self):
        rel = europe(size=10)
        store = ObjectStore(rel)
        report = simulate_join_object_access([], store, store)
        assert report.page_reads == 0
        assert report.objects_fetched == 0
