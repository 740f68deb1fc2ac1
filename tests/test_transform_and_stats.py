"""Tests for MultiStepStats and pagemodel corners."""

import pytest

from repro.core.stats import MultiStepStats
from repro.index.pagemodel import LRUBuffer, PageLayout


class TestMultiStepStats:
    def test_identified_pairs_composition(self):
        stats = MultiStepStats()
        stats.candidate_pairs = 10
        stats.filter_false_hits = 3
        stats.filter_hits_progressive = 2
        stats.filter_hits_false_area = 1
        assert stats.filter_hits == 3
        assert stats.identified_pairs == 6
        assert stats.identification_rate() == pytest.approx(0.6)

    def test_total_hits(self):
        stats = MultiStepStats()
        stats.filter_hits_progressive = 2
        stats.exact_hits = 5
        assert stats.total_hits == 7

    def test_zero_candidates_rate(self):
        assert MultiStepStats().identification_rate() == 0.0

    def test_summary_is_serialisable(self):
        import json

        summary = MultiStepStats().summary()
        assert json.loads(json.dumps(summary)) == summary


class TestPageModelCorners:
    def test_buffer_reset_keeps_contents(self):
        buf = LRUBuffer(4)
        buf.access("a")
        buf.reset_counters()
        assert buf.access("a")  # still buffered -> hit
        assert buf.hits == 1 and buf.misses == 0

    def test_buffer_clear_drops_contents(self):
        buf = LRUBuffer(4)
        buf.access("a")
        buf.clear()
        assert not buf.access("a")

    def test_layout_minimum_capacities(self):
        # Pathologically small pages still give a working (>=2) fanout.
        layout = PageLayout(page_size=64, key_bytes=40, extra_leaf_bytes=40)
        assert layout.leaf_capacity() >= 2
        assert layout.directory_capacity() >= 2
