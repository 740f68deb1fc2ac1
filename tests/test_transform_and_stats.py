"""Tests for point transforms, MultiStepStats and pagemodel corners."""

import math

import pytest

from repro.core.stats import MultiStepStats
from repro.geometry.transform import rotate, scale, translate
from repro.index.pagemodel import IOStats, LRUBuffer, PageLayout


class TestTransforms:
    def test_translate(self):
        assert translate([(1, 2)], 3, -1) == [(4, 1)]

    def test_rotate_quarter_turn(self):
        out = rotate([(1, 0)], math.pi / 2, origin=(0, 0))
        assert out[0][0] == pytest.approx(0.0, abs=1e-12)
        assert out[0][1] == pytest.approx(1.0)

    def test_rotate_about_noncentral_origin(self):
        out = rotate([(2, 1)], math.pi, origin=(1, 1))
        assert out[0] == pytest.approx((0.0, 1.0))

    def test_scale(self):
        assert scale([(2, 2)], 2.0, origin=(1, 1)) == [(3.0, 3.0)]

    def test_scale_identity(self):
        pts = [(0.3, 0.7), (0.1, 0.2)]
        assert scale(pts, 1.0, origin=(0, 0)) == pts


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
    def test_iostats_merge(self):
        buf = LRUBuffer(4)
        buf.access("a")
        buf.access("a")
        buf.access("b")
        stats = IOStats().merge(buf)
        assert stats.page_accesses == 2
        assert stats.buffer_hits == 1
        assert stats.total_requests == 3

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
