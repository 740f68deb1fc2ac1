"""Tests for the multi-step window/point query processor."""

import random

import pytest

from repro.core.filters import FilterConfig
from repro.core.window import WindowQueryProcessor, WindowQueryStats
from repro.geometry.fastops import polygons_intersect_fast
from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rect


@pytest.fixture(scope="module")
def processor(tiny_europe):
    return WindowQueryProcessor(tiny_europe)


def window_oracle(relation, window):
    window_poly = Polygon(window.corners())
    return {
        obj.oid
        for obj in relation
        if obj.mbr.intersects(window)
        and polygons_intersect_fast(obj.polygon, window_poly)
    }


def point_oracle(relation, point):
    return {
        obj.oid for obj in relation if obj.polygon.contains_point(point)
    }


class TestWindowQuery:
    @pytest.mark.parametrize("extent", [0.02, 0.08, 0.25])
    def test_matches_oracle(self, processor, tiny_europe, extent):
        rng = random.Random(int(extent * 1000))
        for _ in range(8):
            x, y = rng.random() * (1 - extent), rng.random() * (1 - extent)
            window = Rect(x, y, x + extent, y + extent)
            got = {o.oid for o in processor.window_query(window)}
            assert got == window_oracle(tiny_europe, window)

    def test_filter_resolves_candidates(self, processor):
        stats = WindowQueryStats()
        processor.window_query(Rect(0.2, 0.2, 0.6, 0.6), stats)
        assert stats.candidates > 0
        # Large windows swallow whole objects: the progressive test
        # proves many hits without exact geometry.
        assert stats.filter_hits > 0
        assert stats.results == stats.filter_hits + stats.exact_hits

    def test_no_filter_config(self, tiny_europe):
        proc = WindowQueryProcessor(
            tiny_europe,
            filter_config=FilterConfig(conservative=None, progressive=None),
        )
        stats = WindowQueryStats()
        window = Rect(0.3, 0.3, 0.5, 0.5)
        got = {o.oid for o in proc.window_query(window, stats)}
        assert got == window_oracle(tiny_europe, window)
        assert stats.filter_hits == 0 and stats.filter_false_hits == 0
        assert stats.exact_tests == stats.candidates

    def test_empty_region(self, processor):
        assert processor.window_query(Rect(5, 5, 6, 6)) == []


class TestPointQuery:
    def test_matches_oracle(self, processor, tiny_europe):
        rng = random.Random(7)
        for _ in range(25):
            p = (rng.random(), rng.random())
            got = {o.oid for o in processor.point_query(p)}
            assert got == point_oracle(tiny_europe, p)

    def test_conservative_filter_rejects(self, processor, tiny_europe):
        # A point far outside every object is rejected by the tree alone.
        stats = WindowQueryStats()
        assert processor.point_query((9.0, 9.0), stats) == []
        assert stats.candidates == 0

    def test_progressive_filter_accepts_deep_interior(self, tiny_europe):
        proc = WindowQueryProcessor(tiny_europe)
        # The centroid-ish deep interior of an object should usually be
        # inside its MER/MEC, so the filter proves it without exact tests.
        obj = tiny_europe[0]
        mer = obj.approximation("MER")
        center = mer.mbr().center
        stats = WindowQueryStats()
        got = {o.oid for o in proc.point_query(center, stats)}
        assert obj.oid in got
        assert stats.filter_hits >= 1

    def test_io_accounting(self, tiny_europe):
        proc = WindowQueryProcessor(tiny_europe, buffer_pages=64)
        stats = WindowQueryStats()
        proc.window_query(Rect(0.1, 0.1, 0.3, 0.3), stats)
        assert stats.node_visits >= 1
        assert stats.page_reads >= 1
