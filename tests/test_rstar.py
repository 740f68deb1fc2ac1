"""Tests for the R*-tree: structure, queries, bulk load, I/O counting."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.generators import uniform_rect_items
from repro.geometry.rectangle import Rect
from repro.index.pagemodel import AccessCounter, LRUBuffer
from repro.index.rstar import RStarTree


def build_tree(items, max_entries=8):
    tree = RStarTree(max_entries=max_entries)
    for rect, item in items:
        tree.insert(rect, item)
    return tree


class TestStructure:
    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            RStarTree(max_entries=1)

    def test_empty_tree_queries(self):
        tree = RStarTree()
        assert tree.window_query(Rect(0, 0, 1, 1)) == []
        assert tree.size == 0

    def test_single_insert(self):
        tree = RStarTree()
        tree.insert(Rect(0, 0, 1, 1), "a")
        assert tree.size == 1
        assert tree.window_query(Rect(0.5, 0.5, 2, 2)) == ["a"]

    @pytest.mark.parametrize("max_entries", [4, 8, 16, 32])
    def test_invariants_after_many_inserts(self, max_entries):
        items = uniform_rect_items(300, seed=max_entries)
        tree = build_tree(items, max_entries=max_entries)
        tree.check_invariants()
        assert tree.size == 300

    def test_height_grows_logarithmically(self):
        items = uniform_rect_items(500, seed=3)
        tree = build_tree(items, max_entries=8)
        # 500 entries at fanout >= 4 (min fill of 8): height <= ~5.
        assert 2 <= tree.height <= 6

    def test_all_entries_roundtrip(self):
        items = uniform_rect_items(120, seed=9)
        tree = build_tree(items)
        got = sorted(e.item for e in tree.all_entries())
        assert got == sorted(i for _r, i in items)


class TestQueries:
    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_window_query_matches_scan(self, seed):
        rng = random.Random(seed)
        items = uniform_rect_items(200, seed=seed, avg_extent=0.05)
        tree = build_tree(items)
        w = Rect(rng.random() * 0.5, rng.random() * 0.5, 0.7, 0.7)
        got = sorted(tree.window_query(w))
        want = sorted(i for r, i in items if r.intersects(w))
        assert got == want

    def test_point_query_matches_scan(self):
        items = uniform_rect_items(200, seed=5, avg_extent=0.1)
        tree = build_tree(items)
        p = (0.4, 0.6)
        got = sorted(tree.point_query(p))
        want = sorted(i for r, i in items if r.contains_point(p))
        assert got == want

    def test_query_visits_fewer_nodes_than_scan(self):
        items = uniform_rect_items(1000, seed=1)
        tree = build_tree(items, max_entries=16)
        counter = AccessCounter()
        tree.window_query(Rect(0.4, 0.4, 0.45, 0.45), counter)
        assert counter.node_visits < tree.node_count() / 2


class TestBulkLoad:
    def test_matches_dynamic_queries(self):
        items = uniform_rect_items(400, seed=7)
        dyn = build_tree(items)
        blk = RStarTree.bulk_load(items, max_entries=8)
        w = Rect(0.1, 0.1, 0.6, 0.4)
        assert sorted(dyn.window_query(w)) == sorted(blk.window_query(w))

    def test_bulk_tree_is_packed(self):
        items = uniform_rect_items(1000, seed=2)
        blk = RStarTree.bulk_load(items, max_entries=10, fill_factor=0.7)
        # STR packing should achieve close to the requested fill factor.
        utilisation = blk.size / (blk.leaf_count() * 10)
        assert utilisation >= 0.6

    def test_bulk_invariants(self):
        items = uniform_rect_items(333, seed=4)
        blk = RStarTree.bulk_load(items, max_entries=9)
        blk.check_invariants()  # non-strict min fill for bulk loads

    def test_empty_bulk_load(self):
        tree = RStarTree.bulk_load([])
        assert tree.size == 0


class TestDirectoryCapacity:
    def test_separate_directory_capacity(self):
        items = uniform_rect_items(300, seed=11)
        tree = RStarTree(max_entries=4, directory_max=20)
        for r, i in items:
            tree.insert(r, i)
        tree.check_invariants()
        # Directory nodes may hold up to 20 children.
        assert tree.height <= 4


class TestIOAccounting:
    def test_lru_buffer_hits(self):
        buf = LRUBuffer(capacity_pages=2)
        assert not buf.access("a")   # miss
        assert buf.access("a")       # hit
        assert not buf.access("b")   # miss
        assert not buf.access("c")   # miss, evicts "a"
        assert not buf.access("a")   # miss again
        assert buf.misses == 4 and buf.hits == 1

    def test_buffer_capacity_validation(self):
        with pytest.raises(ValueError):
            LRUBuffer(0)

    def test_repeated_query_hits_buffer(self):
        items = uniform_rect_items(300, seed=8)
        tree = build_tree(items, max_entries=8)
        buf = LRUBuffer(capacity_pages=1000)
        counter = AccessCounter(buffer=buf)
        w = Rect(0.2, 0.2, 0.4, 0.4)
        tree.window_query(w, counter)
        first_reads = counter.page_reads
        tree.window_query(w, counter)
        assert counter.page_reads == first_reads  # all pages buffered

    def test_unbuffered_counter_counts_every_visit(self):
        items = uniform_rect_items(100, seed=10)
        tree = build_tree(items)
        counter = AccessCounter()
        tree.window_query(Rect(0, 0, 1, 1), counter)
        assert counter.page_reads == counter.node_visits == tree.node_count()


class TestPageLayout:
    def test_capacities(self):
        from repro.index.pagemodel import PageLayout

        # Paper §5: MBR 16B + 5-C 40B + info 32B = 88B -> 46 entries in 4K.
        layout = PageLayout(page_size=4096, key_bytes=16, extra_leaf_bytes=40)
        assert layout.leaf_capacity() == 4096 // 88
        assert layout.directory_capacity() == 4096 // 20

    def test_buffer_pages(self):
        from repro.index.pagemodel import PageLayout

        layout = PageLayout(page_size=2048)
        assert layout.buffer_pages(128 * 1024) == 64
