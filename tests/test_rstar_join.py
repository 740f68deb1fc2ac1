"""Tests for the R*-tree MBR-join ([BKS 93a], step 1)."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.generators import uniform_rect_items
from repro.geometry.rectangle import Rect
from repro.index.join import (
    JoinStats,
    _matching_pairs,
    nested_loops_mbr_join,
    rstar_join,
)
from repro.index.pagemodel import AccessCounter, LRUBuffer
from repro.index.rstar import Entry, Node, RStarTree


def build(items, max_entries=8):
    tree = RStarTree(max_entries=max_entries)
    for r, i in items:
        tree.insert(r, i)
    return tree


class TestCorrectness:
    @given(
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=2, max_value=16),
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_nested_loops(self, seed, max_entries):
        items_a = uniform_rect_items(150, seed=seed, avg_extent=0.04)
        items_b = uniform_rect_items(150, seed=seed + 1000, avg_extent=0.04)
        got = set(rstar_join(build(items_a, max_entries), build(items_b, max_entries)))
        want = set(nested_loops_mbr_join(items_a, items_b))
        assert got == want

    def test_empty_trees(self):
        assert list(rstar_join(RStarTree(), RStarTree())) == []
        items = uniform_rect_items(10, seed=1)
        assert list(rstar_join(build(items), RStarTree())) == []

    def test_different_heights(self):
        items_a = uniform_rect_items(500, seed=2, avg_extent=0.03)
        items_b = uniform_rect_items(20, seed=3, avg_extent=0.03)
        ta, tb = build(items_a, max_entries=4), build(items_b, max_entries=16)
        assert ta.height > tb.height
        got = set(rstar_join(ta, tb))
        want = set(nested_loops_mbr_join(items_a, items_b))
        assert got == want

    def test_self_join(self):
        items = uniform_rect_items(100, seed=4, avg_extent=0.05)
        ta, tb = build(items), build(items)
        pairs = list(rstar_join(ta, tb))
        # Every item pairs at least with itself.
        assert len(pairs) >= 100

    def test_bulk_loaded_trees(self):
        items_a = uniform_rect_items(300, seed=5, avg_extent=0.03)
        items_b = uniform_rect_items(300, seed=6, avg_extent=0.03)
        ta = RStarTree.bulk_load(items_a, max_entries=12)
        tb = RStarTree.bulk_load(items_b, max_entries=12)
        got = set(rstar_join(ta, tb))
        want = set(nested_loops_mbr_join(items_a, items_b))
        assert got == want


class TestEfficiency:
    def test_far_fewer_mbr_tests_than_nested_loops(self):
        items_a = uniform_rect_items(400, seed=7, avg_extent=0.02)
        items_b = uniform_rect_items(400, seed=8, avg_extent=0.02)
        stats = JoinStats()
        list(rstar_join(build(items_a, 16), build(items_b, 16), stats=stats))
        # BKS 93a: spatial sorting keeps MBR tests near the output size;
        # anything below 5% of the naive 160,000 shows the machinery works.
        assert stats.mbr_tests < 0.05 * 400 * 400

    def test_page_accesses_counted(self):
        items_a = uniform_rect_items(300, seed=9, avg_extent=0.02)
        items_b = uniform_rect_items(300, seed=10, avg_extent=0.02)
        ta, tb = build(items_a, 8), build(items_b, 8)
        buf = LRUBuffer(capacity_pages=64)
        ca, cb = AccessCounter(buffer=buf), AccessCounter(buffer=buf)
        list(rstar_join(ta, tb, ca, cb))
        assert ca.node_visits >= 1 and cb.node_visits >= 1
        total_pages = ta.node_count() + tb.node_count()
        # With a buffer, reads cannot exceed total visits and the join
        # should not read dramatically more pages than exist.
        assert ca.page_reads + cb.page_reads <= ca.node_visits + cb.node_visits
        assert ca.page_reads + cb.page_reads >= 2  # at least the roots

    def test_output_pairs_counted(self):
        items = uniform_rect_items(50, seed=11, avg_extent=0.1)
        stats = JoinStats()
        pairs = list(rstar_join(build(items), build(items), stats=stats))
        assert stats.output_pairs == len(pairs)


def _vine_tree(height: int, rect: Rect) -> RStarTree:
    """A degenerate single-path tree: one entry under ``height`` levels.

    The worst case for the former recursive traversal — every level
    added one generator frame to the ``yield from`` delegation chain.
    """
    node = Node(level=0)
    node.entries = [Entry(rect, 0)]
    node.mbr()
    for level in range(1, height):
        parent = Node(level=level)
        parent.children = [node]
        # Warm the MBR cache bottom-up: `Node.mbr()` recurses into
        # children, and an uncached vine would overflow inside it
        # rather than in the traversal under test.
        parent.mbr()
        node = parent
    tree = RStarTree()
    tree.root = node
    tree.size = 1
    return tree


class TestDeepTrees:
    """The traversal is iterative: depth must never hit a Python limit."""

    def test_vine_deeper_than_the_recursion_limit(self):
        # The former `yield from _join_nodes` recursion died with
        # RecursionError well before this depth; the explicit stack
        # walks it and still finds the single matching pair.
        height = sys.getrecursionlimit() + 500
        rect = Rect(0.4, 0.4, 0.6, 0.6)
        vine = _vine_tree(height, rect)
        flat = RStarTree.bulk_load(
            [(Rect(0.5, 0.5, 0.7, 0.7), "hit"), (Rect(0.9, 0.9, 1.0, 1.0), "miss")],
            max_entries=4,
        )
        assert list(rstar_join(vine, flat)) == [(0, "hit")]
        assert list(rstar_join(flat, vine)) == [("hit", 0)]

    def test_capacity_two_tree_over_5k_rects(self):
        # Minimum node capacity maximises tree height (~13 levels for
        # 5000 rects): the old recursion paid O(depth) per yielded pair
        # and risked the limit; the iterative walk must stay exact.
        items_a = uniform_rect_items(5000, seed=20, avg_extent=0.005)
        items_b = uniform_rect_items(50, seed=21, avg_extent=0.05)
        deep = RStarTree.bulk_load(items_a, max_entries=2)
        small = RStarTree.bulk_load(items_b, max_entries=2)
        assert deep.height >= 10
        got = set(rstar_join(deep, small))
        want = set(nested_loops_mbr_join(items_a, items_b))
        assert got == want

    def test_deep_tree_counters_fire_once_per_visited_node(self):
        items = uniform_rect_items(600, seed=22, avg_extent=0.02)
        deep = RStarTree.bulk_load(items, max_entries=2)
        other = RStarTree.bulk_load(
            uniform_rect_items(40, seed=23, avg_extent=0.05), max_entries=2
        )
        counter_a, counter_b = AccessCounter(), AccessCounter()
        list(rstar_join(deep, other, counter_a, counter_b))
        # Each page id is visited at most once per node pair expansion,
        # and no counter exceeds the total node-pair work.
        assert counter_a.node_visits >= 1
        assert counter_b.node_visits >= 1


def _leaf(rects):
    node = Node(level=0)
    node.entries = [Entry(rect, i) for i, rect in enumerate(rects)]
    return node


# Small integer corners force shared xmin ties, touching edges, and
# zero-width/zero-height rectangles — the plane sweep's boundary cases.
_corner = st.integers(min_value=0, max_value=6)
_tie_rect = st.tuples(_corner, _corner, _corner, _corner).map(
    lambda t: Rect(min(t[0], t[2]), min(t[1], t[3]),
                   max(t[0], t[2]), max(t[1], t[3]))
)


class TestPlaneSweepFuzz:
    """Hypothesis fuzz: `_matching_pairs` vs the nested-loops oracle."""

    @given(
        st.lists(_tie_rect, max_size=12),
        st.lists(_tie_rect, max_size=12),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_oracle_under_full_window(self, rects_a, rects_b):
        inter = Rect(-1.0, -1.0, 7.0, 7.0)  # covers every rect
        stats = JoinStats()
        got = {
            (ea.item, eb.item)
            for ea, eb in _matching_pairs(
                _leaf(rects_a), _leaf(rects_b), inter, stats
            )
        }
        want = {
            (i, j)
            for i, ra in enumerate(rects_a)
            for j, rb in enumerate(rects_b)
            if ra.intersects(rb)
        }
        assert got == want

    @given(
        st.lists(_tie_rect, max_size=10),
        st.lists(_tie_rect, max_size=10),
        _tie_rect,
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_oracle_under_restricted_window(
        self, rects_a, rects_b, window
    ):
        # The search-space restriction drops entries disjoint from the
        # window before the sweep; the oracle applies the same rule.
        stats = JoinStats()
        got = {
            (ea.item, eb.item)
            for ea, eb in _matching_pairs(
                _leaf(rects_a), _leaf(rects_b), window, stats
            )
        }
        want = {
            (i, j)
            for i, ra in enumerate(rects_a)
            for j, rb in enumerate(rects_b)
            if ra.intersects(window)
            and rb.intersects(window)
            and ra.intersects(rb)
        }
        assert got == want

    @given(st.lists(_tie_rect, min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_self_sweep_is_symmetric(self, rects):
        inter = Rect(-1.0, -1.0, 7.0, 7.0)
        got = {
            (ea.item, eb.item)
            for ea, eb in _matching_pairs(
                _leaf(rects), _leaf(rects), inter, JoinStats()
            )
        }
        assert got == {(j, i) for i, j in got}
        # Every rect intersects itself: the diagonal is always present.
        assert all((i, i) in got for i in range(len(rects)))
