"""R+-tree [SRF 87]: structural invariants and query equivalence."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.relations import europe
from repro.geometry.rectangle import Rect
from repro.index.join import rstar_join
from repro.index.pagemodel import AccessCounter
from repro.index.rplus import RPlusTree, rplus_mbr_join
from repro.index.rstar import RStarTree


def random_rects(n, seed, extent=0.1):
    rng = random.Random(seed)
    rects = []
    for _ in range(n):
        x = rng.uniform(0, 1)
        y = rng.uniform(0, 1)
        w = rng.uniform(0, extent)
        h = rng.uniform(0, extent)
        rects.append(Rect(x, y, x + w, y + h))
    return rects


def linear_window(items, window):
    return [item for rect, item in items if rect.intersects(window)]


class TestStructure:
    def test_empty_tree(self):
        tree = RPlusTree(max_entries=4)
        assert tree.size == 0
        assert tree.window_query(Rect(0, 0, 1, 1)) == []
        tree.check_invariants()

    def test_single_insert(self):
        tree = RPlusTree(max_entries=4)
        tree.insert(Rect(0.1, 0.1, 0.2, 0.2), "a")
        assert tree.window_query(Rect(0, 0, 1, 1)) == ["a"]
        assert tree.window_query(Rect(0.5, 0.5, 1, 1)) == []

    def test_invariants_after_many_inserts(self):
        tree = RPlusTree(max_entries=8)
        for i, rect in enumerate(random_rects(300, seed=7)):
            tree.insert(rect, i)
        tree.check_invariants()
        assert tree.size == 300

    def test_duplication_factor_at_least_one(self):
        tree = RPlusTree(max_entries=8)
        for i, rect in enumerate(random_rects(200, seed=3)):
            tree.insert(rect, i)
        assert tree.duplication_factor() >= 1.0
        assert tree.entry_count() >= tree.size

    def test_point_rects_never_duplicate(self):
        """Zero-extent rectangles can never straddle a cut line."""
        tree = RPlusTree(max_entries=4)
        rng = random.Random(11)
        for i in range(200):
            x, y = rng.random(), rng.random()
            tree.insert(Rect(x, y, x, y), i)
        assert tree.entry_count() == tree.size
        tree.check_invariants()

    def test_spanning_rects_are_duplicated(self):
        """A rectangle covering everything must appear in several leaves."""
        tree = RPlusTree(max_entries=4)
        for i, rect in enumerate(random_rects(100, seed=5, extent=0.02)):
            tree.insert(rect, i)
        tree.insert(Rect(0, 0, 1.2, 1.2), "big")
        assert tree.height > 1
        found = tree.window_query(Rect(0, 0, 2, 2))
        assert "big" in found
        assert tree.duplication_factor() > 1.0

    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            RPlusTree(max_entries=1)

    def test_identical_rects_tolerated(self):
        """Unsplittable content degrades to an oversized node, not a loop."""
        tree = RPlusTree(max_entries=3)
        r = Rect(0.4, 0.4, 0.6, 0.6)
        for i in range(20):
            tree.insert(r, i)
        assert sorted(tree.window_query(r)) == list(range(20))
        tree.check_invariants()


class TestQueryEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_window_query_matches_linear_scan(self, seed):
        rects = random_rects(250, seed=seed)
        items = list(zip(rects, range(len(rects))))
        tree = RPlusTree(max_entries=8)
        for rect, item in items:
            tree.insert(rect, item)
        rng = random.Random(seed + 100)
        for _ in range(25):
            x, y = rng.random(), rng.random()
            window = Rect(x, y, x + rng.uniform(0, 0.4), y + rng.uniform(0, 0.4))
            expected = sorted(linear_window(items, window))
            assert sorted(tree.window_query(window)) == expected

    def test_point_query_matches_linear_scan(self):
        rects = random_rects(200, seed=9, extent=0.2)
        items = list(zip(rects, range(len(rects))))
        tree = RPlusTree(max_entries=8)
        for rect, item in items:
            tree.insert(rect, item)
        rng = random.Random(17)
        for _ in range(50):
            p = (rng.random(), rng.random())
            expected = sorted(
                item for rect, item in items if rect.contains_point(p)
            )
            assert sorted(tree.point_query(p)) == expected

    def test_all_items_distinct(self):
        tree = RPlusTree(max_entries=4)
        for i, rect in enumerate(random_rects(120, seed=21)):
            tree.insert(rect, i)
        assert sorted(tree.all_items()) == list(range(120))

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.floats(0, 1, allow_nan=False),
                st.floats(0, 1, allow_nan=False),
                st.floats(0, 0.3, allow_nan=False),
                st.floats(0, 0.3, allow_nan=False),
            ),
            min_size=1,
            max_size=60,
        ),
        window=st.tuples(
            st.floats(0, 1, allow_nan=False),
            st.floats(0, 1, allow_nan=False),
            st.floats(0, 1, allow_nan=False),
            st.floats(0, 1, allow_nan=False),
        ),
    )
    def test_property_window_query(self, data, window):
        items = [
            (Rect(x, y, x + w, y + h), i)
            for i, (x, y, w, h) in enumerate(data)
        ]
        tree = RPlusTree(max_entries=4)
        for rect, item in items:
            tree.insert(rect, item)
        tree.check_invariants()
        wx, wy, wx2, wy2 = window
        win = Rect(min(wx, wx2), min(wy, wy2), max(wx, wx2), max(wy, wy2))
        assert sorted(tree.window_query(win)) == sorted(
            linear_window(items, win)
        )


class TestJoin:
    def test_join_matches_rstar_join(self):
        rel_a = europe(size=60)
        rel_b = europe(seed=77, size=60)
        tree_a = RPlusTree.bulk_load(rel_a.mbr_items(), max_entries=8)
        tree_b = RPlusTree.bulk_load(rel_b.mbr_items(), max_entries=8)
        got = sorted(
            (a.oid, b.oid) for a, b in rplus_mbr_join(tree_a, tree_b)
        )
        rs_a = rel_a.build_rtree(max_entries=8)
        rs_b = rel_b.build_rtree(max_entries=8)
        expected = sorted(
            (rel_a[a].oid, rel_b[b].oid) for a, b in rstar_join(rs_a, rs_b)
        )
        assert got == expected

    def test_join_yields_unique_pairs(self):
        rects = random_rects(80, seed=31, extent=0.3)
        tree_a = RPlusTree(max_entries=4)
        tree_b = RPlusTree(max_entries=4)
        objs_a = [object() for _ in rects]
        objs_b = [object() for _ in rects]
        for rect, oa, ob in zip(rects, objs_a, objs_b):
            tree_a.insert(rect, oa)
            tree_b.insert(rect, ob)
        pairs = list(rplus_mbr_join(tree_a, tree_b))
        keys = {(id(a), id(b)) for a, b in pairs}
        assert len(keys) == len(pairs)

    def test_join_counts_page_visits(self):
        rel_a = europe(size=40)
        rel_b = europe(seed=5, size=40)
        tree_a = RPlusTree.bulk_load(rel_a.mbr_items(), max_entries=8)
        tree_b = RPlusTree.bulk_load(rel_b.mbr_items(), max_entries=8)
        counter_a = AccessCounter()
        counter_b = AccessCounter()
        list(rplus_mbr_join(tree_a, tree_b, counter_a, counter_b))
        assert counter_a.node_visits > 0
        assert counter_b.node_visits > 0

    def test_disjoint_relations_join_empty(self):
        tree_a = RPlusTree(max_entries=4)
        tree_b = RPlusTree(max_entries=4)
        for i in range(20):
            tree_a.insert(Rect(0, 0, 0.1, 0.1).expand(0.001 * i), ("a", i))
            tree_b.insert(
                Rect(10, 10, 10.1, 10.1).expand(0.001 * i), ("b", i)
            )
        assert list(rplus_mbr_join(tree_a, tree_b)) == []
