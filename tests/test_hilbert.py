"""Hilbert curve, Hilbert-packed R-tree and sweep MBR-join."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.relations import bw, europe
from repro.geometry.rectangle import Rect
from repro.index.hilbert import (
    HilbertMapper,
    hilbert_d_from_xy,
    hilbert_pack_rtree,
    hilbert_sort,
    hilbert_xy_from_d,
    sweep_mbr_join,
)
from repro.index.join import nested_loops_mbr_join, rstar_join
from repro.index.pagemodel import AccessCounter


class TestCurve:
    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    def test_bijective(self, order):
        n = 1 << order
        seen = set()
        for x in range(n):
            for y in range(n):
                d = hilbert_d_from_xy(order, x, y)
                assert 0 <= d < n * n
                assert d not in seen
                seen.add(d)
                assert hilbert_xy_from_d(order, d) == (x, y)
        assert len(seen) == n * n

    @pytest.mark.parametrize("order", [1, 2, 4, 6])
    def test_unit_steps(self, order):
        """Consecutive curve positions are neighbouring grid cells."""
        n = 1 << order
        prev = hilbert_xy_from_d(order, 0)
        for d in range(1, n * n):
            x, y = hilbert_xy_from_d(order, d)
            assert abs(x - prev[0]) + abs(y - prev[1]) == 1
            prev = (x, y)

    def test_order_one_layout(self):
        """The order-1 curve is the canonical U shape."""
        cells = [hilbert_xy_from_d(1, d) for d in range(4)]
        assert cells == [(0, 0), (0, 1), (1, 1), (1, 0)]

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            hilbert_d_from_xy(2, 4, 0)
        with pytest.raises(ValueError):
            hilbert_xy_from_d(2, 16)

    @settings(max_examples=100, deadline=None)
    @given(
        order=st.integers(1, 12),
        data=st.data(),
    )
    def test_property_roundtrip(self, order, data):
        n = 1 << order
        x = data.draw(st.integers(0, n - 1))
        y = data.draw(st.integers(0, n - 1))
        d = hilbert_d_from_xy(order, x, y)
        assert hilbert_xy_from_d(order, d) == (x, y)


class TestMapper:
    def test_index_within_range(self):
        mapper = HilbertMapper(Rect(0, 0, 1, 1), order=8)
        rng = random.Random(3)
        for _ in range(200):
            d = mapper.index_of((rng.random(), rng.random()))
            assert 0 <= d < (1 << 16)

    def test_points_outside_bounds_clamped(self):
        mapper = HilbertMapper(Rect(0, 0, 1, 1), order=4)
        assert mapper.index_of((-5.0, -5.0)) == mapper.index_of((0.0, 0.0))
        assert mapper.index_of((9.0, 9.0)) == mapper.index_of((1.0, 1.0))

    def test_degenerate_bounds_padded(self):
        mapper = HilbertMapper(Rect(0.5, 0.5, 0.5, 0.5), order=4)
        assert mapper.index_of((0.5, 0.5)) >= 0

    def test_locality(self):
        """Nearby points should mostly have nearby Hilbert indices."""
        mapper = HilbertMapper(Rect(0, 0, 1, 1), order=10)
        rng = random.Random(5)
        close_gaps = []
        far_gaps = []
        for _ in range(300):
            x, y = rng.random() * 0.9, rng.random() * 0.9
            d0 = mapper.index_of((x, y))
            close_gaps.append(abs(mapper.index_of((x + 0.001, y)) - d0))
            far_gaps.append(abs(mapper.index_of((x + 0.5, y)) - d0) if x < 0.5
                            else abs(mapper.index_of((x - 0.5, y)) - d0))
        assert sorted(close_gaps)[len(close_gaps) // 2] < sorted(far_gaps)[
            len(far_gaps) // 2
        ]

    def test_sort_is_permutation(self):
        rng = random.Random(7)
        items = []
        for i in range(100):
            x, y = rng.random(), rng.random()
            items.append((Rect(x, y, x + 0.01, y + 0.01), i))
        ordered = hilbert_sort(items)
        assert sorted(i for _, i in ordered) == list(range(100))


class TestPackedTree:
    def test_pack_empty(self):
        tree = hilbert_pack_rtree([])
        assert tree.size == 0

    def test_pack_preserves_items(self):
        rel = europe(size=120)
        tree = hilbert_pack_rtree(rel.mbr_items(), max_entries=8)
        assert tree.size == 120
        found = tree.window_query(Rect(-10, -10, 10, 10))
        assert len(found) == 120

    def test_pack_window_matches_linear(self):
        rel = europe(size=150)
        items = rel.mbr_items()
        tree = hilbert_pack_rtree(items, max_entries=8)
        rng = random.Random(9)
        for _ in range(20):
            x, y = rng.random(), rng.random()
            win = Rect(x, y, x + 0.3, y + 0.3)
            expected = sorted(
                obj.oid for rect, obj in items if rect.intersects(win)
            )
            got = sorted(obj.oid for obj in tree.window_query(win))
            assert got == expected

    def test_pack_structural_invariants(self):
        rel = bw(size=90)
        tree = hilbert_pack_rtree(rel.mbr_items(), max_entries=6)
        tree.check_invariants()

    def test_packed_join_matches_rstar_join(self):
        rel_a = europe(size=80)
        rel_b = europe(seed=42, size=80)
        packed_a = hilbert_pack_rtree(rel_a.mbr_items(), max_entries=8)
        packed_b = hilbert_pack_rtree(rel_b.mbr_items(), max_entries=8)
        got = sorted(
            (a.oid, b.oid) for a, b in rstar_join(packed_a, packed_b)
        )
        expected = sorted(
            (a.oid, b.oid)
            for a, b in nested_loops_mbr_join(
                rel_a.mbr_items(), rel_b.mbr_items()
            )
        )
        assert got == expected

    def test_packed_tree_fewer_leaf_visits_than_random_insert(self):
        """Packing should not be wildly worse than dynamic insertion."""
        rel = europe(size=200)
        packed = hilbert_pack_rtree(rel.mbr_items(), max_entries=8)
        dynamic = rel.build_rtree(max_entries=8)
        counter_p = AccessCounter()
        counter_d = AccessCounter()
        rng = random.Random(13)
        for _ in range(50):
            x, y = rng.random(), rng.random()
            win = Rect(x, y, x + 0.05, y + 0.05)
            packed.window_query(win, counter_p)
            dynamic.window_query(win, counter_d)
        assert counter_p.node_visits <= counter_d.node_visits * 2


class TestSweepJoin:
    def rand_items(self, n, seed, tag):
        rng = random.Random(seed)
        out = []
        for i in range(n):
            x, y = rng.random(), rng.random()
            out.append(
                (Rect(x, y, x + rng.uniform(0, 0.2), y + rng.uniform(0, 0.2)),
                 (tag, i))
            )
        return out

    def test_matches_nested_loops(self):
        items_a = self.rand_items(120, 1, "a")
        items_b = self.rand_items(120, 2, "b")
        got = sorted(
            (ia[1], ib[1]) for ia, ib in sweep_mbr_join(items_a, items_b)
        )
        expected = sorted(
            (ia[1], ib[1])
            for ia, ib in nested_loops_mbr_join(items_a, items_b)
        )
        assert got == expected

    def test_empty_inputs(self):
        assert sweep_mbr_join([], []) == []
        assert sweep_mbr_join(self.rand_items(5, 3, "a"), []) == []

    def test_touching_rects_join(self):
        a = [(Rect(0, 0, 1, 1), "a")]
        b = [(Rect(1, 1, 2, 2), "b")]
        assert sweep_mbr_join(a, b) == [("a", "b")]
