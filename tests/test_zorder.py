"""Tests for the z-order (space-filling-curve) MBR-join baseline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.generators import uniform_rect_items
from repro.geometry.rectangle import Rect
from repro.index.join import nested_loops_mbr_join
from repro.index.zorder import (
    ZOrderIndex,
    build_zorder_indexes,
    interleave_bits,
    z_cells_for_rect,
    zorder_mbr_join,
)


class TestZValue:
    def test_origin(self):
        assert interleave_bits(0, 0, 4) == 0

    def test_known_interleavings(self):
        # x=1,y=0 -> bit 0; x=0,y=1 -> bit 1.
        assert interleave_bits(1, 0, 4) == 1
        assert interleave_bits(0, 1, 4) == 2
        assert interleave_bits(1, 1, 4) == 3
        assert interleave_bits(2, 0, 4) == 4

    def test_z_order_locality(self):
        # The four cells of a quadrant are contiguous in z.
        zs = sorted(
            interleave_bits(x, y, 4) for x in (0, 1) for y in (0, 1)
        )
        assert zs == [0, 1, 2, 3]

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
    def test_bijective_in_range(self, x, y):
        z = interleave_bits(x, y, 8)
        assert 0 <= z < 1 << 16


class TestZCells:
    def test_full_space_is_one_cell(self):
        cells = z_cells_for_rect(Rect(0, 0, 1, 1), resolution=6)
        assert cells == [(0, (1 << 12) - 1)]

    def test_cell_budget_respected(self):
        cells = z_cells_for_rect(
            Rect(0.1, 0.1, 0.6, 0.35), resolution=8, max_cells=4
        )
        assert 1 <= len(cells) <= 4

    def test_intervals_sorted_and_disjoint(self):
        cells = z_cells_for_rect(
            Rect(0.3, 0.2, 0.7, 0.9), resolution=8, max_cells=8
        )
        for (lo1, hi1), (lo2, hi2) in zip(cells, cells[1:]):
            assert hi1 < lo2

    def test_cover_is_conservative(self):
        # Every grid cell overlapping the rect must be inside some interval.
        res = 5
        n = 1 << res
        rect = Rect(0.22, 0.4, 0.55, 0.77)
        cells = z_cells_for_rect(rect, resolution=res, max_cells=6)

        def covered(z):
            return any(lo <= z <= hi for lo, hi in cells)

        for gx in range(n):
            for gy in range(n):
                cell_rect = Rect(gx / n, gy / n, (gx + 1) / n, (gy + 1) / n)
                if cell_rect.intersection_area(rect) > 0:
                    assert covered(interleave_bits(gx, gy, res))


class TestZOrderJoin:
    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=12, deadline=None)
    def test_matches_nested_loops(self, seed):
        items_a = uniform_rect_items(120, seed=seed, avg_extent=0.05)
        items_b = uniform_rect_items(120, seed=seed + 999, avg_extent=0.05)
        za, zb = build_zorder_indexes(items_a, items_b)
        got = set(zorder_mbr_join(za, zb))
        want = set(nested_loops_mbr_join(items_a, items_b))
        assert got == want

    def test_empty_indexes(self):
        za, zb = build_zorder_indexes([], [])
        assert list(zorder_mbr_join(za, zb)) == []

    def test_mismatched_grids_rejected(self):
        items = uniform_rect_items(10, seed=1)
        za = ZOrderIndex(items, resolution=8)
        zb = ZOrderIndex(items, resolution=10)
        with pytest.raises(ValueError):
            list(zorder_mbr_join(za, zb))

    def test_more_cells_tighter_candidates(self):
        # With more cells per object the z-cover gets tighter; the final
        # result is identical either way (the MBR test removes the rest).
        items_a = uniform_rect_items(150, seed=3, avg_extent=0.04)
        items_b = uniform_rect_items(150, seed=4, avg_extent=0.04)
        za1, zb1 = build_zorder_indexes(items_a, items_b, max_cells=1)
        za4, zb4 = build_zorder_indexes(items_a, items_b, max_cells=4)
        got1 = set(zorder_mbr_join(za1, zb1))
        got4 = set(zorder_mbr_join(za4, zb4))
        assert got1 == got4
        assert len(za4) >= len(za1)

    def test_on_cartographic_data(self, tiny_series):
        items_a = tiny_series.relation_a.mbr_items()
        items_b = tiny_series.relation_b.mbr_items()
        za, zb = build_zorder_indexes(items_a, items_b)
        got = {
            (a.oid, b.oid) for a, b in zorder_mbr_join(za, zb)
        }
        want = {
            (a.oid, b.oid)
            for a, b in nested_loops_mbr_join(items_a, items_b)
        }
        assert got == want
