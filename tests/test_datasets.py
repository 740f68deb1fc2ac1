"""Tests for the synthetic cartographic data generator and test series."""

import math
import random

import pytest

from repro.datasets.generators import (
    DATA_SPACE,
    cartographic_polygons,
    lognormal_vertex_targets,
    relation_statistics,
    roughen_ring,
    uniform_rect_items,
    voronoi_cells,
)
from repro.datasets.relations import (
    BW_PROFILE,
    EUROPE_PROFILE,
    SpatialRelation,
)
from repro.datasets.testseries import strategy_a, strategy_b
from repro.geometry.polygon import Polygon


class TestVoronoiCells:
    def test_cells_tile_data_space(self):
        rng = random.Random(7)
        cells = voronoi_cells(50, rng)
        total = sum(abs(_ring_area(c)) for c in cells)
        assert total == pytest.approx(DATA_SPACE.area(), rel=1e-6)

    def test_cells_inside_data_space(self):
        rng = random.Random(8)
        for cell in voronoi_cells(30, rng):
            for x, y in cell:
                assert -1e-6 <= x <= 1 + 1e-6
                assert -1e-6 <= y <= 1 + 1e-6

    def test_too_few_sites_raises(self):
        with pytest.raises(ValueError):
            voronoi_cells(2, random.Random(0))


class TestRoughening:
    def test_vertex_target_met(self):
        ring = [(0, 0), (1, 0), (1, 1), (0, 1)]
        out = roughen_ring(ring, 40, 0.2, random.Random(1))
        assert 30 <= len(out) <= 50

    def test_no_target_returns_original(self):
        ring = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert roughen_ring(ring, 4, 0.2, random.Random(1)) == ring

    def test_roughened_ring_simple(self):
        ring = [(0, 0), (1, 0), (1, 1), (0, 1)]
        for seed in range(10):
            out = roughen_ring(ring, 60, 0.24, random.Random(seed))
            assert Polygon(out).is_simple(), f"seed {seed} self-intersects"


class TestVertexTargets:
    def test_mean_approximately_met(self):
        rng = random.Random(5)
        targets = lognormal_vertex_targets(500, 84, 4, 869, rng)
        mean = sum(targets) / len(targets)
        assert 60 <= mean <= 110
        assert min(targets) >= 4 and max(targets) <= 869

    def test_skewed_distribution(self):
        rng = random.Random(6)
        targets = lognormal_vertex_targets(1000, 84, 4, 869, rng)
        median = sorted(targets)[500]
        assert median < sum(targets) / len(targets)  # right-skewed


class TestCartographicRelation:
    def test_profile_statistics(self):
        polys = cartographic_polygons(120, 84, 4, 869, seed=42)
        stats = relation_statistics(polys)
        assert stats["objects"] == 120
        assert 55 <= stats["m_avg"] <= 115
        assert stats["m_min"] >= 4

    def test_deterministic(self):
        a = cartographic_polygons(30, 50, seed=9)
        b = cartographic_polygons(30, 50, seed=9)
        assert [p.shell for p in a] == [p.shell for p in b]

    def test_different_seeds_differ(self):
        a = cartographic_polygons(30, 50, seed=9)
        b = cartographic_polygons(30, 50, seed=10)
        assert [p.shell for p in a] != [p.shell for p in b]

    def test_sampled_polygons_simple(self):
        polys = cartographic_polygons(40, 84, seed=3)
        rng = random.Random(0)
        for poly in rng.sample(polys, 12):
            assert poly.is_simple()

    def test_coverage_shrinks_cells(self):
        full = cartographic_polygons(40, 30, coverage=1.0, seed=5)
        shrunk = cartographic_polygons(40, 30, coverage=0.78, seed=5)
        area_full = sum(p.area() for p in full)
        area_shrunk = sum(p.area() for p in shrunk)
        assert area_shrunk == pytest.approx(area_full * 0.78**2, rel=1e-6)


class TestRelations:
    def test_profiles_match_paper(self):
        assert EUROPE_PROFILE["objects"] == 810
        assert BW_PROFILE["m_avg"] == 527

    def test_relation_caches_approximations(self, tiny_europe):
        obj = tiny_europe[0]
        a1 = obj.approximation("MBR")
        a2 = obj.approximation("MBR")
        assert a1 is a2

    def test_relation_caches_trstar(self, tiny_europe):
        obj = tiny_europe[0]
        assert obj.trstar(3) is obj.trstar(3)
        assert obj.trstar(3) is not obj.trstar(4)

    def test_mbr_items_align_with_objects(self, tiny_europe):
        for (rect, obj), expect in zip(tiny_europe.mbr_items(), tiny_europe):
            assert obj is expect
            assert rect == obj.polygon.mbr()

    def test_build_rtree_contains_all(self, tiny_europe):
        tree = tiny_europe.build_rtree()
        assert tree.size == len(tiny_europe)


class TestSeries:
    def test_strategy_a_is_shifted_copy(self, tiny_europe):
        series = strategy_a(tiny_europe, shift=(0.1, 0.05))
        a0 = tiny_europe[0].polygon
        b0 = series.relation_b[0].polygon
        assert b0.mbr().xmin == pytest.approx(a0.mbr().xmin + 0.1)
        assert b0.mbr().ymin == pytest.approx(a0.mbr().ymin + 0.05)
        assert b0.area() == pytest.approx(a0.area())

    def test_strategy_b_normalises_total_area(self, tiny_europe):
        series = strategy_b(tiny_europe, seed=3)
        for rel in (series.relation_a, series.relation_b):
            total = sum(obj.polygon.area() for obj in rel)
            assert total == pytest.approx(DATA_SPACE.area(), rel=0.05)

    def test_strategy_b_preserves_object_count(self, tiny_europe):
        series = strategy_b(tiny_europe, seed=4)
        assert len(series.relation_a) == len(tiny_europe)
        assert len(series.relation_b) == len(tiny_europe)

    def test_strategy_b_rotates(self, tiny_europe):
        series = strategy_b(tiny_europe, seed=5)
        # After a random rotation the MBR aspect generally changes.
        changed = 0
        for orig, moved in zip(tiny_europe, series.relation_a):
            r1, r2 = orig.polygon.mbr(), moved.polygon.mbr()
            if abs(r1.width - r2.width) > 1e-9:
                changed += 1
        assert changed > len(tiny_europe) / 2


class TestUniformRects:
    def test_count_and_bounds(self):
        items = uniform_rect_items(100, seed=1, avg_extent=0.01)
        assert len(items) == 100
        for rect, _i in items:
            assert 0 <= rect.xmin and rect.xmax <= 1


def _ring_area(ring):
    n = len(ring)
    total = 0.0
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total / 2
