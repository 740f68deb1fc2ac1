"""Degenerate and extreme geometry through every pipeline."""

import pytest

from repro.core.distance import brute_force_distance_join
from repro.core.join import JoinConfig, SpatialJoinProcessor, nested_loops_join
from repro.core.overlay import MapOverlay
from repro.datasets.relations import SpatialRelation
from repro.geometry.clipping import polygon_intersection_area
from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rect


def distance_join(rel_a, rel_b, epsilon):
    config = JoinConfig(predicate="distance", epsilon=epsilon)
    return SpatialJoinProcessor(config).join(rel_a, rel_b)


def tri(x, y, size=0.1):
    return Polygon([(x, y), (x + size, y), (x + size / 2, y + size)])


def skinny(x, y, length=1.0, width=1e-6):
    return Polygon([(x, y), (x + length, y), (x + length, y + width), (x, y + width)])


class TestDegenerateRelations:
    def test_empty_vs_empty_join(self):
        empty = SpatialRelation("E", [])
        result = SpatialJoinProcessor().join(empty, empty)
        assert len(result) == 0

    def test_empty_vs_nonempty_join(self):
        empty = SpatialRelation("E", [])
        other = SpatialRelation("O", [tri(0, 0)])
        assert len(SpatialJoinProcessor().join(empty, other)) == 0
        assert len(SpatialJoinProcessor().join(other, empty)) == 0

    def test_single_object_self_join(self):
        rel = SpatialRelation("S", [tri(0, 0)])
        result = SpatialJoinProcessor().join(rel, rel)
        assert result.id_pairs() == [(0, 0)]

    def test_minimal_triangles_join(self):
        rel_a = SpatialRelation("A", [tri(0, 0), tri(1, 1)])
        rel_b = SpatialRelation("B", [tri(0.05, 0.02), tri(5, 5)])
        got = sorted(SpatialJoinProcessor().join(rel_a, rel_b).id_pairs())
        assert got == sorted(nested_loops_join(rel_a, rel_b))


class TestExtremeShapes:
    @pytest.mark.parametrize(
        "engine, exact_batch",
        [("streaming", 1), ("batched", 1), ("batched", 64)],
    )
    def test_skinny_polygons_cross(self, engine, exact_batch):
        """Two hairline slivers crossing like an X must join."""
        horiz = skinny(0, 0.5)
        vert = Polygon([(0.5, 0), (0.5 + 1e-6, 0), (0.5 + 1e-6, 1), (0.5, 1)])
        rel_a = SpatialRelation("H", [horiz])
        rel_b = SpatialRelation("V", [vert])
        config = JoinConfig(engine=engine, exact_batch=exact_batch)
        result = SpatialJoinProcessor(config).join(rel_a, rel_b)
        assert result.id_pairs() == [(0, 0)]

    def test_skinny_polygons_parallel_disjoint(self):
        rel_a = SpatialRelation("A", [skinny(0, 0.25)])
        rel_b = SpatialRelation("B", [skinny(0, 0.75)])
        assert len(SpatialJoinProcessor().join(rel_a, rel_b)) == 0

    def test_shared_edge_neighbours_intersect(self):
        """Tessellation neighbours share a border: closed-set semantics."""
        left = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        right = Polygon([(1, 0), (2, 0), (2, 1), (1, 1)])
        rel_a = SpatialRelation("L", [left])
        rel_b = SpatialRelation("R", [right])
        result = SpatialJoinProcessor().join(rel_a, rel_b)
        assert result.id_pairs() == [(0, 0)]

    def test_vertex_touching_squares(self):
        a = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        b = Polygon([(1, 1), (2, 1), (2, 2), (1, 2)])
        rel_a = SpatialRelation("A", [a])
        rel_b = SpatialRelation("B", [b])
        got = SpatialJoinProcessor().join(rel_a, rel_b).id_pairs()
        assert got == nested_loops_join(rel_a, rel_b)

    def test_nested_containment_join(self):
        outer = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
        inner = Polygon([(4, 4), (5, 4), (5, 5), (4, 5)])
        rel_a = SpatialRelation("O", [outer])
        rel_b = SpatialRelation("I", [inner])
        assert SpatialJoinProcessor().join(rel_a, rel_b).id_pairs() == [(0, 0)]
        assert SpatialJoinProcessor().join(rel_b, rel_a).id_pairs() == [(0, 0)]

    def test_donut_hole_excludes_contained_island(self):
        """An island inside the donut hole does not intersect the donut."""
        donut = Polygon(
            [(0, 0), (9, 0), (9, 9), (0, 9)],
            holes=[[(2, 2), (7, 2), (7, 7), (2, 7)]],
        )
        island = Polygon([(4, 4), (5, 4), (5, 5), (4, 5)])
        rel_a = SpatialRelation("D", [donut])
        rel_b = SpatialRelation("I", [island])
        result = SpatialJoinProcessor().join(rel_a, rel_b)
        assert len(result) == 0
        # but the MBRs do intersect, so the candidate must have existed
        assert result.stats.candidate_pairs == 1


class TestOverlayAndDistanceEdges:
    def test_overlay_of_shared_edge_pair_is_zero_area(self):
        left = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        right = Polygon([(1, 0), (2, 0), (2, 1), (1, 1)])
        rel_a = SpatialRelation("L", [left])
        rel_b = SpatialRelation("R", [right])
        result = MapOverlay().intersection(rel_a, rel_b)
        assert result.total_area() == pytest.approx(0.0, abs=1e-6)

    def test_hole_reduces_intersection_area(self):
        square = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        donut = Polygon(
            [(0, 0), (4, 0), (4, 4), (0, 4)],
            holes=[[(1, 1), (3, 1), (3, 3), (1, 3)]],
        )
        plain = polygon_intersection_area(square, square)
        with_hole = polygon_intersection_area(square, donut)
        assert plain == pytest.approx(16.0, rel=1e-4)
        assert with_hole == pytest.approx(12.0, rel=1e-4)

    def test_distance_join_skinny_objects(self):
        rel_a = SpatialRelation("A", [skinny(0, 0.0)])
        rel_b = SpatialRelation("B", [skinny(0, 0.5)])
        for eps in (0.1, 0.49, 0.51):
            got = sorted(distance_join(rel_a, rel_b, eps).id_pairs())
            assert got == sorted(brute_force_distance_join(rel_a, rel_b, eps))

    def test_distance_join_degenerate_epsilon_boundary(self):
        """Pairs exactly at distance epsilon are included (<=)."""
        a = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        b = Polygon([(2, 0), (3, 0), (3, 1), (2, 1)])
        rel_a = SpatialRelation("A", [a])
        rel_b = SpatialRelation("B", [b])
        assert len(distance_join(rel_a, rel_b, 1.0)) == 1
        assert len(distance_join(rel_a, rel_b, 0.999)) == 0


class TestRectEdgeCases:
    def test_degenerate_rect_rejected(self):
        with pytest.raises(ValueError):
            Rect(1, 0, 0, 1)

    def test_point_rect_operations(self):
        p = Rect(0.5, 0.5, 0.5, 0.5)
        assert p.area() == 0.0
        assert p.intersects(Rect(0, 0, 1, 1))
        assert Rect(0, 0, 1, 1).contains_rect(p)

    def test_zero_width_rect_intersection(self):
        line = Rect(0.5, 0.0, 0.5, 1.0)
        assert line.intersection_area(Rect(0, 0, 1, 1)) == 0.0
        assert line.intersects(Rect(0, 0, 1, 1))
