"""Map overlay on top of the multi-step join."""

import pytest

from repro.core.join import JoinConfig, nested_loops_join
from repro.core.overlay import MapOverlay
from repro.datasets.relations import SpatialRelation, europe
from repro.geometry.polygon import Polygon


def grid_layer(name, n, cell, origin=(0.0, 0.0)):
    """n x n grid of square cells (a synthetic 'administrative' layer)."""
    ox, oy = origin
    polys = []
    for i in range(n):
        for j in range(n):
            x = ox + i * cell
            y = oy + j * cell
            polys.append(
                Polygon([(x, y), (x + cell, y), (x + cell, y + cell), (x, y + cell)])
            )
    return SpatialRelation(name, polys)


class TestOverlayGrids:
    def test_shifted_grid_total_area(self):
        """Overlaying a grid with its half-cell shift conserves area."""
        layer_a = grid_layer("A", 4, 0.25)
        layer_b = grid_layer("B", 4, 0.25, origin=(0.125, 0.125))
        result = MapOverlay().intersection(layer_a, layer_b)
        # The shifted grid covers [0.125, 1.125]^2; the overlap with
        # [0,1]^2 is [0.125, 1]^2.
        expected = (1 - 0.125) ** 2
        assert result.total_area() == pytest.approx(expected, rel=1e-4)
        assert not result.failed_pairs

    def test_piece_count_matches_join(self):
        layer_a = grid_layer("A", 3, 1 / 3)
        layer_b = grid_layer("B", 3, 1 / 3, origin=(1 / 6, 1 / 6))
        result = MapOverlay().intersection(layer_a, layer_b)
        exact_pairs = nested_loops_join(layer_a, layer_b)
        # every joined pair must yield a piece (or a recorded failure)
        assert len(result.pieces) + len(result.failed_pairs) == len(exact_pairs)

    def test_pieces_within_mbr_of_both(self):
        layer_a = grid_layer("A", 3, 0.33)
        layer_b = grid_layer("B", 3, 0.33, origin=(0.1, 0.21))
        result = MapOverlay().intersection(layer_a, layer_b)
        by_id_a = {obj.oid: obj for obj in layer_a}
        by_id_b = {obj.oid: obj for obj in layer_b}
        for piece in result.pieces:
            mbr_a = by_id_a[piece.oid_a].mbr
            mbr_b = by_id_b[piece.oid_b].mbr
            window = mbr_a.intersection(mbr_b)
            assert window is not None
            for region in piece.regions:
                assert window.expand(1e-6).contains_rect(region.mbr())


class TestOverlayCartographic:
    def test_overlay_on_synthetic_cartography(self):
        layer_a = europe(size=40)
        layer_b = europe(seed=7, size=40)
        result = MapOverlay().intersection(layer_a, layer_b)
        assert len(result.pieces) > 0
        # piece areas are bounded by the smaller participant
        by_id_a = {obj.oid: obj for obj in layer_a}
        by_id_b = {obj.oid: obj for obj in layer_b}
        for piece in result.pieces:
            cap = min(
                by_id_a[piece.oid_a].polygon.area(),
                by_id_b[piece.oid_b].polygon.area(),
            )
            assert piece.area <= cap + 1e-6

    def test_intersection_areas_positive(self):
        layer_a = europe(size=30)
        layer_b = europe(seed=3, size=30)
        rows = MapOverlay().intersection_areas(layer_a, layer_b)
        assert rows
        for _, _, area in rows:
            assert area > 0

    def test_overlay_config_passthrough(self):
        """Any execution configuration produces the same layer."""
        layer_a = europe(size=25)
        layer_b = europe(seed=11, size=25)
        base = MapOverlay(JoinConfig(exact_batch=1)).intersection(
            layer_a, layer_b
        )
        alt = MapOverlay(
            JoinConfig(engine="batched", exact_batch=7)
        ).intersection(layer_a, layer_b)
        key = lambda r: sorted((p.oid_a, p.oid_b) for p in r.pieces)
        assert key(base) == key(alt)
        assert base.total_area() == pytest.approx(alt.total_area(), rel=1e-9)
