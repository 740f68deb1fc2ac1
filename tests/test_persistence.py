"""Binary persistence of point lists and TR*-trees (§4.2 / §5)."""

import pytest

from repro.datasets.relations import bw, europe
from repro.exact.trstar_test import build_trstar, polygons_intersect_trstar
from repro.geometry.polygon import Polygon
from repro.index.persistence import (
    deserialize_point_list,
    deserialize_trstar,
    point_list_bytes,
    serialize_point_list,
    serialize_trstar,
    storage_overhead_factor,
    trstar_bytes,
)

SQUARE = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


class TestPointList:
    def test_roundtrip_simple(self):
        restored = deserialize_point_list(serialize_point_list(SQUARE))
        assert restored.shell == SQUARE.shell
        assert restored.holes == ()

    def test_roundtrip_with_holes(self):
        donut = Polygon(
            [(0, 0), (4, 0), (4, 4), (0, 4)],
            holes=[[(1, 1), (3, 1), (3, 3), (1, 3)]],
        )
        restored = deserialize_point_list(serialize_point_list(donut))
        assert restored.shell == donut.shell
        assert restored.holes == donut.holes
        assert restored.area() == pytest.approx(donut.area())

    def test_roundtrip_cartographic(self):
        for obj in europe(size=10):
            restored = deserialize_point_list(
                serialize_point_list(obj.polygon)
            )
            assert restored.shell == obj.polygon.shell

    def test_wrong_magic_rejected(self):
        with pytest.raises(ValueError):
            deserialize_point_list(b"XXXX" + b"\x00" * 16)

    def test_size_scales_with_vertices(self):
        small = point_list_bytes(SQUARE)
        big = point_list_bytes(europe(size=5)[0].polygon)
        assert big > small


class TestTRStar:
    def test_roundtrip_preserves_trapezoids(self):
        tree = build_trstar(SQUARE)
        restored = deserialize_trstar(serialize_trstar(tree))
        assert restored.size == tree.size
        original = sorted(
            (e.item.y_bot, e.item.y_top, e.item.xl_bot)
            for e in tree.all_entries()
        )
        got = sorted(
            (e.item.y_bot, e.item.y_top, e.item.xl_bot)
            for e in restored.all_entries()
        )
        assert got == pytest.approx(original)

    def test_roundtrip_preserves_structure(self):
        tree = build_trstar(europe(size=5)[0].polygon)
        restored = deserialize_trstar(serialize_trstar(tree))
        assert restored.height == tree.height
        assert restored.max_entries == tree.max_entries
        assert restored.node_count() == tree.node_count()

    def test_restored_tree_answers_intersection_tests(self):
        """The §4.2 point: load the image and use it directly."""
        rel = europe(size=12)
        for obj_a, obj_b in zip(rel.objects[:6], rel.objects[6:]):
            tree_a = build_trstar(obj_a.polygon)
            tree_b = build_trstar(obj_b.polygon)
            expected = polygons_intersect_trstar(tree_a, tree_b)
            restored_a = deserialize_trstar(serialize_trstar(tree_a))
            restored_b = deserialize_trstar(serialize_trstar(tree_b))
            assert polygons_intersect_trstar(restored_a, restored_b) == expected

    def test_wrong_magic_rejected(self):
        with pytest.raises(ValueError):
            deserialize_trstar(b"YYYY" + b"\x00" * 16)


class TestStorageFactor:
    def test_paper_s5_constant_regime(self):
        """§5 assumes 1.5x access overhead; storage must cost more than points.

        Our naive encoding stores 6 independent doubles per trapezoid
        (~1 trapezoid per boundary vertex -> ~3x the 2 doubles/vertex of
        a point list, plus directory records): the measured factor lands
        around 3.5-4.5.  The paper's 1.5 implies a more compact trapezoid
        encoding (shared y-intervals between decomposition strips); the
        *direction* — decomposed representation costs extra I/O — is what
        the §5 model needs, and EXPERIMENTS.md records the difference.
        """
        factor = storage_overhead_factor(europe(size=40))
        assert 1.0 < factor < 6.0

    def test_bw_factor_similar(self):
        factor = storage_overhead_factor(bw(size=10))
        assert 1.0 < factor < 6.0

    def test_tree_bytes_exceed_point_bytes_per_object(self):
        obj = europe(size=5)[0]
        assert trstar_bytes(obj.trstar()) > point_list_bytes(obj.polygon)
