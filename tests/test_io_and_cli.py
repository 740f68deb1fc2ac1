"""Tests for WKT relation I/O and the command-line interface."""

import pytest

from repro.cli import main
from repro.datasets.generators import cartographic_polygons
from repro.datasets.io import (
    load_relation,
    polygon_from_wkt,
    polygon_to_wkt,
    relations_equal,
    save_relation,
)
from repro.datasets.relations import SpatialRelation
from repro.geometry.polygon import Polygon


class TestWKT:
    def test_roundtrip_simple_polygon(self):
        poly = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        again = polygon_from_wkt(polygon_to_wkt(poly))
        assert again.shell == poly.shell

    def test_roundtrip_with_hole(self):
        poly = Polygon(
            [(0, 0), (4, 0), (4, 4), (0, 4)],
            holes=[[(1, 1), (3, 1), (3, 3), (1, 3)]],
        )
        again = polygon_from_wkt(polygon_to_wkt(poly))
        assert again.area() == pytest.approx(poly.area())
        assert len(again.holes) == 1

    def test_parse_standard_wkt(self):
        poly = polygon_from_wkt("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))")
        assert poly.area() == pytest.approx(4.0)

    def test_parse_scientific_notation(self):
        poly = polygon_from_wkt("POLYGON ((0 0, 1e1 0, 10 1.5e1, 0 0))")
        assert poly.mbr().xmax == pytest.approx(10.0)

    def test_reject_non_polygon(self):
        with pytest.raises(ValueError):
            polygon_from_wkt("LINESTRING (0 0, 1 1)")

    def test_reject_malformed_pair(self):
        with pytest.raises(ValueError):
            polygon_from_wkt("POLYGON ((0 0 0, 1 1))")

    def test_relation_roundtrip(self, tmp_path):
        relation = SpatialRelation(
            "round-trip", cartographic_polygons(25, 30, seed=3)
        )
        path = tmp_path / "rel.wkt"
        save_relation(relation, path)
        loaded = load_relation(path)
        assert loaded.name == "round-trip"
        assert relations_equal(relation, loaded, tol=1e-6)

    def test_load_reports_line_numbers(self, tmp_path):
        path = tmp_path / "bad.wkt"
        path.write_text("POLYGON ((0 0, 1 0, 1 1, 0 0))\nGARBAGE\n")
        with pytest.raises(ValueError, match="bad.wkt:2"):
            load_relation(path)

    def test_default_precision_roundtrips_float64_exactly(self):
        # Coordinates chosen to need the full 17 significant digits;
        # the old precision=9 default truncated them, so the reloaded
        # polygon differed from the saved one in the last ~8 digits.
        shell = [
            (0.1 + 1e-12, 0.2 + 2e-13),
            (1 / 3, 2 / 3),
            (123456.789012345678, -0.000123456789012345),
            (1e-300, 1e300),
        ]
        again = polygon_from_wkt(polygon_to_wkt(Polygon(shell)))
        # Polygon normalises ring order/rotation deterministically, so
        # compare the point sets bit-for-bit (no tolerance).
        original = Polygon(shell)
        assert sorted(again.shell) == sorted(original.shell)

    def test_roundtrip_preserves_fingerprint(self, tmp_path):
        relation = SpatialRelation(
            "fp", cartographic_polygons(25, 30, seed=5)
        )
        fingerprint = relation.columnar().fingerprint
        path = tmp_path / "fp.wkt"
        save_relation(relation, path)
        loaded = load_relation(path)
        # Bit-identical coordinates -> identical content digest -> the
        # segment and result caches treat disk round-trips as hits.
        assert loaded.columnar().fingerprint == fingerprint
        # And a second round-trip is a fixed point.
        path2 = tmp_path / "fp2.wkt"
        save_relation(loaded, path2)
        assert load_relation(path2).columnar().fingerprint == fingerprint

    def test_explicit_precision_still_truncates(self):
        poly = Polygon([(0.123456789012345, 0), (1, 0), (1, 1)])
        text = polygon_to_wkt(poly, precision=6)
        assert "0.123457" in text
        assert "0.123456789" not in text

    def test_relations_equal_compares_hole_coordinates(self):
        shell = [(0, 0), (10, 0), (10, 10), (0, 10)]
        hole_a = [[(1, 1), (3, 1), (3, 3), (1, 3)]]
        hole_b = [[(5, 5), (7, 5), (7, 7), (5, 7)]]  # same size, moved
        rel_a = SpatialRelation("a", [Polygon(shell, holes=hole_a)])
        rel_b = SpatialRelation("b", [Polygon(shell, holes=hole_b)])
        # Identical shells and hole *counts*, different hole geometry:
        # the old comparison never looked at hole coordinates and
        # reported these equal.
        assert not relations_equal(rel_a, rel_b)
        assert relations_equal(
            rel_a, SpatialRelation("c", [Polygon(shell, holes=hole_a)])
        )

    def test_relations_equal_compares_hole_vertex_counts(self):
        shell = [(0, 0), (10, 0), (10, 10), (0, 10)]
        square_hole = [[(1, 1), (3, 1), (3, 3), (1, 3)]]
        tri_hole = [[(1, 1), (3, 1), (2, 3)]]
        rel_a = SpatialRelation("a", [Polygon(shell, holes=square_hole)])
        rel_b = SpatialRelation("b", [Polygon(shell, holes=tri_hole)])
        assert not relations_equal(rel_a, rel_b)


class TestCLI:
    @pytest.fixture()
    def wkt_files(self, tmp_path):
        for name, seed in (("a", 11), ("b", 12)):
            rel = SpatialRelation(
                name, cartographic_polygons(25, 20, seed=seed)
            )
            save_relation(rel, tmp_path / f"{name}.wkt")
        return tmp_path / "a.wkt", tmp_path / "b.wkt"

    def test_generate_and_info(self, tmp_path, capsys):
        out = tmp_path / "gen.wkt"
        assert main(
            ["generate", "--objects", "15", "--vertices", "20",
             "--out", str(out), "--name", "gen-test"]
        ) == 0
        assert main(["info", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "gen-test" in captured
        assert "objects:  15" in captured

    def test_join_command(self, wkt_files, capsys):
        a, b = wkt_files
        assert main(
            ["join", str(a), str(b), "--exact", "vectorized"]
        ) == 0
        out = capsys.readouterr().out
        assert "result pairs" in out
        assert "identification rate" in out

    def test_join_within_predicate(self, wkt_files, capsys):
        a, b = wkt_files
        assert main(
            ["join", str(a), str(b), "--predicate", "within",
             "--exact", "vectorized"]
        ) == 0
        assert "within join" in capsys.readouterr().out

    def test_join_no_filter(self, wkt_files, capsys):
        a, b = wkt_files
        assert main(
            ["join", str(a), str(b), "--conservative", "none",
             "--progressive", "none", "--exact", "vectorized"]
        ) == 0
        out = capsys.readouterr().out
        assert "identification rate:    0%" in out

    def test_window_query_command(self, wkt_files, capsys):
        a, _b = wkt_files
        assert main(
            ["query", str(a), "--window", "0.1", "0.1", "0.6", "0.6"]
        ) == 0
        assert "window" in capsys.readouterr().out

    def test_point_query_command(self, wkt_files, capsys):
        a, _b = wkt_files
        assert main(["query", str(a), "--point", "0.5", "0.5"]) == 0
        assert "point" in capsys.readouterr().out

    def test_pairs_flag_lists_pairs(self, wkt_files, capsys):
        a, b = wkt_files
        main(["join", str(a), str(b), "--exact", "vectorized", "--pairs"])
        out = capsys.readouterr().out
        assert any("\t" in line for line in out.splitlines())
