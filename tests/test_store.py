"""Persistent relation store: round-trips, corruption, stability, CLI.

Four concerns, one file:

* **Round-trip fidelity** — ``save`` then ``load`` reproduces every
  packed column byte-identically through read-only memmaps, and
  ``to_relation`` rebuilds the live geometry with the columnar cache
  pre-seeded (no packing kernel runs on load).
* **Corruption is a clean error** — every structural defect a disk can
  serve (unparsable manifest, wrong format version, missing keys,
  fingerprint mismatch, bogus counts, dtype/shape/nbytes drift,
  missing or truncated pages) raises :class:`StoreCorruptionError` at
  ``load``; silent byte flips that keep sizes intact are caught by
  :meth:`StoredRelation.verify`.
* **Fingerprint stability across processes** — the restart story only
  works if a *different* interpreter re-packs the same geometry to the
  same fingerprint and the same column bytes.  A subprocess proves it.
* **CLI and service fronts** — ``repro store pack/ls/rm``,
  ``join --store-dir`` with ``store:<fingerprint>`` references, and the
  server's ``warm``/``telemetry``/store-reference paths.
* **Approximation sidecars** — lazily published pages beside the ring
  pages: every structural defect is a :class:`StoreCorruptionError` at
  ``load`` (never a wrong filter decision), ``verify`` re-digests them,
  a stale algorithm version is rebuilt, an unwritable store still
  joins correctly, concurrent publishers converge on one valid
  sidecar, and ``remove`` takes them along.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from helpers import random_relation_pair, stats_fingerprint
from repro.cli import main
from repro.core.join import JoinConfig, SpatialJoinProcessor
from repro.core.parallel_exec import live_shared_segments
from repro.core.session import JoinSession
from repro.datasets import store as store_module
from repro.datasets.io import save_relation
from repro.datasets.store import (
    RING_COLUMNS,
    STORE_FORMAT_VERSION,
    RelationStore,
    StoreCorruptionError,
    StoredRelation,
    StoreError,
    StoreMissError,
)
from repro.service.core import JoinService
from repro.service.server import JoinServiceServer


@pytest.fixture()
def store(tmp_path):
    return RelationStore(tmp_path / "store")


@pytest.fixture()
def packed(store):
    """One relation saved to the store: (relation, fingerprint, store)."""
    rel_a, _ = random_relation_pair(81, n_objects=14)
    fingerprint = store.save(rel_a)
    return rel_a, fingerprint, store


def _manifest_path(store, fingerprint):
    return store.directory / fingerprint / "manifest.json"


def _edit_manifest(store, fingerprint, mutate):
    path = _manifest_path(store, fingerprint)
    manifest = json.loads(path.read_text())
    mutate(manifest)
    path.write_text(json.dumps(manifest))


class TestRoundTrip:
    def test_columns_come_back_byte_identical(self, packed):
        relation, fingerprint, store = packed
        columnar = relation.columnar()
        stored = store.load(fingerprint)

        assert stored.fingerprint == columnar.fingerprint == fingerprint
        assert stored.name == relation.name
        assert stored.n_objects == len(relation)

        rings = columnar.rings
        for name, original in (
            ("oids", rings.oids),
            ("object_rings", rings.object_rings),
            ("ring_offsets", rings.ring_offsets),
            ("ring_xy", rings.ring_xy),
            ("mbrs", columnar.mbrs),
            ("areas", columnar.areas),
        ):
            page = stored.column(name)
            assert isinstance(page, np.memmap)
            assert page.tobytes() == np.ascontiguousarray(original).tobytes()
        stored.verify()

    def test_to_relation_preseeds_columnar_without_repacking(self, packed):
        relation, fingerprint, store = packed
        loaded = store.load_relation(fingerprint)

        # The columnar cache is installed up front from the pages; no
        # packing kernel has run (pack counters exist only after packs).
        assert loaded._columnar is not None
        columnar = loaded.columnar()
        assert columnar.fingerprint == fingerprint
        assert columnar.pack_counts == {}

        # Geometry is bit-identical: same oids, same vertices.
        assert [o.oid for o in loaded] == [o.oid for o in relation]
        for mine, theirs in zip(loaded, relation):
            assert mine.polygon.shell == theirs.polygon.shell

        # And the loaded relation joins identically to the original.
        config = JoinConfig(exact_method="vectorized")
        original = SpatialJoinProcessor(config).join(relation, relation)
        replayed = SpatialJoinProcessor(config).join(loaded, loaded)
        assert sorted(replayed.id_pairs()) == sorted(original.id_pairs())
        assert stats_fingerprint(replayed.stats) == stats_fingerprint(
            original.stats
        )

    def test_save_is_idempotent_and_content_addressed(self, packed):
        relation, fingerprint, store = packed
        before = _manifest_path(store, fingerprint).stat().st_mtime_ns
        assert store.save(relation) == fingerprint
        assert _manifest_path(store, fingerprint).stat().st_mtime_ns == before
        assert len(store) == 1

        # Same geometry under a different relation name: new content
        # identity, new store entry.
        renamed = type(relation)("renamed", [])
        renamed.objects = relation.objects
        other = store.save(renamed)
        assert other != fingerprint
        assert sorted(store) == sorted([fingerprint, other])

    def test_management_surface(self, packed):
        relation, fingerprint, store = packed
        assert fingerprint in store
        assert store.fingerprints() == [fingerprint]
        assert store.remove(fingerprint) is True
        assert store.remove(fingerprint) is False
        assert fingerprint not in store
        assert len(store) == 0

    def test_miss_is_a_keyed_miss(self, store):
        with pytest.raises(StoreMissError) as excinfo:
            store.load("deadbeef" * 4)
        assert isinstance(excinfo.value, KeyError)
        assert isinstance(excinfo.value, StoreError)
        assert "not in store" in str(excinfo.value)


class TestCorruption:
    def test_unparsable_manifest(self, packed):
        _, fingerprint, store = packed
        _manifest_path(store, fingerprint).write_text("{not json")
        with pytest.raises(StoreCorruptionError, match="unreadable manifest"):
            store.load(fingerprint)

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda m: m.update(format_version=STORE_FORMAT_VERSION + 1),
             "format version"),
            (lambda m: m.pop("n_points"), "missing 'n_points'"),
            (lambda m: m.update(fingerprint="0" * 32),
             "does not match directory"),
            (lambda m: m.update(n_objects="many"), "non-negative integer"),
            (lambda m: m.update(n_rings=True), "non-negative integer"),
            (lambda m: m.update(n_points=-1), "non-negative integer"),
            (lambda m: m.update(columns=[]), "'columns' is not an object"),
            (lambda m: m["columns"].pop("ring_xy"), "missing or incomplete"),
            (lambda m: m["columns"]["oids"].pop("nbytes"),
             "missing or incomplete"),
            (lambda m: m["columns"]["oids"].update(dtype="<f8"), "dtype"),
            (lambda m: m["columns"]["areas"].update(
                shape=[m["n_objects"] + 1]), "disagrees with the manifest"),
            (lambda m: m["columns"]["ring_xy"].update(
                nbytes=m["columns"]["ring_xy"]["nbytes"] - 8),
             "disagrees with nbytes"),
        ],
        ids=[
            "format-version", "missing-count", "fingerprint-mismatch",
            "count-str", "count-bool", "count-negative", "columns-list",
            "column-missing", "column-incomplete", "dtype-drift",
            "shape-drift", "nbytes-drift",
        ],
    )
    def test_manifest_defects(self, packed, mutate, match):
        _, fingerprint, store = packed
        _edit_manifest(store, fingerprint, mutate)
        with pytest.raises(StoreCorruptionError, match=match):
            store.load(fingerprint)

    @pytest.mark.parametrize("column", ["ring_xy", "oids"])
    def test_truncated_page(self, packed, column):
        _, fingerprint, store = packed
        page = store.directory / fingerprint / f"{column}.bin"
        page.write_bytes(page.read_bytes()[:-8])
        with pytest.raises(StoreCorruptionError, match="truncated"):
            store.load(fingerprint)

    def test_missing_page(self, packed):
        _, fingerprint, store = packed
        (store.directory / fingerprint / "mbrs.bin").unlink()
        with pytest.raises(StoreCorruptionError, match="missing"):
            store.load(fingerprint)

    def test_oversized_page(self, packed):
        _, fingerprint, store = packed
        page = store.directory / fingerprint / "areas.bin"
        page.write_bytes(page.read_bytes() + b"\x00" * 8)
        with pytest.raises(StoreCorruptionError, match="oversized"):
            store.load(fingerprint)

    def test_verify_catches_size_preserving_byte_flips(self, packed):
        _, fingerprint, store = packed
        page = store.directory / fingerprint / "ring_xy.bin"
        raw = bytearray(page.read_bytes())
        raw[13] ^= 0xFF
        page.write_bytes(bytes(raw))
        stored = store.load(fingerprint)  # sizes still agree: load passes
        with pytest.raises(StoreCorruptionError, match="digest"):
            stored.verify()

    def test_warm_from_store_propagates_load_errors_cleanly(self, packed):
        _, fingerprint, store = packed
        page = store.directory / fingerprint / "ring_xy.bin"
        page.write_bytes(page.read_bytes()[:-8])
        with JoinSession() as session:
            with pytest.raises(StoreCorruptionError):
                session.warm_from_store(store, [fingerprint])
            assert session.cached_relations == 0
            assert session.stats()["store_loads"] == 0
        assert live_shared_segments() == frozenset()


class TestSubprocessStability:
    """The same geometry packs to the same fingerprint in any process."""

    def test_reload_in_subprocess_matches_fingerprint_and_bytes(
        self, packed, tmp_path
    ):
        relation, fingerprint, store = packed
        columnar = relation.columnar()
        parent = {
            "fingerprint": fingerprint,
            "digests": {
                name: hashlib.blake2b(
                    np.ascontiguousarray(array).tobytes(), digest_size=16
                ).hexdigest()
                for name, array in zip(RING_COLUMNS, columnar.rings)
            },
        }

        # The child materialises objects from the stored pages, then
        # re-packs them from scratch (fresh relation, no pre-seeded
        # cache) — the full cold-process path, digest included.
        script = (
            "import hashlib, json, sys\n"
            "import numpy as np\n"
            "from repro.datasets.relations import SpatialRelation\n"
            "from repro.datasets.store import RING_COLUMNS, RelationStore\n"
            "store = RelationStore(sys.argv[1])\n"
            "loaded = store.load_relation(sys.argv[2])\n"
            "fresh = SpatialRelation(loaded.name, [])\n"
            "fresh.objects = loaded.objects\n"
            "columnar = fresh.columnar()\n"
            "print(json.dumps({\n"
            "    'fingerprint': columnar.fingerprint,\n"
            "    'digests': {\n"
            "        name: hashlib.blake2b(\n"
            "            np.ascontiguousarray(col).tobytes(), digest_size=16\n"
            "        ).hexdigest()\n"
            "        for name, col in zip(RING_COLUMNS, columnar.rings)\n"
            "    },\n"
            "}))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", script,
             str(store.directory), fingerprint],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        child = json.loads(result.stdout)
        assert child == parent


class TestStoreCLI:
    @pytest.fixture()
    def wkt_pair(self, tmp_path):
        rel_a, rel_b = random_relation_pair(55, n_objects=16,
                                            degenerate=False)
        path_a, path_b = tmp_path / "a.wkt", tmp_path / "b.wkt"
        save_relation(rel_a, path_a)
        save_relation(rel_b, path_b)
        return rel_a, rel_b, str(path_a), str(path_b)

    def test_pack_ls_rm(self, wkt_pair, tmp_path, capsys):
        rel_a, rel_b, path_a, path_b = wkt_pair
        store_dir = str(tmp_path / "store")

        assert main(["store", "pack", store_dir, path_a, path_b]) == 0
        out = capsys.readouterr().out
        assert out.count("packed ") == 2
        fp_a = rel_a.columnar().fingerprint
        fp_b = rel_b.columnar().fingerprint
        assert fp_a in out and fp_b in out

        assert main(["store", "ls", store_dir]) == 0
        out = capsys.readouterr().out
        assert "2 relations" in out
        assert fp_a in out and fp_b in out

        assert main(["store", "rm", store_dir, fp_a]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["store", "rm", store_dir, fp_a]) == 2
        assert "not in store" in capsys.readouterr().err

        assert main(["store", "ls", store_dir]) == 0
        assert "1 relations" in capsys.readouterr().out

    def test_ls_flags_corrupted_entries(self, wkt_pair, tmp_path, capsys):
        _, _, path_a, _ = wkt_pair
        store_dir = tmp_path / "store"
        assert main(["store", "pack", str(store_dir), path_a]) == 0
        capsys.readouterr()
        fingerprint = RelationStore(store_dir).fingerprints()[0]
        _edit_manifest(
            RelationStore(store_dir), fingerprint, lambda m: m.pop("columns")
        )
        assert main(["store", "ls", str(store_dir)]) == 0
        assert "CORRUPTED" in capsys.readouterr().out

    def test_pack_rejects_unreadable_relation(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.wkt")
        assert main(["store", "pack", str(tmp_path / "s"), missing]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_join_by_store_reference(self, wkt_pair, tmp_path, capsys):
        rel_a, rel_b, path_a, path_b = wkt_pair
        store_dir = str(tmp_path / "store")
        assert main(["store", "pack", store_dir, path_a, path_b]) == 0
        capsys.readouterr()
        fp_a = rel_a.columnar().fingerprint
        fp_b = rel_b.columnar().fingerprint

        oracle = SpatialJoinProcessor(
            JoinConfig(exact_method="vectorized")
        ).join(rel_a, rel_b)
        assert main([
            "join", f"store:{fp_a}", f"store:{fp_b}",
            "--store-dir", store_dir, "--exact", "vectorized",
        ]) == 0
        assert str(len(oracle.id_pairs())) in capsys.readouterr().out

    def test_store_reference_without_store_dir_fails(self, capsys):
        assert main(["join", "store:abc", "store:def"]) == 2
        assert "needs --store-dir" in capsys.readouterr().err

    def test_unknown_store_reference_fails(self, tmp_path, capsys):
        (tmp_path / "s").mkdir()
        assert main([
            "join", "store:unknown", "store:unknown",
            "--store-dir", str(tmp_path / "s"),
        ]) == 2
        assert "not in store" in capsys.readouterr().err


class TestServiceStore:
    def _serve(self, test_body, **service_kwargs):
        async def drive():
            service = JoinService(**service_kwargs)
            server = JoinServiceServer(service, port=0)
            await server.start()
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            try:
                return await test_body(reader, writer)
            finally:
                writer.close()
                await server.close()

        return asyncio.run(drive())

    @staticmethod
    async def _rpc(reader, writer, payload):
        writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await writer.drain()
        return json.loads(await reader.readline())

    @pytest.fixture()
    def populated(self, tmp_path):
        rel_a, rel_b = random_relation_pair(77, n_objects=14,
                                            degenerate=False)
        store = RelationStore(tmp_path / "store")
        return store, rel_a, store.save(rel_a), rel_b, store.save(rel_b)

    def test_warm_then_join_by_fingerprint(self, populated):
        store, rel_a, fp_a, rel_b, fp_b = populated
        oracle = SpatialJoinProcessor(JoinConfig()).join(rel_a, rel_b)

        async def body(reader, writer):
            warm = await self._rpc(reader, writer, {"op": "warm"})
            join = await self._rpc(reader, writer, {
                "op": "join",
                "relation_a": f"store:{fp_a}",
                "relation_b": f"store:{fp_b}",
            })
            telemetry = await self._rpc(reader, writer, {"op": "telemetry"})
            return warm, join, telemetry

        warm, join, telemetry = self._serve(
            body, sessions=1, store_dir=str(store.directory)
        )
        assert warm == {
            "status": "ok", "op": "warm", "sessions": 1,
            "segments_loaded": 2, "segments_cached": 0,
            "fingerprints": sorted([fp_a, fp_b]),
        }
        assert join["status"] == "ok"
        assert sorted(tuple(p) for p in join["pairs"]) == sorted(
            oracle.id_pairs()
        )
        assert telemetry["store"] == {
            "dir": str(store.directory), "entries": 2,
        }
        sessions = telemetry["sessions"]
        assert sessions["store_loads"] == 2
        assert sessions["store_load_bytes"] > 0
        # The warmed segments made the join's lookups pure cache hits.
        assert sessions["segment_cache_hits"] >= 2
        assert sessions["segment_cache_misses"] == 0
        assert live_shared_segments() == frozenset()

    def test_warm_without_store_is_a_bad_request(self):
        async def body(reader, writer):
            return await self._rpc(reader, writer, {"op": "warm"})

        response = self._serve(body, sessions=1)
        assert response["status"] == "error"
        assert response["code"] == 400
        assert "no relation store" in response["error"]

    def test_warm_validates_payload(self, populated):
        store = populated[0]

        async def body(reader, writer):
            bad_type = await self._rpc(
                reader, writer, {"op": "warm", "fingerprints": "abc"}
            )
            bad_field = await self._rpc(
                reader, writer, {"op": "warm", "extra": 1}
            )
            return bad_type, bad_field

        bad_type, bad_field = self._serve(
            body, sessions=1, store_dir=str(store.directory)
        )
        assert bad_type["code"] == 400
        assert "list of strings" in bad_type["error"]
        assert bad_field["code"] == 400
        assert "unknown warm fields" in bad_field["error"]

    def test_unknown_store_reference_is_a_bad_request(self, populated):
        store = populated[0]

        async def body(reader, writer):
            return await self._rpc(reader, writer, {
                "op": "join",
                "relation_a": "store:doesnotexist",
                "relation_b": "store:doesnotexist",
            })

        response = self._serve(
            body, sessions=1, store_dir=str(store.directory)
        )
        assert response["status"] == "error"
        assert response["code"] == 400
        assert "not in store" in response["error"]

    def test_store_reference_without_store_is_a_bad_request(self):
        async def body(reader, writer):
            return await self._rpc(reader, writer, {
                "op": "join", "relation_a": "store:abc",
                "relation_b": "store:abc",
            })

        response = self._serve(body, sessions=1)
        assert response["status"] == "error"
        assert response["code"] == 400
        assert "--store-dir" in response["error"]


def _publish_in_child(store_dir, fingerprint, kind, barrier):
    """Child process: load the relation, then build + publish one kind."""
    relation = RelationStore(store_dir).load_relation(fingerprint)
    barrier.wait(timeout=60)
    relation.columnar().approx(kind)


class TestApproximationSidecars:
    KINDS = ("5-C", "MBC")

    @pytest.fixture()
    def touched(self, store):
        """A stored relation with a convex and a circle sidecar."""
        rel_a, _ = random_relation_pair(91, n_objects=12)
        rel_a.columnar(eager_kinds=self.KINDS)
        fingerprint = store.save(rel_a)
        return rel_a, fingerprint, store

    @staticmethod
    def _sidecar(store, fingerprint, kind):
        return store.directory / fingerprint / "approx" / kind

    def _edit(self, store, fingerprint, kind, mutate):
        path = self._sidecar(store, fingerprint, kind) / "manifest.json"
        manifest = json.loads(path.read_text())
        mutate(manifest)
        path.write_text(json.dumps(manifest))

    # -- publication --------------------------------------------------------

    def test_save_writes_packed_kinds_and_never_builds(self, store):
        rel_a, rel_b = random_relation_pair(92, n_objects=10)
        rel_a.columnar(eager_kinds=("MER",))
        fp_a, fp_b = store.save(rel_a), store.save(rel_b)
        assert store.load(fp_a).approx_kinds() == ["MER"]
        assert store.load(fp_b).approx_kinds() == []
        assert rel_b.columnar().packed_kinds() == []
        # Kinds packed after the first save ride along with the next.
        main_manifest = _manifest_path(store, fp_a).stat().st_mtime_ns
        rel_a.columnar(eager_kinds=("MBC",))
        assert store.save(rel_a) == fp_a
        assert store.load(fp_a).approx_kinds() == ["MBC", "MER"]
        assert _manifest_path(store, fp_a).stat().st_mtime_ns == main_manifest

    def test_sidecars_leave_the_main_entry_as_it_was(self, touched, tmp_path):
        relation, fingerprint, store = touched
        plain = RelationStore(tmp_path / "plain")
        fresh, _ = random_relation_pair(91, n_objects=12)
        assert plain.save(fresh) == fingerprint
        with_sidecars = store.load(fingerprint)
        without = plain.load(fingerprint)
        assert with_sidecars.manifest == without.manifest
        assert with_sidecars.nbytes == without.nbytes
        assert store.fingerprints() == [fingerprint]
        with_sidecars.verify()

    def test_built_kind_is_published_on_first_use(self, packed):
        relation, fingerprint, store = packed
        loaded = store.load_relation(fingerprint)
        assert store.load(fingerprint).approx_kinds() == []
        columnar = loaded.columnar()
        columnar.approx("MER")
        columnar.approx("RMBR")  # no stored form: built, never published
        assert columnar.pack_counts == {"MER": 1, "RMBR": 1}
        assert store.load(fingerprint).approx_kinds() == ["MER"]
        again = store.load_relation(fingerprint).columnar()
        assert again.packed_kinds() == ["MER"]
        assert again.pack_counts == {}
        original = relation.columnar().approx("MER").columns()
        for name, array in again.approx("MER").columns().arrays.items():
            assert array.tobytes() == original.arrays[name].tobytes()

    def test_remove_takes_sidecars_along(self, touched):
        _, fingerprint, store = touched
        assert self._sidecar(store, fingerprint, "5-C").is_dir()
        assert store.remove(fingerprint) is True
        assert not (store.directory / fingerprint).exists()
        assert len(store) == 0

    # -- corruption ---------------------------------------------------------

    @pytest.mark.parametrize(
        "kind, mutate, match",
        [
            ("5-C", lambda m: m.update(format_version=STORE_FORMAT_VERSION + 1),
             "format_version"),
            ("5-C", lambda m: m.update(kind="4-C"), "kind is '4-C'"),
            ("MBC", lambda m: m.update(family="convex"), "family"),
            ("5-C", lambda m: m.update(fingerprint="0" * 32), "fingerprint"),
            ("5-C", lambda m: m.update(n_objects=m["n_objects"] + 1),
             "n_objects"),
            ("5-C", lambda m: m.pop("digest"), "missing 'digest'"),
            ("5-C", lambda m: m.pop("algorithm_version"),
             "missing 'algorithm_version'"),
            ("5-C", lambda m: m.update(columns=[]),
             "'columns' is not an object"),
            ("5-C", lambda m: m["columns"].pop("vx"), "missing or incomplete"),
            ("MBC", lambda m: m["columns"].pop("circles"),
             "missing or incomplete"),
            ("5-C", lambda m: m["columns"]["counts"].pop("nbytes"),
             "missing or incomplete"),
            ("5-C", lambda m: m["columns"]["counts"].update(dtype="<f8"),
             "dtype"),
            ("MBC", lambda m: m["columns"]["circles"].update(dtype="<f4"),
             "dtype"),
            ("5-C", lambda m: m["columns"]["mbrs"].update(
                shape=[m["n_objects"], 5]), "disagrees with the manifest"),
            ("5-C", lambda m: m["columns"]["vy"].update(
                shape=[m["n_objects"], m["columns"]["vy"]["shape"][1] + 1]),
             "disagrees with the manifest"),
            ("5-C", lambda m: m["columns"]["vx"].update(
                shape=[m["n_objects"], 0]), "width 0"),
            ("MBC", lambda m: m["columns"]["false_areas"].update(
                nbytes=m["columns"]["false_areas"]["nbytes"] - 8),
             "disagrees with nbytes"),
        ],
        ids=[
            "format-version", "kind-mismatch", "family-mismatch",
            "fingerprint-mismatch", "count-drift", "missing-digest",
            "missing-version", "columns-list", "convex-column-missing",
            "circle-column-missing", "column-incomplete", "dtype-drift-int",
            "dtype-drift-float", "shape-drift", "width-drift", "width-zero",
            "nbytes-drift",
        ],
    )
    def test_manifest_defects_fail_at_load(self, touched, kind, mutate, match):
        _, fingerprint, store = touched
        self._edit(store, fingerprint, kind, mutate)
        with pytest.raises(StoreCorruptionError, match=match):
            store.load(fingerprint)
        with pytest.raises(StoreCorruptionError, match=match):
            store.load_relation(fingerprint)

    def test_unparsable_sidecar_manifest(self, touched):
        _, fingerprint, store = touched
        path = self._sidecar(store, fingerprint, "MBC") / "manifest.json"
        path.write_text("{not json")
        with pytest.raises(StoreCorruptionError, match="unreadable manifest"):
            store.load(fingerprint)

    @pytest.mark.parametrize("kind, column, damage, match", [
        ("5-C", "vx", lambda raw: raw[:-8], "truncated"),
        ("MBC", "circles", lambda raw: raw[:-8], "truncated"),
        ("5-C", "counts", lambda raw: raw + b"\x00" * 8, "oversized"),
        ("MBC", "mbrs", None, "missing"),
    ], ids=["truncated-convex", "truncated-circle", "oversized", "missing"])
    def test_page_defects_fail_at_load(self, touched, kind, column, damage,
                                       match):
        _, fingerprint, store = touched
        page = self._sidecar(store, fingerprint, kind) / f"{column}.bin"
        if damage is None:
            page.unlink()
        else:
            page.write_bytes(damage(page.read_bytes()))
        with pytest.raises(StoreCorruptionError, match=match):
            store.load(fingerprint)
        with JoinSession() as session:
            with pytest.raises(StoreCorruptionError):
                session.warm_from_store(store, [fingerprint])
            assert session.cached_relations == 0
        assert live_shared_segments() == frozenset()

    def test_sidecar_published_after_load_is_validated_on_use(self, packed):
        """A defect that appears after ``load`` still cannot be adopted."""
        relation, fingerprint, store = packed
        loaded = store.load_relation(fingerprint)
        store.load(fingerprint).publish_approx(
            relation.columnar().approx("5-C").columns()
        )
        page = self._sidecar(store, fingerprint, "5-C") / "vy.bin"
        page.write_bytes(page.read_bytes()[:-8])
        with pytest.raises(StoreCorruptionError, match="truncated"):
            loaded.columnar().approx("5-C")

    @pytest.mark.parametrize("kind, column", [("5-C", "vx"),
                                              ("MBC", "circles"),
                                              ("5-C", "false_areas")])
    def test_verify_catches_byte_flips_in_approximation_pages(
        self, touched, kind, column
    ):
        _, fingerprint, store = touched
        store.load(fingerprint).verify()
        page = self._sidecar(store, fingerprint, kind) / f"{column}.bin"
        raw = bytearray(page.read_bytes())
        raw[11] ^= 0xFF
        page.write_bytes(bytes(raw))
        stored = store.load(fingerprint)  # sizes still agree: load passes
        with pytest.raises(StoreCorruptionError, match="digest"):
            stored.verify()

    # -- algorithm versions -------------------------------------------------

    def _stale(self, store, monkeypatch, kind):
        """A stored relation whose ``kind`` sidecar is out of date.

        Every sidecar is written at version 1; then ``kind``'s algorithm
        is at its real version — MER's 3 (grid search, MEC fallback),
        MEC's 2 (pole search) — or, for 5-C, a pretended 2.
        """
        from repro.approximations import factory

        monkeypatch.setitem(factory._ALGORITHM_VERSIONS, kind, 1)
        rel_a, _ = random_relation_pair(91, n_objects=12)
        rel_a.columnar(eager_kinds=(kind, "MBC"))
        fingerprint = store.save(rel_a)
        if kind in ("MER", "MEC"):
            monkeypatch.undo()
            assert factory.algorithm_version(kind) == {"MER": 3, "MEC": 2}[kind]
        else:
            monkeypatch.setitem(factory._ALGORITHM_VERSIONS, kind, 2)
        return fingerprint

    @pytest.mark.parametrize("kind", ["5-C", "MER", "MEC"])
    def test_stale_algorithm_version_is_rebuilt_not_mixed(
        self, store, monkeypatch, kind
    ):
        from repro.approximations import factory

        fingerprint = self._stale(store, monkeypatch, kind)
        stored = store.load(fingerprint)  # stale is not corrupt
        assert stored.approx_kinds() == sorted([kind, "MBC"])
        assert stored.load_approx(kind) is None
        assert stored.load_approx("MBC") is not None
        loaded = stored.to_relation()
        columnar = loaded.columnar()
        assert columnar.packed_kinds() == ["MBC"]
        columnar.approx(kind)
        assert columnar.pack_counts == {kind: 1}
        manifest = json.loads(
            (self._sidecar(store, fingerprint, kind) / "manifest.json")
            .read_text()
        )
        assert manifest["algorithm_version"] == factory.algorithm_version(kind)
        assert store.load_relation(fingerprint).columnar().pack_counts == {}
        store.load(fingerprint).verify()

    # -- unwritable stores --------------------------------------------------

    def test_unwritable_store_joins_correctly_and_publishes_nothing(
        self, monkeypatch, tmp_path
    ):
        store = RelationStore(tmp_path / "ro")
        rel_a, rel_b = random_relation_pair(93, n_objects=10)
        fp_a, fp_b = store.save(rel_a), store.save(rel_b)
        config = JoinConfig(engine="batched", exact_method="vectorized")
        oracle = SpatialJoinProcessor(config).join(rel_a, rel_b)

        def read_only(*args, **kwargs):
            raise PermissionError(30, "Read-only file system")

        monkeypatch.setattr(store_module, "_publish", read_only)
        loaded_a, loaded_b = store.load_relation(fp_a), store.load_relation(fp_b)
        result = SpatialJoinProcessor(config).join(loaded_a, loaded_b)
        assert result.id_pairs() == oracle.id_pairs()
        assert stats_fingerprint(result.stats) == stats_fingerprint(
            oracle.stats
        )
        assert loaded_a.columnar().pack_counts == {"5-C": 1, "MER": 1}
        assert store.load(fp_a).approx_kinds() == []
        assert store.load(fp_b).approx_kinds() == []

    @pytest.mark.skipif(os.geteuid() == 0,
                        reason="root ignores directory permissions")
    def test_read_only_directory_is_skipped_silently(self, packed):
        _, fingerprint, store = packed
        directory = store.directory / fingerprint
        directory.chmod(0o555)
        try:
            columnar = store.load_relation(fingerprint).columnar()
            columnar.approx("MBC")
            assert columnar.pack_counts == {"MBC": 1}
            assert store.load(fingerprint).approx_kinds() == []
        finally:
            directory.chmod(0o755)

    def test_scratch_directory_is_cleaned_after_a_failed_publish(
        self, packed, monkeypatch
    ):
        relation, fingerprint, store = packed

        def disk_full(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(store_module.os, "replace", disk_full)
        stored = store.load(fingerprint)
        columns = relation.columnar().approx("MBC").columns()
        assert stored.publish_approx(columns) is False
        approx_root = store.directory / fingerprint / "approx"
        assert list(approx_root.iterdir()) == []
        assert stored.approx_kinds() == []

    # -- concurrent publishers ----------------------------------------------

    def test_two_processes_publishing_one_kind_leave_one_valid_sidecar(
        self, packed
    ):
        relation, fingerprint, store = packed
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        children = [
            context.Process(
                target=_publish_in_child,
                args=(str(store.directory), fingerprint, "MBC", barrier),
            )
            for _ in range(2)
        ]
        for child in children:
            child.start()
        for child in children:
            child.join(timeout=120)
            assert not child.is_alive()
            assert child.exitcode == 0
        self._assert_one_valid_sidecar(store, fingerprint, relation, "MBC")

    def test_more_threads_than_cores_publishing_one_kind(self, packed):
        relation, fingerprint, store = packed
        threads = 2 * (os.cpu_count() or 1) + 1
        barrier = threading.Barrier(threads)
        failures = []
        # Each thread owns its relation; only the store directory is shared.
        loaded = [store.load_relation(fingerprint) for _ in range(threads)]

        def publish(mine):
            try:
                barrier.wait(timeout=60)
                mine.columnar().approx("5-C")
            except BaseException as exc:  # noqa: BLE001 — reported below
                failures.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=publish, args=(mine,))
                       for mine in loaded]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(old_interval)
        assert failures == []
        self._assert_one_valid_sidecar(store, fingerprint, relation, "5-C")

    def test_losing_publisher_never_deletes_the_winners_sidecar(
        self, packed, monkeypatch
    ):
        """B looked before A's rename landed; B must find A's and stand down."""
        relation, fingerprint, store = packed
        columns = relation.columnar().approx("MBC").columns()
        loser, winner = store.load(fingerprint), store.load(fingerprint)
        look = StoredRelation._approx_manifest
        sidecar = self._sidecar(store, fingerprint, "MBC")
        looks, inodes = [], []

        def first_look_precedes_the_winner(self, kind):
            looks.append(kind)
            if len(looks) == 1:
                seen = look(self, kind)  # nothing published yet
                assert winner.publish_approx(columns) is True
                inodes.append(sidecar.stat().st_ino)
                return seen
            return look(self, kind)

        removed = []
        monkeypatch.setattr(
            store_module.shutil, "rmtree",
            lambda path, **kwargs: removed.append(path),
        )
        monkeypatch.setattr(
            StoredRelation, "_approx_manifest", first_look_precedes_the_winner
        )
        assert loser.publish_approx(columns) is False
        assert len(looks) >= 3  # loser twice (second under the lock), winner
        assert removed == []
        assert [sidecar.stat().st_ino] == inodes  # the winner's, untouched
        monkeypatch.undo()
        self._assert_one_valid_sidecar(store, fingerprint, relation, "MBC")

    @pytest.mark.parametrize("kind", ["5-C", "MER"])
    def test_publishers_replacing_a_stale_sidecar_keep_it_loadable(
        self, store, monkeypatch, kind
    ):
        """Version upgrade raced by threads: every load in between succeeds."""
        fingerprint = self._stale(store, monkeypatch, kind)
        threads = 2 * (os.cpu_count() or 1) + 1
        barrier = threading.Barrier(threads)
        failures = []
        loaded = [store.load_relation(fingerprint) for _ in range(threads)]

        def upgrade(mine):
            try:
                barrier.wait(timeout=60)
                mine.columnar().approx(kind)
                store.load(fingerprint)  # a reader beside the publishers
            except BaseException as exc:  # noqa: BLE001 — reported below
                failures.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=upgrade, args=(mine,))
                       for mine in loaded]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(old_interval)
        assert failures == []
        approx_root = store.directory / fingerprint / "approx"
        assert sorted(e.name for e in approx_root.iterdir()) == sorted(
            [kind, "MBC"]
        )
        stored = store.load(fingerprint)
        stored.verify()
        assert stored.load_approx(kind) is not None

    def test_threads_sharing_one_relation_build_a_kind_once(self, packed):
        _, fingerprint, store = packed
        loaded = store.load_relation(fingerprint)
        threads = 2 * (os.cpu_count() or 1) + 1
        barrier = threading.Barrier(threads)
        seen = []

        def read():
            barrier.wait(timeout=60)
            seen.append(loaded.columnar().approx("MBC"))

        workers = [threading.Thread(target=read) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert not worker.is_alive()
        assert len(seen) == threads
        assert all(encoder is seen[0] for encoder in seen)
        assert loaded.columnar().pack_counts == {"MBC": 1}

    def _assert_one_valid_sidecar(self, store, fingerprint, relation, kind):
        approx_root = store.directory / fingerprint / "approx"
        assert [entry.name for entry in approx_root.iterdir()] == [kind]
        stored = store.load(fingerprint)
        stored.verify()
        expected = relation.columnar().approx(kind).columns()
        for name, array in stored.load_approx(kind).arrays.items():
            assert array.tobytes() == expected.arrays[name].tobytes()
