"""Build, cache and fallback contract of the C kernel backend.

``repro.geometry.kernels`` compiles ``geometry/_ckernels.c`` on first
use and caches the library per source hash.  These tests pin what
happens around that build, each on an empty cache directory of its
own:

* no compiler: ``auto`` resolves to ``numpy`` with one logged warning,
  while an explicit ``c`` is a clean error at every boundary —
  ``JoinConfig``, the CLI and the service payload;
* a cached library that is truncated is rebuilt, never loaded;
* two processes building into the same empty cache at once both get a
  working library, and no temp file is left behind.
"""

from __future__ import annotations

import logging
import os
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from helpers import random_relation_pair
from repro.cli import main as cli_main
from repro.core.join import JoinConfig
from repro.datasets.io import save_relation
from repro.geometry import kernels
from repro.service.api import BadRequestError
from repro.service.server import _join_config_from_payload

SRC = Path(__file__).resolve().parents[1] / "src"


def _forget_library():
    kernels._c_library.cache_clear()
    kernels._auto_backend.cache_clear()
    kernels._SETS.pop("c", None)


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    """An empty library cache; the process's own library is restored after."""
    directory = tmp_path / "cache"
    directory.mkdir()
    monkeypatch.setattr(kernels, "_cache_dirs", lambda: (directory,))
    _forget_library()
    yield directory
    _forget_library()


def _set_compiler(monkeypatch, command):
    real = sysconfig.get_config_var
    monkeypatch.setattr(
        sysconfig, "get_config_var",
        lambda name: command if name == "CC" else real(name),
    )


@pytest.fixture()
def no_compiler(cache_dir, monkeypatch):
    _set_compiler(monkeypatch, str(cache_dir / "no-such-cc"))
    return cache_dir


class TestWithoutCompiler:
    def test_auto_falls_back_to_numpy_with_one_warning(self, no_compiler,
                                                       caplog):
        with caplog.at_level(logging.WARNING, logger="repro.geometry.kernels"):
            assert kernels.resolve_backend("auto") == "numpy"
            assert kernels.get_kernels("auto").name == "numpy"
        warnings = [
            record for record in caplog.records
            if record.name == "repro.geometry.kernels"
        ]
        assert len(warnings) == 1
        assert warnings[0].levelno == logging.WARNING
        assert "falls back to numpy" in warnings[0].getMessage()
        assert "no-such-cc" in warnings[0].getMessage()
        assert list(no_compiler.iterdir()) == []  # no temp file left

    def test_explicit_c_is_a_config_error(self, no_compiler):
        with pytest.raises(ValueError, match="could not be built or loaded"):
            kernels.resolve_backend("c")
        # ...already at JoinConfig construction, so the CLI and the
        # service surface a clean boundary error instead of a traceback.
        with pytest.raises(ValueError, match="could not be built or loaded"):
            JoinConfig(kernels="c")

    def test_cli_reports_a_clean_error(self, no_compiler, tmp_path, capsys):
        rel_a, rel_b = random_relation_pair(49, n_objects=6,
                                            degenerate=False)
        path_a, path_b = tmp_path / "a.wkt", tmp_path / "b.wkt"
        save_relation(rel_a, path_a)
        save_relation(rel_b, path_b)
        rc = cli_main(["join", str(path_a), str(path_b), "--kernels", "c"])
        assert rc == 2
        assert "could not be built or loaded" in capsys.readouterr().err

    def test_service_field_is_a_bad_request(self, no_compiler):
        request = {"op": "join", "relation_a": "a", "relation_b": "b",
                   "kernels": "c"}
        with pytest.raises(BadRequestError, match="C kernels"):
            _join_config_from_payload(request, JoinConfig(kernels="numpy"))

    def test_warning_quotes_the_compilers_last_stderr_line(self, cache_dir,
                                                           monkeypatch,
                                                           caplog):
        script = "echo 'first line' >&2; echo 'fatal: last line' >&2; exit 1"
        _set_compiler(monkeypatch, f"sh -c {script!r} cc")
        with caplog.at_level(logging.WARNING, logger="repro.geometry.kernels"):
            assert kernels.resolve_backend("auto") == "numpy"
        (message,) = [record.getMessage() for record in caplog.records]
        assert message.endswith("fatal: last line")
        assert list(cache_dir.iterdir()) == []


class TestCache:
    def test_truncated_library_is_rebuilt_not_loaded(self, cache_dir, caplog):
        path = cache_dir / kernels._library_name()
        kernels._build_library(path)
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        with caplog.at_level(logging.DEBUG, logger="repro.geometry.kernels"):
            library, error = kernels._c_library()
        assert library is not None and error == ""
        assert path.stat().st_size == len(whole)
        assert any("built the C kernels" in record.getMessage()
                   for record in caplog.records)
        assert kernels.warm_up("c") == "c"
        assert [p.name for p in cache_dir.iterdir()] == [path.name]

    def test_unwritable_directory_falls_back_to_the_next(self, tmp_path,
                                                         monkeypatch):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        spare = tmp_path / "spare"
        monkeypatch.setattr(
            kernels, "_cache_dirs", lambda: (blocker / "cache", spare)
        )
        _forget_library()
        try:
            assert kernels.resolve_backend("auto") == "c"
            assert (spare / kernels._library_name()).is_file()
        finally:
            _forget_library()

    def test_concurrent_builds_share_one_cache(self, cache_dir):
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from repro.geometry import kernels\n"
            "kernels._cache_dirs = lambda: (Path(sys.argv[1]),)\n"
            "print(kernels.warm_up('c'))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        processes = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(cache_dir)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        for process in processes:
            out, err = process.communicate(timeout=120)
            assert process.returncode == 0, err
            assert out.strip() == "c"
        assert [p.name for p in cache_dir.iterdir()] == [
            kernels._library_name()
        ]


class TestArgumentChecks:
    """The C kernels index raw buffers: bad rows must raise, not read
    out of bounds (the numpy oracle raises ``IndexError`` on them too)."""

    def test_out_of_range_rows_are_rejected(self):
        table = kernels._fastops.build_edge_table(
            np.array([0, 1]), np.array([0, 4]),
            np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        )
        c = kernels.get_kernels("c")
        clip = np.array([[0.0, 0.0, 1.0, 1.0]])
        one = np.ones(1)
        for bad in (np.array([1]), np.array([-1])):
            with pytest.raises(IndexError):
                c.edge_pairs_intersect_ragged(table, table, bad,
                                              np.zeros(1, dtype=int),
                                              clip, one)
            with pytest.raises(IndexError):
                c.min_edge_distance_ragged(table, table,
                                           np.zeros(1, dtype=int), bad,
                                           one, one)
        with pytest.raises(ValueError):
            c.edge_pairs_intersect_ragged(table, table, np.zeros(2, dtype=int),
                                          np.zeros(2, dtype=int), clip, one)

    def test_out_of_range_query_index_is_rejected(self):
        c = kernels.get_kernels("c")
        edges = np.array([0.0, 1.0])
        with pytest.raises(IndexError):
            c.points_in_polygons_bulk(np.zeros(1), np.zeros(1),
                                      np.array([0, 1]), edges, edges, edges,
                                      edges)
