"""The import contract: ``repro join`` loads only the join path.

Every name has one import path, its defining module, and a package
``__init__`` re-exports only names defined on the serial join path.  So
``import repro.cli`` and a serial ``repro join`` of two stored relations
must not load the tile executor, the session, the service, the paper's
per-pair exact processors, the other access methods or scipy.  Each
case runs in a fresh interpreter, because this test process has long
imported everything.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import random_relation_pair
from repro.datasets.io import save_relation

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Modules a serial join never runs; none may be loaded by it.
OFF_PATH = (
    "scipy",
    "multiprocessing",
    "concurrent.futures",
    "repro.core.parallel_exec",
    "repro.core.session",
    "repro.core.partition",
    "repro.core.parallel",
    "repro.core.overlay",
    "repro.core.selectivity",
    "repro.core.costs",
    "repro.core.inside",
    "repro.core.lineregion",
    "repro.service",
    "repro.index.rplus",
    "repro.index.hilbert",
    "repro.index.zorder",
    "repro.index.trstar",
    "repro.exact.planesweep",
    "repro.exact.decomposition",
    "repro.exact.costmodel",
    "repro.exact.bruteforce",
    "repro.exact.trstar_test",
    "repro.geometry._kernels_loops",
    "repro.geometry.clipping",
    "repro.geometry.simplify",
    "repro.approximations.quality",
)

_CHILD = """
import contextlib, io, json, sys
import repro.cli
code = 0
if len(sys.argv) > 1:
    with contextlib.redirect_stdout(io.StringIO()):
        code = repro.cli.main(sys.argv[1:])
print(json.dumps({
    "exit": code,
    "modules": sorted(m for m in sys.modules
                      if m.split(".")[0] in ("repro", "scipy")
                      or m in ("multiprocessing", "concurrent.futures")),
}))
"""


def _child(args=(), code=_CHILD):
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={"PYTHONPATH": SRC, "PATH": ""}, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def stored_pair(tmp_path_factory):
    """Two packed relations: their ``store:`` references and the store."""
    tmp = tmp_path_factory.mktemp("import_graph")
    rel_a, rel_b = random_relation_pair(77, n_objects=12, degenerate=False)
    save_relation(rel_a, tmp / "a.wkt")
    save_relation(rel_b, tmp / "b.wkt")
    store_dir = str(tmp / "store")
    done = subprocess.run(
        [sys.executable, "-m", "repro", "store", "pack", store_dir,
         str(tmp / "a.wkt"), str(tmp / "b.wkt")],
        env={"PYTHONPATH": SRC, "PATH": ""}, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    refs = ["store:" + line.rsplit("-> ", 1)[1]
            for line in done.stdout.splitlines()]
    return refs, store_dir


def _assert_off_path_unloaded(report):
    loaded = set(report["modules"])
    leaked = [m for m in OFF_PATH if m in loaded]
    assert leaked == [], leaked


def test_import_cli_loads_only_the_join_path():
    report = _child()
    _assert_off_path_unloaded(report)


@pytest.mark.parametrize("engine", ["batched", "streaming"])
def test_serial_stored_join_loads_only_the_join_path(stored_pair, engine):
    refs, store_dir = stored_pair
    report = _child(["join", *refs, "--store-dir", store_dir,
                     "--engine", engine, "--pairs"])
    assert report["exit"] == 0
    _assert_off_path_unloaded(report)


@pytest.mark.parallel
def test_lazy_paths_still_load(stored_pair):
    """``join --workers 2`` and ``import repro.service`` import on demand."""
    refs, store_dir = stored_pair
    report = _child(["join", *refs, "--store-dir", store_dir,
                     "--workers", "2", "--grid", "2", "2"])
    assert report["exit"] == 0
    assert "repro.core.parallel_exec" in report["modules"]
    assert "multiprocessing" in report["modules"]

    report = _child(code=_CHILD.replace(
        "import repro.cli",
        "import repro.cli\nfrom repro.service import JoinService, run_server",
    ))
    assert "repro.service.server" in report["modules"]
