"""End-to-end smoke test of ``python -m repro serve`` (make serve-smoke).

Starts the real CLI server as a subprocess on an ephemeral port, drives
one join, one window query, and one telemetry probe over the JSON-lines
TCP protocol, checks the join against the serial oracle, then shuts the
server down with SIGINT and verifies a clean exit.  A second server is
started with SIGINT inherited as ignored, driven the same way and
stopped with SIGTERM.  Each shutdown must exit 0, print ``join service
stopped`` and leave no new ``/dev/shm`` entry behind.  This is the one
place the full stack — CLI entry point, asyncio server, service,
session pool, WKT loading — runs exactly as a user would run it.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.join import JoinConfig  # noqa: E402
from repro.core.parallel_exec import parallel_partitioned_join  # noqa: E402
from repro.datasets.io import save_relation  # noqa: E402
from repro.datasets.generators import cartographic_polygons  # noqa: E402
from repro.datasets.relations import SpatialRelation  # noqa: E402


def _rpc(sock_file, sock, payload):
    sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")
    return json.loads(sock_file.readline())


def _shm_entries():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def _ignore_sigint():
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _serve_once(path_a, path_b, oracle, stop, ignore_sigint=False) -> int:
    """Start a server, drive it, stop it with ``stop``; 0 on success."""
    before = _shm_entries()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        cwd=REPO,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        preexec_fn=_ignore_sigint if ignore_sigint else None,
    )
    try:
        banner = proc.stdout.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", banner)
        assert match, f"no listening banner, got: {banner!r}"
        host, port = match.group(1), int(match.group(2))
        print(f"server up on {host}:{port}")

        with socket.create_connection((host, port), timeout=30) as sock:
            sock_file = sock.makefile("rb")
            join = _rpc(
                sock_file,
                sock,
                {
                    "op": "join",
                    "relation_a": str(path_a),
                    "relation_b": str(path_b),
                },
            )
            assert join["status"] == "ok", join
            assert join["pairs"] == [
                list(pair) for pair in oracle.id_pairs()
            ], "served join differs from the serial oracle"
            print(f"join ok: {join['pair_count']} pairs match the oracle")

            window = _rpc(
                sock_file,
                sock,
                {
                    "op": "window",
                    "relation": str(path_a),
                    "window": [0, 0, 1000, 1000],
                },
            )
            assert window["status"] == "ok", window
            print(f"window ok: {len(window['oids'])} objects")

            telemetry = _rpc(sock_file, sock, {"op": "telemetry"})
            assert telemetry["status"] == "ok", telemetry
            assert telemetry["telemetry"]["executed_requests"] == 2
            print(f"telemetry ok: {telemetry['telemetry']}")
    finally:
        proc.send_signal(stop)
        try:
            out, _ = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
            print(f"server did not stop on {stop.name}; output:\n{out}")
            return 1

    assert proc.returncode == 0, (
        f"server exited with {proc.returncode}; output:\n{out}"
    )
    assert "join service stopped" in out, out
    assert "leaked" not in out, out
    left = _shm_entries() - before
    assert not left, f"new /dev/shm entries after shutdown: {sorted(left)}"
    inherited = " (SIGINT inherited as ignored)" if ignore_sigint else ""
    print(f"shutdown ok: clean exit on {stop.name}{inherited}")
    return 0


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="serve-smoke-"))
    rel_a = SpatialRelation("A", cartographic_polygons(25, 30, seed=71))
    rel_b = SpatialRelation("B", cartographic_polygons(25, 30, seed=72))
    path_a, path_b = tmp / "a.wkt", tmp / "b.wkt"
    save_relation(rel_a, path_a)
    save_relation(rel_b, path_b)
    oracle = parallel_partitioned_join(
        rel_a, rel_b, config=JoinConfig(workers=1)
    )
    return _serve_once(path_a, path_b, oracle, signal.SIGINT) or _serve_once(
        path_a, path_b, oracle, signal.SIGTERM, ignore_sigint=True
    )


if __name__ == "__main__":
    sys.exit(main())
