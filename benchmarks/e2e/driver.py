"""One round of one workload: fresh set-up, measured cycles, teardown.

``run.py`` starts this file as a fresh subprocess per round, so every
round pays its own set-up, owns its own peak RSS, and inherits no
cache from the previous one.  A round is a closed loop driven by this
one thread (one connection, for the service): the next op is issued
when the previous one has returned and been consumed.  It replays
whole cycles of the manifest's op sequence — the whole number of cycles
nearest to the round's time budget, at least two — so per-cycle counts
repeat exactly, every position of the sequence is measured once per
cycle, and the measured wall time stays what ``--seconds`` asked for.

CPU is the whole process tree's: this process, every child it reaped
(``RUSAGE_CHILDREN``: CLI joins, a stopped server) and every live
descendant read from ``/proc/<pid>/stat`` (pool workers, the running
server).  Peak RSS is the largest single process in that tree.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import re
import resource
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, ContextManager, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: untimed ops between set-up and the measured section of warm_serial
#: (allocator and branch-predictor warm-up; the caches are already full).
WARMUP_OPS = 10
#: ops per cycle of warm_serial (one op = the A-pair and the B-pair
#: join): 100, so that ten positions lie beyond the cycle's p90.
WARM_CYCLE_OPS = 100

#: cycles per round, whatever the budget (a zero budget, the smoke
#: mode's, means exactly one).
MIN_CYCLES = 2

_TICK = os.sysconf("SC_CLK_TCK")


def child_env() -> Dict[str, str]:
    """Environment of every program subprocess: the checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# process-tree accounting
# ---------------------------------------------------------------------------


def live_descendants() -> Dict[int, float]:
    """pid -> CPU seconds (own + reaped children) of each live descendant."""
    parents: Dict[int, int] = {}
    cpu: Dict[int, float] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # exited between listdir and read
        fields = stat.rsplit(")", 1)[1].split()
        parents[int(entry)] = int(fields[1])
        cpu[int(entry)] = sum(int(fields[i]) for i in (11, 12, 13, 14)) / _TICK
    me = os.getpid()
    out: Dict[int, float] = {}
    for pid in parents:
        ancestor = parents[pid]
        while ancestor not in (0, 1, me) and ancestor in parents:
            ancestor = parents[ancestor]
        if ancestor == me:
            out[pid] = cpu[pid]
    return out


def tree_cpu_seconds() -> float:
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        time.process_time()
        + reaped.ru_utime
        + reaped.ru_stime
        + sum(live_descendants().values())
    )


def tree_peak_rss_mb() -> float:
    """Largest peak RSS of any single process in this tree, in MB.

    ``VmHWM`` for the live ones, this process included: ``ru_maxrss``
    survives exec, so a child reports at least the resident size of the
    process that spawned it — this driver would report the harness.
    Reaped children (CLI joins) only have ``ru_maxrss``; their spawner
    is this driver, which is smaller than any of them.
    """
    peaks_kb = [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]
    for pid in [os.getpid(), *live_descendants()]:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        if match:
            peaks_kb.append(int(match.group(1)))
    return max(peaks_kb) / 1024.0


# ---------------------------------------------------------------------------
# result recording
# ---------------------------------------------------------------------------


class Recorder:
    """Per-cycle latencies, verdicts and counts of one round."""

    def __init__(self) -> None:
        #: one list of latencies (ms) per finished cycle; position i is
        #: the same request in every cycle.
        self.cycles: List[List[float]] = []
        #: the kind of each position.
        self.kinds: List[str] = []
        self.failed = 0
        self.failures: List[str] = []
        self.counts: Optional[Dict[str, int]] = None
        self._latencies: List[float] = []
        self._counts: Dict[str, int] = {}

    def op(self, kind: str, seconds: float, problem: Optional[str]) -> None:
        self._latencies.append(seconds * 1e3)
        if not self.cycles:
            self.kinds.append(kind)
        self.count("ops", 1)
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{kind}: {problem}")

    def count(self, name: str, value: int) -> None:
        self._counts[name] = self._counts.get(name, 0) + int(value)

    def end_cycle(self, guards: List[str]) -> None:
        if self.counts is None:
            self.counts = self._counts
        elif self._counts != self.counts:
            guards.append(
                f"cycle counts differ: {self._counts} vs {self.counts}"
            )
        self.cycles.append(self._latencies)
        self._latencies, self._counts = [], {}


#: ``wrap(kind)`` surrounds one op; the traced pass passes the tracer's
#: root span, measured rounds pass nothing.
OpWrap = Callable[[str], ContextManager]


def no_wrap(kind: str) -> ContextManager:
    return contextlib.nullcontext()


def compare_pairs(got, expected) -> Optional[str]:
    got = sorted([int(a), int(b)] for a, b in got)
    if got != expected:
        return f"{len(got)} pairs, oracle has {len(expected)}"
    return None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """What a round drives: ``setup``, ``warm_up``, ``cycle``, ``teardown``."""

    #: a replayed cycle would not repeat the first one's work, so every
    #: cycle gets its own set-up (and yields one more set-up sample).
    fresh_setup_per_cycle = False

    def __init__(self, manifest: Dict, workers: int):
        self.manifest = manifest
        self.workers = workers

    def warm_up(self) -> None:
        """Untimed ops between set-up and the measured cycles."""

    def teardown(self) -> None:
        """Release what ``setup`` acquired; safe to call twice."""


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``python -m repro <args>`` as a fresh process."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=child_env(), capture_output=True, text=True,
    )


def packed_refs(done: subprocess.CompletedProcess) -> List[str]:
    """``store:<fingerprint>`` references printed by ``store pack``."""
    if done.returncode != 0:
        raise RuntimeError(f"store pack failed: {done.stderr}")
    return ["store:" + fp for fp in re.findall(r"-> (\w+)", done.stdout)]


class ColdOneshot(Workload):
    """Each op is a fresh ``python -m repro join`` over stored relations."""

    def __init__(self, manifest: Dict, workers: int):
        super().__init__(manifest, workers)
        self.store = Path(manifest["wkt"]["a"]).parent / f"store-{os.getpid()}"

    #: overridden by the traced pass, which runs the CLI in-process.
    run_cli = staticmethod(run_cli)

    def setup(self) -> None:
        wkt = self.manifest["wkt"]
        self.refs = packed_refs(
            self.run_cli("store", "pack", str(self.store), wkt["a"], wkt["b"])
        )

    def cycle(self, rec: Recorder, wrap: OpWrap = no_wrap) -> None:
        start = time.perf_counter()
        with wrap("join"):
            done = self.run_cli(
                "join", *self.refs, "--store-dir", str(self.store),
                "--engine", "batched", "--exact", "vectorized",
                "--exact-batch", "64", "--pairs",
            )
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            problem = f"exit {done.returncode}: {done.stderr.strip()[-200:]}"
        else:
            pairs = re.findall(r"^(\d+)\t(\d+)$", done.stdout, re.M)
            problem = compare_pairs(pairs, self.manifest["expected"]["a|b"])
            found = re.search(r"candidates \(MBR-join\):\s+(\d+)", done.stdout)
            rec.count("candidates", int(found.group(1)) if found else -1)
        rec.op("join", elapsed, problem)

    def teardown(self) -> None:
        shutil.rmtree(self.store, ignore_errors=True)


class WarmSerial(Workload):
    """In-process serial joins with every approximation already built."""

    def setup(self) -> None:
        from repro.core import JoinConfig, SpatialJoinProcessor
        from repro.datasets.store import RelationStore

        store = RelationStore(self.manifest["store"])
        fingerprints = self.manifest["fingerprints"]
        rels = {name: store.load_relation(fp) for name, fp in fingerprints.items()}
        for relation in rels.values():
            relation.precompute_approximations(["5-C", "MER"])
            relation.columnar(eager_kinds=("5-C", "MER"))
        self.processor = SpatialJoinProcessor(
            JoinConfig(engine="batched", exact_method="vectorized", exact_batch=64)
        )
        self.pairs = [
            (rels["a"], rels["b"], self.manifest["expected"]["a|b"]),
            (rels["b1"], rels["b2"], self.manifest["expected"]["b1|b2"]),
        ]
        for rel_a, rel_b, _ in self.pairs:
            self.processor.join(rel_a, rel_b)

    def _op(self, rec: Optional[Recorder], wrap: OpWrap = no_wrap) -> None:
        start = time.perf_counter()
        with wrap("join-pair"):
            results = [self.processor.join(a, b) for a, b, _ in self.pairs]
        elapsed = time.perf_counter() - start
        if rec is None:
            return
        problem = None
        for result, (_, _, expected) in zip(results, self.pairs):
            problem = problem or compare_pairs(result.id_pairs(), expected)
            try:
                result.stats.check_invariants()
            except AssertionError as exc:
                problem = problem or f"invariant: {exc}"
            rec.count("candidates", result.stats.candidate_pairs)
        rec.op("join-pair", elapsed, problem)

    def warm_up(self) -> None:
        for _ in range(WARMUP_OPS):
            self._op(None)

    def cycle(self, rec: Recorder, wrap: OpWrap = no_wrap) -> None:
        for _ in range(WARM_CYCLE_OPS):
            self._op(rec, wrap)


class TiledFilter(Workload):
    """Session joins on the tile executor with the full filter on."""

    def setup(self) -> None:
        from repro.core import JoinConfig
        from repro.core.session import JoinSession
        from repro.datasets.store import RelationStore

        store = RelationStore(self.manifest["store"])
        fingerprints = self.manifest["fingerprints"]
        self.rel_a = store.load_relation(fingerprints["a"])
        self.rel_b = store.load_relation(fingerprints["b"])
        self.session = JoinSession(
            JoinConfig(workers=self.workers, grid=(4, 4), engine="batched",
                       exact_method="vectorized", exact_batch=64)
        )
        self.session.warm_from_store(store, sorted(fingerprints.values()))
        self.session.join(self.rel_a, self.rel_b)

    def cycle(self, rec: Recorder, wrap: OpWrap = no_wrap) -> None:
        start = time.perf_counter()
        with wrap("session-join"):
            result = self.session.join(self.rel_a, self.rel_b)
        elapsed = time.perf_counter() - start
        problem = compare_pairs(result.id_pairs(), self.manifest["expected"]["a|b"])
        try:
            result.stats.check_invariants()
        except AssertionError as exc:
            problem = problem or f"invariant: {exc}"
        rec.count("candidates", result.stats.candidate_pairs)
        rec.count("tile_tasks", result.tile_tasks)
        rec.count("segment_cache_hits", result.segment_cache_hits)
        rec.op("session-join", elapsed, problem)

    def teardown(self) -> None:
        self.session.close()


class ServiceMixed(Workload):
    """JSON-lines requests over one TCP connection to ``repro serve``."""

    # A replayed cycle would find every join in the result cache.
    fresh_setup_per_cycle = True

    def __init__(self, manifest: Dict, workers: int):
        super().__init__(manifest, workers)
        self.store = Path(manifest["wkt"]["a"]).parent / f"store-{os.getpid()}"
        self.server: Optional[subprocess.Popen] = None
        self.sock: Optional[socket.socket] = None

    def start_server(self) -> int:
        """``python -m repro serve`` as a subprocess; returns its port."""
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--sessions", "2", "--workers", "1", "--engine", "batched",
             "--store-dir", str(self.store)],
            env=child_env(), stdout=subprocess.PIPE, text=True,
        )
        banner = self.server.stdout.readline()
        return int(re.search(r":(\d+) ", banner).group(1))

    def stop_server(self) -> None:
        if self.server is None:
            return
        self.server.send_signal(signal.SIGINT)
        try:
            self.server.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()
        self.server = None

    def setup(self) -> None:
        wkt = self.manifest["wkt"]
        refs = packed_refs(
            run_cli("store", "pack", str(self.store), wkt["a"], wkt["b"], wkt["c"])
        )
        self.refs = dict(zip(("$a", "$b", "$c"), refs))
        self.connect(self.start_server())
        warmed = self.request({"op": "warm"})
        if warmed.get("status") != "ok":
            raise RuntimeError(f"warm failed: {warmed}")

    def connect(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.stream = self.sock.makefile("rwb")

    def request(self, payload: Dict) -> Dict:
        self.stream.write(json.dumps(payload).encode("utf-8") + b"\n")
        self.stream.flush()
        return json.loads(self.stream.readline())

    def cycle(self, rec: Recorder, wrap: OpWrap = no_wrap) -> None:
        expected = self.manifest["expected"]
        for op in self.manifest["ops"]:
            payload = {
                key: self.refs.get(value, value) if isinstance(value, str) else value
                for key, value in op.items()
                if key not in ("expect", "cached")
            }
            kind = op["op"]
            if kind == "join":
                kind = op.get("predicate", "intersects") + (
                    "-hit" if op["cached"] else "-join"
                )
            start = time.perf_counter()
            with wrap(kind):
                reply = self.request(payload)
            elapsed = time.perf_counter() - start
            rec.op(kind, elapsed, verify_reply(op, reply, expected[op["expect"]]))
        telemetry = self.request({"op": "telemetry"})["telemetry"]
        for name in ("result_cache_hits", "executed_requests",
                     "coalesced_requests", "rejected_requests",
                     "failed_requests"):
            rec.count(name, telemetry[name])

    def teardown(self) -> None:
        if self.sock is not None:
            self.stream.close()
            self.sock.close()
            self.sock = None
        self.stop_server()
        shutil.rmtree(self.store, ignore_errors=True)


def verify_reply(op: Dict, reply: Dict, expected) -> Optional[str]:
    if reply.get("status") != "ok":
        return f"error {reply.get('code')}: {reply.get('error')}"
    if op["op"] == "join":
        return compare_pairs(reply["pairs"], expected)
    if op["op"] == "window":
        if sorted(reply["oids"]) != expected:
            return f"{len(reply['oids'])} oids, oracle has {len(expected)}"
        return None
    # knn: the distances are the k smallest and each oid carries its own.
    got = reply["neighbours"]
    if [dist for _, dist in got] != expected["top"]:
        return "distances differ from the k smallest of the scan"
    if any(expected["by_oid"][str(oid)] != dist for oid, dist in got):
        return "an oid is reported at a distance that is not its own"
    return None


WORKLOADS = {
    "cold_oneshot": ColdOneshot,
    "warm_serial": WarmSerial,
    "tiled_filter": TiledFilter,
    "service_mixed": ServiceMixed,
}


# ---------------------------------------------------------------------------
# the round
# ---------------------------------------------------------------------------


def hygiene_guards(shm_before: set) -> List[str]:
    """What a finished round must not leave behind in shared memory."""
    guards = []
    if "repro.core.parallel_exec" in sys.modules:
        leaked = sys.modules["repro.core.parallel_exec"].live_shared_segments()
        if leaked:
            guards.append(f"shared segments still live: {sorted(leaked)}")
    new_shm = set(os.listdir("/dev/shm")) - shm_before
    if new_shm:
        guards.append(f"new /dev/shm entries: {sorted(new_shm)}")
    return guards


def run_round(manifest: Dict, budget: float, workers: int) -> Dict:
    shm_before = set(os.listdir("/dev/shm"))
    workload = WORKLOADS[manifest["workload"]](manifest, workers)
    rec = Recorder()
    guards: List[str] = []
    setups: List[float] = []
    walls: List[float] = []
    cpus: List[float] = []
    peak = 0.0
    fresh = True
    try:
        while True:
            if fresh:
                start = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - start)
            if not walls:
                # GC stays enabled during ops; set-up garbage is
                # collected and the survivors frozen so that no op pays
                # for scanning what set-up left behind.
                gc.collect()
                gc.freeze()
                workload.warm_up()
            cpu_before = tree_cpu_seconds()
            start = time.perf_counter()
            workload.cycle(rec)
            walls.append(time.perf_counter() - start)
            cpus.append(tree_cpu_seconds() - cpu_before)
            rec.end_cycle(guards)
            peak = max(peak, tree_peak_rss_mb())
            # The whole number of cycles nearest to the budget (one more
            # only if it lands nearer than stopping here), but at least
            # MIN_CYCLES: a 5 s service cycle would otherwise run once
            # per round, and three repetitions per request left its p50
            # 18 % apart between runs of identical code.
            enough = len(walls) >= (MIN_CYCLES if budget > 0 else 1)
            if enough and sum(walls) + walls[-1] / 2.0 > budget:
                break
            fresh = workload.fresh_setup_per_cycle
            if fresh:
                workload.teardown()
    finally:
        workload.teardown()

    guards += hygiene_guards(shm_before)
    if getattr(workload, "store", None) and Path(workload.store).exists():
        guards.append(f"temp dir not removed: {workload.store}")
    return {
        "setup_s": setups,
        "cycles_ms": rec.cycles,
        "kinds": rec.kinds,
        "cycle_wall_s": walls,
        "cycle_cpu_s": cpus,
        "failed": rec.failed,
        "failures": rec.failures,
        "counts": rec.counts,
        "peak_rss_mb": max(peak, tree_peak_rss_mb()),
        "guards": guards,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--budget", type=float, default=0.0,
                        help="seconds of measured cycles in this round "
                             "(0 = one cycle)")
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--mode", choices=("round", "trace"), default="round")
    parser.add_argument("--repeats", type=int, default=3,
                        help="trace mode: repeats per layer probe")
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    manifest = json.loads(Path(args.manifest).read_text())
    if args.mode == "round":
        result = run_round(manifest, args.budget, args.workers)
    else:
        sys.path.insert(0, str(HERE))
        import layers

        result = layers.traced_pass(manifest, args.workers, args.repeats)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
