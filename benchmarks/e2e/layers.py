"""The traced pass: per-layer probes and a traced replay of the ops.

Runs in its own ``driver.py --mode trace`` process, after and apart
from the untraced rounds; no end-to-end metric ever comes from here.

* **Probes** time one public call per layer on the workload's own
  relations (``probe_layers``) and report medians over ``repeats``
  (single runs for the probes that cost seconds).  Layers are this
  repo's modules; README.md maps each metric to the end-to-end metric
  it should move.
* **Replay** runs the workload's ops in this process, once plain and
  once with ``tracer.LAYER_CALLS`` wrapped, through in-process stand-ins
  for the two out-of-process entry points (``repro.cli.main`` for the
  CLI child, ``run_server`` on a thread for ``repro serve``) and with
  the tile tasks in-process (``workers=1``), so that spans can be
  recorded at all.  It yields ``trace.coverage``, ``trace.overhead_share``
  and the approximation build counts.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import io
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import driver
from tracer import Tracer

KINDS = ("5-C", "MER", "MBC", "MEC")


def timed_ms(call: Callable[[], object]) -> Tuple[float, object]:
    start = time.perf_counter()
    value = call()
    return (time.perf_counter() - start) * 1e3, value


def median_ms(call: Callable[[], object], repeats: int) -> Tuple[float, object]:
    """Median wall time of ``repeats`` calls, and the last return value."""
    samples = []
    for _ in range(repeats):
        elapsed, value = timed_ms(call)
        samples.append(elapsed)
    return statistics.median(samples), value


def python_ms(code: str, repeats: int) -> float:
    def call():
        subprocess.run([sys.executable, "-c", code], env=driver.child_env(),
                       check=True)
    return median_ms(call, repeats)[0]


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------


def probe_layers(manifest: Dict, workers: int, repeats: int) -> Dict[str, float]:
    from repro.core import JoinConfig, SpatialJoinProcessor
    from repro.core.parallel_exec import (
        SharedRelationSegment,
        plan_columnar_tile_tasks,
        run_columnar_tile_task,
    )
    from repro.core.partition import create_partitioner
    from repro.core.session import JoinSession
    from repro.core.stats import MultiStepStats
    from repro.core.window import WindowQueryProcessor
    from repro.datasets.columnar import ColumnarRelation
    from repro.datasets.io import load_relation
    from repro.datasets.store import RelationStore
    from repro.engine.batched import CANDIDATE, BatchGeometricFilter
    from repro.exact.refine import BatchedRefinement
    from repro.geometry import Rect
    from repro.geometry.kernels import KernelDispatcher, get_kernels
    from repro.index import JoinStats, rstar_join
    from repro.index.knn import knn_query

    m: Dict[str, float] = {}
    wkt = manifest["wkt"]
    scratch = Path(wkt["a"]).parent / f"probe-{os.getpid()}"
    cfg = JoinConfig(engine="batched", exact_method="vectorized", exact_batch=64)
    tiled = replace(cfg, grid=(4, 4))

    m["cli.import_ms"] = (
        python_ms("import repro.cli", repeats) - python_ms("pass", repeats)
    )

    # -- datasets ------------------------------------------------------------
    m["datasets.io.load_wkt_ms"], rel_a = median_ms(
        lambda: load_relation(wkt["a"]), repeats)
    rel_b = load_relation(wkt["b"])
    big = load_relation(wkt.get("c", wkt["a"]))

    def pack():
        store = ColumnarRelation(rel_a)
        return store.rings, store.fingerprint
    m["datasets.columnar.pack_ms"] = median_ms(pack, repeats)[0]

    # -- approximations: built on fresh objects, which then stay warm --------
    objects = len(rel_a) + len(rel_b)
    for kind in KINDS:
        elapsed = sum(
            timed_ms(lambda: rel.precompute_approximations([kind]))[0]
            for rel in (rel_a, rel_b)
        )
        m[f"approximations.build_ms_per_object.{kind}"] = elapsed / objects
    m["datasets.columnar.approx_pack_ms"] = median_ms(
        lambda: [ColumnarRelation(rel_a).approx(kind) for kind in ("5-C", "MER")],
        repeats,
    )[0]
    for rel in (rel_a, rel_b):
        rel.columnar(eager_kinds=("5-C", "MER"))

    # -- store ---------------------------------------------------------------
    saves = []
    for index in range(repeats):
        elapsed, fp_a = timed_ms(
            lambda: RelationStore(scratch / f"save-{index}").save(rel_a))
        saves.append(elapsed)
    m["datasets.store.save_ms"] = statistics.median(saves)
    store = RelationStore(scratch / "save-0")
    fp_b = store.save(rel_b)
    m["datasets.store.load_relation_ms"] = median_ms(
        lambda: store.load_relation(fp_a), repeats)[0]
    m["datasets.store.bytes_per_wkt_byte"] = (
        store.load(fp_a).nbytes / os.path.getsize(wkt["a"])
    )

    def warm():
        with JoinSession(tiled) as session:
            return timed_ms(
                lambda: session.warm_from_store(store, [fp_a, fp_b]))[0]
    m["datasets.store.warm_ms"] = statistics.median(
        warm() for _ in range(repeats))

    # -- index ---------------------------------------------------------------
    m["index.rtree_build_ms"], tree_a = median_ms(
        lambda: rel_a.build_rtree(32), repeats)
    tree_b = rel_b.build_rtree(32)
    m["index.mbr_join_ms"], candidates = median_ms(
        lambda: list(rstar_join(tree_a, tree_b, None, None, JoinStats())),
        repeats)
    m["index.mbr_join_candidates"] = len(candidates)
    box = WindowQueryProcessor(big).tree.root.mbr()
    window = Rect(box.xmin + 0.4 * box.width, box.ymin + 0.4 * box.height,
                  box.xmin + 0.55 * box.width, box.ymin + 0.55 * box.height)
    big.precompute_approximations(["5-C", "MER"])
    processor = WindowQueryProcessor(big)
    m["index.window_query_ms"] = median_ms(
        lambda: processor.window_query(window), repeats)[0]
    centre = (box.xmin + 0.5 * box.width, box.ymin + 0.5 * box.height)
    m["index.knn_query_ms"] = median_ms(
        lambda: knn_query(processor.tree, centre, 5), repeats)[0]

    # -- engine + exact, on the candidates of the real MBR-join --------------
    objs_a = [pair[0] for pair in candidates]
    objs_b = [pair[1] for pair in candidates]

    def classify():
        batch_filter = BatchGeometricFilter(
            cfg.filter, (rel_a.columnar(), rel_b.columnar()),
            kernels=KernelDispatcher(get_kernels(cfg.kernels)),
        )
        return batch_filter.classify(objs_a, objs_b, MultiStepStats())
    m["engine.filter_ms"], outcomes = median_ms(classify, repeats)
    m["engine.filter_us_per_pair"] = (
        m["engine.filter_ms"] * 1e3 / max(1, len(candidates)))
    remaining = [pair for pair, code in zip(candidates, outcomes)
                 if code == CANDIDATE]
    m["exact.refine_ms"] = median_ms(
        lambda: BatchedRefinement.from_relations(cfg, rel_a, rel_b)
        .resolve_batch(remaining, MultiStepStats()),
        repeats)[0]
    m["exact.refine_us_per_pair"] = (
        m["exact.refine_ms"] * 1e3 / max(1, len(remaining)))

    # -- whole joins per predicate (approximations warm) ---------------------
    def join_ms(config):
        return median_ms(
            lambda: SpatialJoinProcessor(config).join(rel_a, rel_b), repeats)
    m["core.join.intersects_ms"], result = join_ms(cfg)
    stats = result.stats
    m["engine.identified_share"] = stats.identification_rate()
    m["exact.remaining_share"] = (
        stats.remaining_candidates / max(1, stats.candidate_pairs))
    m["geometry.kernels.busy_ms_per_op"] = sum(stats.kernel_seconds.values()) * 1e3
    m["core.join.within_ms"] = join_ms(replace(cfg, predicate="within"))[0]
    m["engine.streaming_join_ms"] = join_ms(replace(cfg, engine="streaming"))[0]
    diagonals = [((o.mbr.width ** 2 + o.mbr.height ** 2) ** 0.5) for o in rel_a]
    epsilon = 0.25 * statistics.mean(diagonals)
    m["core.proximity.distance_join_ms"] = join_ms(
        replace(cfg, predicate="distance", epsilon=epsilon))[0]
    m["core.proximity.knn_join_ms"] = join_ms(
        replace(cfg, predicate="knn", k=2))[0]

    # -- partition -----------------------------------------------------------
    m["core.partition.plan_grid_ms"], plan = median_ms(
        lambda: create_partitioner("grid").plan(rel_a, rel_b, (4, 4)), repeats)
    tasks = [(a, b) for _, a, b in plan.entries if a.size and b.size]
    m["core.partition.tasks"] = len(tasks)
    m["core.partition.replication_factor"] = (
        sum(a.size + b.size for a, b in tasks) / objects)
    m["core.partition.plan_rtree_ms"] = median_ms(
        lambda: create_partitioner("rtree", target_tasks=64)
        .plan(rel_a, rel_b, (4, 4)), repeats)[0]

    # -- parallel_exec: tile tasks in-process, on freshly loaded relations ---
    def ship():
        segment = SharedRelationSegment(rel_a)
        nbytes = segment.nbytes
        segment.close()
        return nbytes
    m["core.parallel_exec.ship_ms"], nbytes = median_ms(ship, repeats)
    m["core.parallel_exec.shipped_bytes"] = nbytes
    cold_a, cold_b = store.load_relation(fp_a), store.load_relation(fp_b)
    tile_tasks, _, shipment = plan_columnar_tile_tasks(cold_a, cold_b, (4, 4), tiled)
    try:
        busy = [run_columnar_tile_task(task).elapsed_seconds * 1e3
                for task in tile_tasks]
    finally:
        shipment.close()
    m["core.parallel_exec.tile_busy_ms_sum"] = sum(busy)
    m["core.parallel_exec.tile_busy_ms_max"] = max(busy)
    m["core.parallel_exec.work_inflation"] = sum(busy) / m["core.join.intersects_ms"]

    # -- session -------------------------------------------------------------
    with JoinSession(replace(tiled, workers=workers)) as session:
        m["core.session.first_join_ms"] = timed_ms(
            lambda: session.join(cold_a, cold_b))[0]
        m["core.session.warm_join_ms"], warm_result = median_ms(
            lambda: session.join(cold_a, cold_b), 2)
        m["core.parallel_exec.dispatch_overhead_ms"] = (
            warm_result.elapsed_seconds - warm_result.busy_seconds / workers
        ) * 1e3
        counters = session.stats()
        m["core.session.segment_hit_share"] = counters["segment_cache_hits"] / (
            counters["segment_cache_hits"] + counters["segment_cache_misses"])

    m.update(asyncio.run(probe_service(rel_a, rel_b, replace(cfg, grid=(1, 1)))))
    m["service.server.roundtrip_ms"] = probe_roundtrip(manifest, repeats)
    shutil.rmtree(scratch)
    return m


async def probe_service(rel_a, rel_b, config) -> Dict[str, float]:
    """In-process ``JoinService.submit``: miss, hits, and one burst."""
    from repro.service import JoinService
    from repro.service.api import JoinRequest

    request = JoinRequest(rel_a, rel_b, config)
    m: Dict[str, float] = {}
    async with JoinService(config=config, sessions=2) as service:
        start = time.perf_counter()
        await service.submit(request)
        m["service.submit_miss_ms"] = (time.perf_counter() - start) * 1e3
        hits = []
        for _ in range(20):
            start = time.perf_counter()
            await service.submit(request)
            hits.append((time.perf_counter() - start) * 1e3)
        m["service.submit_hit_ms"] = statistics.median(hits)
        telemetry = service.telemetry
        m["service.result_hit_share"] = (
            telemetry.result_cache_hits / telemetry.requests)
    # Eight identical concurrent requests on a fresh service must cost
    # one execution; the end-to-end workload runs one client and would
    # never notice coalescing break.
    async with JoinService(config=config, sessions=2) as service:
        await asyncio.gather(*(service.submit(request) for _ in range(8)))
        m["service.coalesced_share"] = service.telemetry.coalesced_requests / 8
        m["service.executed_per_burst"] = service.telemetry.executed_requests
    return m


def probe_roundtrip(manifest: Dict, repeats: int) -> float:
    """RTT of the server's ``telemetry`` op over TCP (the latency floor)."""
    server = driver.ServiceMixed(manifest, 1)
    server.store.mkdir()
    try:
        server.connect(server.start_server())
        return median_ms(lambda: server.request({"op": "telemetry"}),
                         10 * repeats)[0]
    finally:
        server.teardown()


# ---------------------------------------------------------------------------
# in-process stand-ins for the out-of-process entry points
# ---------------------------------------------------------------------------


class ColdInProcess(driver.ColdOneshot):
    """The CLI child as ``repro.cli.main`` in this process.

    The interpreter start and ``import repro.cli`` that every real op
    pays cannot happen twice in one process, so a real child performs
    them under the ``cli.import`` span before ``main`` runs here.
    """

    tracer = None

    def run_cli(self, *args: str) -> subprocess.CompletedProcess:
        import repro.cli

        if args[0] == "join":
            span = (self.tracer.span("cli.import") if self.tracer
                    else contextlib.nullcontext())
            with span:
                subprocess.run([sys.executable, "-c", "import repro.cli"],
                               env=driver.child_env(), check=True)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = repro.cli.main(list(args))
        return subprocess.CompletedProcess(args, code, out.getvalue(), "")


class ServiceInProcess(driver.ServiceMixed):
    """``repro serve`` as ``run_server`` on a thread of this process."""

    def start_server(self) -> int:
        from repro.core import JoinConfig
        from repro.service import JoinService, run_server

        ready = threading.Event()
        state: Dict[str, object] = {}

        async def serve() -> None:
            # The service ``cmd_serve`` builds for the driver's flags.
            service = JoinService(
                config=JoinConfig(workers=1, engine="batched", grid=(4, 4)),
                sessions=2, store_dir=str(self.store),
            )
            state["loop"] = asyncio.get_running_loop()
            state["task"] = asyncio.current_task()

            def announce(server) -> None:
                state["port"] = server.port
                ready.set()
            await run_server(service, "127.0.0.1", 0, ready=announce)

        self._state = state
        self._thread = threading.Thread(target=lambda: asyncio.run(serve()))
        self._thread.start()
        if not ready.wait(timeout=30):
            raise RuntimeError("in-process server did not start")
        return state["port"]

    def stop_server(self) -> None:
        thread = getattr(self, "_thread", None)
        if thread is None:
            return
        self._state["loop"].call_soon_threadsafe(self._state["task"].cancel)
        thread.join(timeout=30)
        if thread.is_alive():
            raise RuntimeError("in-process server did not stop")
        self._thread = None


# ---------------------------------------------------------------------------
# the traced replay
# ---------------------------------------------------------------------------

#: cycles per replay, plain and traced alike (cold: 2 CLI joins; warm:
#: 100 join pairs; tiled: 2 session joins; service: half a cycle).
REPLAY_CYCLES = {"cold_oneshot": 2, "warm_serial": 1, "tiled_filter": 2,
                 "service_mixed": 1}


def replay(workload, cycles: int, wrap) -> Tuple[List[float], driver.Recorder]:
    """Run the cycles; return every op's latency (ms) and the verdicts."""
    rec = driver.Recorder()
    for _ in range(cycles):
        workload.cycle(rec, wrap)
        rec.end_cycle([])
    return [ms for cycle in rec.cycles for ms in cycle], rec


def traced_replay(manifest: Dict) -> Dict[str, object]:
    import repro.datasets.relations as relations

    name = manifest["workload"]
    if name == "service_mixed":
        manifest = {**manifest, "ops": manifest["ops"][: len(manifest["ops"]) // 2]}
    workload = {
        "cold_oneshot": ColdInProcess,
        "warm_serial": driver.WarmSerial,
        "tiled_filter": driver.TiledFilter,
        "service_mixed": ServiceInProcess,
    }[name](manifest, 1)
    cycles = REPLAY_CYCLES[name]
    tracer = Tracer()
    builds: List[Tuple[str, tuple]] = []
    original = relations.compute_approximation

    def counting(polygon, kind):
        builds.append((kind, polygon.shell))
        return original(polygon, kind)

    try:
        workload.setup()
        gc.collect()
        gc.freeze()
        workload.warm_up()
        plain_ms, plain = replay(workload, cycles, driver.no_wrap)
        if workload.fresh_setup_per_cycle:
            workload.teardown()
            workload.setup()
        relations.compute_approximation = counting
        workload.tracer = tracer
        with tracer.installed():
            traced_ms, traced = replay(workload, cycles, tracer.op)
    finally:
        relations.compute_approximation = original
        workload.teardown()
    summary = tracer.summary()
    p50_plain = statistics.median(plain_ms)
    p50_traced = statistics.median(traced_ms)
    ops = len(traced_ms)
    return {
        "metrics": {
            "trace.coverage": summary["coverage"],
            "trace.overhead_share": p50_traced / p50_plain - 1.0,
            "approximations.builds_per_op": len(builds) / ops,
            "approximations.rebuild_ratio": (
                len(builds) / len(set(builds)) if builds else 0.0),
        },
        "info": {"replay_ops": ops, "replay_p50_ms_plain": p50_plain,
                 "replay_p50_ms_traced": p50_traced},
        "self_ms_per_op": summary["self_ms_per_op"],
        "spans": tracer.spans,
        "attempted": len(plain_ms) + ops,
        "failed": plain.failed + traced.failed,
        "failures": plain.failures + traced.failures,
    }


def traced_pass(manifest: Dict, workers: int, repeats: int) -> Dict[str, object]:
    shm_before = set(os.listdir("/dev/shm"))
    metrics = probe_layers(manifest, workers, repeats)
    result = traced_replay(manifest)
    result["metrics"].update(metrics)
    result["guards"] = driver.hygiene_guards(shm_before)
    return result
