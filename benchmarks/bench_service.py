"""Join-service throughput/latency under concurrent clients (ISSUE 7).

One measurement, one report (``benchmarks/reports/service.txt``): a
fixed workload of join requests (duplicates included, as any serving
mix has) driven through :class:`repro.service.JoinService` by 1, 8 and
32 concurrent clients, twice per concurrency level —

* **cold**: fresh service, empty result cache.  Distinct requests
  execute on the session pool; duplicate requests in flight coalesce
  onto those executions.
* **warm**: the same workload replayed on the now-populated service.
  Every request is a result-cache hit; no join executes.

The table reports wall clock, throughput, and mean/max per-request
latency for each (clients, cache state) cell, plus the telemetry
counters that explain them (executions, coalesced riders, cache hits).

The assertion bar is correctness plus reporting, as with the other
parallel benchmarks (CI hosts are too noisy to gate on wall clock) —
with two exceptions that are safe at any noise level: every response
must be byte-identical to its first occurrence (determinism across
cache states and concurrency), and the warm replay must beat the cold
run (it does no geometry work at all).
"""

from __future__ import annotations

import asyncio
import math
import random
import time

from repro.core.join import JoinConfig
from repro.core.parallel_exec import live_shared_segments
from repro.datasets.relations import SpatialRelation
from repro.geometry.polygon import Polygon
from repro.service.api import JoinRequest
from repro.service.core import JoinService

CLIENT_COUNTS = (1, 8, 32)
SESSIONS = 2


def _star(rng, cx, cy, radius, n):
    pts = []
    for i in range(n):
        angle = 2 * math.pi * i / n
        r = radius * (0.45 + 0.55 * rng.random())
        pts.append((cx + r * math.cos(angle), cy + r * math.sin(angle)))
    return Polygon(pts)


def _relation(seed, name, n_objects):
    rng = random.Random(seed)
    polys = [
        _star(
            rng,
            rng.uniform(0.02, 0.98),
            rng.uniform(0.02, 0.98),
            rng.uniform(0.02, 0.07),
            rng.randint(8, 24),
        )
        for _ in range(n_objects)
    ]
    return SpatialRelation(name, polys)


def _workload(scale):
    """Distinct joins x repeats: the request mix every run replays."""
    n_objects = 30 if scale.name == "quick" else 80
    repeats = 6
    rel_a = _relation(9701, "Aserve", n_objects)
    rel_b = _relation(9702, "Bserve", n_objects)
    rel_c = _relation(9703, "Cserve", n_objects)
    configs = [
        JoinConfig(exact_method="vectorized", engine="batched"),
        JoinConfig(exact_method="vectorized", engine="batched",
                   predicate="within"),
        JoinConfig(exact_method="vectorized", grid=(2, 2)),
    ]
    distinct = [
        JoinRequest(pair_a, pair_b, config)
        for pair_a, pair_b in ((rel_a, rel_b), (rel_b, rel_c))
        for config in configs
    ]
    return distinct * repeats, len(distinct)


async def _run_clients(service, workload, n_clients):
    """Shard the workload round-robin over n_clients serial clients."""
    latencies = [0.0] * len(workload)
    responses = [None] * len(workload)

    async def client(client_idx):
        for i in range(client_idx, len(workload), n_clients):
            start = time.perf_counter()
            responses[i] = await service.submit(workload[i])
            latencies[i] = time.perf_counter() - start

    wall_start = time.perf_counter()
    await asyncio.gather(*(client(idx) for idx in range(n_clients)))
    wall = time.perf_counter() - wall_start
    return wall, latencies, responses


def test_service_throughput_and_result_cache(report, scale):
    workload, n_distinct = _workload(scale)
    rows = []
    reference = {}

    async def drive(n_clients):
        async with JoinService(
            sessions=SESSIONS, max_pending=max(64, len(workload))
        ) as service:
            cold = await _run_clients(service, workload, n_clients)
            cold_tel = service.telemetry.to_dict()
            warm = await _run_clients(service, workload, n_clients)
            warm_tel = service.telemetry.to_dict()
            return cold, cold_tel, warm, warm_tel

    for n_clients in CLIENT_COUNTS:
        cold, cold_tel, warm, warm_tel = asyncio.run(drive(n_clients))
        assert not live_shared_segments()

        for run_wall, run_lat, run_responses in (cold, warm):
            for request, response in zip(workload, run_responses):
                key = request.cache_key()
                if key in reference:
                    # Determinism: byte-identical across duplicates,
                    # cache states, and client counts.
                    assert response.id_pairs == reference[key].id_pairs
                    assert response.stats == reference[key].stats
                else:
                    reference[key] = response

        # Cold: every distinct request executed exactly once; the rest
        # of the workload coalesced or hit the cache mid-run.
        assert cold_tel["executed_requests"] == n_distinct
        assert cold_tel["requests"] == len(workload)
        # Warm: pure cache, no new executions.
        assert warm_tel["executed_requests"] == n_distinct
        assert (
            warm_tel["result_cache_hits"] - cold_tel["result_cache_hits"]
            == len(workload)
        )
        # The warm replay does no geometry work: it must beat cold.
        assert warm[0] < cold[0], (
            f"warm replay ({warm[0]:.3f}s) not faster than cold run "
            f"({cold[0]:.3f}s) at {n_clients} clients"
        )
        rows.append((n_clients, cold, cold_tel, warm, warm_tel))

    lines = [
        f" workload: {len(workload)} join requests ({n_distinct} distinct "
        f"joins x {len(workload) // n_distinct} repeats), "
        f"{SESSIONS} sessions, serial in-process joins",
        "",
        f" {'clients':>8} {'state':>6} {'wall':>9} {'req/s':>8} "
        f"{'lat avg':>9} {'lat max':>9} {'exec':>5} {'coal':>5} "
        f"{'hits':>5}",
    ]
    prev_tel = None
    for n_clients, cold, cold_tel, warm, warm_tel in rows:
        for state, (wall, lats, _), tel in (
            ("cold", cold, cold_tel),
            ("warm", warm, warm_tel),
        ):
            if prev_tel is None:
                delta = tel
            else:
                delta = {
                    key: tel[key] - prev_tel[key] for key in tel
                }
            prev_tel = tel
            lines.append(
                f" {n_clients:>8} {state:>6} {wall * 1e3:>7.0f}ms "
                f"{len(lats) / wall:>8.0f} "
                f"{sum(lats) / len(lats) * 1e3:>7.1f}ms "
                f"{max(lats) * 1e3:>7.1f}ms "
                f"{delta['executed_requests']:>5} "
                f"{delta['coalesced_requests']:>5} "
                f"{delta['result_cache_hits']:>5}"
            )
        prev_tel = None  # telemetry resets with each fresh service
    lines += [
        " ('exec' = joins actually run, 'coal' = requests that rode an",
        "  identical in-flight execution, 'hits' = result-cache hits;",
        "  cold at 1 client has no concurrency so duplicates hit the",
        "  cache instead of coalescing; warm runs never execute)",
    ]
    report.table(
        "Service", "join-service concurrency + result cache", lines
    )
    report.json_artifact(
        "service",
        {
            "workload_requests": len(workload),
            "distinct_joins": n_distinct,
            "sessions": SESSIONS,
            "runs": [
                {
                    "clients": n_clients,
                    "state": state,
                    "wall_seconds": wall,
                    "requests_per_second": len(lats) / wall,
                    "latency_avg_seconds": sum(lats) / len(lats),
                    "latency_max_seconds": max(lats),
                    "executed_requests": tel["executed_requests"],
                    "coalesced_requests": tel["coalesced_requests"],
                    "result_cache_hits": tel["result_cache_hits"],
                }
                for n_clients, cold, cold_tel, warm, warm_tel in rows
                for state, (wall, lats, _), tel in (
                    ("cold", cold, cold_tel),
                    ("warm", warm, warm_tel),
                )
            ],
        },
    )
