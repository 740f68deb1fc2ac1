"""Measured multi-process speedup vs the LPT-modeled makespan.

``simulate_parallel_join(..., measure=True)`` runs the same tiles twice:
through the deterministic LPT scheduling model (§5 cost constants) and
on a real :class:`ProcessPoolExecutor`.  This bench prints both columns
side by side — the paper's §6 outlook next to what this host actually
delivers — and asserts the real executor's results stay identical to
the serial join while its workers=1 overhead (pickling, task planning)
stays bounded.

Measured speedups on small relations are dominated by fork/pickle
overhead, so the assertion bar is correctness plus *reporting*, not a
wall-clock floor: CI boxes are too noisy to gate on parallel wall
clock.
"""

from __future__ import annotations

import time

from repro.core.join import JoinConfig, SpatialJoinProcessor
from repro.core.parallel import simulate_parallel_join
from repro.core.parallel_exec import parallel_partitioned_join

WORKER_COUNTS = (1, 2, 4)
GRID = (4, 4)


def test_measured_vs_modeled_speedup(series_cache, report):
    series = series_cache("Europe A")
    rel_a, rel_b = series.relation_a, series.relation_b
    config = JoinConfig(exact_method="vectorized", engine="batched")

    result = simulate_parallel_join(
        rel_a, rel_b, grid=GRID, processor_counts=WORKER_COUNTS,
        config=config, measure=True,
    )

    lines = [
        f" tiles: {GRID[0]}x{GRID[1]} = {GRID[0] * GRID[1]}, "
        f"result pairs: {len(result.result)}",
        f" {'workers':>8} {'modeled':>9} {'measured':>9} {'wall':>9}",
    ]
    measured_by_workers = {m.workers: m for m in result.measured}
    for workers, modeled, measured in result.speedup_table():
        run = measured_by_workers[workers]
        lines.append(
            f" {workers:>8} {modeled:>8.2f}x {measured:>8.2f}x"
            f" {run.wall_seconds * 1e3:>7.0f}ms"
        )
    lines += [
        " (modeled = LPT makespan under the paper's Table-6/§5 cost",
        "  constants; measured = real ProcessPoolExecutor wall clock,",
        "  including fork and tile-pickling overhead)",
    ]
    report.table(
        "Parallel exec", "measured vs LPT-modeled parallel speedup", lines
    )

    assert len(result.measured) == len(WORKER_COUNTS)
    for run in result.measured:
        assert run.wall_seconds > 0
    baseline = measured_by_workers[1]
    assert baseline.speedup == 1.0
    # The model is an upper bound in spirit: it ignores fork/pickle
    # costs, so measured speedup must not exceed modeled by more than
    # timer noise.
    for workers, modeled, measured in result.speedup_table():
        assert measured <= modeled * 1.5 + 0.5, (
            f"measured {measured:.2f}x exceeds modeled {modeled:.2f}x "
            f"at {workers} workers — the cost model lost its meaning"
        )


def test_parallel_executor_matches_serial_at_scale(series_cache, report):
    """End-to-end: bench-scale relations through the real pool."""
    series = series_cache("Europe A")
    rel_a, rel_b = series.relation_a, series.relation_b
    config = JoinConfig(exact_method="vectorized", engine="batched")

    start = time.perf_counter()
    serial = SpatialJoinProcessor(config).join(rel_a, rel_b)
    serial_wall = time.perf_counter() - start

    parallel = parallel_partitioned_join(
        rel_a, rel_b, grid=GRID, config=config, workers=4
    )
    assert sorted(parallel.id_pairs()) == sorted(serial.id_pairs())
    parallel.stats.check_invariants()

    report.table(
        "Parallel e2e",
        "serial plain join vs 4-worker tile executor",
        [
            f" serial: {serial_wall * 1e3:.0f}ms, parallel(4): "
            f"{parallel.elapsed_seconds * 1e3:.0f}ms over "
            f"{parallel.tile_tasks} tile tasks",
            f" worker busy time: {parallel.busy_seconds * 1e3:.0f}ms "
            "(replication makes total tile work exceed the plain join)",
        ],
    )
