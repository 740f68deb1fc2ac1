"""Engine benchmark: streaming vs batched execution of the filter step.

Compares the per-pair scalar geometric filter (on the candidates'
objects) against the vectorized ``BatchGeometricFilter`` (on their row
indices, reading the relations' stored columns through the default
kernel backend) on the paper's test series, across batch sizes, plus an
end-to-end join with both engines (identical results enforced).
The acceptance bar — the reason this runs in CI — is a >= 3x filter-step
speedup at batch sizes >= 256.
"""

from __future__ import annotations

import time

import numpy as np

from _support import candidate_rows
from repro.core.filters import FilterConfig, geometric_filter
from repro.core.join import JoinConfig, SpatialJoinProcessor
from repro.core.stats import MultiStepStats
from repro.engine.base import CANDIDATE, FALSE_HIT, HIT
from repro.engine.batched import BatchGeometricFilter
from repro.geometry.kernels import KernelDispatcher, get_kernels

SERIES = ("Europe A", "BW A")
BATCH_SIZES = (64, 256, 1024)
ROUNDS = 3


def _time_best(fn, rounds=ROUNDS):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _scalar_counts(pairs, config):
    counts = {FALSE_HIT: 0, HIT: 0, CANDIDATE: 0}
    code_of = {
        "false_hit": FALSE_HIT, "hit": HIT, "candidate": CANDIDATE
    }
    for obj_a, obj_b in pairs:
        outcome = geometric_filter(obj_a, obj_b, config)
        counts[code_of[outcome.value]] += 1
    return counts


def _batched_counts(batch_filter, rows, batch_size):
    counts = np.zeros(3, dtype=np.int64)
    for lo in range(0, len(rows), batch_size):
        chunk = rows[lo:lo + batch_size]
        codes = batch_filter.classify(chunk[:, 0], chunk[:, 1])
        counts += np.bincount(codes, minlength=3)
    return {code: int(counts[code]) for code in (FALSE_HIT, HIT, CANDIDATE)}


def test_engine_batched_filter_speedup(series_cache, report):
    config = FilterConfig()  # the paper's 5-C + MER recommendation
    lines = [
        f"{'series':>10} {'pairs':>7} {'scalar ms':>10} "
        + "".join(f"{f'batch {b}':>12}" for b in BATCH_SIZES)
        + f"{'speedup@256':>12}"
    ]
    speedups = {}
    for name in SERIES:
        series = series_cache(name)
        rel_a, rel_b = series.relation_a, series.relation_b
        rows = candidate_rows(series)
        pairs = [(rel_a[i], rel_b[j]) for i, j in rows.tolist()]
        # The paper's storage model computes approximations at insertion
        # time: build both relations' 5-C and MER columns (which also
        # seeds the per-object caches) so neither side pays them.
        stores = tuple(
            rel.columnar(eager_kinds=("5-C", "MER")) for rel in (rel_a, rel_b)
        )

        scalar_time, scalar_counts = _time_best(
            lambda: _scalar_counts(pairs, config)
        )
        batch_filter = BatchGeometricFilter(
            config, stores,
            kernels=KernelDispatcher(get_kernels(JoinConfig().kernels)),
        )
        cells = []
        for batch_size in BATCH_SIZES:
            batched_time, batched_counts = _time_best(
                lambda b=batch_size: _batched_counts(batch_filter, rows, b)
            )
            assert batched_counts == scalar_counts, (
                f"{name}: batched filter classified differently at "
                f"batch {batch_size}"
            )
            speedups[(name, batch_size)] = scalar_time / max(
                batched_time, 1e-9
            )
            cells.append(f"{batched_time * 1e3:>10.1f}ms")
        lines.append(
            f"{name:>10} {len(pairs):>7} {scalar_time * 1e3:>8.1f}ms "
            + "".join(cells)
            + f"{speedups[(name, 256)]:>11.1f}x"
        )
    report.table(
        "Engine filter", "scalar vs vectorized geometric filter", lines
    )
    for name in SERIES:
        assert speedups[(name, 256)] >= 3.0, (
            f"{name}: filter speedup at batch 256 is "
            f"{speedups[(name, 256)]:.1f}x, expected >= 3x"
        )
        assert speedups[(name, 1024)] >= 3.0


def test_engine_end_to_end(series_cache, report):
    """Whole-join wall clock, plus the equivalence guarantee."""
    lines = [f"{'series':>10} {'streaming':>12} {'batched':>12} {'speedup':>9}"]
    for name in SERIES:
        series = series_cache(name)
        results = {}
        times = {}
        for engine in ("streaming", "batched"):
            cfg = JoinConfig(
                exact_method="vectorized", engine=engine, batch_size=1024
            )
            processor = SpatialJoinProcessor(cfg)
            times[engine], results[engine] = _time_best(
                lambda p=processor: p.join(
                    series.relation_a, series.relation_b
                ),
                rounds=2,
            )
        assert results["streaming"].id_pairs() == results["batched"].id_pairs()
        stats = results["batched"].stats
        stats.check_invariants()
        lines.append(
            f"{name:>10} {times['streaming'] * 1e3:>10.0f}ms "
            f"{times['batched'] * 1e3:>10.0f}ms "
            f"{times['streaming'] / max(times['batched'], 1e-9):>8.1f}x"
        )
    report.table("Engine e2e", "end-to-end multi-step join by engine", lines)
