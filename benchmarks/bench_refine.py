"""Refinement benchmark: a per-pair loop vs the batched exact step.

Isolates step 3 of the pipeline: every MBR-intersecting candidate pair
of a canonical series is resolved once by a loop of
:func:`polygons_intersect_fast` calls (which rebuild per-polygon edge
arrays on every call) and once by the batched refinement
(``exact_batch`` candidates per batch, each batch one ragged edge-pair
kernel call on the relations' edge tables — clip rectangle, edge-box
pruning, orientation test — plus one bulk point-in-polygon call).
Decisions must be identical; the batched step must be at least 1.2x
faster at ``exact_batch=64``.  The table is written to
``benchmarks/reports/refine.txt``.

A second measurement runs the full join end-to-end under a weak filter
(``conservative=MBR`` eliminates nothing beyond the MBR join), where
the exact step dominates the pipeline: one candidate per batch against
the default 64.  The paper's processors (TR*-tree, plane sweep,
quadratic) are compared in ``bench_table7_exact_cost.py`` and
``bench_fig16_cost_vs_edges.py``.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.core.filters import FilterConfig
from repro.core.join import JoinConfig, SpatialJoinProcessor
from repro.core.stats import MultiStepStats
from repro.exact.refine import BatchedRefinement
from repro.geometry.fastops import polygons_intersect_fast
from repro.index.join import nested_loops_mbr_join

#: the acceptance-bar batch size, plus a larger point for the curve.
BATCH_SIZES = (64, 256)


def _candidate_pairs(series):
    return list(
        nested_loops_mbr_join(
            series.relation_a.mbr_items(), series.relation_b.mbr_items()
        )
    )


def _time_scalar(pairs):
    start = time.perf_counter()
    decisions = [polygons_intersect_fast(a.polygon, b.polygon) for a, b in pairs]
    return time.perf_counter() - start, decisions


def _time_batched(config, series, pairs):
    step = BatchedRefinement.from_relations(
        config, series.relation_a, series.relation_b
    )
    stats = MultiStepStats()
    capacity = config.exact_batch
    start = time.perf_counter()
    decisions = []
    for lo in range(0, len(pairs), capacity):
        decisions.extend(
            step.resolve_batch(pairs[lo:lo + capacity], stats)
        )
    return time.perf_counter() - start, decisions


def test_refine_batched_speedup(series_cache, report):
    series = series_cache("Europe A")
    pairs = _candidate_pairs(series)
    assert pairs, "series produced no MBR candidates"

    base = JoinConfig()
    # The ring columns are the stored representation (built once per
    # relation, shared with the parallel wire format); build them outside
    # the timed region, like the object caches on the scalar side.
    series.relation_a.columnar().rings
    series.relation_b.columnar().rings

    scalar_seconds, scalar_decisions = _time_scalar(pairs)
    lines = [
        f" |A|={len(series.relation_a)}, |B|={len(series.relation_b)}, "
        f"{len(pairs)} candidate pairs, "
        f"{sum(scalar_decisions)} intersecting",
        f" per-pair loop:         {scalar_seconds * 1e3:>8.1f} ms "
        f"({scalar_seconds / len(pairs) * 1e6:>6.1f} us/pair)",
    ]
    speedups = {}
    for exact_batch in BATCH_SIZES:
        config = replace(base, exact_batch=exact_batch)
        batched_seconds, batched_decisions = _time_batched(
            config, series, pairs
        )
        assert batched_decisions == scalar_decisions, (
            f"batched refinement (exact_batch={exact_batch}) diverged "
            "from the per-pair decisions"
        )
        speedups[exact_batch] = scalar_seconds / max(batched_seconds, 1e-9)
        lines.append(
            f" exact_batch={exact_batch:<4}       {batched_seconds * 1e3:>8.1f} ms "
            f"({batched_seconds / len(pairs) * 1e6:>6.1f} us/pair)  "
            f"{speedups[exact_batch]:>5.1f}x"
        )

    # End-to-end context: full join under a weak filter, so step 3
    # dominates; results must stay identical.
    weak = replace(
        base,
        filter=FilterConfig(conservative="MBR", progressive=None),
        engine="batched",
    )
    start = time.perf_counter()
    join_single = SpatialJoinProcessor(
        replace(weak, exact_batch=1)
    ).join(series.relation_a, series.relation_b)
    join_single_seconds = time.perf_counter() - start
    start = time.perf_counter()
    join_batched = SpatialJoinProcessor(
        replace(weak, exact_batch=64)
    ).join(series.relation_a, series.relation_b)
    join_batched_seconds = time.perf_counter() - start
    assert join_single.id_pairs() == join_batched.id_pairs()
    assert join_batched.stats.refine_batches > 0
    lines += [
        " end-to-end join, MBR-only filter (exact step dominates):",
        f"   exact_batch=1        {join_single_seconds * 1e3:>8.1f} ms",
        f"   exact_batch=64       {join_batched_seconds * 1e3:>8.1f} ms  "
        f"{join_single_seconds / max(join_batched_seconds, 1e-9):>5.1f}x",
        " (the per-pair loop rebuilds edge arrays per call; batched reads",
        "  the relations' edge tables and tests, per batch, only the edge",
        "  pairs whose boxes meet inside the pair's clip rectangle)",
    ]
    report.table(
        "Refine",
        "exact step: per-pair loop vs batched refinement",
        lines,
    )

    assert speedups[64] >= 1.2, (
        f"batched refinement at exact_batch=64 must beat the per-pair "
        f"loop, got {speedups[64]:.2f}x"
    )
