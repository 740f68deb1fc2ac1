"""Kernel benchmark: numpy oracle vs compiled (numba) loop kernels.

Measures pairs/second for every bulk filter/refine kernel of the
compiled tier (:mod:`repro.geometry.kernels`) on workloads shaped like
the real pipeline: candidate pairs of a canonical series, their edge
columns, their MBR rows.  Every backend is warmed first (so numba's
JIT compilation is excluded, exactly as in pooled execution after the
pre-warm initializer) and every backend's results are asserted
identical to the numpy oracle before timing is trusted.

The table lands in ``benchmarks/reports/kernels.txt``.  Acceptance
(ISSUE 8): with numba available, at least two refine kernels run >= 3x
the numpy oracle's pairs/second at quick scale.  Without numba the
``python`` loop backend is measured instead — the same loop bodies,
uncompiled — which documents the compilation headroom rather than a
speedup (no assertion in that case).
"""

from __future__ import annotations

import time

import numpy as np

from repro.exact.refine import clip_margins, clip_rects
from repro.geometry.fastops import EdgeArrays, vertex_distance_bounds
from repro.geometry.kernels import NUMBA_AVAILABLE, get_kernels, warm_up
from repro.index import nested_loops_mbr_join

#: measured alternative to the numpy oracle.
ALT_BACKEND = "numba" if NUMBA_AVAILABLE else "python"

#: the ISSUE-8 acceptance bar: >= MIN_SPEEDUP on >= MIN_KERNELS kernels.
MIN_SPEEDUP = 3.0
MIN_KERNELS = 2


def _candidate_pairs(series):
    return list(
        nested_loops_mbr_join(
            series.relation_a.mbr_items(), series.relation_b.mbr_items()
        )
    )


def _build_workloads(series):
    """(kernel, pairs, run(kernel_set) -> comparable result) triples."""
    pairs = _candidate_pairs(series)
    assert pairs, "series produced no MBR candidates"
    edge_cache = {}

    def cols(obj):
        key = id(obj)
        if key not in edge_cache:
            edge_cache[key] = EdgeArrays(obj.polygon)
        return edge_cache[key]

    # segments_intersect_bulk: one row per (edge of a, edge of b) for a
    # slice of candidate pairs, flattened into big matched columns.
    seg_rows = [[], [], [], []]
    for obj_a, obj_b in pairs[:64]:
        ea, eb = cols(obj_a), cols(obj_b)
        na, nb = len(ea.x1), len(eb.x1)
        ia = np.repeat(np.arange(na), nb)
        ib = np.tile(np.arange(nb), na)
        seg_rows[0].append(np.column_stack([ea.x1[ia], ea.y1[ia]]))
        seg_rows[1].append(np.column_stack([ea.x2[ia], ea.y2[ia]]))
        seg_rows[2].append(np.column_stack([eb.x1[ib], eb.y1[ib]]))
        seg_rows[3].append(np.column_stack([eb.x2[ib], eb.y2[ib]]))
    p1, p2, q1, q2 = (np.concatenate(part) for part in seg_rows)

    # rects_intersect_bulk: candidate MBR rows, tiled up.
    def rect_rows(objs):
        return np.array(
            [(o.mbr.xmin, o.mbr.ymin, o.mbr.xmax, o.mbr.ymax) for o in objs]
        )

    rect_a = np.tile(rect_rows([a for a, _ in pairs]), (16, 1))
    rect_b = np.tile(rect_rows([b for _, b in pairs]), (16, 1))

    # points_in_polygons_bulk: first vertex of a probed against b's ring.
    px, py, qidx_parts, pp_cols, mbr_rows = [], [], [], [[], [], [], []], []
    for q, (obj_a, obj_b) in enumerate(pairs):
        eb = cols(obj_b)
        px.append(obj_a.polygon.shell[0][0])
        py.append(obj_a.polygon.shell[0][1])
        qidx_parts.append(np.full(len(eb.x1), q, dtype=np.intp))
        for part, name in zip(pp_cols, ("x1", "y1", "x2", "y2")):
            part.append(getattr(eb, name))
        mbr_rows.append(
            (obj_b.mbr.xmin, obj_b.mbr.ymin, obj_b.mbr.xmax, obj_b.mbr.ymax)
        )
    pp_args = (
        np.array(px), np.array(py), np.concatenate(qidx_parts),
        *(np.concatenate(part) for part in pp_cols), np.array(mbr_rows),
    )

    # edge_pairs_intersect_ragged: a candidate slice as one refinement
    # batch on the relations' edge tables (the exact step's call shape).
    geometry_a = series.relation_a.columnar().ring_geometry()
    geometry_b = series.relation_b.columnar().ring_geometry()
    rows_a = np.array([geometry_a.row_of(a) for a, _ in pairs[:128]])
    rows_b = np.array([geometry_b.row_of(b) for _, b in pairs[:128]])
    ragged_args = (
        geometry_a.table, geometry_b.table, rows_a, rows_b,
        *clip_rects(
            geometry_a.table.bounds[rows_a], geometry_b.table.bounds[rows_b]
        ),
    )

    # min_edge_distance_ragged: the same slice as one proximity round,
    # reach at the vertex bound (a kNN round before k neighbours are known).
    distance_args = (
        geometry_a.table, geometry_b.table, rows_a, rows_b,
        vertex_distance_bounds(
            geometry_a.table, geometry_b.table, rows_a, rows_b
        ),
        clip_margins(
            geometry_a.table.bounds[rows_a], geometry_b.table.bounds[rows_b]
        ),
    )

    def run_ragged(kernels):
        hits, evaluated = kernels.edge_pairs_intersect_ragged(*ragged_args)
        return np.asarray(hits).tolist(), evaluated

    def run_min_distance(kernels):
        dist, evaluated = kernels.min_edge_distance_ragged(*distance_args)
        return np.asarray(dist).tolist(), evaluated

    return [
        (
            "segments_intersect_bulk", len(p1),
            lambda kernels: np.asarray(
                kernels.segments_intersect_bulk(p1, p2, q1, q2)
            ).tolist(),
        ),
        (
            "rects_intersect_bulk", len(rect_a),
            lambda kernels: np.asarray(
                kernels.rects_intersect_bulk(rect_a, rect_b)
            ).tolist(),
        ),
        (
            "points_in_polygons_bulk", len(pp_args[2]),
            lambda kernels: np.asarray(
                kernels.points_in_polygons_bulk(*pp_args)
            ).tolist(),
        ),
        (
            "edge_pairs_intersect_ragged",
            run_ragged(get_kernels("numpy"))[1], run_ragged,
        ),
        (
            "min_edge_distance_ragged",
            run_min_distance(get_kernels("numpy"))[1], run_min_distance,
        ),
    ]


def _best_seconds(fn, reps=3):
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_kernel_backends_pairs_per_second(series_cache, report):
    series = series_cache("Europe A")
    workloads = _build_workloads(series)
    for backend in ("numpy", ALT_BACKEND):
        warm_up(backend)  # JIT outside the timed region, as in the pools

    lines = [
        f" numpy oracle vs {ALT_BACKEND}"
        + ("" if NUMBA_AVAILABLE else " (uncompiled loop bodies — numba not"
           " installed; documents compilation headroom, no speedup bar)"),
        f" {'kernel':<28} {'pairs':>9} {'numpy':>12} "
        f"{ALT_BACKEND:>12} {'speedup':>8}",
    ]
    speedups = {}
    rows = {}
    for kernel_name, n_pairs, run in workloads:
        oracle_set = get_kernels("numpy")
        alt_set = get_kernels(ALT_BACKEND)
        oracle_result = run(oracle_set)
        assert run(alt_set) == oracle_result, (
            f"{ALT_BACKEND} diverged from numpy on {kernel_name}"
        )
        numpy_seconds = _best_seconds(lambda: run(oracle_set))
        alt_seconds = _best_seconds(lambda: run(alt_set))
        numpy_rate = n_pairs / max(numpy_seconds, 1e-9)
        alt_rate = n_pairs / max(alt_seconds, 1e-9)
        speedups[kernel_name] = alt_rate / max(numpy_rate, 1e-9)
        rows[kernel_name] = {
            "pairs": n_pairs,
            "numpy_pairs_per_sec": numpy_rate,
            "alt_pairs_per_sec": alt_rate,
            "speedup": speedups[kernel_name],
        }
        lines.append(
            f" {kernel_name:<28} {n_pairs:>9} {numpy_rate:>10.2e}/s "
            f"{alt_rate:>10.2e}/s {speedups[kernel_name]:>7.2f}x"
        )
    lines.append(" (pairs/second, best of 3 runs, backends pre-warmed)")
    report.table(
        "Kernels",
        f"bulk kernel throughput: numpy vs {ALT_BACKEND}",
        lines,
    )
    report.json_artifact(
        "kernels",
        {
            "alt_backend": ALT_BACKEND,
            "numba_available": NUMBA_AVAILABLE,
            "kernels": rows,
        },
    )

    if NUMBA_AVAILABLE:
        fast = [name for name, s in speedups.items() if s >= MIN_SPEEDUP]
        assert len(fast) >= MIN_KERNELS, (
            f"expected >= {MIN_KERNELS} kernels at >= {MIN_SPEEDUP}x "
            f"with numba, got {sorted(speedups.items())}"
        )
