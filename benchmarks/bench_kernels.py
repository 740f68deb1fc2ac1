"""Kernel benchmark: numpy oracle vs the compiled C kernels.

Measures pairs/second for every bulk filter/refine kernel of the
kernel tier (:mod:`repro.geometry.kernels`) on workloads shaped like
the real pipeline: candidate pairs of a canonical series, their edge
columns, their MBR rows.  Every backend is warmed first (so building
the C library is excluded, exactly as in pooled execution after the
parent's pre-warm) and every backend's results are asserted identical
to the numpy oracle before timing is trusted.  The ``c`` backend runs
the ragged edge-pair, ragged edge-distance, point-in-polygon and the
filter's separating-axis (``convex_intersect_rows``) kernels in C and
the oracle's own rectangle kernel, so that row measures ~1x by
construction.

The table lands in ``benchmarks/reports/kernels.txt``.  Acceptance:
at least two refine kernels run >= 3x the numpy oracle's pairs/second
at quick scale, and so does the filter's separating-axis kernel, on a
bar of its own.

A second table (``kernel_builders.txt``, ``BENCH_kernel_builders.json``)
times the stored-approximation builders: one row per kind the kernel
tier builds (4-C, 5-C, MER, MEC), milliseconds per object over a whole
relation's edge table, numpy oracle against ``c``, results asserted
bit-identical first.  Acceptance: every builder runs >= 5x faster.
"""

from __future__ import annotations

import time

import numpy as np

from _support import candidate_rows
from repro.exact.refine import clip_margins, clip_rects
from repro.geometry.fastops import EdgeArrays, vertex_distance_bounds
from repro.geometry.kernels import get_kernels, warm_up

#: measured alternative to the numpy oracle.
ALT_BACKEND = "c"

#: the acceptance bar: >= MIN_SPEEDUP on >= MIN_KERNELS refine kernels.
MIN_SPEEDUP = 3.0
MIN_KERNELS = 2

#: the filter's kernel; it must reach MIN_SPEEDUP too, but does not count
#: toward the refine kernels' bar.
FILTER_KERNEL = "convex_intersect_rows"

#: the bar every stored-approximation builder must reach.
MIN_BUILDER_SPEEDUP = 5.0


def _build_workloads(series):
    """(kernel, pairs, run(kernel_set) -> comparable result) triples."""
    rel_a, rel_b = series.relation_a, series.relation_b
    candidates = candidate_rows(series)
    assert len(candidates), "series produced no MBR candidates"
    pairs = [(rel_a[i], rel_b[j]) for i, j in candidates.tolist()]
    edge_cache = {}

    def cols(obj):
        key = id(obj)
        if key not in edge_cache:
            edge_cache[key] = EdgeArrays(obj.polygon)
        return edge_cache[key]

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
    geometry_a = rel_a.columnar().ring_geometry()
    geometry_b = rel_b.columnar().ring_geometry()
    rows_a, rows_b = candidates[:128].T
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

    # convex_intersect_rows: the filter's 5-C step on every candidate,
    # tiled up, on the two relations' stored vertex columns.
    five_c = [rel.columnar().approx("5-C") for rel in (rel_a, rel_b)]
    sat_rows = np.tile(candidates, (4, 1))
    sat_args = (
        five_c[0].vx, five_c[0].vy, sat_rows[:, 0],
        five_c[1].vx, five_c[1].vy, sat_rows[:, 1],
    )

    def run_ragged(kernels):
        hits, evaluated = kernels.edge_pairs_intersect_ragged(*ragged_args)
        return np.asarray(hits).tolist(), evaluated

    def run_min_distance(kernels):
        dist, evaluated = kernels.min_edge_distance_ragged(*distance_args)
        return np.asarray(dist).tolist(), evaluated

    return [
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
        (
            "convex_intersect_rows", len(sat_rows),
            lambda kernels: np.asarray(
                kernels.convex_intersect_rows(*sat_args)
            ).tolist(),
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
        warm_up(backend)  # build outside the timed region, as in the pools

    lines = [
        f" numpy oracle vs {ALT_BACKEND}",
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
            "kernels": rows,
        },
    )

    fast = [
        name
        for name, s in speedups.items()
        if s >= MIN_SPEEDUP and name != FILTER_KERNEL
    ]
    assert len(fast) >= MIN_KERNELS, (
        f"expected >= {MIN_KERNELS} refine kernels at >= {MIN_SPEEDUP}x "
        f"on {ALT_BACKEND}, got {sorted(speedups.items())}"
    )
    assert speedups[FILTER_KERNEL] >= MIN_SPEEDUP, (
        f"expected {FILTER_KERNEL} at >= {MIN_SPEEDUP}x on {ALT_BACKEND}, "
        f"got {speedups[FILTER_KERNEL]:.2f}x"
    )


def _builder_workloads(relation):
    """(kind, run(kernel_set) -> comparable bytes) over the relation's
    edge table, as ``ColumnarRelation.approx`` builds it."""
    columnar = relation.columnar()
    table = columnar.ring_geometry().table
    rings = (columnar.rings.object_rings, columnar.rings.ring_offsets)

    def corners(m):
        def run(kernels):
            vx, vy, counts = kernels.m_corners_ragged(table, *rings, m)
            return [(x[:c].tobytes(), y[:c].tobytes())
                    for x, y, c in zip(vx, vy, counts)]
        return run

    return [
        ("4-C", corners(4)),
        ("5-C", corners(5)),
        ("MER", lambda kernels: kernels.enclosed_rects_ragged(
            table, *rings).tobytes()),
        ("MEC", lambda kernels: kernels.enclosed_circles_ragged(
            table).tobytes()),
    ]


def test_builder_kernels_ms_per_object(series_cache, report):
    relation = series_cache("Europe A").relation_a
    for backend in ("numpy", ALT_BACKEND):
        warm_up(backend)
    oracle_set, alt_set = get_kernels("numpy"), get_kernels(ALT_BACKEND)
    lines = [
        f" numpy oracle vs {ALT_BACKEND}, {len(relation)} objects",
        f" {'kind':<6} {'numpy ms/obj':>13} {ALT_BACKEND + ' ms/obj':>13} "
        f"{'speedup':>8}",
    ]
    rows = {}
    for kind, run in _builder_workloads(relation):
        assert run(alt_set) == run(oracle_set), (
            f"{ALT_BACKEND} diverged from numpy building {kind}"
        )
        numpy_ms = _best_seconds(lambda: run(oracle_set)) * 1e3 / len(relation)
        alt_ms = _best_seconds(lambda: run(alt_set)) * 1e3 / len(relation)
        speedup = numpy_ms / max(alt_ms, 1e-9)
        rows[kind] = {"numpy_ms_per_object": numpy_ms,
                      "alt_ms_per_object": alt_ms, "speedup": speedup}
        lines.append(f" {kind:<6} {numpy_ms:>13.4f} {alt_ms:>13.4f} "
                     f"{speedup:>7.2f}x")
    lines.append(" (ms per object over the relation's edge table, best of "
                 "3 runs, backends pre-warmed)")
    report.table(
        "Kernel builders",
        f"stored-approximation builders: numpy vs {ALT_BACKEND}",
        lines,
    )
    report.json_artifact(
        "kernel_builders", {"alt_backend": ALT_BACKEND, "kinds": rows}
    )
    slow = {kind: round(row["speedup"], 2) for kind, row in rows.items()
            if row["speedup"] < MIN_BUILDER_SPEEDUP}
    assert not slow, (
        f"expected every builder at >= {MIN_BUILDER_SPEEDUP}x on "
        f"{ALT_BACKEND}, got {slow}"
    )
