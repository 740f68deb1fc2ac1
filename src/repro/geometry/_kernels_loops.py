"""Loop-form geometry kernels: the readable reference of the C kernels.

Every function here is a *scalar loop* transliteration of one numpy
oracle kernel from :mod:`repro.geometry.fastops`: plain ``for`` loops over
contiguous float64/int64 arrays, ``math`` scalars, no Python objects.

:mod:`repro.geometry.kernels` runs them as the ``"python"`` backend.
``_ckernels.c`` transliterates the four per-batch kernels
(``edge_pairs_ragged``, ``edge_distance_ragged``,
``points_in_polygons`` and the filter's ``convex_rows``) statement for
statement into the ``"c"`` backend; a change to one of them must change its C twin the same way.

Float arithmetic is kept operation-for-operation identical to the
oracle kernels — same expressions, same epsilons, same evaluation
order — so all backends decide every predicate identically and the
differential suites stay byte-identical across backends.
"""

from __future__ import annotations

import math

import numpy as np

#: same absolute tolerance as ``repro.geometry.predicates.EPSILON``.
EPSILON = 1e-12


def _cross(ax, ay, bx, by, cx, cy):
    """Raw signed cross product of ``(b - a) x (c - a)``."""
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _orient_sign(ax, ay, bx, by, cx, cy):
    """Scalar ``predicates.orientation``: sign in {-1, 0, +1}."""
    cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if cross > EPSILON:
        return 1
    if cross < -EPSILON:
        return -1
    return 0


def _on_seg(px, py, qx, qy, rx, ry):
    """Scalar ``predicates.on_segment``: ``q`` in the eps-closed box ``p-r``."""
    if qx < min(px, rx) - EPSILON:
        return False
    if qx > max(px, rx) + EPSILON:
        return False
    if qy < min(py, ry) - EPSILON:
        return False
    if qy > max(py, ry) + EPSILON:
        return False
    return True


def _point_seg_dist(px, py, ax, ay, bx, by):
    """Scalar ``predicates.point_segment_distance`` (sqrt, not hypot, so
    the numpy oracle computes bit-identical values)."""
    dx = bx - ax
    dy = by - ay
    seg_len_sq = dx * dx + dy * dy
    if seg_len_sq <= EPSILON * EPSILON:
        ddx = px - ax
        ddy = py - ay
        return math.sqrt(ddx * ddx + ddy * ddy)
    t = ((px - ax) * dx + (py - ay) * dy) / seg_len_sq
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    cx = ax + t * dx
    cy = ay + t * dy
    ddx = px - cx
    ddy = py - cy
    return math.sqrt(ddx * ddx + ddy * ddy)


# ---------------------------------------------------------------------------
# Bulk kernels (loop counterparts of the fastops numpy kernels)
# ---------------------------------------------------------------------------


def points_in_polygons(px, py, qidx, ex1, ey1, ex2, ey2, mbrs):
    """Loop counterpart of ``fastops.points_in_polygons_bulk``.

    ``mbrs`` is a ``(k, 4)`` matrix, or a ``(0, 4)`` sentinel when the
    caller passed no MBR pretest (matching ``mbrs=None`` in the oracle).
    """
    k = px.shape[0]
    inside = np.zeros(k, dtype=np.bool_)
    boundary = np.zeros(k, dtype=np.bool_)
    for e in range(ex1.shape[0]):
        q = qidx[e]
        x = px[q]
        y = py[q]
        o = _orient_sign(ex1[e], ey1[e], x, y, ex2[e], ey2[e])
        if o == 0 and _on_seg(ex1[e], ey1[e], x, y, ex2[e], ey2[e]):
            boundary[q] = True
        if (ey2[e] > y) != (ey1[e] > y):
            x_cross = (
                (ex1[e] - ex2[e]) * (y - ey2[e]) / (ey1[e] - ey2[e]) + ex2[e]
            )
            if x < x_cross:
                inside[q] = not inside[q]
    for q in range(k):
        if boundary[q]:
            inside[q] = True
    if mbrs.shape[0] == k:
        for q in range(k):
            ok = (
                mbrs[q, 0] <= px[q]
                and px[q] <= mbrs[q, 2]
                and mbrs[q, 1] <= py[q]
                and py[q] <= mbrs[q, 3]
            )
            if not ok:
                inside[q] = False
    return inside


def _edge_pair_hit(p1x, p1y, p2x, p2y, q1x, q1y, q2x, q2y):
    """One edge pair of ``fastops.edge_matrix_intersect_any``.

    The oracle takes all proper crossings, then all touches; "proper or
    touch" per pair is the same boolean once reduced with *any*.
    """
    eps = 1e-12
    o1 = _cross(p1x, p1y, p2x, p2y, q1x, q1y)
    o2 = _cross(p1x, p1y, p2x, p2y, q2x, q2y)
    o3 = _cross(q1x, q1y, q2x, q2y, p1x, p1y)
    o4 = _cross(q1x, q1y, q2x, q2y, p2x, p2y)
    if ((o1 > eps and o2 < -eps) or (o1 < -eps and o2 > eps)) and (
        (o3 > eps and o4 < -eps) or (o3 < -eps and o4 > eps)
    ):
        return True
    if abs(o1) <= eps and _on_seg(p1x, p1y, q1x, q1y, p2x, p2y):
        return True
    if abs(o2) <= eps and _on_seg(p1x, p1y, q2x, q2y, p2x, p2y):
        return True
    if abs(o3) <= eps and _on_seg(q1x, q1y, p1x, p1y, q2x, q2y):
        return True
    if abs(o4) <= eps and _on_seg(q1x, q1y, p2x, p2y, q2x, q2y):
        return True
    return False


def edge_pairs_ragged(
    coords_a, boxes_a, offsets_a, coords_b, boxes_b, offsets_b,
    rows_a, rows_b, clip, margin,
):
    """Loop counterpart of ``fastops.edge_pairs_intersect_ragged``.

    Per candidate pair: clip both edge lists to ``clip[p]``, skip edge
    pairs whose boxes (a-side inflated by ``margin[p]``) are disjoint,
    test the rest, stop at the pair's first hit.  Returns the per-pair
    booleans and the summed ``clipped a x clipped b`` sizes — the count
    the oracle reports, early exit or not.
    """
    n_pairs = rows_a.shape[0]
    hits = np.zeros(n_pairs, dtype=np.bool_)
    evaluated = 0
    for p in range(n_pairs):
        xmin = clip[p, 0]
        ymin = clip[p, 1]
        xmax = clip[p, 2]
        ymax = clip[p, 3]
        b_lo = offsets_b[rows_b[p]]
        b_hi = offsets_b[rows_b[p] + 1]
        kept_b = np.empty(b_hi - b_lo, dtype=np.int64)
        n_b = 0
        for j in range(b_lo, b_hi):
            if (
                boxes_b[0, j] <= xmax
                and boxes_b[2, j] >= xmin
                and boxes_b[1, j] <= ymax
                and boxes_b[3, j] >= ymin
            ):
                kept_b[n_b] = j
                n_b += 1
        n_a = 0
        found = False
        for i in range(offsets_a[rows_a[p]], offsets_a[rows_a[p] + 1]):
            if not (
                boxes_a[0, i] <= xmax
                and boxes_a[2, i] >= xmin
                and boxes_a[1, i] <= ymax
                and boxes_a[3, i] >= ymin
            ):
                continue
            n_a += 1
            if found:
                continue
            axmin = boxes_a[0, i] - margin[p]
            aymin = boxes_a[1, i] - margin[p]
            axmax = boxes_a[2, i] + margin[p]
            aymax = boxes_a[3, i] + margin[p]
            for k in range(n_b):
                j = kept_b[k]
                if (
                    axmin <= boxes_b[2, j]
                    and boxes_b[0, j] <= axmax
                    and aymin <= boxes_b[3, j]
                    and boxes_b[1, j] <= aymax
                    and _edge_pair_hit(
                        coords_a[0, i], coords_a[1, i],
                        coords_a[2, i], coords_a[3, i],
                        coords_b[0, j], coords_b[1, j],
                        coords_b[2, j], coords_b[3, j],
                    )
                ):
                    found = True
                    break
        evaluated += n_a * n_b
        hits[p] = found
    return hits, evaluated


def rects_intersect_rows(a, b):
    """Loop counterpart of ``fastops.rects_intersect_bulk``."""
    n = a.shape[0]
    out = np.zeros(n, dtype=np.bool_)
    for i in range(n):
        out[i] = (
            a[i, 0] <= b[i, 2]
            and b[i, 0] <= a[i, 2]
            and a[i, 1] <= b[i, 3]
            and b[i, 1] <= a[i, 3]
        )
    return out


def _sat_separated(px, py, wp, qx, qy, wq):
    """One direction of ``fastops._sat_separated`` for one row pair.

    True if some edge normal of the padded row ``p`` separates ``q``
    from it.  A NaN projection makes numpy's ``min``/``max`` NaN and the
    comparison False, so an edge with one never separates.
    """
    for e in range(wp - 1):
        nx = py[e + 1] - py[e]
        ny = px[e] - px[e + 1]
        max_p = -np.inf
        for v in range(wp):
            proj = px[v] * nx + py[v] * ny
            if proj != proj:
                break
            if proj > max_p:
                max_p = proj
        else:
            min_q = np.inf
            for v in range(wq):
                proj = qx[v] * nx + qy[v] * ny
                if proj != proj:
                    break
                if proj < min_q:
                    min_q = proj
            else:
                if min_q > max_p + EPSILON:
                    return True
    return False


def convex_rows(avx, avy, rows_a, bvx, bvy, rows_b):
    """Loop counterpart of ``fastops.convex_intersect_bulk`` over gathered rows.

    Pair ``p`` tests row ``rows_a[p]`` of the padded ``avx``/``avy``
    matrices against row ``rows_b[p]`` of ``bvx``/``bvy``; the two sides
    may have different widths.  True where no edge normal of either
    polygon separates them.
    """
    n_pairs = rows_a.shape[0]
    wa = avx.shape[1]
    wb = bvx.shape[1]
    out = np.zeros(n_pairs, dtype=np.bool_)
    for p in range(n_pairs):
        ax = avx[rows_a[p]]
        ay = avy[rows_a[p]]
        bx = bvx[rows_b[p]]
        by = bvy[rows_b[p]]
        out[p] = not (
            _sat_separated(ax, ay, wa, bx, by, wb)
            or _sat_separated(bx, by, wb, ax, ay, wa)
        )
    return out


def _edge_pair_distance(p1x, p1y, p2x, p2y, q1x, q1y, q2x, q2y):
    """One edge pair of ``fastops._edge_pair_distances``.

    ``core.distance.segment_distance`` semantics: 0 on a proper
    crossing (raw signs, no epsilon), else the min of the four
    endpoint-to-segment distances.
    """
    d1 = _cross(q1x, q1y, q2x, q2y, p1x, p1y)
    d2 = _cross(q1x, q1y, q2x, q2y, p2x, p2y)
    d3 = _cross(p1x, p1y, p2x, p2y, q1x, q1y)
    d4 = _cross(p1x, p1y, p2x, p2y, q2x, q2y)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return 0.0
    d = _point_seg_dist(p1x, p1y, q1x, q1y, q2x, q2y)
    dd = _point_seg_dist(p2x, p2y, q1x, q1y, q2x, q2y)
    if dd < d:
        d = dd
    dd = _point_seg_dist(q1x, q1y, p1x, p1y, p2x, p2y)
    if dd < d:
        d = dd
    dd = _point_seg_dist(q2x, q2y, p1x, p1y, p2x, p2y)
    if dd < d:
        d = dd
    return d


def _box_gap_sq(axmin, aymin, axmax, aymax, bxmin, bymin, bxmax, bymax):
    """Squared Euclidean gap of two boxes (0 where they meet)."""
    gap_x = max(axmin - bxmax, bxmin - axmax, 0.0)
    gap_y = max(aymin - bymax, bymin - aymax, 0.0)
    return gap_x * gap_x + gap_y * gap_y


def edge_distance_ragged(
    coords_a, boxes_a, offsets_a, bounds_a,
    coords_b, boxes_b, offsets_b, bounds_b,
    rows_a, rows_b, reach, margin,
):
    """Loop counterpart of ``fastops.min_edge_distance_ragged``.

    Per candidate pair, with ``grow = reach[p] + margin[p]``: keep each
    side's edges whose box lies within ``grow`` of the other object's
    bounds, skip edge pairs whose boxes (a-side grown by ``grow``) are
    disjoint or more than ``grow`` apart, take the minimum distance over
    the rest, ``inf`` beyond ``reach[p]``.  Returns the distances and
    the summed ``clipped a x clipped b`` sizes.
    """
    n_pairs = rows_a.shape[0]
    dist = np.empty(n_pairs, dtype=np.float64)
    evaluated = 0
    for p in range(n_pairs):
        ra = rows_a[p]
        rb = rows_b[p]
        grow = reach[p] + margin[p]
        grow_sq = grow * grow
        b_lo = offsets_b[rb]
        b_hi = offsets_b[rb + 1]
        kept_b = np.empty(b_hi - b_lo, dtype=np.int64)
        n_b = 0
        for j in range(b_lo, b_hi):
            if _box_gap_sq(
                boxes_b[0, j], boxes_b[1, j], boxes_b[2, j], boxes_b[3, j],
                bounds_a[ra, 0], bounds_a[ra, 1],
                bounds_a[ra, 2], bounds_a[ra, 3],
            ) <= grow_sq:
                kept_b[n_b] = j
                n_b += 1
        n_a = 0
        best = np.inf
        for i in range(offsets_a[ra], offsets_a[ra + 1]):
            if _box_gap_sq(
                boxes_a[0, i], boxes_a[1, i], boxes_a[2, i], boxes_a[3, i],
                bounds_b[rb, 0], bounds_b[rb, 1],
                bounds_b[rb, 2], bounds_b[rb, 3],
            ) > grow_sq:
                continue
            n_a += 1
            axmin = boxes_a[0, i] - grow
            aymin = boxes_a[1, i] - grow
            axmax = boxes_a[2, i] + grow
            aymax = boxes_a[3, i] + grow
            for k in range(n_b):
                j = kept_b[k]
                if not (
                    axmin <= boxes_b[2, j]
                    and boxes_b[0, j] <= axmax
                    and aymin <= boxes_b[3, j]
                    and boxes_b[1, j] <= aymax
                ):
                    continue
                if _box_gap_sq(
                    boxes_a[0, i], boxes_a[1, i], boxes_a[2, i], boxes_a[3, i],
                    boxes_b[0, j], boxes_b[1, j], boxes_b[2, j], boxes_b[3, j],
                ) <= grow_sq:
                    d = _edge_pair_distance(
                        coords_a[0, i], coords_a[1, i],
                        coords_a[2, i], coords_a[3, i],
                        coords_b[0, j], coords_b[1, j],
                        coords_b[2, j], coords_b[3, j],
                    )
                    if d < best:
                        best = d
        evaluated += n_a * n_b
        dist[p] = best if best <= reach[p] else np.inf
    return dist, evaluated
