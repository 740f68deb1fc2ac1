/*
 * The compiled form of the numpy oracle's per-batch loops
 * (repro.geometry.fastops): the exact step's ragged edge kernels and
 * point-in-polygon test, and the filter's separating-axis test.
 *
 * Each function below runs, one pair or point at a time, the loop that
 * its fastops kernel runs over whole arrays: the same expressions, the
 * same epsilons, the same evaluation order and the same min/max tie
 * rules.  repro.geometry.kernels compiles this file with -O2 -std=c99
 * -ffp-contract=off (never -ffast-math), so no multiply-add is fused and
 * every float expression rounds exactly as the numpy oracle rounds it:
 * both backends decide every predicate identically and compute
 * bit-identical distances (tests/test_kernel_backends_fuzz.py).
 *
 * Array layout: an edge table's coords and boxes are (4, E) C-contiguous
 * float64 (row r of edge j at [r * E + j]); offsets, rows and query
 * indices are int64; bounds and clip rectangles are (n, 4) rows; boolean
 * outputs are one byte per entry (numpy bool).
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define EPSILON 1e-12

/* min/max of two floats: the first argument wins ties. */
static double min2(double a, double b) { return b < a ? b : a; }
static double max2(double a, double b) { return b > a ? b : a; }

/* Raw signed cross product of (b - a) x (c - a). */
static double cross(double ax, double ay, double bx, double by,
                    double cx, double cy)
{
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax);
}

static int orient_sign(double ax, double ay, double bx, double by,
                       double cx, double cy)
{
    double c = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax);
    if (c > EPSILON)
        return 1;
    if (c < -EPSILON)
        return -1;
    return 0;
}

/* q in the eps-closed box of p-r. */
static int on_seg(double px, double py, double qx, double qy,
                  double rx, double ry)
{
    if (qx < min2(px, rx) - EPSILON)
        return 0;
    if (qx > max2(px, rx) + EPSILON)
        return 0;
    if (qy < min2(py, ry) - EPSILON)
        return 0;
    if (qy > max2(py, ry) + EPSILON)
        return 0;
    return 1;
}

static int edge_pair_hit(double p1x, double p1y, double p2x, double p2y,
                         double q1x, double q1y, double q2x, double q2y)
{
    const double eps = 1e-12;
    double o1 = cross(p1x, p1y, p2x, p2y, q1x, q1y);
    double o2 = cross(p1x, p1y, p2x, p2y, q2x, q2y);
    double o3 = cross(q1x, q1y, q2x, q2y, p1x, p1y);
    double o4 = cross(q1x, q1y, q2x, q2y, p2x, p2y);
    if (((o1 > eps && o2 < -eps) || (o1 < -eps && o2 > eps))
        && ((o3 > eps && o4 < -eps) || (o3 < -eps && o4 > eps)))
        return 1;
    if (fabs(o1) <= eps && on_seg(p1x, p1y, q1x, q1y, p2x, p2y))
        return 1;
    if (fabs(o2) <= eps && on_seg(p1x, p1y, q2x, q2y, p2x, p2y))
        return 1;
    if (fabs(o3) <= eps && on_seg(q1x, q1y, p1x, p1y, q2x, q2y))
        return 1;
    if (fabs(o4) <= eps && on_seg(q1x, q1y, p2x, p2y, q2x, q2y))
        return 1;
    return 0;
}

/* One side of a ragged kernel: the rows of a (4, E) coords and boxes
 * table, and the int64 edge offsets per object. */
typedef struct {
    const double *x1, *y1, *x2, *y2;
    const double *xmin, *ymin, *xmax, *ymax;
    const int64_t *offsets;
} edge_table;

static edge_table edge_rows(int64_t stride, const double *coords,
                            const double *boxes, const int64_t *offsets)
{
    edge_table t;
    t.x1 = coords;
    t.y1 = coords + stride;
    t.x2 = coords + 2 * stride;
    t.y2 = coords + 3 * stride;
    t.xmin = boxes;
    t.ymin = boxes + stride;
    t.xmax = boxes + 2 * stride;
    t.ymax = boxes + 3 * stride;
    t.offsets = offsets;
    return t;
}

/* Room for the kept b-edges of any one pair, or NULL. */
static int64_t *kept_list(int64_t n_pairs, const int64_t *offsets_b,
                          const int64_t *rows_b)
{
    int64_t longest = 1, p;
    for (p = 0; p < n_pairs; p++) {
        int64_t n = offsets_b[rows_b[p] + 1] - offsets_b[rows_b[p]];
        if (n > longest)
            longest = n;
    }
    return malloc((size_t)longest * sizeof(int64_t));
}

/* fastops.edge_pairs_intersect_ragged.  Writes hits[p]; returns the summed
 * clipped a x clipped b sizes, or -1 if the kept-edge list cannot be
 * allocated. */
int64_t ck_edge_pairs_ragged(
    int64_t n_pairs, int64_t stride_a, int64_t stride_b,
    const double *coords_a, const double *boxes_a, const int64_t *offsets_a,
    const double *coords_b, const double *boxes_b, const int64_t *offsets_b,
    const int64_t *rows_a, const int64_t *rows_b,
    const double *clip, const double *margin, uint8_t *hits)
{
    edge_table a = edge_rows(stride_a, coords_a, boxes_a, offsets_a);
    edge_table b = edge_rows(stride_b, coords_b, boxes_b, offsets_b);
    int64_t *kept_b = kept_list(n_pairs, offsets_b, rows_b);
    int64_t evaluated = 0, p;

    if (kept_b == NULL)
        return -1;
    for (p = 0; p < n_pairs; p++) {
        double xmin = clip[4 * p], ymin = clip[4 * p + 1];
        double xmax = clip[4 * p + 2], ymax = clip[4 * p + 3];
        int64_t n_a = 0, n_b = 0, i, j, k;
        int found = 0;
        for (j = b.offsets[rows_b[p]]; j < b.offsets[rows_b[p] + 1]; j++) {
            if (b.xmin[j] <= xmax && b.xmax[j] >= xmin
                && b.ymin[j] <= ymax && b.ymax[j] >= ymin)
                kept_b[n_b++] = j;
        }
        for (i = a.offsets[rows_a[p]]; i < a.offsets[rows_a[p] + 1]; i++) {
            double axmin, aymin, axmax, aymax;
            if (!(a.xmin[i] <= xmax && a.xmax[i] >= xmin
                  && a.ymin[i] <= ymax && a.ymax[i] >= ymin))
                continue;
            n_a++;
            if (found)
                continue;
            axmin = a.xmin[i] - margin[p];
            aymin = a.ymin[i] - margin[p];
            axmax = a.xmax[i] + margin[p];
            aymax = a.ymax[i] + margin[p];
            for (k = 0; k < n_b; k++) {
                j = kept_b[k];
                if (axmin <= b.xmax[j] && b.xmin[j] <= axmax
                    && aymin <= b.ymax[j] && b.ymin[j] <= aymax
                    && edge_pair_hit(a.x1[i], a.y1[i], a.x2[i], a.y2[i],
                                     b.x1[j], b.y1[j], b.x2[j], b.y2[j])) {
                    found = 1;
                    break;
                }
            }
        }
        evaluated += n_a * n_b;
        hits[p] = (uint8_t)found;
    }
    free(kept_b);
    return evaluated;
}

/* One direction of the separating-axis test of one padded row pair.  A
 * NaN projection makes the oracle's min/max NaN and its comparison false,
 * so an edge with one never separates. */
static int sat_separated(const double *px, const double *py, int64_t wp,
                         const double *qx, const double *qy, int64_t wq)
{
    int64_t e, v;
    for (e = 0; e + 1 < wp; e++) {
        double nx = py[e + 1] - py[e];
        double ny = px[e] - px[e + 1];
        double max_p = -INFINITY, min_q = INFINITY;
        int nan = 0;
        for (v = 0; v < wp && !nan; v++) {
            double proj = px[v] * nx + py[v] * ny;
            if (proj != proj)
                nan = 1;
            else if (proj > max_p)
                max_p = proj;
        }
        for (v = 0; v < wq && !nan; v++) {
            double proj = qx[v] * nx + qy[v] * ny;
            if (proj != proj)
                nan = 1;
            else if (proj < min_q)
                min_q = proj;
        }
        if (!nan && min_q > max_p + EPSILON)
            return 1;
    }
    return 0;
}

/* fastops.convex_intersect_bulk on gathered rows.  Pair p tests row
 * rows_a[p] of the (n_a, wa) vertex matrices avx/avy against row
 * rows_b[p] of the (n_b, wb) ones. */
void ck_convex_rows(
    int64_t n_pairs, int64_t wa, int64_t wb,
    const double *avx, const double *avy, const int64_t *rows_a,
    const double *bvx, const double *bvy, const int64_t *rows_b,
    uint8_t *out)
{
    int64_t p;
    for (p = 0; p < n_pairs; p++) {
        const double *ax = avx + rows_a[p] * wa, *ay = avy + rows_a[p] * wa;
        const double *bx = bvx + rows_b[p] * wb, *by = bvy + rows_b[p] * wb;
        out[p] = (uint8_t)!(sat_separated(ax, ay, wa, bx, by, wb)
                            || sat_separated(bx, by, wb, ax, ay, wa));
    }
}

/* sqrt, not hypot, as in the numpy oracle. */
static double point_seg_dist(double px, double py, double ax, double ay,
                             double bx, double by)
{
    double dx = bx - ax, dy = by - ay;
    double seg_len_sq = dx * dx + dy * dy;
    double t, cx, cy, ddx, ddy;
    if (seg_len_sq <= EPSILON * EPSILON) {
        ddx = px - ax;
        ddy = py - ay;
        return sqrt(ddx * ddx + ddy * ddy);
    }
    t = ((px - ax) * dx + (py - ay) * dy) / seg_len_sq;
    if (t < 0.0)
        t = 0.0;
    else if (t > 1.0)
        t = 1.0;
    cx = ax + t * dx;
    cy = ay + t * dy;
    ddx = px - cx;
    ddy = py - cy;
    return sqrt(ddx * ddx + ddy * ddy);
}

static double edge_pair_distance(double p1x, double p1y, double p2x,
                                 double p2y, double q1x, double q1y,
                                 double q2x, double q2y)
{
    double d1 = cross(q1x, q1y, q2x, q2y, p1x, p1y);
    double d2 = cross(q1x, q1y, q2x, q2y, p2x, p2y);
    double d3 = cross(p1x, p1y, p2x, p2y, q1x, q1y);
    double d4 = cross(p1x, p1y, p2x, p2y, q2x, q2y);
    double d, dd;
    if (((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0))
        && ((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)))
        return 0.0;
    d = point_seg_dist(p1x, p1y, q1x, q1y, q2x, q2y);
    dd = point_seg_dist(p2x, p2y, q1x, q1y, q2x, q2y);
    if (dd < d)
        d = dd;
    dd = point_seg_dist(q1x, q1y, p1x, p1y, p2x, p2y);
    if (dd < d)
        d = dd;
    dd = point_seg_dist(q2x, q2y, p1x, p1y, p2x, p2y);
    if (dd < d)
        d = dd;
    return d;
}

static double box_gap_sq(double axmin, double aymin, double axmax,
                         double aymax, double bxmin, double bymin,
                         double bxmax, double bymax)
{
    double gap_x = max2(max2(axmin - bxmax, bxmin - axmax), 0.0);
    double gap_y = max2(max2(aymin - bymax, bymin - aymax), 0.0);
    return gap_x * gap_x + gap_y * gap_y;
}

/* fastops.min_edge_distance_ragged.  Writes dist[p]; returns the summed
 * clipped a x clipped b sizes, or -1 if the kept-edge list cannot be
 * allocated. */
int64_t ck_edge_distance_ragged(
    int64_t n_pairs, int64_t stride_a, int64_t stride_b,
    const double *coords_a, const double *boxes_a, const int64_t *offsets_a,
    const double *bounds_a,
    const double *coords_b, const double *boxes_b, const int64_t *offsets_b,
    const double *bounds_b,
    const int64_t *rows_a, const int64_t *rows_b,
    const double *reach, const double *margin, double *dist)
{
    edge_table a = edge_rows(stride_a, coords_a, boxes_a, offsets_a);
    edge_table b = edge_rows(stride_b, coords_b, boxes_b, offsets_b);
    int64_t *kept_b = kept_list(n_pairs, offsets_b, rows_b);
    int64_t evaluated = 0, p;

    if (kept_b == NULL)
        return -1;
    for (p = 0; p < n_pairs; p++) {
        int64_t ra = rows_a[p], rb = rows_b[p];
        const double *ba = bounds_a + 4 * ra, *bb = bounds_b + 4 * rb;
        double grow = reach[p] + margin[p];
        double grow_sq = grow * grow;
        double best = INFINITY;
        int64_t n_a = 0, n_b = 0, i, j, k;
        for (j = b.offsets[rb]; j < b.offsets[rb + 1]; j++) {
            if (box_gap_sq(b.xmin[j], b.ymin[j], b.xmax[j], b.ymax[j],
                           ba[0], ba[1], ba[2], ba[3]) <= grow_sq)
                kept_b[n_b++] = j;
        }
        for (i = a.offsets[ra]; i < a.offsets[ra + 1]; i++) {
            double axmin, aymin, axmax, aymax;
            if (box_gap_sq(a.xmin[i], a.ymin[i], a.xmax[i], a.ymax[i],
                           bb[0], bb[1], bb[2], bb[3]) > grow_sq)
                continue;
            n_a++;
            axmin = a.xmin[i] - grow;
            aymin = a.ymin[i] - grow;
            axmax = a.xmax[i] + grow;
            aymax = a.ymax[i] + grow;
            for (k = 0; k < n_b; k++) {
                j = kept_b[k];
                if (!(axmin <= b.xmax[j] && b.xmin[j] <= axmax
                      && aymin <= b.ymax[j] && b.ymin[j] <= aymax))
                    continue;
                if (box_gap_sq(a.xmin[i], a.ymin[i], a.xmax[i], a.ymax[i],
                               b.xmin[j], b.ymin[j], b.xmax[j], b.ymax[j])
                    <= grow_sq) {
                    double d = edge_pair_distance(
                        a.x1[i], a.y1[i], a.x2[i], a.y2[i],
                        b.x1[j], b.y1[j], b.x2[j], b.y2[j]);
                    if (d < best)
                        best = d;
                }
            }
        }
        evaluated += n_a * n_b;
        dist[p] = best <= reach[p] ? best : INFINITY;
    }
    free(kept_b);
    return evaluated;
}

/* fastops.points_in_polygons_bulk.  inside and boundary arrive zeroed;
 * has_mbrs selects the MBR pretest over the (k, 4) rows of mbrs. */
void ck_points_in_polygons(
    int64_t k, int64_t n_edges, int64_t has_mbrs,
    const double *px, const double *py, const int64_t *qidx,
    const double *ex1, const double *ey1,
    const double *ex2, const double *ey2,
    const double *mbrs, uint8_t *inside, uint8_t *boundary)
{
    int64_t e, q;
    for (e = 0; e < n_edges; e++) {
        double x, y;
        q = qidx[e];
        x = px[q];
        y = py[q];
        if (orient_sign(ex1[e], ey1[e], x, y, ex2[e], ey2[e]) == 0
            && on_seg(ex1[e], ey1[e], x, y, ex2[e], ey2[e]))
            boundary[q] = 1;
        if ((ey2[e] > y) != (ey1[e] > y)) {
            double x_cross =
                (ex1[e] - ex2[e]) * (y - ey2[e]) / (ey1[e] - ey2[e]) + ex2[e];
            if (x < x_cross)
                inside[q] = !inside[q];
        }
    }
    for (q = 0; q < k; q++) {
        if (boundary[q])
            inside[q] = 1;
    }
    if (has_mbrs) {
        for (q = 0; q < k; q++) {
            const double *m = mbrs + 4 * q;
            if (!(m[0] <= px[q] && px[q] <= m[2]
                  && m[1] <= py[q] && py[q] <= m[3]))
                inside[q] = 0;
        }
    }
}
