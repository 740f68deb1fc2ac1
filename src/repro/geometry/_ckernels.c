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

/* ------------------------------------------------------------------------
 * The stored-approximation builders: m-corner, MER and MEC of every row
 * of an edge table.  The oracles are the Python/numpy builders of
 * repro.approximations (the kernels' "numpy" set runs them row by row);
 * each function below names the one it compiles, and evaluates every
 * float expression of it in the same order, with the same tie rules.
 *
 * Row i owns edges offsets[i] .. offsets[i + 1] (Polygon.edges() order);
 * its rings are object_rings[i] .. object_rings[i + 1], ring r on edges
 * ring_offsets[r] .. ring_offsets[r + 1], ring object_rings[i] the shell;
 * a ring's vertices are the start points of its edges.  A kernel returns
 * 0, or -1 when it cannot allocate its workspace.
 * ---------------------------------------------------------------------- */

static int resize(void **data, int64_t n, size_t size)
{
    void *p = realloc(*data, (size_t)(n > 0 ? n : 1) * size);
    if (p == NULL)
        return -1;
    *data = p;
    return 0;
}

/* Room for need elements in a buffer of capacity *cap, doubling. */
static int reserve(void **data, int64_t *cap, int64_t need, size_t size)
{
    int64_t n;
    if (need <= *cap)
        return 0;
    n = *cap > 0 ? *cap : 64;
    while (n < need)
        n *= 2;
    if (resize(data, n, size))
        return -1;
    *cap = n;
    return 0;
}

/* Python's max(a, b, c): the first of equal maxima. */
static double py_max3(double a, double b, double c)
{
    double m = a;
    if (b > m)
        m = b;
    if (c > m)
        m = c;
    return m;
}

/* predicates.polygon_signed_area of an n-vertex ring. */
static double signed_area(const double *x, const double *y, int64_t n)
{
    double total = 0.0;
    int64_t i;
    if (n < 3)
        return 0.0;
    for (i = 0; i < n; i++) {
        int64_t j = i + 1 < n ? i + 1 : 0;
        total += x[i] * y[j] - x[j] * y[i];
    }
    return total / 2.0;
}

/* A value and its position in the input: sorting by both, then keeping
 * the first of each run of equal values, is Python's sorted(set(...)),
 * whose set keeps the first of equal elements (0.0 == -0.0). */
typedef struct {
    double x, y;
    int64_t index;
} keyed;

static int keyed_order(const void *pa, const void *pb)
{
    const keyed *a = pa, *b = pb;
    if (a->x < b->x)
        return -1;
    if (a->x > b->x)
        return 1;
    if (a->y < b->y)
        return -1;
    if (a->y > b->y)
        return 1;
    return (a->index > b->index) - (a->index < b->index);
}

/* Sort the n keys and drop all but the first of equal ones; returns how
 * many distinct keys remain, ascending, at the front. */
static int64_t sorted_set(keyed *keys, int64_t n)
{
    int64_t i, m = 0;
    qsort(keys, (size_t)n, sizeof(keyed), keyed_order);
    for (i = 0; i < n; i++) {
        if (m > 0 && keys[i].x == keys[m - 1].x && keys[i].y == keys[m - 1].y)
            continue;
        keys[m++] = keys[i];
    }
    return m;
}

/* Ascending insertion sort of a few values (one line's crossings). */
static void sort_few(double *v, int64_t n)
{
    int64_t i, j;
    for (i = 1; i < n; i++) {
        double x = v[i];
        for (j = i; j > 0 && v[j - 1] > x; j--)
            v[j] = v[j - 1];
        v[j] = x;
    }
}

/* geometry.convex.convex_hull of the n points in pts (sorted in place):
 * Andrew's monotone chain.  Writes the CCW hull to hx/hy (room for 2n)
 * and returns its length; ux/uy (room for n) hold the upper chain. */
static int64_t convex_hull_of(keyed *pts, int64_t n, double *hx, double *hy,
                              double *ux, double *uy)
{
    int64_t m = sorted_set(pts, n), nl = 0, nu = 0, i;
    if (m <= 2) {
        for (i = 0; i < m; i++) {
            hx[i] = pts[i].x;
            hy[i] = pts[i].y;
        }
        return m;
    }
    for (i = 0; i < m; i++) {
        while (nl >= 2 && cross(hx[nl - 2], hy[nl - 2], hx[nl - 1],
                                hy[nl - 1], pts[i].x, pts[i].y) <= EPSILON)
            nl--;
        hx[nl] = pts[i].x;
        hy[nl++] = pts[i].y;
    }
    for (i = m - 1; i >= 0; i--) {
        while (nu >= 2 && cross(ux[nu - 2], uy[nu - 2], ux[nu - 1],
                                uy[nu - 1], pts[i].x, pts[i].y) <= EPSILON)
            nu--;
        ux[nu] = pts[i].x;
        uy[nu++] = pts[i].y;
    }
    nl--;
    for (i = 0; i + 1 < nu; i++) {
        hx[nl + i] = ux[i];
        hy[nl + i] = uy[i];
    }
    return nl + nu - 1;
}

/* mcorner._removal_cost of side (i, i + 1) of the n-gon x/y: 1 and the
 * added area and apex when the side is removable, else 0.  The apex is
 * segment.line_intersection of the neighbouring sides. */
static int removal_cost(const double *x, const double *y, int64_t n,
                        int64_t i, double *added, double *ax, double *ay)
{
    int64_t p = (i + n - 1) % n, b = (i + 1) % n, nb = (i + 2) % n;
    double d1x = x[i] - x[p], d1y = y[i] - y[p];
    double d2x = x[b] - x[nb], d2y = y[b] - y[nb];
    double denom = d1x * d2y - d1y * d2x;
    double t, c;
    if (fabs(denom) <= EPSILON)
        return 0;
    t = ((x[nb] - x[p]) * d2y - (y[nb] - y[p]) * d2x) / denom;
    *ax = x[p] + t * d1x;
    *ay = y[p] + t * d1y;
    c = cross(x[i], y[i], x[b], y[b], *ax, *ay);
    if (c > -1e-15)
        return 0;
    if (!(isfinite(*ax) && isfinite(*ay)))
        return 0;
    *added = fabs(c) / 2.0;
    return 1;
}

/* mcorner._expand_to_cover: scale the k-gon tx/ty about its vertex mean
 * until convex_contains_point holds for every hull point; result in
 * px/py. */
static void expand_to_cover(const double *tx, const double *ty, int64_t k,
                            const double *hx, const double *hy, int64_t h,
                            double *px, double *py)
{
    double cx = 0.0, cy = 0.0, scale = 1.0;
    int64_t i, j, q, it;
    for (i = 0; i < k; i++)
        cx += tx[i];
    for (i = 0; i < k; i++)
        cy += ty[i];
    cx = cx / (double)k;
    cy = cy / (double)k;
    for (it = 0; it <= 60; it++) {
        int covered = 1;
        for (i = 0; i < k; i++) {
            px[i] = cx + (tx[i] - cx) * scale;
            py[i] = cy + (ty[i] - cy) * scale;
        }
        if (it == 60)
            return;
        for (q = 0; q < h && covered; q++) {
            for (i = 0; i < k; i++) {
                j = i + 1 < k ? i + 1 : 0;
                if (cross(px[i], py[i], px[j], py[j], hx[q], hy[q])
                    < -EPSILON) {
                    covered = 0;
                    break;
                }
            }
        }
        if (covered)
            return;
        scale *= 1.05;
    }
}

/* mcorner._drop_flattest_vertex_conservatively on the n-gon px/py (the
 * result replaces it); returns the new vertex count. */
static int64_t drop_flattest(double *px, double *py, int64_t n,
                             const double *hx, const double *hy, int64_t h,
                             double *tx, double *ty)
{
    int64_t best = 0, i, k = 0;
    double best_loss = INFINITY;
    for (i = 0; i < n; i++) {
        int64_t a = (i + n - 1) % n, c = (i + 1) % n;
        double loss = fabs(cross(px[a], py[a], px[i], py[i], px[c], py[c]))
                      / 2.0;
        if (loss < best_loss) {
            best_loss = loss;
            best = i;
        }
    }
    for (i = 0; i < n; i++) {
        if (i == best)
            continue;
        tx[k] = px[i];
        ty[k++] = py[i];
    }
    expand_to_cover(tx, ty, k, hx, hy, h, px, py);
    return k;
}

/* mcorner.reduce_hull_to_m_corners of the h-vertex hull: writes at most m
 * vertices to px/py and returns their count (px/py/tx/ty: room for h). */
static int64_t reduce_to_m_corners(const double *hx, const double *hy,
                                   int64_t h, int64_t m, double *px,
                                   double *py, double *tx, double *ty)
{
    int64_t n = h, i, k;
    for (i = 0; i < h; i++) {
        px[i] = hx[i];
        py[i] = hy[i];
    }
    while (n > m) {
        int64_t best = -1, skip;
        double best_added = INFINITY, bx = 0.0, by = 0.0;
        for (i = 0; i < n; i++) {
            double added, ax, ay;
            if (removal_cost(px, py, n, i, &added, &ax, &ay)
                && added < best_added) {
                best_added = added;
                best = i;
                bx = ax;
                by = ay;
            }
        }
        if (best < 0) {
            n = drop_flattest(px, py, n, hx, hy, h, tx, ty);
            continue;
        }
        skip = (best + 1) % n;
        k = 0;
        for (i = 0; i < n; i++) {
            if (i == skip)
                continue;
            tx[k] = i == best ? bx : px[i];
            ty[k++] = i == best ? by : py[i];
        }
        n = k;
        /* _restore_ccw */
        if (n >= 3 && !(signed_area(tx, ty, n) > 0.0)) {
            for (i = 0; i < n; i++) {
                px[i] = tx[n - 1 - i];
                py[i] = ty[n - 1 - i];
            }
        } else {
            for (i = 0; i < n; i++) {
                px[i] = tx[i];
                py[i] = ty[i];
            }
        }
    }
    return n;
}

/* MCornerApproximation.of per row: convex_hull of the shell, then
 * reduce_hull_to_m_corners.  Row i's vertices go to out_x/out_y[i * m ..]
 * and their count to counts[i] (at most m). */
int64_t ck_m_corners(
    int64_t n_rows, int64_t stride, int64_t m,
    const double *coords, const int64_t *object_rings,
    const int64_t *ring_offsets, double *out_x, double *out_y,
    int64_t *counts)
{
    const double *x1 = coords, *y1 = coords + stride;
    int64_t longest = 1, row, i;
    keyed *pts;
    double *work;
    for (row = 0; row < n_rows; row++) {
        int64_t r = object_rings[row];
        int64_t n = ring_offsets[r + 1] - ring_offsets[r];
        if (n > longest)
            longest = n;
    }
    pts = malloc((size_t)longest * sizeof(keyed));
    work = malloc((size_t)longest * 9 * sizeof(double));
    if (pts == NULL || work == NULL) {
        free(pts);
        free(work);
        return -1;
    }
    for (row = 0; row < n_rows; row++) {
        int64_t r = object_rings[row];
        int64_t s0 = ring_offsets[r], n = ring_offsets[r + 1] - s0, h, c;
        double *hx = work, *hy = hx + 2 * longest;
        double *ux = hy + 2 * longest, *uy = ux + longest;
        double *px = uy + longest, *py = px + longest;
        double *tx = py + longest, *ty = ux;  /* ux: free after the hull */
        for (i = 0; i < n; i++) {
            pts[i].x = x1[s0 + i];
            pts[i].y = y1[s0 + i];
            pts[i].index = i;
        }
        h = convex_hull_of(pts, n, hx, hy, ux, uy);
        c = reduce_to_m_corners(hx, hy, h, m, px, py, tx, ty);
        for (i = 0; i < c; i++) {
            out_x[row * m + i] = px[i];
            out_y[row * m + i] = py[i];
        }
        counts[row] = c;
    }
    free(pts);
    free(work);
    return 0;
}

/* points_in_polygons_bulk for one point over edges e0 .. e1, skipping the
 * edges whose eps-closed y-range misses it (they neither toggle nor carry
 * it), as mec._pole_search does. */
static int point_in_edges(double x, double y, const double *x1,
                          const double *y1, const double *x2,
                          const double *y2, int64_t e0, int64_t e1)
{
    int inside = 0, boundary = 0;
    int64_t e;
    for (e = e0; e < e1; e++) {
        if (!(min2(y1[e], y2[e]) - EPSILON <= y
              && y <= max2(y1[e], y2[e]) + EPSILON))
            continue;
        if (orient_sign(x1[e], y1[e], x, y, x2[e], y2[e]) == 0
            && on_seg(x1[e], y1[e], x, y, x2[e], y2[e]))
            boundary = 1;
        if ((y2[e] > y) != (y1[e] > y)) {
            double x_cross =
                (x1[e] - x2[e]) * (y - y2[e]) / (y1[e] - y2[e]) + x2[e];
            if (x < x_cross)
                inside = !inside;
        }
    }
    return boundary || inside;
}

/* EdgeArrays.boundary_distances of one point and one edge x1, y1 ->
 * x1 + dx, y1 + dy, where seg_len_sq is dx * dx + dy * dy (1.0 if that
 * is not positive).  The division is skipped where the clip decides t:
 * t = 0 leaves px - x1 up to the sign of a zero, which squaring drops. */
static double boundary_distance(double px, double py, double x1, double y1,
                                double dx, double dy, double seg_len_sq)
{
    double num = (px - x1) * dx + (py - y1) * dy;
    double t, ex, ey;
    if (num <= 0) {
        ex = px - x1;
        ey = py - y1;
    } else {
        t = num >= seg_len_sq ? 1.0 : num / seg_len_sq;
        ex = px - (x1 + t * dx);
        ey = py - (y1 + t * dy);
    }
    return sqrt(ex * ex + ey * ey);
}

/* The live cells of one round of the pole search: centre, half side,
 * sign (0: undecided), boundary distance, and the slice of the round's
 * edge list (list .. list + len) with its distances at pair[pstart ..]. */
typedef struct {
    double *x, *y, *half, *sign, *dist;
    int64_t *list, *len, *pstart;
    int64_t cap;
} cell_set;

typedef struct {
    cell_set cells[2];
    int64_t *edges[2];
    int64_t edges_cap[2];
    double *pair;
    int64_t pair_cap;
    double *dx, *dy, *len;  /* per edge of the object, from e0 */
    int64_t edge_cap;
} pole_work;

static int cells_reserve(cell_set *s, int64_t need)
{
    int64_t cap;
    if (need <= s->cap)
        return 0;
    cap = s->cap > 0 ? s->cap : 64;
    while (cap < need)
        cap *= 2;
    if (resize((void **)&s->x, cap, sizeof(double))
        || resize((void **)&s->y, cap, sizeof(double))
        || resize((void **)&s->half, cap, sizeof(double))
        || resize((void **)&s->sign, cap, sizeof(double))
        || resize((void **)&s->dist, cap, sizeof(double))
        || resize((void **)&s->list, cap, sizeof(int64_t))
        || resize((void **)&s->len, cap, sizeof(int64_t))
        || resize((void **)&s->pstart, cap, sizeof(int64_t)))
        return -1;
    s->cap = cap;
    return 0;
}

static void pole_work_free(pole_work *w)
{
    int k;
    for (k = 0; k < 2; k++) {
        cell_set *s = &w->cells[k];
        free(s->x);
        free(s->y);
        free(s->half);
        free(s->sign);
        free(s->dist);
        free(s->list);
        free(s->len);
        free(s->pstart);
        free(w->edges[k]);
    }
    free(w->pair);
    free(w->dx);
    free(w->dy);
    free(w->len);
}

/* Child centre offsets in half sides, polylabel's order (mec._CHILDREN). */
static const double CHILD_X[4] = {-1.0, 1.0, -1.0, 1.0};
static const double CHILD_Y[4] = {-1.0, -1.0, 1.0, 1.0};

/* mec._pole_search for one object: edges e0 .. e1, MBR mbr (the edge
 * table's row).  Writes centre x, centre y and radius to out. */
static int pole_search(const double *x1, const double *y1, const double *x2,
                       const double *y2, int64_t e0, int64_t e1,
                       const double *mbr, pole_work *w, double *out)
{
    const double sqrt2 = sqrt(2.0);
    double xmin = mbr[0], ymin = mbr[1], xmax = mbr[2], ymax = mbr[3];
    double width = xmax - xmin, height = ymax - ymin;
    double span = max2(width, height);
    double prec = 1e-5 * span;
    double side = max2(min2(width, height), span / 1024.0);
    double safe = side > 0 ? side : 1.0;
    double nx = max2(ceil(width / safe), 1.0);
    double ny = max2(ceil(height / safe), 1.0);
    int64_t per = (int64_t)(nx * ny) + 1, rows_y = (int64_t)ny;
    int64_t n_edges = e1 - e0, nc = per, c, k, q, cur = 0;
    double best_x = x1[e0], best_y = y1[e0], best_d = 0.0;

    if (cells_reserve(&w->cells[0], per)
        || reserve((void **)&w->edges[0], &w->edges_cap[0], n_edges,
                   sizeof(int64_t)))
        return -1;
    if (n_edges > w->edge_cap) {
        if (resize((void **)&w->dx, n_edges, sizeof(double))
            || resize((void **)&w->dy, n_edges, sizeof(double))
            || resize((void **)&w->len, n_edges, sizeof(double)))
            return -1;
        w->edge_cap = n_edges;
    }
    for (q = 0; q < n_edges; q++) {
        double dx = x2[e0 + q] - x1[e0 + q], dy = y2[e0 + q] - y1[e0 + q];
        double seg_len_sq = dx * dx + dy * dy;
        w->edges[0][q] = e0 + q;
        w->dx[q] = dx;
        w->dy[q] = dy;
        w->len[q] = seg_len_sq <= 0 ? 1.0 : seg_len_sq;
    }
    for (c = 0; c < per; c++) {
        cell_set *s = &w->cells[0];
        if (c == 0) {
            s->x[c] = (xmin + xmax) / 2;
            s->y[c] = (ymin + ymax) / 2;
            s->half[c] = 0.0;
        } else {
            int64_t i = (c - 1) / rows_y, j = (c - 1) % rows_y;
            s->x[c] = xmin + side * ((double)i + 0.5);
            s->y[c] = ymin + side * ((double)j + 0.5);
            s->half[c] = side / 2;
        }
        s->sign[c] = 0.0;
        s->list[c] = 0;
        s->len[c] = n_edges;
    }
    while (nc > 0) {
        cell_set *s = &w->cells[cur], *t = &w->cells[1 - cur];
        const int64_t *edges = w->edges[cur];
        int64_t total = 0, top = 0, nn = 0, nl = 0;
        for (c = 0; c < nc; c++) {
            s->pstart[c] = total;
            total += s->len[c];
        }
        if (reserve((void **)&w->pair, &w->pair_cap, total, sizeof(double)))
            return -1;
        for (c = 0; c < nc; c++) {
            double px = s->x[c], py = s->y[c], d = INFINITY;
            double *pair = w->pair + s->pstart[c];
            for (q = 0; q < s->len[c]; q++) {
                int64_t e = edges[s->list[c] + q], f = e - e0;
                pair[q] = boundary_distance(px, py, x1[e], y1[e], w->dx[f],
                                            w->dy[f], w->len[f]);
                if (q == 0 || pair[q] < d)
                    d = pair[q];
            }
            s->dist[c] = d;
            if (s->sign[c] == 0)
                s->sign[c] = point_in_edges(px, py, x1, y1, x2, y2, e0, e1)
                             ? 1.0 : -1.0;
        }
        for (c = 1; c < nc; c++) {
            if (s->sign[c] * s->dist[c] > s->sign[top] * s->dist[top])
                top = c;
        }
        if (s->sign[top] * s->dist[top] > best_d) {
            best_x = s->x[top];
            best_y = s->y[top];
            best_d = s->sign[top] * s->dist[top];
        }
        for (c = 0; c < nc; c++) {
            double value = s->sign[c] * s->dist[c];
            double delta, reach, child_half, child_sign;
            int64_t start = nl;
            if (!(value + s->half[c] * sqrt2 - best_d > prec))
                continue;
            delta = s->half[c] / 2 * sqrt2;
            reach = s->dist[c] + 4.0 * delta;
            if (reserve((void **)&w->edges[1 - cur], &w->edges_cap[1 - cur],
                        nl + s->len[c], sizeof(int64_t))
                || cells_reserve(t, nn + 4))
                return -1;
            for (q = 0; q < s->len[c]; q++) {
                if (w->pair[s->pstart[c] + q] <= reach)
                    w->edges[1 - cur][nl++] = edges[s->list[c] + q];
            }
            child_half = s->half[c] / 2;
            child_sign = s->dist[c] > delta ? s->sign[c] : 0.0;
            for (k = 0; k < 4; k++) {
                t->x[nn] = s->x[c] + CHILD_X[k] * child_half;
                t->y[nn] = s->y[c] + CHILD_Y[k] * child_half;
                t->half[nn] = child_half;
                t->sign[nn] = child_sign;
                t->list[nn] = start;
                t->len[nn] = nl - start;
                nn++;
            }
        }
        nc = nn;
        cur = 1 - cur;
    }
    out[0] = best_x;
    out[1] = best_y;
    out[2] = best_d * (1 - 1e-9);
    return 0;
}

/* mec.enclosed_circles: row i's centre x, centre y and radius go to
 * out[3 * i ..].  mbrs are the table's (n, 4) shell boxes. */
int64_t ck_enclosed_circles(
    int64_t n_rows, int64_t stride, const double *coords,
    const int64_t *offsets, const double *mbrs, double *out)
{
    pole_work w = {0};
    int64_t row;
    int status = 0;
    for (row = 0; row < n_rows && status == 0; row++)
        status = pole_search(coords, coords + stride, coords + 2 * stride,
                             coords + 3 * stride, offsets[row],
                             offsets[row + 1], mbrs + 4 * row, &w,
                             out + 3 * row);
    pole_work_free(&w);
    return status;
}

/* The x-coordinates where edges e0 .. e1 cross the horizontal line at y,
 * in edge order (EdgeArrays.horizontal_crossings before its sort);
 * returns how many. */
static int64_t line_crossings(double y, const double *x1, const double *y1,
                              const double *x2, const double *y2,
                              int64_t e0, int64_t e1, double *out)
{
    int64_t e, n = 0;
    for (e = e0; e < e1; e++) {
        if ((y1[e] > y) != (y2[e] > y))
            out[n++] = (x2[e] - x1[e]) * (y - y1[e]) / (y2[e] - y1[e]) + x1[e];
    }
    return n;
}

/* EdgeArrays.contains_points for one point: even-odd parity. */
static int even_odd(double px, double py, const double *x1, const double *y1,
                    const double *x2, const double *y2, int64_t e0,
                    int64_t e1)
{
    int64_t e, count = 0;
    for (e = e0; e < e1; e++) {
        double dy;
        if ((y1[e] > py) == (y2[e] > py))
            continue;
        dy = y2[e] - y1[e];
        if (dy == 0)
            dy = 1.0;
        if (px < (x2[e] - x1[e]) * (py - y1[e]) / dy + x1[e])
            count++;
    }
    return (int)(count % 2);
}

/* fastops.segments_cross_open_rects for one segment and one rectangle. */
static int crosses_open_rect(double x1, double y1, double x2, double y2,
                             double xmin, double ymin, double xmax,
                             double ymax)
{
    double dx, dy, s1, s2, s3, s4;
    if (!(max2(x1, x2) > xmin && min2(x1, x2) < xmax
          && max2(y1, y2) > ymin && min2(y1, y2) < ymax))
        return 0;
    dx = x2 - x1;
    dy = y2 - y1;
    s1 = dx * (ymin - y1) - dy * (xmin - x1);
    s2 = dx * (ymin - y1) - dy * (xmax - x1);
    s3 = dx * (ymax - y1) - dy * (xmax - x1);
    s4 = dx * (ymax - y1) - dy * (xmin - x1);
    return min2(min2(s1, s2), min2(s3, s4)) < 0
           && max2(max2(s1, s2), max2(s3, s4)) > 0;
}

/* One object of the MER search: its edges, shell and hole probes. */
typedef struct {
    const double *x1, *y1, *x2, *y2;
    int64_t e0, e1;          /* all edges */
    int64_t s0, s1;          /* shell edges (vertices) */
    const int64_t *holes;    /* first edge of each hole ring */
    int64_t n_holes;
} mer_object;

/* EdgeArrays.rect_inside. */
static int rect_inside(const mer_object *o, double xmin, double ymin,
                       double xmax, double ymax)
{
    double pad = py_max3(xmax - xmin, ymax - ymin, 1e-9) * 1e-7;
    double probe_x[5], probe_y[5];
    int64_t e, k;
    xmin += pad;
    ymin += pad;
    xmax -= pad;
    ymax -= pad;
    if (xmin >= xmax || ymin >= ymax)
        return 0;
    probe_x[0] = xmin; probe_y[0] = ymin;
    probe_x[1] = xmax; probe_y[1] = ymin;
    probe_x[2] = xmax; probe_y[2] = ymax;
    probe_x[3] = xmin; probe_y[3] = ymax;
    probe_x[4] = (xmin + xmax) / 2;
    probe_y[4] = (ymin + ymax) / 2;
    for (k = 0; k < 5; k++) {
        if (!even_odd(probe_x[k], probe_y[k], o->x1, o->y1, o->x2, o->y2,
                      o->e0, o->e1))
            return 0;
    }
    for (e = o->e0; e < o->e1; e++) {
        if (crosses_open_rect(o->x1[e], o->y1[e], o->x2[e], o->y2[e],
                              xmin, ymin, xmax, ymax))
            return 0;
    }
    for (k = 0; k < o->n_holes; k++) {
        double hx = o->x1[o->holes[k]], hy = o->y1[o->holes[k]];
        if (xmin < hx && hx < xmax && ymin < hy && hy < ymax)
            return 0;
    }
    return 1;
}

#define MER_CHORD_VERTICES 64
#define MER_X_CANDIDATES 14
#define MER_Y_CANDIDATES 12
#define MER_CELL_MARGIN 1e-6

/* mer._candidate_coords on ascending distinct values: every value, or
 * cap of them spread evenly (Python's round: ties to even). */
static int64_t candidate_coords(const double *uniq, int64_t n, int64_t cap,
                                double *out)
{
    int64_t i;
    double step;
    if (n <= cap) {
        for (i = 0; i < n; i++)
            out[i] = uniq[i];
        return n;
    }
    step = (double)(n - 1) / (double)(cap - 1);
    for (i = 0; i < cap; i++)
        out[i] = uniq[(int64_t)nearbyint((double)i * step)];
    return cap;
}

/* mer._longest_vertex_chord: 1 and (y0, xl, xr), or 0 (no chord).
 * cross has room for the object's edge count. */
static int longest_chord(const mer_object *o, double *cross_x, double *y0,
                         double *xl, double *xr)
{
    int64_t nv = o->s1 - o->s0, nk = nv, k, e, widest = 0;
    double step = (double)nv / MER_CHORD_VERTICES;
    double ymin = o->y1[o->s0], ymax = ymin, height, best = 0.0;
    int have = 0;
    for (e = o->s0 + 1; e < o->s1; e++) {
        if (o->y1[e] < ymin)
            ymin = o->y1[e];
        else if (o->y1[e] > ymax)
            ymax = o->y1[e];
    }
    height = ymax - ymin;
    if (nk > MER_CHORD_VERTICES)
        nk = MER_CHORD_VERTICES;
    for (k = 0; k < 2 * nk; k++) {
        int64_t v = o->s0 + (nv > MER_CHORD_VERTICES
                             ? (int64_t)((double)(k / 2) * step) : k / 2);
        double probe = o->x1[v];
        double y = k % 2 == 0 ? o->y1[v] + height * 1e-7
                              : o->y1[v] - height * 1e-7;
        int64_t n = line_crossings(y, o->x1, o->y1, o->x2, o->y2, o->e0,
                                   o->e1, cross_x);
        int64_t pairs = n / 2, p, pick = -1;
        double left = 0.0, right = 0.0, length;
        if (n > widest)
            widest = n;
        sort_few(cross_x, n);
        for (p = 0; p < pairs && pick < 0; p++) {
            if (cross_x[2 * p] <= probe && probe <= cross_x[2 * p + 1])
                pick = p;
        }
        if (pick < 0 && pairs > 0) {
            double nearest = INFINITY;
            pick = 0;
            for (p = 0; p < pairs; p++) {
                double d = min2(fabs(probe - cross_x[2 * p]),
                                fabs(probe - cross_x[2 * p + 1]));
                if (d < nearest) {
                    nearest = d;
                    pick = p;
                }
            }
        }
        if (pairs > 0) {
            left = cross_x[2 * pick];
            right = cross_x[2 * pick + 1];
        }
        length = right - left;
        if (!have || length > best) {
            have = 1;
            best = length;
            *y0 = y;
            *xl = left;
            *xr = right;
        }
    }
    return widest / 2 > 0 && best > 0.0;
}

/* mer.maximum_enclosed_rectangle without its MEC fallback: 1 and the
 * rectangle, or 0 when there is no chord or no candidate is accepted.
 * keys and values have room for the shell's vertex count plus 2, cross
 * for the object's edge count, score for the candidates (91 * 144). */
static int enclosed_rect(const mer_object *o, keyed *keys, double *values,
                         double *cross_x, double *score, double *rect)
{
    double y0, xl, xr, m;
    double xs[MER_X_CANDIDATES], below[MER_Y_CANDIDATES];
    double above[MER_Y_CANDIDATES], ys[2 * MER_Y_CANDIDATES] = {0.0};
    double left[MER_X_CANDIDATES], right[MER_X_CANDIDATES];
    double bottom[2 * MER_Y_CANDIDATES], top[2 * MER_Y_CANDIDATES];
    int prefix[MER_X_CANDIDATES][2 * MER_Y_CANDIDATES];
    unsigned char blocked[MER_X_CANDIDATES][2 * MER_Y_CANDIDATES];
    int64_t pair_i[MER_X_CANDIDATES * MER_X_CANDIDATES];
    int64_t pair_j[MER_X_CANDIDATES * MER_X_CANDIDATES];
    int64_t lo_at[MER_Y_CANDIDATES], hi_at[MER_Y_CANDIDATES];
    int64_t nv = o->s1 - o->s0, n, nx, nb, na, ny, a, b, i, j, e, k, K;
    int64_t n_pairs = 0, best;

    if (!longest_chord(o, cross_x, &y0, &xl, &xr))
        return 0;

    /* _candidate_lines */
    n = 0;
    for (e = o->s0; e < o->s1; e++) {
        if (xl <= o->x1[e] && o->x1[e] <= xr) {
            keys[n].x = o->x1[e];
            keys[n].y = 0.0;
            keys[n].index = n;
            n++;
        }
    }
    keys[n].x = xl; keys[n].y = 0.0; keys[n].index = n; n++;
    keys[n].x = xr; keys[n].y = 0.0; keys[n].index = n; n++;
    n = sorted_set(keys, n);
    for (i = 0; i < n; i++)
        values[i] = keys[i].x;
    nx = candidate_coords(values, n, MER_X_CANDIDATES, xs);
    for (i = 0; i < nv; i++) {
        keys[i].x = o->y1[o->s0 + i];
        keys[i].y = 0.0;
        keys[i].index = i;
    }
    n = sorted_set(keys, nv);
    for (i = 0; i < n; i++)
        values[i] = keys[i].x;
    /* Ordinates at most y0, ascending (then reversed), and at least y0. */
    for (k = 0; k < n && values[k] <= y0; k++)
        ;
    nb = candidate_coords(values, k, MER_Y_CANDIDATES, below);
    for (k = 0; k < n && !(values[k] >= y0); k++)
        ;
    na = candidate_coords(values + k, n - k, MER_Y_CANDIDATES, above);
    if (nb == 0) {
        below[0] = y0;
        nb = 1;
    }
    if (na == 0) {
        above[0] = y0;
        na = 1;
    }
    /* y = sorted({*below, *above}); below is still ascending here. */
    ny = 0;
    for (i = 0, j = 0; i < nb || j < na;) {
        double v;
        if (j >= na || (i < nb && below[i] <= above[j]))
            v = below[i++];
        else
            v = above[j++];
        if (ny == 0 || !(ys[ny - 1] == v))
            ys[ny++] = v;
    }
    for (i = 0; i < nb / 2; i++) {
        double swap = below[i];
        below[i] = below[nb - 1 - i];
        below[nb - 1 - i] = swap;
    }
    for (k = 0; k < nb; k++) {
        for (lo_at[k] = 0; ys[lo_at[k]] < below[k]; lo_at[k]++)
            ;
    }
    for (k = 0; k < na; k++) {
        for (hi_at[k] = 0; ys[hi_at[k]] < above[k]; hi_at[k]++)
            ;
    }

    /* _blocked_cells */
    m = MER_CELL_MARGIN * py_max3(xs[nx - 1] - xs[0], ys[ny - 1] - ys[0],
                                  1e-9);
    for (a = 0; a + 1 < nx; a++) {
        left[a] = xs[a] + m;
        right[a] = xs[a + 1] - m;
    }
    for (b = 0; b + 1 < ny; b++) {
        double cy = (ys[b] + ys[b + 1]) / 2;
        int64_t nc = line_crossings(cy, o->x1, o->y1, o->x2, o->y2, o->e0,
                                    o->e1, cross_x);
        bottom[b] = ys[b] + m;
        top[b] = ys[b + 1] - m;
        for (a = 0; a + 1 < nx; a++) {
            double cx = (xs[a] + xs[a + 1]) / 2;
            int64_t right_of = 0, q;
            for (q = 0; q < nc; q++) {
                if (cx < cross_x[q] && isfinite(cross_x[q]))
                    right_of++;
            }
            blocked[a][b] = right_of % 2 != 1;
        }
    }
    for (e = o->e0; e < o->e1; e++) {
        double exmin = min2(o->x1[e], o->x2[e]);
        double exmax = max2(o->x1[e], o->x2[e]);
        double eymin = min2(o->y1[e], o->y2[e]);
        double eymax = max2(o->y1[e], o->y2[e]);
        for (a = 0; a + 1 < nx; a++) {
            if (!(exmax > left[a] && exmin < right[a]))
                continue;
            for (b = 0; b + 1 < ny; b++) {
                if (blocked[a][b] || !(eymax > bottom[b] && eymin < top[b]))
                    continue;
                if (crosses_open_rect(o->x1[e], o->y1[e], o->x2[e], o->y2[e],
                                      left[a], bottom[b], right[a], top[b]))
                    blocked[a][b] = 1;
            }
        }
    }
    for (a = 0; a < nx; a++)
        prefix[a][0] = 0;
    for (b = 0; b < ny; b++)
        prefix[0][b] = 0;
    for (a = 1; a < nx; a++) {
        for (b = 1; b < ny; b++) {
            int wide = xs[a] - xs[a - 1] >= 4 * m
                       && ys[b] - ys[b - 1] >= 4 * m;
            prefix[a][b] = prefix[a - 1][b] + prefix[a][b - 1]
                           - prefix[a - 1][b - 1]
                           + (wide && blocked[a - 1][b - 1]);
        }
    }

    /* _scored_candidates, then _verified_best: candidate k is abscissa
     * pair p (i < j, i-major), ordinate below bl, above th, at
     * k = (p * nb + bl) * na + th. */
    for (i = 0; i < nx; i++) {
        for (j = i + 1; j < nx; j++) {
            pair_i[n_pairs] = i;
            pair_j[n_pairs++] = j;
        }
    }
    K = 0;
    best = 0;
    for (k = 0; k < n_pairs; k++) {
        int64_t pi = pair_i[k], pj = pair_j[k], bl, th;
        double width = xs[pj] - xs[pi];
        for (bl = 0; bl < nb; bl++) {
            const int *lo_i = &prefix[pi][lo_at[bl]];
            const int *lo_j = &prefix[pj][lo_at[bl]];
            for (th = 0; th < na; th++) {
                int count = prefix[pj][hi_at[th]] - prefix[pi][hi_at[th]]
                            - *lo_j + *lo_i;
                double area = width * (above[th] - below[bl]);
                score[K] = count == 0 && area > 0 ? area : 0.0;
                if (score[K] > score[best])
                    best = K;
                K++;
            }
        }
    }
    for (;;) {
        int64_t p, bl, th;
        if (K == 0 || !(score[best] > 0.0))
            return 0;
        th = best % na;
        bl = (best / na) % nb;
        p = best / (na * nb);
        if (rect_inside(o, xs[pair_i[p]], below[bl], xs[pair_j[p]],
                        above[th])) {
            rect[0] = xs[pair_i[p]];
            rect[1] = below[bl];
            rect[2] = xs[pair_j[p]];
            rect[3] = above[th];
            return 1;
        }
        score[best] = 0.0;
        best = 0;
        for (k = 1; k < K; k++) {
            if (score[k] > score[best])
                best = k;
        }
    }
}

/* MERApproximation.of per row: row i's rectangle (xmin, ymin, xmax,
 * ymax) goes to out[4 * i ..].  Where the search finds none, the square
 * inscribed in the row's MEC (mer._fallback_rect); mbrs are the table's
 * (n, 4) shell boxes, which that MEC reads. */
int64_t ck_enclosed_rects(
    int64_t n_rows, int64_t stride, const double *coords,
    const int64_t *offsets, const int64_t *object_rings,
    const int64_t *ring_offsets, const double *mbrs, double *out)
{
    pole_work w = {0};
    int64_t longest = 1, row, holes_cap = 0;
    keyed *keys;
    double *values, *cross_x, *score;
    int64_t *holes = NULL;
    int status = 0;
    for (row = 0; row < n_rows; row++) {
        if (offsets[row + 1] - offsets[row] > longest)
            longest = offsets[row + 1] - offsets[row];
    }
    keys = malloc((size_t)(longest + 2) * sizeof(keyed));
    values = malloc((size_t)(longest + 2) * sizeof(double));
    cross_x = malloc((size_t)longest * sizeof(double));
    score = malloc((size_t)(MER_X_CANDIDATES * MER_X_CANDIDATES
                            * MER_Y_CANDIDATES * MER_Y_CANDIDATES)
                   * sizeof(double));
    if (keys == NULL || values == NULL || cross_x == NULL || score == NULL)
        status = -1;
    for (row = 0; row < n_rows && status == 0; row++) {
        mer_object o;
        int64_t r0 = object_rings[row], r1 = object_rings[row + 1], r;
        double *rect = out + 4 * row;
        o.x1 = coords;
        o.y1 = coords + stride;
        o.x2 = coords + 2 * stride;
        o.y2 = coords + 3 * stride;
        o.e0 = offsets[row];
        o.e1 = offsets[row + 1];
        o.s0 = ring_offsets[r0];
        o.s1 = ring_offsets[r0 + 1];
        if (reserve((void **)&holes, &holes_cap, r1 - r0, sizeof(int64_t))) {
            status = -1;
            break;
        }
        for (r = r0 + 1; r < r1; r++)
            holes[r - r0 - 1] = ring_offsets[r];
        o.holes = holes;
        o.n_holes = r1 - r0 - 1;
        if (!enclosed_rect(&o, keys, values, cross_x, score, rect)) {
            double circle[3], half;
            status = pole_search(o.x1, o.y1, o.x2, o.y2, o.e0, o.e1,
                                 mbrs + 4 * row, &w, circle);
            half = circle[2] / sqrt(2.0) * (1 - 1e-9);
            if (1e-12 > half)
                half = 1e-12;
            rect[0] = circle[0] - half;
            rect[1] = circle[1] - half;
            rect[2] = circle[0] + half;
            rect[3] = circle[1] + half;
        }
    }
    free(keys);
    free(values);
    free(cross_x);
    free(score);
    free(holes);
    pole_work_free(&w);
    return status;
}
