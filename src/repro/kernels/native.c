/*
 * Compiled maze search: a line-for-line C port of
 * repro.kernels.vectorized.maze_search (sweeps, backtrack, cell dedup).
 *
 * Every floating-point operation is the one the numpy formulation
 * performs, in the same order, so routes are bit-identical:
 *
 *   - sh/sv are sequential prefix sums (np.cumsum), ph = sh - ch;
 *   - np_min() is numpy's scalar minimum (NaN-propagating, first
 *     argument on ties), and each min-scan runs in np.minimum.accumulate
 *     order;
 *   - convergence compares with == element by element, as
 *     np.array_equal does (NaN never equals itself, -0.0 equals 0.0);
 *   - the backtrack uses the same 1e-9 * (1 + |g|) tolerance, tries the
 *     straight predecessor before the turn, and picks the H target on
 *     gH <= gV.
 *
 * Build with -ffp-contract=off: a fused multiply-add would round
 * differently from numpy's separate operations.
 *
 * Arrays are row-major (x, y) with y fastest, matching numpy C order.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define DIR_H 0
#define DIR_V 1

/* numpy's minimum: (a <= b || isnan(a)) ? a : b.  Split into two
 * selects because the short-circuit form compiles to data-dependent
 * branches, which mispredict on every other scan step. */
static double np_min(double a, double b)
{
    double m = a <= b ? a : b;
    return a != a ? a : m;
}

/* Straight-run relaxation of one sweep along the V axis for m <= LANES
 * adjacent lines of n contiguous cells (line j starts at j * n):
 * nw[i] = min(nw[i], min_{k<i}(a[k] - s[k]) + s[i]), then
 * nw[i] = min(nw[i], min_{k>i}(a[k] + p[k]) - p[i]).  The lines are
 * independent; stepping them in lockstep only overlaps their scans. */
#define LANES 4
static void relax_lines(const double *a, const double *s, const double *p,
                        double *nw, int64_t m, int64_t n)
{
    double run[LANES];
    int64_t i, j, k;
    if (n < 2)
        return;
    for (j = 0; j < m; j++)
        run[j] = a[j * n] - s[j * n];
    for (i = 1; i < n; i++) {
        for (j = 0; j < m; j++) {
            k = j * n + i;
            nw[k] = np_min(nw[k], run[j] + s[k]);
            run[j] = np_min(run[j], a[k] - s[k]);
        }
    }
    for (j = 0; j < m; j++)
        run[j] = a[j * n + n - 1] + p[j * n + n - 1];
    for (i = n - 2; i >= 0; i--) {
        for (j = 0; j < m; j++) {
            k = j * n + i;
            nw[k] = np_min(nw[k], run[j] - p[k]);
            run[j] = np_min(run[j], a[k] + p[k]);
        }
    }
}

/* The same relaxation along the H axis (x, the slow index), run a row
 * at a time so the inner loop walks contiguous memory; run[] holds one
 * scan value per column y.  Per element the operations and their order
 * are exactly those of relax_lines. */
static void relax_rows(const double *a, const double *s, const double *p,
                       double *nw, int64_t w, int64_t h, double *run)
{
    int64_t x, y;
    if (w < 2)
        return;
    for (y = 0; y < h; y++)
        run[y] = a[y] - s[y];
    for (x = 1; x < w; x++) {
        const double *ax = a + x * h, *sx = s + x * h;
        double *nx = nw + x * h;
        for (y = 0; y < h; y++) {
            nx[y] = np_min(nx[y], run[y] + sx[y]);
            run[y] = np_min(run[y], ax[y] - sx[y]);
        }
    }
    for (y = 0; y < h; y++)
        run[y] = a[(w - 1) * h + y] + p[(w - 1) * h + y];
    for (x = w - 2; x >= 0; x--) {
        const double *ax = a + x * h, *px = p + x * h;
        double *nx = nw + x * h;
        for (y = 0; y < h; y++) {
            nx[y] = np_min(nx[y], run[y] - px[y]);
            run[y] = np_min(run[y], ax[y] + px[y]);
        }
    }
}

/* Walk cost-consistent predecessors from the target, marking charged
 * cells in mark_h / mark_v.  Returns 1 on reaching the start, else 0. */
static int backtrack(const double *gH, const double *gV, const double *ch,
                     const double *cv, int64_t w, int64_t h, int64_t sx,
                     int64_t sy, int64_t tx, int64_t ty, char *mark_h,
                     char *mark_v)
{
    int64_t t = tx * h + ty;
    int use_h = gH[t] <= gV[t];
    double g = use_h ? gH[t] : gV[t];
    int64_t x = tx, y = ty, iter, max_iter = 4 * w * h + 8;
    int d = use_h ? DIR_H : DIR_V;
    int64_t s = sx * h + sy;

    if (!isfinite(g))
        return 0;
    for (iter = 0; iter < max_iter; iter++) {
        char *cells = d == DIR_H ? mark_h : mark_v;
        int64_t c = x * h + y;
        double step = d == DIR_H ? ch[c] : cv[c];
        double tol = 1e-9 * (1.0 + fabs(g));
        const double *g_same = d == DIR_H ? gH : gV;
        const double *g_turn = d == DIR_H ? gV : gH;
        int64_t px[2], py[2];
        int j, found = 0;

        cells[c] = 1;
        /* Direct move out of the start? */
        if (d == DIR_H && y == sy && (x - sx == 1 || sx - x == 1)) {
            if (fabs(ch[c] + ch[s] - g) <= tol) {
                cells[s] = 1;
                return 1;
            }
        }
        if (d == DIR_V && x == sx && (y - sy == 1 || sy - y == 1)) {
            if (fabs(cv[c] + cv[s] - g) <= tol) {
                cells[s] = 1;
                return 1;
            }
        }
        if (d == DIR_H) {
            px[0] = x - 1; py[0] = y;
            px[1] = x + 1; py[1] = y;
        } else {
            px[0] = x; py[0] = y - 1;
            px[1] = x; py[1] = y + 1;
        }
        for (j = 0; j < 2; j++) { /* straight continuation first */
            int64_t q = px[j] * h + py[j];
            if (px[j] < 0 || px[j] >= w || py[j] < 0 || py[j] >= h)
                continue;
            if (fabs(g_same[q] + step - g) <= tol) {
                x = px[j]; y = py[j]; g = g_same[q];
                found = 1;
                break;
            }
        }
        if (!found) {
            for (j = 0; j < 2; j++) { /* then a turn (corner charge on pred) */
                int64_t q = px[j] * h + py[j];
                double corner;
                if (px[j] < 0 || px[j] >= w || py[j] < 0 || py[j] >= h)
                    continue;
                corner = d == DIR_H ? ch[q] : cv[q];
                if (fabs(g_turn[q] + corner + step - g) <= tol) {
                    cells[q] = 1;
                    x = px[j]; y = py[j]; g = g_turn[q];
                    d = d == DIR_H ? DIR_V : DIR_H;
                    found = 1;
                    break;
                }
            }
        }
        if (!found)
            return 0;
    }
    return 0;
}

/* Sorted flat indices of the marked window cells (np.unique order:
 * row-major window order is ascending in the full grid's flat index). */
static int64_t collect(const char *mark, int64_t w, int64_t h, int64_t xlo,
                       int64_t ylo, int64_t ny_full, int64_t *out)
{
    int64_t x, y, n = 0;
    for (x = 0; x < w; x++)
        for (y = 0; y < h; y++)
            if (mark[x * h + y])
                out[n++] = (x + xlo) * ny_full + (y + ylo);
    return n;
}

/*
 * cost_h, cost_v: full (nx, ny_full) cost maps.  The window is
 * [xlo, xlo + w) x [ylo, ylo + h); (sx, sy) and (tx, ty) are
 * window-relative.  `out` holds 2*w*h + 3 int64: H cells at [0, w*h),
 * V cells at [w*h, 2*w*h), then n_h, n_v and the sweep count.
 *
 * Returns 1 with a path, 0 without (no convergence, unreachable target
 * or failed backtrack), -1 when scratch memory cannot be allocated.
 */
int repro_maze_search(const double *cost_h, const double *cost_v,
                      int64_t ny_full, int64_t xlo, int64_t ylo, int64_t w,
                      int64_t h, int64_t sx, int64_t sy, int64_t tx,
                      int64_t ty, int64_t *out)
{
    int64_t n = w * h, x, y, i, sweeps = 0, max_sweeps = 2 * w * h + 8;
    int converged = 0, status = 0;
    double *buf = malloc(sizeof(double) * (12 * (size_t)n + (size_t)h));
    char *mark = calloc(2 * (size_t)n, 1);
    double *ch, *cv, *sh, *sv, *ph, *pv, *gH, *gV, *aH, *aV, *nH, *nV, *run, *tmp;

    out[2 * n] = out[2 * n + 1] = out[2 * n + 2] = 0;
    if (buf == NULL || mark == NULL) {
        free(buf);
        free(mark);
        return -1;
    }
    ch = buf;       cv = ch + n;
    sh = cv + n;    sv = sh + n;
    ph = sv + n;    pv = ph + n;
    gH = pv + n;    gV = gH + n;
    aH = gV + n;    aV = aH + n;
    nH = aV + n;    nV = nH + n;
    run = nV + n;

    for (x = 0; x < w; x++) {
        memcpy(ch + x * h, cost_h + (x + xlo) * ny_full + ylo, sizeof(double) * h);
        memcpy(cv + x * h, cost_v + (x + xlo) * ny_full + ylo, sizeof(double) * h);
    }
    for (i = 0; i < n; i++) {
        gH[i] = INFINITY;
        gV[i] = INFINITY;
    }
    /* Seed the four moves out of the start (entered cell + start charge). */
    if (sx + 1 < w)
        gH[(sx + 1) * h + sy] = ch[(sx + 1) * h + sy] + ch[sx * h + sy];
    if (sx >= 1)
        gH[(sx - 1) * h + sy] = ch[(sx - 1) * h + sy] + ch[sx * h + sy];
    if (sy + 1 < h)
        gV[sx * h + sy + 1] = cv[sx * h + sy + 1] + cv[sx * h + sy];
    if (sy >= 1)
        gV[sx * h + sy - 1] = cv[sx * h + sy - 1] + cv[sx * h + sy];

    /* Inclusive prefix sums along the move axis, then exclusive ones. */
    for (y = 0; y < h; y++)
        sh[y] = ch[y];
    for (x = 1; x < w; x++)
        for (y = 0; y < h; y++)
            sh[x * h + y] = sh[(x - 1) * h + y] + ch[x * h + y];
    for (x = 0; x < w; x++) {
        sv[x * h] = cv[x * h];
        for (y = 1; y < h; y++)
            sv[x * h + y] = sv[x * h + y - 1] + cv[x * h + y];
    }
    for (i = 0; i < n; i++) {
        ph[i] = sh[i] - ch[i];
        pv[i] = sv[i] - cv[i];
    }

    while (sweeps < max_sweeps) {
        int same = 1;
        sweeps++;
        for (i = 0; i < n; i++) {
            aH[i] = np_min(gH[i], gV[i] + ch[i]);
            aV[i] = np_min(gV[i], gH[i] + cv[i]);
        }
        memcpy(nH, gH, sizeof(double) * n);
        memcpy(nV, gV, sizeof(double) * n);
        relax_rows(aH, sh, ph, nH, w, h, run);
        for (x = 0; x < w; x += LANES) {
            int64_t m = w - x < LANES ? w - x : LANES;
            relax_lines(aV + x * h, sv + x * h, pv + x * h, nV + x * h, m, h);
        }
        for (i = 0; i < n && same; i++)
            same = nH[i] == gH[i] && nV[i] == gV[i];
        if (same) {
            converged = 1;
            break;
        }
        tmp = gH; gH = nH; nH = tmp;
        tmp = gV; gV = nV; nV = tmp;
    }
    out[2 * n + 2] = sweeps;

    if (converged && backtrack(gH, gV, ch, cv, w, h, sx, sy, tx, ty, mark, mark + n)) {
        out[2 * n] = collect(mark, w, h, xlo, ylo, ny_full, out);
        out[2 * n + 1] = collect(mark + n, w, h, xlo, ylo, ny_full, out + n);
        status = 1;
    }
    free(buf);
    free(mark);
    return status;
}

/*
 * Detour-imitating demand expansion: a line-for-line port of
 * repro.kernels.reference.expand_segments (and its _expand_one).
 *
 * The reference sums every spare-capacity run with numpy's `sum` over a
 * contiguous temporary, which is numpy's pairwise summation added to the
 * reduction identity 0.0; pairwise_sum() below reproduces it exactly, so
 * the updated maps are bit-identical:
 *
 *   - n < 8: sequential from 0.0;
 *   - n <= 128: eight accumulators over the multiple-of-8 prefix,
 *     combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail
 *     added in order;
 *   - otherwise: split at n/2 rounded down to a multiple of 8.
 *
 * Python's max(x, 0.0) keeps x unless 0.0 > x; np.max(over) <= 0.0 holds
 * exactly when no element is NaN or positive.
 */

static double pairwise_sum(const double *a, int64_t n)
{
    double res, r[8];
    int64_t i, j, n2;

    if (n < 8) {
        res = 0.0;
        for (i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        for (j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (j = 0; j < 8; j++)
                r[j] += a[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* numpy's sum of a contiguous array: the identity plus the pairwise sum. */
static double np_sum(const double *a, int64_t n)
{
    return 0.0 + pairwise_sum(a, n);
}

/*
 * One segment in the horizontal convention: element (a, r) of a map is
 * at a * sa + r * sr (along a, across r).  `spare` and `weights` are
 * scratch of at least the along length and num_rows.  Returns 1 when
 * the segment was expanded, else 0.
 */
static int expand_one(const double *cap, double *dmd, double *perp,
                      int64_t sa, int64_t sr, int64_t num_rows, int64_t row,
                      int64_t lo, int64_t hi, int lo_is_pin, int hi_is_pin,
                      int64_t radius, double keep_weight, double *spare,
                      double *weights)
{
    int64_t length = hi - lo + 1, a, k, r, i, lo_k, hi_k, n_off, r0, r1;
    int congested = 0;
    double total, w;

    for (a = lo; a <= hi && !congested; a++)
        congested = !(dmd[a * sa + row * sr] - cap[a * sa + row * sr] <= 0.0);
    if (!congested)
        return 0;
    lo_k = (row - radius > 0 ? row - radius : 0) - row;
    hi_k = (row + radius < num_rows - 1 ? row + radius : num_rows - 1) - row;
    n_off = hi_k >= lo_k ? hi_k - lo_k + 1 : 0;
    for (i = 0; i < n_off; i++) {
        double s;
        r = row + lo_k + i;
        for (a = lo; a <= hi; a++)
            spare[a - lo] = cap[a * sa + r * sr] - dmd[a * sa + r * sr];
        s = np_sum(spare, length);
        weights[i] = 0.0 > s ? 0.0 : s;
    }
    if (lo_k <= 0 && 0 <= hi_k)
        weights[-lo_k] += keep_weight * (double)(length > 1 ? length : 1);
    total = np_sum(weights, n_off);
    if (total <= 0.0)
        return 0;
    for (i = 0; i < n_off; i++)
        weights[i] /= total;

    /* Redistribute the unit demand across the neighbouring rows. */
    for (a = lo; a <= hi; a++)
        dmd[a * sa + row * sr] -= 1.0;
    for (i = 0; i < n_off; i++) {
        k = lo_k + i;
        w = weights[i];
        if (w <= 0.0)
            continue;
        for (a = lo; a <= hi; a++)
            dmd[a * sa + (row + k) * sr] += w;
        if (k == 0)
            continue;
        /* Perpendicular detour demand at Steiner endpoints only. */
        r0 = k > 0 ? row + 1 : row + k;
        r1 = k > 0 ? row + k : row - 1;
        if (!lo_is_pin)
            for (r = r0; r <= r1; r++)
                perp[lo * sa + r * sr] += w;
        if (!hi_is_pin)
            for (r = r0; r <= r1; r++)
                perp[hi * sa + r * sr] += w;
    }
    return 1;
}

/*
 * cap_h, cap_v, dmd_h, dmd_v: (nx, ny) maps; the demand maps are updated
 * in place.  Segment i is horizontal (along x at row fixed[i]) when
 * horizontal[i], else vertical (along y at column fixed[i]), over
 * lo[i]..hi[i]; indices are assumed in range.
 *
 * Returns the number of expanded segments, or -1 when scratch memory
 * cannot be allocated.
 */
int64_t repro_expand_segments(const double *cap_h, const double *cap_v,
                              double *dmd_h, double *dmd_v, int64_t nx,
                              int64_t ny, int64_t n, const uint8_t *horizontal,
                              const int64_t *fixed, const int64_t *lo,
                              const int64_t *hi, const uint8_t *lo_is_pin,
                              const uint8_t *hi_is_pin, int64_t radius,
                              double keep_weight)
{
    int64_t i, expanded = 0, m = nx > ny ? nx : ny;
    double *buf = malloc(sizeof(double) * 2 * (size_t)(m > 0 ? m : 1));

    if (buf == NULL)
        return -1;
    for (i = 0; i < n; i++) {
        if (horizontal[i])
            expanded += expand_one(cap_h, dmd_h, dmd_v, ny, 1, ny, fixed[i],
                                   lo[i], hi[i], lo_is_pin[i], hi_is_pin[i],
                                   radius, keep_weight, buf, buf + m);
        else
            /* The transposed views of the reference: along y, across x. */
            expanded += expand_one(cap_v, dmd_v, dmd_h, 1, ny, nx, fixed[i],
                                   lo[i], hi[i], lo_is_pin[i], hi_is_pin[i],
                                   radius, keep_weight, buf, buf + m);
    }
    free(buf);
    return expanded;
}
