/*
 * Compiled hot loops of the sequential seaweed engine (loaded via ctypes by
 * repro.core.native; the NumPy code in seaweed.py / lis/semilocal.py is the
 * fallback and the oracle).
 *
 * repro_seaweed_multiply: the full-permutation product P_A ⊡ P_B.  Same
 * split as the iterative engine at fan-in 2 (columns of P_A / rows of P_B
 * cut at n/2, each half compacted to its own index space), recursing down to
 * single points, then merged bottom-up with the staircase walk of
 * _staircase_merge_kernel (Lemma 3.2 at H = 2, Lemma 3.10 for the points
 * that survive unchanged).  O(n log n) time, 12n + 64 words of workspace.
 *
 * repro_patience_scores: the dense score table of _dense_block_matrix,
 * scores[x][y] = #{patience tails < y} over the values >= x.
 *
 * repro_seam_sweep: one (max,+) step of the streaming seam sweep
 * (_sweep_one_part in streaming/aggregator.py), folding one cover part into
 * the corner-score rows in place.  K is derived from the part's row_to_col
 * as the column sweep goes, never read from a dense table: O(s log s + width)
 * per row with a lazy range-add / range-max segment tree.
 *
 * All arrays are C-contiguous int64.  Return codes: 0 ok, -1 out of memory,
 * -2 operand is malformed (not a permutation of 0..n-1 for the multiply;
 * slots not strictly increasing inside the row, or row_to_col not a
 * sub-permutation of s columns, for the seam sweep).
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* Product of the colored n x n permutation (perm/color by row, col_row /
 * col_color by column) into out; t and dval hold n + 1 words each. */
static void staircase_merge(i64 m, const i64 *perm, const i64 *color,
                            const i64 *col_row, const i64 *col_color,
                            i64 *t, i64 *dval, i64 *out)
{
    i64 i, j = 0, val = 0, r, c;
    t[m] = 0;
    dval[m] = 0;
    for (i = m - 1; i >= 0; i--) {
        i64 ci = perm[i];
        if (color[i] == 0) {
            if (ci >= j) val++;
        } else if (ci < j) {
            val++;
        }
        while (val > 0) {
            i64 rj = col_row[j];
            if (col_color[j] == 1)
                val += (rj >= i ? 1 : 0) - 1;
            else
                val -= rj >= i ? 1 : 0;
            j++;
        }
        t[i] = j;
        dval[i] = val;
    }
    for (r = 0; r < m; r++) {
        i64 u = t[r], v = t[r + 1], cr = perm[r];
        if (color[r] == 0) {
            if (cr <= v - 2) { out[r] = cr; continue; }
        } else if (cr >= u) {
            out[r] = cr;
            continue;
        }
        if (u == v) { out[r] = u - 1; continue; }
        if (v >= 1 && dval[r + 1] == 0 && col_color[v - 1] == 0 && col_row[v - 1] == r) {
            out[r] = v - 1;
            continue;
        }
        out[r] = u - 1;
        for (c = v; c < u - 1; c++) {
            i64 rc = col_row[c];
            if ((col_color[c] == 0 && rc >= r) || (col_color[c] == 1 && rc <= r)) {
                out[r] = c;
                break;
            }
        }
    }
}

static void multiply_rec(i64 n, const i64 *a, const i64 *b, i64 *out, i64 *ws)
{
    i64 mid = n / 2, i, k, c, lo = 0, hi = mid;
    i64 *rows = ws, *cols = ws + n, *ca = ws + 2 * n, *cb = ws + 3 * n;
    i64 *cout = ws + 4 * n, *rest = ws + 5 * n;
    i64 *perm, *color, *col_row, *col_color;

    if (n == 1) {
        out[0] = 0;
        return;
    }
    /* Rows of P_A by column block, kept in row order. */
    for (i = 0; i < n; i++) {
        if (a[i] < mid) { rows[lo] = i; ca[lo++] = a[i]; }
        else { rows[hi] = i; ca[hi++] = a[i] - mid; }
    }
    /* Columns of P_B by row block, sorted, and each row's local rank. */
    for (k = 0; k < n; k++) rest[b[k]] = k < mid ? -1 : -2;
    lo = 0;
    hi = mid;
    for (c = 0; c < n; c++) {
        if (rest[c] == -1) { cols[lo] = c; rest[c] = lo++; }
        else { cols[hi] = c; rest[c] = hi++ - mid; }
    }
    for (k = 0; k < n; k++) cb[k] = rest[b[k]];

    multiply_rec(mid, ca, cb, cout, rest);
    multiply_rec(n - mid, ca + mid, cb + mid, cout + mid, rest);

    /* Expand both halves into one colored permutation (ca/cb are free). */
    perm = ca;
    color = cb;
    col_row = rest;
    col_color = rest + n;
    for (k = 0; k < n; k++) {
        i64 half = k < mid ? 0 : 1;
        i64 row = rows[k], col = cols[half * mid + cout[k]];
        perm[row] = col;
        color[row] = half;
        col_row[col] = row;
        col_color[col] = half;
    }
    staircase_merge(n, perm, color, col_row, col_color,
                    rest + 2 * n, rest + 3 * n + 1, out);
}

static int is_permutation(i64 n, const i64 *p, unsigned char *seen)
{
    i64 i;
    memset(seen, 0, (size_t)n);
    for (i = 0; i < n; i++) {
        if (p[i] < 0 || p[i] >= n || seen[p[i]]) return 0;
        seen[p[i]] = 1;
    }
    return 1;
}

int repro_seaweed_multiply(i64 n, const i64 *a, const i64 *b, i64 *out)
{
    unsigned char *seen;
    i64 *ws;
    int ok;

    if (n <= 0) return 0;
    seen = malloc((size_t)n);
    if (seen == NULL) return -1;
    ok = is_permutation(n, a, seen) && is_permutation(n, b, seen);
    free(seen);
    if (!ok) return -2;
    ws = malloc(sizeof(i64) * (size_t)(12 * n + 64));
    if (ws == NULL) return -1;
    multiply_rec(n, a, b, out, ws);
    free(ws);
    return 0;
}

int repro_patience_scores(i64 m, const i64 *values, i64 *scores)
{
    i64 x, y, k, len, p;
    i64 *tails = malloc(sizeof(i64) * (size_t)(m + 1));

    if (tails == NULL) return -1;
    for (x = 0; x <= m; x++) {
        len = 0;
        for (k = 0; k < m; k++) {
            i64 v = values[k], left = 0, right = len;
            if (v < x) continue;
            while (left < right) { /* bisect_left */
                i64 half = (left + right) / 2;
                if (tails[half] < v) left = half + 1;
                else right = half;
            }
            tails[left] = v;
            if (left == len) len++;
        }
        p = 0;
        for (y = 0; y <= m; y++) {
            while (p < len && tails[p] < y) p++;
            scores[x * (m + 1) + y] = p;
        }
    }
    free(tails);
    return 0;
}


/* Sentinel for "no chain reaches this corner"; _NEG_INF of aggregator.py. */
#define SWEEP_NEG_INF (-((i64)1 << 40))

/* Max segment tree over [lo, hi) whose range adds stay at the node they
 * cover: mx[node] is the maximum of the node's range, counting the adds
 * stored at the node and below it but not those of its ancestors. */
static void seg_build(i64 node, i64 lo, i64 hi, const i64 *v, i64 *mx, i64 *add)
{
    i64 mid;
    add[node] = 0;
    if (hi - lo == 1) {
        mx[node] = v[lo];
        return;
    }
    mid = (lo + hi) / 2;
    seg_build(2 * node, lo, mid, v, mx, add);
    seg_build(2 * node + 1, mid, hi, v, mx, add);
    mx[node] = mx[2 * node] > mx[2 * node + 1] ? mx[2 * node] : mx[2 * node + 1];
}

/* Add delta to every position of [lo, hi) below end. */
static void seg_add_prefix(i64 node, i64 lo, i64 hi, i64 end, i64 delta, i64 *mx, i64 *add)
{
    i64 mid;
    if (end <= lo) return;
    if (end >= hi) {
        mx[node] += delta;
        add[node] += delta;
        return;
    }
    mid = (lo + hi) / 2;
    seg_add_prefix(2 * node, lo, mid, end, delta, mx, add);
    seg_add_prefix(2 * node + 1, mid, hi, end, delta, mx, add);
    mx[node] = (mx[2 * node] > mx[2 * node + 1] ? mx[2 * node] : mx[2 * node + 1]) + add[node];
}

/* Maximum over the positions of [lo, hi) below end (end > lo). */
static i64 seg_max_prefix(i64 node, i64 lo, i64 hi, i64 end, const i64 *mx, const i64 *add)
{
    i64 mid, best, right;
    if (end >= hi) return mx[node];
    mid = (lo + hi) / 2;
    best = seg_max_prefix(2 * node, lo, mid, end, mx, add);
    if (end > mid) {
        right = seg_max_prefix(2 * node + 1, mid, hi, end, mx, add);
        if (right > best) best = right;
    }
    return best + add[node];
}

/*
 * D is rows x width (the corner scores D[r][v] of the parts before this
 * one); slots[p] is the global rank of the part's p-th key; row_to_col is
 * the part's s x s value-interval sub-permutation (-1 marks an empty row).
 * With K(p, q) = #{points (i, j) : i >= p, j < q}, every row becomes
 *
 *   H[q]  = max(NEG_INF, q + max_{p < q} (D[slots[p]] - p - K(p, q))),
 *   D'[v] = max(D[v], H[a(v)]),  a(v) = #{p : slots[p] < v}.
 *
 * The tree holds V[p] = D[slots[p]] - p - K(p, q) for the current q;
 * stepping q -> q + 1 adds the point in column q, which subtracts 1 from
 * V[0 .. its row].
 */
int repro_seam_sweep(i64 rows, i64 width, i64 *D, i64 s, const i64 *slots,
                     const i64 *row_to_col)
{
    i64 r, p, q, v, a, *ws, *col_row, *vals, *h, *mx, *add;

    if (s <= 0 || rows <= 0) return 0;
    for (p = 0; p < s; p++) {
        if (slots[p] < 0 || slots[p] >= width || (p > 0 && slots[p] <= slots[p - 1]))
            return -2;
        if (row_to_col[p] < -1 || row_to_col[p] >= s) return -2;
    }
    ws = malloc(sizeof(i64) * (size_t)(11 * s + 1));
    if (ws == NULL) return -1;
    col_row = ws;
    vals = ws + s;
    h = ws + 2 * s;
    mx = ws + 3 * s + 1;
    add = ws + 7 * s + 1;
    for (q = 0; q < s; q++) col_row[q] = -1;
    for (p = 0; p < s; p++) {
        i64 c = row_to_col[p];
        if (c < 0) continue;
        if (col_row[c] >= 0) {
            free(ws);
            return -2;
        }
        col_row[c] = p;
    }
    for (r = 0; r < rows; r++) {
        i64 *row = D + r * width;
        for (p = 0; p < s; p++) vals[p] = row[slots[p]] - p;
        seg_build(1, 0, s, vals, mx, add);
        h[0] = SWEEP_NEG_INF;
        for (q = 0; q < s; q++) {
            i64 best;
            if (col_row[q] >= 0) seg_add_prefix(1, 0, s, col_row[q] + 1, -1, mx, add);
            best = q + 1 + seg_max_prefix(1, 0, s, q + 1, mx, add);
            h[q + 1] = best > SWEEP_NEG_INF ? best : SWEEP_NEG_INF;
        }
        a = 0;
        for (v = 0; v < width; v++) {
            while (a < s && slots[a] < v) a++;
            if (h[a] > row[v]) row[v] = h[a];
        }
    }
    free(ws);
    return 0;
}
