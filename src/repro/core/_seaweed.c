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
 * repro_semilocal_build: the whole recursion of _build_recursive in
 * lis/semilocal.py (stable split, compaction of the index coordinates, dense
 * patience leaves, embedding, §4.1 padding, the ⊡ above and the strip) over
 * one workspace allocated per call.  Returns the root's row_to_col and the
 * number of ⊡ products it ran.
 *
 * repro_seam_sweep: one (max,+) step of the streaming seam sweep
 * (_sweep_one_part in streaming/aggregator.py), folding one cover part into
 * the corner-score rows in place.  K is derived from the part's row_to_col
 * as the column sweep goes, never read from a dense table: O(s log s + width)
 * per row with a lazy range-add / range-max segment tree.
 *
 * All arrays are C-contiguous int64.  Return codes: 0 ok, -1 out of memory,
 * -2 operand is malformed (not a permutation of 0..n-1 for the multiply;
 * repeated index coordinates for the build; slots not strictly increasing
 * inside the row, or row_to_col not a sub-permutation of s columns, for the
 * seam sweep).
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

/* Stable argsort: order[k] is the position of the k-th smallest key, equal
 * keys kept in position order (np.argsort(kind="stable")).  Bottom-up merge
 * sort; tmp holds m words. */
static void stable_argsort(i64 m, const i64 *key, i64 *order, i64 *tmp)
{
    i64 width, lo, k, *src = order, *dst = tmp, *swap;
    for (k = 0; k < m; k++) order[k] = k;
    for (width = 1; width < m; width *= 2) {
        for (lo = 0; lo < m; lo += 2 * width) {
            i64 mid = lo + width < m ? lo + width : m;
            i64 hi = lo + 2 * width < m ? lo + 2 * width : m;
            i64 i = lo, j = mid;
            for (k = lo; k < hi; k++) {
                if (i < mid && (j >= hi || key[src[i]] <= key[src[j]])) dst[k] = src[i++];
                else dst[k] = src[j++];
            }
        }
        swap = src;
        src = dst;
        dst = swap;
    }
    if (src != order) memcpy(order, src, sizeof(i64) * (size_t)m);
}

/* Dense leaf of _build_recursive (the _dense_block_matrix construction):
 * for every left endpoint x a patience pass over the block's values >= x
 * gives T(x, y) = #{tails < y}; the block matrix is the finite difference of
 * K = span - T.  seq holds the block's distinct global ranks in split order;
 * rtc gets the matrix over the block's compacted universe and sorted the
 * ranks in increasing order.  ws holds 4s + 3 words. */
static void build_leaf(i64 s, const i64 *seq, i64 *rtc, i64 *sorted, i64 *ws)
{
    i64 *compact = ws, *tails = ws + s, *cur = ws + 2 * s + 1, *next = ws + 3 * s + 2, *swap;
    i64 k, x, y;

    for (k = 0; k < s; k++) { /* insertion sort: s is at most the block size */
        i64 v = seq[k], j = k;
        while (j > 0 && sorted[j - 1] > v) { sorted[j] = sorted[j - 1]; j--; }
        sorted[j] = v;
    }
    for (k = 0; k < s; k++) {
        i64 left = 0, right = s;
        while (left < right) {
            i64 half = (left + right) / 2;
            if (sorted[half] < seq[k]) left = half + 1;
            else right = half;
        }
        compact[k] = left;
    }
    for (x = s; x >= 0; x--) {
        i64 len = 0, p = 0;
        for (k = 0; k < s; k++) {
            i64 v = compact[k], left = 0, right = len;
            if (v < x) continue;
            while (left < right) { /* bisect_left */
                i64 half = (left + right) / 2;
                if (tails[half] < v) left = half + 1;
                else right = half;
            }
            tails[left] = v;
            if (left == len) len++;
        }
        for (y = 0; y <= s; y++) {
            while (p < len && tails[p] < y) p++;
            cur[y] = p;
        }
        if (x < s) {
            /* Row x of the density of dist(x, y) = y > x ? (y - x) - T(x, y) : 0:
             * zero left of x, 1 - T(x, x + 1) at x, and the spans cancel
             * right of it. */
            rtc[x] = cur[x + 1] != 1 ? x : -1;
            for (y = x + 1; y < s; y++)
                if (cur[y] - cur[y + 1] + next[y + 1] - next[y] != 0) rtc[x] = y;
        }
        swap = cur;
        cur = next;
        next = swap;
    }
}

/* P_A ⊡ P_B for s x s sub-permutations (row_to_col, -1 = empty row): pad
 * both to full permutations (§4.1, pad_to_permutations), multiply, strip
 * the padding (strip_padding).  ws holds 18s + 64 words. */
static void multiply_sub(i64 s, const i64 *a, const i64 *b, i64 *out, i64 *ws)
{
    i64 *kept_rows = ws, *kept_cols = ws + s, *pa = ws + 2 * s, *pb = ws + 3 * s;
    i64 *tmp = ws + 4 * s, *prod = ws + 5 * s, *rest = ws + 6 * s;
    i64 r, c, k, n1 = 0, n3 = 0, next;

    for (c = 0; c < s; c++) tmp[c] = 0;
    for (r = 0; r < s; r++) {
        if (a[r] < 0) continue;
        kept_rows[n1++] = r;
        tmp[a[r]] = 1;
    }
    /* P_A gains s - n1 rows in front, covering its empty columns. */
    next = 0;
    for (c = 0; c < s; c++)
        if (!tmp[c]) pa[next++] = c;
    for (k = 0; k < n1; k++) pa[s - n1 + k] = a[kept_rows[k]];
    /* P_B gains s - n3 columns at the back, covering its empty rows. */
    for (c = 0; c < s; c++) tmp[c] = -1;
    for (r = 0; r < s; r++)
        if (b[r] >= 0) tmp[b[r]] = r;
    for (r = 0; r < s; r++) pb[r] = -1;
    for (c = 0; c < s; c++) {
        if (tmp[c] < 0) continue;
        kept_cols[n3] = c;
        pb[tmp[c]] = n3++;
    }
    next = n3;
    for (r = 0; r < s; r++)
        if (pb[r] < 0) pb[r] = next++;

    multiply_rec(s, pa, pb, prod, rest);
    for (r = 0; r < s; r++) out[r] = -1;
    for (r = s - n1; r < s; r++)
        if (prod[r] < n3) out[kept_rows[r - (s - n1)]] = kept_cols[prod[r]];
}

/* Workspace words build_node needs for a block of s elements. */
static i64 build_need(i64 s, i64 dense)
{
    i64 mid = s / 2, left, right, merge = 21 * s + 64;
    if (s <= 1 || s <= dense) return 4 * s + 3;
    left = build_need(mid, dense);
    right = build_need(s - mid, dense);
    if (right > left) left = right;
    return 2 * s + (left > merge ? left : merge);
}

/* One node of _build_recursive: the block seq[0..s) (distinct global ranks
 * in split order) is halved in split order, both halves are built, embedded
 * into the block's compacted universe through the merge of their sorted
 * ranks (embed_into_universe) and multiplied. */
static void build_node(i64 s, const i64 *seq, i64 dense, i64 *rtc, i64 *sorted,
                       i64 *ws, i64 *products)
{
    i64 mid = s / 2, s2 = s - mid, i, j, k;
    i64 *rtc1 = ws, *sorted1 = ws + mid, *rtc2 = ws + 2 * mid, *sorted2 = ws + 2 * mid + s2;
    i64 *rest = ws + 2 * s, *slots1 = rest, *slots2 = rest + mid;
    i64 *ea = rest + s, *eb = rest + 2 * s;

    if (s <= 1 || s <= dense) {
        build_leaf(s, seq, rtc, sorted, ws);
        return;
    }
    build_node(mid, seq, dense, rtc1, sorted1, rest, products);
    build_node(s2, seq + mid, dense, rtc2, sorted2, rest, products);
    i = j = 0;
    for (k = 0; k < s; k++) {
        if (j >= s2 || (i < mid && sorted1[i] < sorted2[j])) {
            slots1[i] = k;
            sorted[k] = sorted1[i++];
        } else {
            slots2[j] = k;
            sorted[k] = sorted2[j++];
        }
    }
    /* Each half's points move through its slots; the other half's
     * coordinates get diagonal points. */
    for (i = 0; i < mid; i++) {
        ea[slots1[i]] = rtc1[i] < 0 ? -1 : slots1[rtc1[i]];
        eb[slots1[i]] = slots1[i];
    }
    for (j = 0; j < s2; j++) {
        ea[slots2[j]] = slots2[j];
        eb[slots2[j]] = rtc2[j] < 0 ? -1 : slots2[rtc2[j]];
    }
    multiply_sub(s, ea, eb, rtc, rest + 3 * s);
    (*products)++;
}

int repro_semilocal_build(i64 m, const i64 *split, const i64 *index, i64 dense,
                          i64 *out, i64 *products)
{
    i64 k, *ws, *order, *tmp, *by_index, *seq, *sorted;

    *products = 0;
    if (m <= 0) return 0;
    ws = malloc(sizeof(i64) * (size_t)(5 * m + build_need(m, dense)));
    if (ws == NULL) return -1;
    order = ws;
    tmp = ws + m;
    by_index = ws + 2 * m;
    seq = ws + 3 * m;
    sorted = ws + 4 * m;
    /* Compact the index coordinates to ranks 0..m-1; they must be distinct. */
    stable_argsort(m, index, by_index, tmp);
    for (k = 1; k < m; k++) {
        if (index[by_index[k]] == index[by_index[k - 1]]) {
            free(ws);
            return -2;
        }
    }
    for (k = 0; k < m; k++) tmp[by_index[k]] = k;
    stable_argsort(m, split, order, by_index);
    for (k = 0; k < m; k++) seq[k] = tmp[order[k]];
    build_node(m, seq, dense, out, sorted, ws + 5 * m, products);
    free(ws);
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
