/* The compiled kernels: the iteration of the pruning-aware method and
 * the Frank-Wolfe step, per row, on one top-T selection; and the block
 * products of the problem families' oracles.
 *
 * _kernels.py builds this file into an extension module on first
 * import and documents the kernels. Every operation of the steps is the
 * float64 operation of the step-by-step reference (steps.py for the
 * pruning-aware method, the numpy Frank-Wolfe step in
 * tests/test_baselines.py), in the same order, so a row's outputs are
 * bitwise the reference's. Each product has one fixed order of its own,
 * the same on every ISA path. Build it without -ffast-math and with
 * -ffp-contract=off: a fused multiply-add or a reassociated sum changes
 * the last bits.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* numpy's float64 pairwise sum (Higham, SIAM J. Sci. Comput. 1993):
 * 8 accumulators up to 128 entries, halved at a multiple of 8 above. */
static double pairwise(const double *a, Py_ssize_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (Py_ssize_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        Py_ssize_t i;
        for (i = 0; i < 8; i++)
            r[i] = a[i];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                     + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    Py_ssize_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

/* a.sum() of a 1-D float64 array: the reduction starts from 0.0 */
static double sum(const double *a, Py_ssize_t n)
{
    return 0.0 + pairwise(a, n);
}

/* The T-th largest |g_i|, the value np.partition puts at n - T. The
 * bits of a nonnegative double order as its value does, with NaN after
 * +inf as np.partition puts it, so the selection compares integers. It
 * is a quickselect whose partitions write every key to both sides and
 * keep it where it belongs, without a branch on the data; ``keys``
 * holds 3n. */
static double threshold(const double *g, Py_ssize_t n, Py_ssize_t T,
                        uint64_t *keys)
{
    uint64_t *a = keys, *lo = keys + n, *hi = keys + 2 * n;
    for (Py_ssize_t i = 0; i < n; i++) {
        double v = fabs(g[i]);
        memcpy(&a[i], &v, sizeof v);
    }
    Py_ssize_t m = n, k = n - T;
    uint64_t p = a[0];
    while (m > 1) {
        /* the median of the first, middle and last keys */
        uint64_t u = a[0], v = a[m / 2], w = a[m - 1];
        uint64_t small = u < v ? u : v, large = u < v ? v : u;
        p = w < small ? small : w > large ? large : w;
        Py_ssize_t below = 0, above = 0;
        for (Py_ssize_t i = 0; i < m; i++) {
            uint64_t key = a[i];
            lo[below] = key;
            below += key < p;
            hi[above] = key;
            above += key > p;
        }
        uint64_t *free_ = a;
        if (k < below) {
            a = lo;
            lo = free_;
            m = below;
        } else if (k >= m - above) {
            k -= m - above;
            a = hi;
            hi = free_;
            m = above;
        } else {
            break;
        }
        p = a[0];
    }
    double thr;
    memcpy(&thr, &p, sizeof thr);
    return thr;
}

/* steps.relevant_mask: the T largest |g_i|, the first of those level
 * with the threshold in index order */
static void relevant(const double *g, Py_ssize_t n, Py_ssize_t T,
                     uint64_t *scratch, char *r)
{
    double thr = threshold(g, n, T, scratch);
    Py_ssize_t short_ = T, ties = 0;
    for (Py_ssize_t i = 0; i < n; i++)
        short_ -= fabs(g[i]) > thr;
    for (Py_ssize_t i = 0; i < n; i++) {
        int tie = fabs(g[i]) == thr;
        ties += tie;
        r[i] = (char)((fabs(g[i]) > thr) | (tie & (ties <= short_)));
    }
}

/* -v as numpy's negative computes it, a flip of the sign bit: the
 * compiler may rewrite a plain -v + w as w - v, which leaves the sign
 * of a NaN v as it was */
static double negative(double v)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    bits ^= UINT64_C(1) << 63;
    memcpy(&v, &bits, sizeof v);
    return v;
}

static int sign_match(double x, double g)
{
    return ((x > 0.0) & (g > 0.0)) | ((x < 0.0) & (g < 0.0));
}

/* One row: the outputs of _kernels.iterate at row b. Returns 0, or
 * 1 if the step exceeds its limit, 2 if it is not a descent direction
 * (the first of the two that fails). */
static int row(Py_ssize_t n, Py_ssize_t T, double kp1, int rescale,
               int bound, int relevant_only,
               const double *x, const double *g, const double *wo_prev,
               const double *wd_prev, double *s, double *wo, double *wd,
               char *o, char *r, double *stats, int64_t *cards,
               Py_ssize_t B, double *scratch)
{
    double *buf[4] = {scratch, scratch + n, scratch + 2 * n, scratch + 3 * n};

    relevant(g, n, T, (uint64_t *)scratch, r);

    /* the rescaled lower bound: ||g_R|| over ||x_S~||, S~ the
     * sign-matched entries off R, each compacted in index order; 1 when
     * the denominator is 0. The sets differ from entry to entry at
     * random, so the loops here and below test them without branches
     * where they can: a mispredicted branch costs more than the work. */
    double factor = 1.0;
    if (rescale) {
        Py_ssize_t nr = 0, nt = 0;
        for (Py_ssize_t i = 0; i < n; i++) {
            buf[0][nr] = g[i] * g[i];
            nr += r[i];
            buf[1][nt] = x[i] * x[i];
            nt += (!r[i]) & sign_match(x[i], g[i]);
        }
        double num = sqrt(sum(buf[0], nr));
        double denom = sqrt(sum(buf[1], nt));
        if (denom > 0.0)
            factor = num / denom;
    }

    int within = 1, descent = 1;
    int64_t card_O = 0;
    double max_abs_x = 0.0;
    for (Py_ssize_t i = 0; i < n; i++) {
        double xi = x[i], gi = g[i], ax = fabs(xi), g2 = gi * gi;
        double w_tent = sqrt(wo_prev[i] * wo_prev[i] + g2);
        int match = sign_match(xi, gi);
        double a = ax / kp1;
        if (rescale)
            a *= factor;
        double q = gi / w_tent, ratio = fabs(q);
        int oi = r[i] | (match & !relevant_only & (a <= ratio)
                         & (!bound | (ratio <= ax)));
        wo[i] = oi ? w_tent : wo_prev[i];
        wd[i] = oi ? wd_prev[i] : sqrt(wd_prev[i] * wd_prev[i] + xi * xi);
        double limit = ax / wd[i], s_dec = 0.0;
        if ((!oi) & match) {
            /* np.minimum: NaN if either is */
            double m = (a < limit) | (a != a) ? a : limit;
            s_dec = (xi > 0.0 ? -1.0 : 1.0) * m;
        }
        within &= fabs(s_dec) <= limit;
        descent &= gi * s_dec <= 0.0;
        s[i] = (oi ? negative(q) : 0.0) + s_dec;
        o[i] = (char)oi;
        card_O += oi;
        double gO2 = oi ? g2 : 0.0;
        buf[0][i] = gO2;
        buf[1][i] = gO2 / wo[i];
        buf[2][i] = oi ? q * q : 0.0;
        buf[3][i] = oi ? 0.0 : limit * limit;
        /* a NaN in x fails the row's check (its limit is NaN), so the
         * max of the rows that pass needs no NaN rule */
        if (ax > max_abs_x)
            max_abs_x = ax;
    }
    if (!within)
        return 1;
    if (!descent)
        return 2;
    stats[0] = sqrt(sum(buf[0], n));
    stats[B] = max_abs_x;
    stats[2 * B] = sum(buf[1], n);
    stats[3 * B] = sum(buf[2], n);
    stats[4 * B] = sum(buf[3], n);
    cards[0] = T;
    cards[B] = card_O - T;
    cards[2 * B] = n - card_O;
    return 0;
}

/* One row of the Frank-Wolfe direction d = v - x, v the vertex of the
 * T-support-norm ball of radius tau: v = -tau g_R / ||g_R|| on R and 0
 * off it, or 0 everywhere when g_R is 0. Writes ||g_R|| to ``norm_r``.
 * A norm below 1e-150 (squares that lose digits as subnormals) or not
 * finite (squares that overflow) is taken of g_R divided by its largest
 * magnitude first, and scaled back. Returns the size of R: T, or fewer
 * when g holds a NaN, which compares to nothing; then nothing is
 * written. ``scratch`` holds 3n items and n chars. */
static Py_ssize_t vertex(Py_ssize_t n, Py_ssize_t T, double tau,
                         const double *x, const double *g, double *d,
                         double *norm_r, uint64_t *scratch)
{
    char *r = (char *)(scratch + 3 * n);
    relevant(g, n, T, scratch, r);

    /* g_R and its indices, compacted in index order */
    double *gr = (double *)scratch, *sq = (double *)(scratch + n);
    Py_ssize_t *at = (Py_ssize_t *)(scratch + 2 * n), m = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        gr[m] = g[i];
        at[m] = i;
        m += r[i];
    }
    if (m != T)
        return m;
    for (Py_ssize_t j = 0; j < T; j++)
        sq[j] = gr[j] * gr[j];
    double norm = sqrt(sum(sq, T)), unit = norm;
    if (!((norm >= 1e-150) & (norm < INFINITY))) {
        /* np.max: NaN if any is */
        double scale = 0.0;
        for (Py_ssize_t j = 0; j < T; j++) {
            double a = fabs(gr[j]);
            scale = (a > scale) | (a != a) ? a : scale;
        }
        double div = scale != 0.0 ? scale : 1.0;
        for (Py_ssize_t j = 0; j < T; j++) {
            gr[j] /= div;
            sq[j] = gr[j] * gr[j];
        }
        unit = sqrt(sum(sq, T));
        norm = scale * unit;
    }
    *norm_r = norm;
    for (Py_ssize_t i = 0; i < n; i++)
        d[i] = 0.0 - x[i];
    if (unit != 0.0) {
        double ntau = negative(tau);
        for (Py_ssize_t j = 0; j < T; j++)
            d[at[j]] = ntau * gr[j] / unit - x[at[j]];
    }
    return m;
}

/* The Frank-Wolfe step size: 1/(k+1) at the linear rate; at the
 * rescaled one min(beta ||g_R|| / ||v - x||, 1), or 1 when v = x */
static double step_size(double kp1, int rescaled, double beta, double norm,
                        double diff)
{
    if (!rescaled)
        return 1.0 / kp1;
    if (diff == 0.0)
        return 1.0;
    double rate = beta * norm / diff;
    /* np.minimum: NaN if either is */
    return (rate < 1.0) | (rate != rate) ? rate : 1.0;
}

/* The block products: out[b] = M[slot[b]] @ X[b] and
 * out[b] = M[slot[b]].T @ R[b], each in one fixed order.
 *
 * A dot product of length n keeps 8 lanes, lane j the sum from 0.0 of
 * the j-th products of the 8-entry chunks in ascending order; then
 * ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7)), then the n mod 8
 * tail products in order. An entry of a transposed product is the sum
 * from 0.0 of its column's products over the rows in ascending order.
 *
 * The rows of a call are grouped by slot, so that each slot's matrix
 * is read once per call for all of its rows, in blocks of matrix rows
 * by vectors. Each ISA path has its own vector type and block sizes,
 * those that keep its accumulators in its registers. Every lane does
 * the same IEEE operation whatever the width and the blocks, so every
 * path gives the same bits, and so does a row whatever the other rows
 * of its call. A path's vectors stay inside its own functions: none is
 * passed to or returned from a function. */

/* vectors of 8, 4 and 2 doubles, loaded from and stored to any double */
typedef double v8 __attribute__((vector_size(64), aligned(8), may_alias));
typedef double v4 __attribute__((vector_size(32), aligned(8), may_alias));
typedef double v2 __attribute__((vector_size(16), aligned(8), may_alias));

#define INLINE static inline __attribute__((always_inline))

/* out[v] = M @ in[v] (matvec) or M.T @ in[v] (rmatvec) for the V
 * vectors of one slot's m x n matrix M */
typedef void slot_product(const double *M, Py_ssize_t m, Py_ssize_t n,
                          Py_ssize_t V, const double *const *in,
                          double *const *out);

/* ``op`` on the rows from ``row`` and every vector: blocks of VB
 * vectors, then one of the fewer left; the guards keep out the sizes
 * above VB, so that ``op`` is inlined with constant sizes only */
#define EACH_VECTOR(op, R, VB)                                          \
    do {                                                                \
        Py_ssize_t v = 0;                                               \
        for (; v + (VB) <= V; v += (VB))                                \
            op(M, n, row, R, VB, in + v, out + v);                      \
        switch (V - v) {                                                \
        case 3: if (3 < (VB)) op(M, n, row, R, 3, in + v, out + v);     \
                break;                                                  \
        case 2: if (2 < (VB)) op(M, n, row, R, 2, in + v, out + v);     \
                break;                                                  \
        case 1: if (1 < (VB)) op(M, n, row, R, 1, in + v, out + v);     \
                break;                                                  \
        }                                                               \
    } while (0)

/* ``op`` on every row of the m x n matrix M, RB rows at a time */
#define EACH_ROW(op, RB, VB)                                            \
    do {                                                                \
        Py_ssize_t row = 0;                                             \
        for (; row + (RB) <= m; row += (RB))                            \
            EACH_VECTOR(op, RB, VB);                                    \
        switch (m - row) {                                              \
        case 3: if (3 < (RB)) EACH_VECTOR(op, 3, VB); break;            \
        case 2: if (2 < (RB)) EACH_VECTOR(op, 2, VB); break;            \
        case 1: if (1 < (RB)) EACH_VECTOR(op, 1, VB); break;            \
        }                                                               \
    } while (0)

/* lane j of the accumulator of row r and vector v, W lanes a vector */
#define LANE(j) acc[r][v][(j) / W][(j) % W]

/* One path's products, matvec_<path> and rmatvec_<path>, on vectors of
 * type ``vec``: matvec in blocks of RB matrix rows by VB vectors, each
 * 8-lane accumulator 8 / W vectors; rmatvec in blocks of TRB rows by
 * TVB vectors. dots_<path> does one block of R <= RB rows by NV <= VB
 * vectors, axpys_<path> one of R <= TRB rows by NV <= TVB vectors. */
#define PRODUCTS(path, vec, RB, VB, TRB, TVB)                              \
INLINE void dots_##path(const double *M, Py_ssize_t n, Py_ssize_t row,      \
                        int R, int NV, const double *const *x,              \
                        double *const *out)                                 \
{                                                                           \
    enum { W = sizeof(vec) / sizeof(double), H = 8 / W };                   \
    vec acc[RB][VB][H], a[RB][H];                                           \
    for (int r = 0; r < R; r++)                                             \
        for (int v = 0; v < NV; v++)                                        \
            for (int h = 0; h < H; h++)                                     \
                acc[r][v][h] = (vec){0.0};                                  \
    Py_ssize_t n8 = n - n % 8;                                              \
    for (Py_ssize_t k = 0; k < n8; k += 8) {                                \
        for (int r = 0; r < R; r++)                                         \
            for (int h = 0; h < H; h++)                                     \
                a[r][h] = *(const vec *)(M + (row + r) * n + k + h * W);    \
        for (int v = 0; v < NV; v++)                                        \
            for (int h = 0; h < H; h++) {                                   \
                vec b = *(const vec *)(x[v] + k + h * W);                   \
                for (int r = 0; r < R; r++)                                 \
                    acc[r][v][h] += a[r][h] * b;                            \
            }                                                               \
    }                                                                       \
    for (int r = 0; r < R; r++) {                                           \
        const double *m = M + (row + r) * n;                                \
        for (int v = 0; v < NV; v++) {                                      \
            double s = ((LANE(0) + LANE(1)) + (LANE(2) + LANE(3)))          \
                       + ((LANE(4) + LANE(5)) + (LANE(6) + LANE(7)));       \
            for (Py_ssize_t k = n8; k < n; k++)                             \
                s += m[k] * x[v][k];                                        \
            out[v][row + r] = s;                                            \
        }                                                                   \
    }                                                                       \
}                                                                           \
                                                                            \
INLINE void axpys_##path(const double *M, Py_ssize_t n, Py_ssize_t row,     \
                         int R, int NV, const double *const *r,             \
                         double *const *out)                                \
{                                                                           \
    enum { W = sizeof(vec) / sizeof(double) };                              \
    const double *m[TRB];                                                   \
    vec c[TRB][TVB], a[TRB];                                                \
    for (int i = 0; i < R; i++) {                                           \
        m[i] = M + (row + i) * n;                                           \
        for (int v = 0; v < NV; v++)                                        \
            c[i][v] = (vec){0.0} + r[v][row + i];                           \
    }                                                                       \
    Py_ssize_t nw = n - n % W;                                              \
    for (Py_ssize_t k = 0; k < nw; k += W) {                                \
        for (int i = 0; i < R; i++)                                         \
            a[i] = *(const vec *)(m[i] + k);                                \
        for (int v = 0; v < NV; v++) {                                      \
            vec o = *(vec *)(out[v] + k);                                   \
            for (int i = 0; i < R; i++)                                     \
                o += a[i] * c[i][v];                                        \
            *(vec *)(out[v] + k) = o;                                       \
        }                                                                   \
    }                                                                       \
    for (Py_ssize_t k = nw; k < n; k++)                                     \
        for (int v = 0; v < NV; v++) {                                      \
            double s = out[v][k];                                           \
            for (int i = 0; i < R; i++)                                     \
                s += m[i][k] * r[v][row + i];                               \
            out[v][k] = s;                                                  \
        }                                                                   \
}                                                                           \
                                                                            \
static void matvec_##path(const double *M, Py_ssize_t m, Py_ssize_t n,      \
                          Py_ssize_t V, const double *const *in,            \
                          double *const *out)                               \
{                                                                           \
    EACH_ROW(dots_##path, RB, VB);                                          \
}                                                                           \
                                                                            \
static void rmatvec_##path(const double *M, Py_ssize_t m, Py_ssize_t n,     \
                           Py_ssize_t V, const double *const *in,           \
                           double *const *out)                              \
{                                                                           \
    for (Py_ssize_t v = 0; v < V; v++)                                      \
        memset(out[v], 0, n * sizeof(double));                              \
    EACH_ROW(axpys_##path, TRB, TVB);                                       \
}

/* The ISA paths, widest first, the order pick_path counts on. The
 * blocks are the fastest of those tried at the grids' shapes (20 x 200
 * to 700 x 200 and 500 x 5000, 1 to 7 vectors a slot). On AVX-512, 16
 * 8-lane accumulators fill half of its 32 registers. AVX2 and SSE2
 * have 16, so their dot products take one matrix row by 4 vectors (8
 * registers of accumulators) or by 3 (12). */
#if defined(__x86_64__)
#pragma GCC push_options
#pragma GCC target("avx512f")
PRODUCTS(avx512f, v8, 4, 4, 4, 4)
#pragma GCC pop_options
#pragma GCC push_options
#pragma GCC target("avx2")
PRODUCTS(avx2, v4, 1, 4, 4, 3)
#pragma GCC pop_options
#endif
PRODUCTS(default, v2, 1, 3, 4, 3)

static const struct path {
    const char *name;
    slot_product *matvec, *rmatvec;
} PATHS[] = {
#if defined(__x86_64__)
    {"avx512f", matvec_avx512f, rmatvec_avx512f},
    {"avx2", matvec_avx2, rmatvec_avx2},
#endif
    {"default", matvec_default, rmatvec_default},
};

/* The path the products run: the widest the CPU has, or the one a test
 * build names with -DISA_PATH='"<name>"' (the production build names
 * none). */
static const struct path *pick_path(void)
{
    const struct path *p = PATHS;
#ifdef ISA_PATH
    while (strcmp(p->name, ISA_PATH) != 0 && strcmp(p->name, "default") != 0)
        p++;
#elif defined(__x86_64__)
    __builtin_cpu_init();
    if (!__builtin_cpu_supports("avx512f"))
        p += __builtin_cpu_supports("avx2") ? 1 : 2;
#endif
    return p;
}

static const struct path *path;

/* The arguments of a C entry that are buffers: a C-contiguous buffer of
 * ``count`` items of a struct format among ``format``; ``what`` names
 * it in the error. */
struct spec {
    const char *what;
    const char *format;
    Py_ssize_t itemsize;
    Py_ssize_t count;
    int writable;
};

static int get(PyObject *obj, Py_buffer *view, const struct spec *spec)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT
                | (spec->writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    if (view->itemsize != spec->itemsize
            || strchr(spec->format, view->format[0]) == NULL
            || view->format[1] != '\0'
            || view->len != spec->count * spec->itemsize) {
        PyErr_Format(PyExc_TypeError,
                     "%s must be a C-contiguous array of %zd items of "
                     "format %s, got format %s and %zd bytes",
                     spec->what, spec->count, spec->format, view->format,
                     view->len);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

static void release(Py_buffer *view, int m)
{
    for (int i = 0; i < m; i++)
        PyBuffer_Release(&view[i]);
}

/* get() for each of ``m`` buffers, all or none, before any is written */
static int get_all(PyObject **obj, Py_buffer *view, const struct spec *spec,
                   int m)
{
    for (int i = 0; i < m; i++)
        if (get(obj[i], &view[i], &spec[i]) < 0) {
            release(view, i);
            return -1;
        }
    return 0;
}

/* The shape of ``obj``, which must have ``ndim`` dimensions; ``what``
 * names it in the error */
static int dims(PyObject *obj, const char *what, int ndim, Py_ssize_t *shape)
{
    Py_buffer view;
    if (PyObject_GetBuffer(obj, &view, PyBUF_ND) < 0)
        return -1;
    int got = view.ndim;
    for (int i = 0; i < ndim && got == ndim; i++)
        shape[i] = view.shape[i];
    PyBuffer_Release(&view);
    if (got != ndim) {
        PyErr_Format(PyExc_ValueError, "%s must have %d dimensions, got %d",
                     what, ndim, got);
        return -1;
    }
    return 0;
}

/* The shape (B, n) of the block X */
static int block_shape(PyObject *X, Py_ssize_t *B, Py_ssize_t *n)
{
    Py_ssize_t shape[2];
    if (dims(X, "X", 2, shape) < 0)
        return -1;
    *B = shape[0];
    *n = shape[1];
    return 0;
}

/* The shape of X, and a check of T against it */
static int block_shape_T(PyObject *X, Py_ssize_t T, Py_ssize_t *B,
                         Py_ssize_t *n)
{
    if (block_shape(X, B, n) < 0)
        return -1;
    if (T < 1 || T > *n) {
        PyErr_Format(PyExc_ValueError, "T must be in [1, %zd], got %zd", *n,
                     T);
        return -1;
    }
    return 0;
}

enum { N_ITERATE = 11, N_VERTEX = 5, N_MOVE = 7, N_PRODUCT = 4 };

static PyObject *iterate(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *obj[N_ITERATE];
    Py_ssize_t k, T, B, n;
    if (!PyArg_ParseTuple(args, "OOOOnnOOOOOOO", &obj[0], &obj[1], &obj[2],
                          &obj[3], &k, &T, &obj[4], &obj[5], &obj[6],
                          &obj[7], &obj[8], &obj[9], &obj[10])
            || block_shape_T(obj[0], T, &B, &n) < 0)
        return NULL;
    const struct spec spec[N_ITERATE] = {
        {"X", "d", 8, B * n, 0}, {"G", "d", 8, B * n, 0},
        {"W_opt_prev", "d", 8, B * n, 0}, {"W_dec_prev", "d", 8, B * n, 0},
        {"rescale", "?", 1, B, 0}, {"bound", "?", 1, B, 0},
        {"relevant_only", "?", 1, B, 0},
        {"the step block", "d", 8, 3 * B * n, 1},
        {"the mask block", "?", 1, 2 * B * n, 1},
        {"the statistics block", "d", 8, 5 * B, 1},
        {"the count block", "lq", 8, 3 * B, 1}};
    Py_buffer view[N_ITERATE];
    if (get_all(obj, view, spec, N_ITERATE) < 0)
        return NULL;
    double *scratch = malloc(4 * n * sizeof(double));
    if (scratch == NULL) {
        release(view, N_ITERATE);
        return PyErr_NoMemory();
    }
    const double *X = view[0].buf, *G = view[1].buf, *Wo = view[2].buf,
                 *Wd = view[3].buf;
    const char *rescale = view[4].buf, *bound = view[5].buf,
               *relevant_only = view[6].buf;
    double *f = view[7].buf, *stats = view[9].buf;
    char *m = view[8].buf;
    int64_t *cards = view[10].buf;
    Py_ssize_t size = B * n;
    double kp1 = (double)(k + 1);
    int fail = 0;
    Py_ssize_t b = 0;
    for (; b < B && !fail; b++) {
        Py_ssize_t at = b * n;
        fail = row(n, T, kp1, rescale[b], bound[b], relevant_only[b],
                   X + at, G + at, Wo + at, Wd + at,
                   f + at, f + size + at, f + 2 * size + at,
                   m + at, m + size + at, stats + b, cards + b, B, scratch);
    }
    free(scratch);
    release(view, N_ITERATE);
    return fail ? Py_BuildValue("nO", b - 1, fail == 1 ? Py_False : Py_True)
                : Py_NewRef(Py_None);
}

static PyObject *fw_vertex(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *obj[N_VERTEX];
    Py_ssize_t T, B, n;
    if (!PyArg_ParseTuple(args, "OOnOOO", &obj[0], &obj[1], &T, &obj[2],
                          &obj[3], &obj[4])
            || block_shape_T(obj[0], T, &B, &n) < 0)
        return NULL;
    const struct spec spec[N_VERTEX] = {
        {"X", "d", 8, B * n, 0}, {"G", "d", 8, B * n, 0},
        {"tau", "d", 8, B, 0}, {"the direction block", "d", 8, B * n, 1},
        {"the norm row", "d", 8, B, 1}};
    Py_buffer view[N_VERTEX];
    if (get_all(obj, view, spec, N_VERTEX) < 0)
        return NULL;
    uint64_t *scratch = malloc(3 * n * sizeof(uint64_t) + n);
    if (scratch == NULL) {
        release(view, N_VERTEX);
        return PyErr_NoMemory();
    }
    const double *X = view[0].buf, *G = view[1].buf, *tau = view[2].buf;
    double *D = view[3].buf, *norm = view[4].buf;
    Py_ssize_t b = 0, m = T;
    for (; b < B && m == T; b++)
        m = vertex(n, T, tau[b], X + b * n, G + b * n, D + b * n, norm + b,
                   scratch);
    free(scratch);
    release(view, N_VERTEX);
    if (m != T)
        return PyErr_Format(PyExc_ValueError, "row %zd of G has %zd "
                            "entries in its top %zd: it holds a NaN", b - 1,
                            m, T);
    Py_RETURN_NONE;
}

static PyObject *fw_move(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *obj[N_MOVE];
    Py_ssize_t k, B, n;
    if (!PyArg_ParseTuple(args, "OOnOOOOO", &obj[0], &obj[1], &k, &obj[2],
                          &obj[3], &obj[4], &obj[5], &obj[6])
            || block_shape(obj[0], &B, &n) < 0)
        return NULL;
    const struct spec spec[N_MOVE] = {
        {"X", "d", 8, B * n, 0}, {"D", "d", 8, B * n, 0},
        {"diff", "d", 8, B, 0}, {"norm_r", "d", 8, B, 0},
        {"rescaled", "?", 1, B, 0}, {"beta", "d", 8, B, 0},
        {"the iterate block", "d", 8, B * n, 1}};
    Py_buffer view[N_MOVE];
    if (get_all(obj, view, spec, N_MOVE) < 0)
        return NULL;
    const double *X = view[0].buf, *D = view[1].buf, *diff = view[2].buf,
                 *norm = view[3].buf, *beta = view[5].buf;
    const char *rescaled = view[4].buf;
    double *out = view[6].buf, kp1 = (double)(k + 1);
    for (Py_ssize_t b = 0; b < B; b++) {
        double eta = step_size(kp1, rescaled[b], beta[b], norm[b], diff[b]);
        for (Py_ssize_t i = b * n; i < (b + 1) * n; i++)
            out[i] = X[i] + eta * D[i];
    }
    release(view, N_MOVE);
    Py_RETURN_NONE;
}

/* matvec and rmatvec: out[b] = M[slot[b]] @ X[b], or M[slot[b]].T @ X[b]
 * when ``transposed``. Every argument and slot is checked before any
 * write. */
static PyObject *product(PyObject *args, int transposed)
{
    PyObject *obj[N_PRODUCT];
    Py_ssize_t shape[3], block[2];
    const char *name = transposed ? "R" : "X";
    if (!PyArg_ParseTuple(args, "OOOO", &obj[0], &obj[1], &obj[2], &obj[3])
            || dims(obj[0], "M", 3, shape) < 0
            || dims(obj[1], name, 2, block) < 0)
        return NULL;
    Py_ssize_t S = shape[0], m = shape[1], n = shape[2], B = block[0];
    Py_ssize_t len_in = transposed ? m : n, len_out = transposed ? n : m;
    if (block[1] != len_in)
        return PyErr_Format(PyExc_ValueError, "%s must have %zd columns, "
                            "got %zd", name, len_in, block[1]);
    const struct spec spec[N_PRODUCT] = {
        {"M", "d", 8, S * m * n, 0}, {name, "d", 8, B * len_in, 0},
        {"slot", "lq", 8, B, 0}, {"out", "d", 8, B * len_out, 1}};
    Py_buffer view[N_PRODUCT];
    if (get_all(obj, view, spec, N_PRODUCT) < 0)
        return NULL;
    const double *M = view[0].buf, *X = view[1].buf;
    const int64_t *slot = view[2].buf;
    double *out = view[3].buf;
    for (Py_ssize_t b = 0; b < B; b++)
        if (slot[b] < 0 || slot[b] >= S) {
            release(view, N_PRODUCT);
            return PyErr_Format(PyExc_ValueError, "slot[%zd] is %lld, "
                                "outside [0, %zd)", b, (long long)slot[b],
                                S);
        }
    /* the rows of each slot in order; end[s] ends up where slot s ends.
     * B + 1 pointers: a request of 0 bytes may return NULL */
    Py_ssize_t *end = calloc(S + 1, sizeof *end);
    const double **in = malloc((B + 1) * sizeof *in);
    double **to = malloc((B + 1) * sizeof *to);
    if (end == NULL || in == NULL || to == NULL) {
        free(end);
        free(in);
        free(to);
        release(view, N_PRODUCT);
        return PyErr_NoMemory();
    }
    for (Py_ssize_t b = 0; b < B; b++)
        end[slot[b] + 1]++;
    for (Py_ssize_t s = 0; s < S; s++)
        end[s + 1] += end[s];
    for (Py_ssize_t b = 0; b < B; b++) {
        Py_ssize_t at = end[slot[b]]++;
        in[at] = X + b * len_in;
        to[at] = out + b * len_out;
    }
    for (Py_ssize_t s = 0, lo = 0; s < S; lo = end[s++]) {
        if (end[s] == lo)
            continue;
        if (transposed)
            path->rmatvec(M + s * m * n, m, n, end[s] - lo, in + lo, to + lo);
        else
            path->matvec(M + s * m * n, m, n, end[s] - lo, in + lo, to + lo);
    }
    free(end);
    free(in);
    free(to);
    release(view, N_PRODUCT);
    Py_RETURN_NONE;
}

static PyObject *matvec(PyObject *Py_UNUSED(self), PyObject *args)
{
    return product(args, 0);
}

static PyObject *rmatvec(PyObject *Py_UNUSED(self), PyObject *args)
{
    return product(args, 1);
}

static PyMethodDef methods[] = {
    {"iterate", iterate, METH_VARARGS,
     "iterate(X, G, W_opt_prev, W_dec_prev, k, T, rescale, bound, "
     "relevant_only, steps, masks, stats, cards) -> None or (row, within)"},
    {"fw_vertex", fw_vertex, METH_VARARGS,
     "fw_vertex(X, G, T, tau, D, norm_r) -> None"},
    {"fw_move", fw_move, METH_VARARGS,
     "fw_move(X, D, k, diff, norm_r, rescaled, beta, X_next) -> None"},
    {"matvec", matvec, METH_VARARGS,
     "matvec(M, X, slot, out) -> None: out[b] = M[slot[b]] @ X[b]"},
    {"rmatvec", rmatvec, METH_VARARGS,
     "rmatvec(M, R, slot, out) -> None: out[b] = M[slot[b]].T @ R[b]"},
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_ckernel", NULL,
                                    -1, methods, NULL, NULL, NULL, NULL};

PyMODINIT_FUNC PyInit__ckernel(void)
{
    path = pick_path();
    PyObject *mod = PyModule_Create(&module);
    if (mod != NULL && PyModule_AddStringConstant(mod, "isa_path",
                                                  path->name) < 0)
        Py_CLEAR(mod);
    return mod;
}
