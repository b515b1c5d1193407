/* The iteration kernel of the pruning-aware method: per row, the top-T
 * selection and then one fused pass over the entries.
 *
 * _kernels.py builds this file into an extension module on first
 * import and documents the kernel. Every operation is the float64
 * operation of the step-by-step reference in steps.py, in the same
 * order, so a row's outputs are bitwise the reference's. Build it
 * without -ffast-math and with -ffp-contract=off: a fused
 * multiply-add or a reassociated sum changes the last bits.
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
            nt += !r[i] & sign_match(x[i], g[i]);
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
        if (!oi & match) {
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

/* A C-contiguous buffer of ``count`` items of the struct format
 * ``format``; ``what`` names it in the error. */
static int get(PyObject *obj, Py_buffer *view, int writable,
               const char *format, Py_ssize_t itemsize, Py_ssize_t count,
               const char *what)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT
                | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    if (view->itemsize != itemsize || strchr(format, view->format[0]) == NULL
            || view->format[1] != '\0' || view->len != count * itemsize) {
        PyErr_Format(PyExc_TypeError,
                     "%s must be a C-contiguous array of %zd items of "
                     "format %s, got format %s and %zd bytes",
                     what, count, format, view->format, view->len);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

enum { N_BUFFERS = 11 };

static PyObject *iterate(PyObject *self, PyObject *args)
{
    PyObject *obj[N_BUFFERS];
    Py_ssize_t k, T;
    if (!PyArg_ParseTuple(args, "OOOOnnOOOOOOO", &obj[0], &obj[1], &obj[2],
                          &obj[3], &k, &T, &obj[4], &obj[5], &obj[6],
                          &obj[7], &obj[8], &obj[9], &obj[10]))
        return NULL;

    /* the shape (B, n) is X's */
    Py_buffer shape;
    if (PyObject_GetBuffer(obj[0], &shape, PyBUF_ND) < 0)
        return NULL;
    int ndim = shape.ndim;
    Py_ssize_t B = ndim == 2 ? shape.shape[0] : 0;
    Py_ssize_t n = ndim == 2 ? shape.shape[1] : 0;
    PyBuffer_Release(&shape);
    if (ndim != 2) {
        PyErr_Format(PyExc_ValueError, "X must be a (B, n) block, got %d "
                     "dimensions", ndim);
        return NULL;
    }
    if (T < 1 || T > n) {
        PyErr_Format(PyExc_ValueError, "T must be in [1, %zd], got %zd", n, T);
        return NULL;
    }

    static const char *what[N_BUFFERS] = {
        "X", "G", "W_opt_prev", "W_dec_prev", "rescale", "bound",
        "relevant_only", "the step block", "the mask block",
        "the statistics block", "the count block"};
    const char *format[N_BUFFERS] = {"d", "d", "d", "d", "?", "?", "?", "d",
                                     "?", "d", "lq"};
    Py_ssize_t itemsize[N_BUFFERS] = {8, 8, 8, 8, 1, 1, 1, 8, 1, 8, 8};
    Py_ssize_t count[N_BUFFERS] = {B * n, B * n, B * n, B * n, B, B, B,
                                   3 * B * n, 2 * B * n, 5 * B, 3 * B};
    Py_buffer view[N_BUFFERS];
    int got = 0;
    for (; got < N_BUFFERS; got++)
        if (get(obj[got], &view[got], got >= 7, format[got], itemsize[got],
                count[got], what[got]) < 0)
            break;

    PyObject *result = NULL;
    double *scratch = got == N_BUFFERS ? malloc(4 * n * sizeof(double))
                                       : NULL;
    if (got == N_BUFFERS && scratch == NULL)
        PyErr_NoMemory();
    if (scratch != NULL) {
        const double *X = view[0].buf, *G = view[1].buf,
                     *Wo = view[2].buf, *Wd = view[3].buf;
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
                       m + at, m + size + at, stats + b, cards + b, B,
                       scratch);
        }
        free(scratch);
        result = fail ? Py_BuildValue("nO", b - 1,
                                      fail == 1 ? Py_False : Py_True)
                      : Py_NewRef(Py_None);
    }
    for (int i = 0; i < got; i++)
        PyBuffer_Release(&view[i]);
    return result;
}

static PyMethodDef methods[] = {
    {"iterate", iterate, METH_VARARGS,
     "iterate(X, G, W_opt_prev, W_dec_prev, k, T, rescale, bound, "
     "relevant_only, steps, masks, stats, cards) -> None or (row, within)"},
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_ckernel",
                                    NULL, -1, methods};

PyMODINIT_FUNC PyInit__ckernel(void)
{
    return PyModule_Create(&module);
}
