/* Compiled kernels; same contract as the pure fallback in _fallback.py.

   Arguments are positional only (METH_FASTCALL, one count check per
   kernel). Matrices arrive as flat row-major sequences of non-negative
   ints, words as parallel letter/sign sequences; every value is held as
   an int64_t. Each kernel checks its inputs before it reads them: a
   sequence of the wrong length, a negative size or entry, a letter
   outside [0, nl) or a sign other than +1 or -1 raises ValueError, and an
   input whose sums could overflow int64_t raises OverflowError. The
   interval DP and the pairing enumeration share no values, so the
   enumeration stays the oracle of the DP. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define C_INF ((int64_t)1 << 30)

/* Whether a kernel got its want positional arguments; -1 with TypeError
   set if not. Without METH_KEYWORDS, CPython refuses keywords itself. */
static int
check_nargs(const char *fname, Py_ssize_t want, Py_ssize_t nargs)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd positional arguments (%zd given)",
                 fname, want, nargs);
    return -1;
}

/* A non-negative int argument that fits a Py_ssize_t. */
static int
size_arg(PyObject *obj, const char *name, Py_ssize_t *out)
{
    Py_ssize_t v = PyNumber_AsSsize_t(obj, PyExc_OverflowError);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (v < 0) {
        PyErr_Format(PyExc_ValueError, "%s must be non-negative, got %zd", name, v);
        return -1;
    }
    *out = v;
    return 0;
}

/* count int64_t slots from the Python allocator, so that the debug
   allocator guards them; never a zero-byte request. NULL with
   MemoryError set on failure. */
static int64_t *
alloc_ints(Py_ssize_t count)
{
    int64_t *out;
    if (count < 1)
        count = 1;
    if ((size_t)count > PY_SSIZE_T_MAX / sizeof(int64_t))
        return (int64_t *)PyErr_NoMemory();
    out = PyMem_Malloc((size_t)count * sizeof(int64_t));
    if (out == NULL)
        PyErr_NoMemory();
    return out;
}

/* Copy the ints of seq into out, which has room for want of them; each
   must lie in [lo, hi]. *max, when asked for, gets the largest (lo when
   there are none). -1 with an exception set on failure. */
static int
read_ints(PyObject *seq, const char *name, Py_ssize_t want, int64_t lo,
          int64_t hi, int64_t *out, int64_t *max)
{
    PyObject *fast = PySequence_Fast(seq, name), **items;
    Py_ssize_t i, len;
    long long v;
    int64_t top = lo;
    if (fast == NULL)
        return -1;
    len = PySequence_Fast_GET_SIZE(fast);
    if (len != want) {
        PyErr_Format(PyExc_ValueError, "%s has %zd entries, expected %zd",
                     name, len, want);
        goto fail;
    }
    items = PySequence_Fast_ITEMS(fast);
    for (i = 0; i < len; i++) {
        /* ints only: converting anything else could run Python code that
           resizes the sequence under items */
        if (!PyLong_Check(items[i])) {
            PyErr_Format(PyExc_TypeError, "%s entry %zd is not an int", name, i);
            goto fail;
        }
        v = PyLong_AsLongLong(items[i]);
        if (v == -1 && PyErr_Occurred())
            goto fail;
        if (v < lo || v > hi) {
            PyErr_Format(PyExc_ValueError, "%s entry %zd is %lld, outside [%lld, %lld]",
                         name, i, v, (long long)lo, (long long)hi);
            goto fail;
        }
        out[i] = v;
        if (v > top)
            top = v;
    }
    Py_DECREF(fast);
    if (max != NULL)
        *max = top;
    return 0;
fail:
    Py_DECREF(fast);
    return -1;
}

/* A fresh buffer holding the n*n non-negative entries of seq. */
static int64_t *
read_square(PyObject *seq, const char *name, Py_ssize_t n, int64_t *max)
{
    int64_t *out;
    if (n > 0 && n > PY_SSIZE_T_MAX / n) {
        PyErr_Format(PyExc_ValueError, "%s cannot hold %zd * %zd entries", name, n, n);
        return NULL;
    }
    out = alloc_ints(n * n);
    if (out != NULL && read_ints(seq, name, n * n, 0, INT64_MAX, out, max) < 0) {
        PyMem_Free(out);
        return NULL;
    }
    return out;
}

/* Whether a sum of `terms` values, each at most max, fits an int64_t. */
static int
check_sums(int64_t max, int64_t terms)
{
    if (terms <= 1 || max <= INT64_MAX / terms)
        return 0;
    PyErr_Format(PyExc_OverflowError, "%lld terms of up to %lld could overflow a 64-bit sum",
                 (long long)terms, (long long)max);
    return -1;
}

/* The front of the three matrix kernels: n, cap and the n*n entries of
   each of the nmat arguments between them, named by names. */
static int
read_matrices(const char *fname, const char *const *names, Py_ssize_t nmat,
              PyObject *const *args, Py_ssize_t nargs, Py_ssize_t *n,
              Py_ssize_t *cap, int64_t **mats, int64_t *max)
{
    int64_t top;
    Py_ssize_t i;
    for (i = 0; i < nmat; i++)
        mats[i] = NULL;
    if (check_nargs(fname, nmat + 2, nargs) < 0 ||
            size_arg(args[0], "n", n) < 0 || size_arg(args[nmat + 1], "cap", cap) < 0)
        return -1;
    *max = 0;
    for (i = 0; i < nmat; i++) {
        if ((mats[i] = read_square(args[i + 1], names[i], *n, &top)) == NULL)
            return -1;
        if (top > *max)
            *max = top;
    }
    return 0;
}

PyDoc_STRVAR(minplus_product_doc,
"minplus_product($module, n, f, g, cap, /)\n--\n\n"
"Entrywise min over z of min(f[x][z] + g[z][y], cap).");

static PyObject *
minplus_product(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    static const char *const names[] = {"f", "g"};
    Py_ssize_t n, cap, x, y, z;
    PyObject *out = NULL, *item;
    int64_t *m[2], *f, *g, max, best, s;
    if (read_matrices("minplus_product", names, 2, args, nargs, &n, &cap, m, &max) < 0 ||
            check_sums(max, 2) < 0 || (out = PyList_New(n * n)) == NULL)
        goto done;
    f = m[0];
    g = m[1];
    for (x = 0; x < n; x++) {
        for (y = 0; y < n; y++) {
            best = cap;
            for (z = 0; z < n; z++) {
                s = f[x * n + z] + g[z * n + y];
                if (s > cap)
                    s = cap;
                if (s < best)
                    best = s;
            }
            if ((item = PyLong_FromLongLong(best)) == NULL) {
                Py_CLEAR(out);
                goto done;
            }
            PyList_SET_ITEM(out, x * n + y, item);
        }
    }
done:
    PyMem_Free(m[0]);
    PyMem_Free(m[1]);
    return out;
}

/* |a - b| <= dyz <= a + b: two values of a Katetov function at two
   points dyz apart. */
static int
katetov_triangle(int64_t a, int64_t b, int64_t dyz)
{
    return (a > b ? a - b : b - a) <= dyz && dyz <= a + b;
}

PyDoc_STRVAR(is_bikatetov_doc,
"is_bikatetov($module, n, f, d, cap, /)\n--\n\n"
"Rows and columns of f are both Katetov on (range(n), d).");

static PyObject *
is_bikatetov(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    static const char *const names[] = {"f", "d"};
    Py_ssize_t n, cap, x, y, z;
    PyObject *out = NULL;
    int64_t *m[2], *f, *d, max;
    int ok = 1;
    if (read_matrices("is_bikatetov", names, 2, args, nargs, &n, &cap, m, &max) < 0 ||
            check_sums(max, 2) < 0)
        goto done;
    f = m[0];
    d = m[1];
    for (x = 0; x < n && ok; x++) {
        for (y = 0; y < n && ok; y++) {
            for (z = y + 1; z < n; z++) {
                if (!katetov_triangle(f[x * n + y], f[x * n + z], d[y * n + z]) ||
                        !katetov_triangle(f[y * n + x], f[z * n + x], d[y * n + z])) {
                    ok = 0;
                    break;
                }
            }
        }
    }
    out = PyBool_FromLong(ok);
done:
    PyMem_Free(m[0]);
    PyMem_Free(m[1]);
    return out;
}

PyDoc_STRVAR(floyd_warshall_capped_doc,
"floyd_warshall_capped($module, n, w, cap, /)\n--\n\n"
"All-pairs shortest chains with saturating addition at cap; INF marks\n"
"a missing edge and survives as unreachable.");

static PyObject *
floyd_warshall_capped(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    static const char *const names[] = {"w"};
    Py_ssize_t n, cap, i, j, k;
    PyObject *out = NULL;
    int64_t *dist, max, dik, dkj, s;
    /* only entries below INF are ever added, so no sum can overflow */
    if (read_matrices("floyd_warshall_capped", names, 1, args, nargs,
                      &n, &cap, &dist, &max) < 0)
        goto done;
    for (i = 0; i < n; i++)
        dist[i * n + i] = 0;
    for (k = 0; k < n; k++) {
        for (i = 0; i < n; i++) {
            dik = dist[i * n + k];
            if (dik >= C_INF)
                continue;
            for (j = 0; j < n; j++) {
                dkj = dist[k * n + j];
                if (dkj >= C_INF)
                    continue;
                s = dik + dkj;
                if (s > cap)
                    s = cap;
                if (s < dist[i * n + j])
                    dist[i * n + j] = s;
            }
        }
    }
    if ((out = PyList_New(n * n)) == NULL)
        goto done;
    for (i = 0; i < n * n; i++) {
        PyObject *item = PyLong_FromLongLong(dist[i]);
        if (item == NULL) {
            Py_CLEAR(out);
            break;
        }
        PyList_SET_ITEM(out, i, item);
    }
done:
    PyMem_Free(dist);
    return out;
}

/* Scratch for words of up to len symbols, carved from one allocation that
   the caller frees through table: the word, the DP table ((len+1)^2 slots
   used) and the frames of the pairing enumeration. */
typedef struct {
    int64_t *letters, *signs, *table;
    int64_t *choice, *depths, *accs, *tops, *below;
} Word;

static int
alloc_word(Word *w, Py_ssize_t len)
{
    int64_t **rows[] = {&w->letters, &w->signs, &w->choice, &w->depths,
                        &w->accs, &w->tops, &w->below};
    Py_ssize_t i, k = sizeof(rows) / sizeof(rows[0]), m = len + 2;
    if (m > (PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(int64_t)) / (m + k)) {
        PyErr_NoMemory();
        return -1;
    }
    if ((w->table = alloc_ints(m * (m + k))) == NULL)
        return -1;
    memset(w->table, 0, (size_t)(m * (m + k)) * sizeof(int64_t));
    for (i = 0; i < k; i++)
        *rows[i] = w->table + m * (m + i);
    return 0;
}

/* Interval dynamic program over the leftmost position. */
static int64_t
graev_dp(Py_ssize_t n, const Word *w, Py_ssize_t nl, const int64_t *dist,
         const int64_t *weights)
{
    const int64_t *letters = w->letters, *signs = w->signs;
    int64_t *table = w->table, li, best, c;
    Py_ssize_t span, i, j, m, row = n + 1;
    for (i = 0; i < row * row; i++)
        table[i] = 0;
    for (span = 1; span <= n; span++) {
        for (i = 0; i + span <= n; i++) {
            j = i + span;
            li = letters[i];
            best = weights[li] + table[(i + 1) * row + j];
            for (m = i + 1; m < j; m++) {
                if (signs[m] == -signs[i]) {
                    c = dist[li * nl + letters[m]]
                        + table[(i + 1) * row + m]
                        + table[(m + 1) * row + j];
                    if (c < best)
                        best = c;
                }
            }
            table[i * row + j] = best;
        }
    }
    return table[n];
}

/* Minimum Graev sum by explicit enumeration of every pairing.

   Positions are scanned left to right; each is skipped (pays its weight),
   closes the innermost open arc (pays the letter distance; opposite signs
   only), or opens a new arc. The open arcs form a linked stack, as in the
   pure graev_pairing_step: frame pos holds its next choice, its depth, its
   cost and its innermost open arc (tops[pos], -1 for none), and below[p]
   is the arc under the one opened at p. Only frame p writes below[p], and
   only the frames under it read it, so nothing is ever restored. The walk
   covers exactly the non-crossing pairings, one leaf per complete pairing,
   and the minimum is taken over leaves only, starting from the first one;
   no interval value is ever reused. */
static int64_t
graev_bf(Py_ssize_t n, const Word *w, Py_ssize_t nl, const int64_t *dist,
         const int64_t *weights)
{
    const int64_t *letters = w->letters, *signs = w->signs;
    int64_t *choice = w->choice, *depths = w->depths, *accs = w->accs;
    int64_t *tops = w->tops, *below = w->below;
    int64_t best = 0, acc, depth, top;
    Py_ssize_t pos = 0;
    int found = 0;
    choice[0] = 0;
    accs[0] = 0;
    depths[0] = 0;
    tops[0] = -1;
    while (pos >= 0) {
        if (pos == n) {
            if (depths[pos] == 0 && (!found || accs[pos] < best)) {
                best = accs[pos];
                found = 1;
            }
            pos--;
            continue;
        }
        depth = depths[pos];
        acc = accs[pos];
        top = tops[pos];
        /* every choice tried, or not enough room to close what is open */
        if (choice[pos] == 3 || n - pos < depth) {
            pos--;
            continue;
        }
        switch (choice[pos]++) {
        case 0:
            accs[pos + 1] = acc + weights[letters[pos]];
            depths[pos + 1] = depth;
            tops[pos + 1] = top;
            break;
        case 1:
            if (top < 0 || signs[pos] != -signs[top])
                continue;
            accs[pos + 1] = acc + dist[letters[top] * nl + letters[pos]];
            depths[pos + 1] = depth - 1;
            tops[pos + 1] = below[top];
            break;
        default:
            if (pos == n - 1)
                continue;
            below[pos] = top;
            accs[pos + 1] = acc;
            depths[pos + 1] = depth + 1;
            tops[pos + 1] = pos;
        }
        choice[++pos] = 0;
    }
    return best;
}

/* nl*nl distances and nl weights into fresh buffers, which the caller
   frees even on failure; *max gets the largest value of either. */
static int
read_alphabet(Py_ssize_t nl, PyObject *dobj, PyObject *wobj, int64_t **dist,
              int64_t **weights, int64_t *max)
{
    int64_t wmax;
    *weights = NULL;
    if ((*dist = read_square(dobj, "dist", nl, max)) == NULL ||
            (*weights = alloc_ints(nl)) == NULL ||
            read_ints(wobj, "weights", nl, 0, INT64_MAX, *weights, &wmax) < 0)
        return -1;
    if (wmax > *max)
        *max = wmax;
    return 0;
}

/* len letters in [0, nl) and len signs of +1 or -1 into w. */
static int
read_word(PyObject *lobj, PyObject *sobj, Py_ssize_t len, Py_ssize_t nl,
          Word *w, const char *lname, const char *sname)
{
    Py_ssize_t i;
    if (read_ints(lobj, lname, len, 0, nl - 1, w->letters, NULL) < 0 ||
            read_ints(sobj, sname, len, -1, 1, w->signs, NULL) < 0)
        return -1;
    for (i = 0; i < len; i++) {
        if (w->signs[i] == 0) {
            PyErr_Format(PyExc_ValueError, "%s entry %zd is 0, not +1 or -1", sname, i);
            return -1;
        }
    }
    return 0;
}

/* The two single-word kernels: the checked word and alphabet, then one
   route to the norm, graev_bf when bruteforce is set and graev_dp if not. */
static PyObject *
graev_norm(const char *fname, int bruteforce, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *out = NULL;
    Py_ssize_t n, nl;
    int64_t *dist = NULL, *weights = NULL, max;
    Word w;
    w.table = NULL;
    if (check_nargs(fname, 5, nargs) < 0 || size_arg(args[2], "nl", &nl) < 0 ||
            read_alphabet(nl, args[3], args[4], &dist, &weights, &max) < 0 ||
            (n = PyObject_Length(args[0])) < 0 || check_sums(max, n) < 0 ||
            alloc_word(&w, n) < 0 ||
            read_word(args[0], args[1], n, nl, &w, "letters", "signs") < 0)
        goto done;
    out = PyLong_FromLongLong(bruteforce ? graev_bf(n, &w, nl, dist, weights)
                                         : graev_dp(n, &w, nl, dist, weights));
done:
    PyMem_Free(w.table);
    PyMem_Free(dist);
    PyMem_Free(weights);
    return out;
}

PyDoc_STRVAR(graev_norm_dp_doc,
"graev_norm_dp($module, letters, signs, nl, dist, weights, /)\n--\n\n"
"Graev norm of the word by the interval dynamic program.");

static PyObject *
graev_norm_dp(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    return graev_norm("graev_norm_dp", 0, args, nargs);
}

PyDoc_STRVAR(graev_norm_bruteforce_doc,
"graev_norm_bruteforce($module, letters, signs, nl, dist, weights, /)\n--\n\n"
"Graev norm of the word by enumerating every non-crossing pairing.");

static PyObject *
graev_norm_bruteforce(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    return graev_norm("graev_norm_bruteforce", 1, args, nargs);
}

PyDoc_STRVAR(graev_agree_exhaustive_doc,
"graev_agree_exhaustive($module, nl, dist, weights, max_len, /)\n--\n\n"
"Check dp == bruteforce on every (letter, sign) sequence of length\n"
"<= max_len. Returns (words checked, mismatches).");

static PyObject *
graev_agree_exhaustive(PyObject *Py_UNUSED(self), PyObject *const *args,
                       Py_ssize_t nargs)
{
    PyObject *out = NULL;
    Py_ssize_t nl, max_len, depth = 0;
    int64_t *dist = NULL, *weights = NULL, max;
    int64_t checked = 0, mismatches = 0;
    Word w;
    w.table = NULL;
    if (check_nargs("graev_agree_exhaustive", 4, nargs) < 0 ||
            size_arg(args[0], "nl", &nl) < 0 ||
            read_alphabet(nl, args[1], args[2], &dist, &weights, &max) < 0 ||
            size_arg(args[3], "max_len", &max_len) < 0 ||
            check_sums(max, max_len) < 0 || alloc_word(&w, max_len) < 0)
        goto done;
    /* the word is its own odometer: symbols run over letters in order, +1
       before -1, and each word comes before its extensions */
    Py_BEGIN_ALLOW_THREADS
    for (;;) {
        checked++;
        if (graev_dp(depth, &w, nl, dist, weights) != graev_bf(depth, &w, nl, dist, weights))
            mismatches++;
        if (depth < max_len && nl > 0) {
            w.letters[depth] = 0;
            w.signs[depth] = 1;
            depth++;
            continue;
        }
        while (depth > 0 && w.letters[depth - 1] == nl - 1 && w.signs[depth - 1] == -1)
            depth--;
        if (depth == 0)
            break;
        if (w.signs[depth - 1] == 1)
            w.signs[depth - 1] = -1;
        else {
            w.letters[depth - 1]++;
            w.signs[depth - 1] = 1;
        }
    }
    Py_END_ALLOW_THREADS
    out = Py_BuildValue("(LL)", (long long)checked, (long long)mismatches);
done:
    PyMem_Free(w.table);
    PyMem_Free(dist);
    PyMem_Free(weights);
    return out;
}

#define KERNEL(name) \
    {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, name##_doc}

static PyMethodDef methods[] = {
    KERNEL(minplus_product),
    KERNEL(is_bikatetov),
    KERNEL(floyd_warshall_capped),
    KERNEL(graev_norm_dp),
    KERNEL(graev_norm_bruteforce),
    KERNEL(graev_agree_exhaustive),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "urygrid._kernels._ext",
    .m_doc = "Compiled kernels; same contract as the pure fallback in _fallback.py.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__ext(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && (PyModule_AddStringConstant(m, "BACKEND", "compiled") < 0 ||
                      PyModule_AddIntConstant(m, "INF", (long)C_INF) < 0))
        Py_CLEAR(m);
    return m;
}
