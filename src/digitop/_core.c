/* Compiled kernels: a drop-in replacement for digitop._pure.
 *
 * Written by hand against the CPython C API (3.10 and later).  setup.py
 * builds it when a C compiler is present; by hand:
 *
 *     gcc -O2 -fwrapv -DNDEBUG -shared -fPIC -I <Python include dir> \
 *         _core.c -o _core$(python3-config --extension-suffix)
 *
 * Both backends give identical outputs on every input, invalid ones
 * included, so these steps match _pure step for step:
 *  - the calling contract: each kernel takes exactly two positional
 *    arguments, and anything else is a TypeError;
 *  - the size contract: 1..62 points, and each of the first n rows within
 *    0..n-1; for lattice_rows, at most 62 cells, each coordinate within
 *    -2**62..2**62-1; with the same ValueError messages;
 *  - canonical labeling: the equitable refinement (each cell split by its
 *    members' sorted neighbour-colour signatures, sub-cells in signature
 *    order, members in their old order), the twin-cell collapse, the first
 *    non-singleton cell as the branch target with its members tried in cell
 *    order, and the first strict minimum of the row-major adjacency bit
 *    string as the key;
 *  - the one-step maps: points in breadth-first order from label 0, and the
 *    admissible images of a point x as one mask, N[x] & N[f(u)] over the
 *    assigned neighbours u of x, tried in ascending order.  The maps
 *    therefore come in the order of _pure.one_step_maps;
 *  - the least image set: the same exact bound skips a subtree once every
 *    image set below it comes no earlier than the best one found.
 *
 * Adjacency rows are machine words, which caps the point count at 62.  All
 * scratch state is static, so a call allocates nothing until it builds its
 * result.  That is safe because the kernels hold the GIL throughout and never
 * call back into Python mid-search; process pools get their own copies.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

#define MAXN 62
#define POOL 64 /* refinement depths: one individualization per level, plus slack */

static inline int ctz(uint64_t x) /* x must be nonzero */
{
    return __builtin_ctzll(x);
}

static uint64_t rows_[MAXN];
static int cn; /* point count of the problem currently loaded */

/* Every kernel takes exactly two positional arguments. */
static int two_args(const char *fname, Py_ssize_t nargs)
{
    if (nargs == 2)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes 2 positional arguments (%zd given)", fname, nargs);
    return -1;
}

/* Checks n and the first n rows and copies the rows into rows_. */
static int load(PyObject *n_obj, PyObject *rows)
{
    int overflow;
    long n = PyLong_AsLongAndOverflow(n_obj, &overflow);
    if (n == -1 && PyErr_Occurred())
        return -1;
    if (overflow || n < 1 || n > MAXN) {
        PyErr_Format(PyExc_ValueError, "point count %S outside 1..%d", n_obj, MAXN);
        return -1;
    }
    for (int u = 0; u < n; u++) {
        PyObject *item = PySequence_GetItem(rows, u);
        if (!item)
            return -1;
        long long r = PyLong_AsLongLongAndOverflow(item, &overflow);
        Py_DECREF(item);
        if (r == -1 && PyErr_Occurred())
            return -1;
        if (overflow || r < 0 || r >> n) {
            PyErr_Format(PyExc_ValueError, "row %d has bits outside 0..%ld", u, n - 1);
            return -1;
        }
        rows_[u] = (uint64_t)r;
    }
    cn = (int)n;
    return 0;
}

/* ------------------------------------------------------------------------
 * Canonical labeling: individualization-refinement search
 *
 * A partition at depth d is pool_elems[d] (points in cell order) plus
 * pool_starts[d] (cell boundaries, ncells + 1 entries).  Children are
 * written at depth d + 1, so a parent's partition survives its branch loop.
 */

static int pool_elems[POOL][MAXN];
static int pool_starts[POOL][MAXN + 1];
static int pool_ncells[POOL];

static int color[MAXN];
static uint8_t sigs[MAXN][MAXN];
static int siglen[MAXN];
static int new_starts[MAXN + 1];

static uint64_t best_key[MAXN];
static int best_order[MAXN];
static int have_best;

static int position[MAXN];
static uint64_t leaf[MAXN];

/* Lexicographic comparison of two sorted neighbour-colour signatures
 * (element-wise, a proper prefix first), matching bytes comparison. */
static int sig_cmp(int a, int b)
{
    int la = siglen[a], lb = siglen[b];
    int m = la < lb ? la : lb;
    for (int i = 0; i < m; i++)
        if (sigs[a][i] != sigs[b][i])
            return sigs[a][i] < sigs[b][i] ? -1 : 1;
    return la == lb ? 0 : la < lb ? -1 : 1;
}

/* Equitable refinement in place at depth d.
 *
 * Each pass recolours by cell index, then splits every cell by a stable
 * insertion sort of its members keyed by signature; sub-cells therefore come
 * out in signature order with the old member order inside, the same result
 * as _pure's grouping with groups emitted in sorted signature order. */
static void refine(int d)
{
    int *elems = pool_elems[d];
    int *starts = pool_starts[d];
    int ncells = pool_ncells[d];
    for (;;) {
        for (int c = 0; c < ncells; c++)
            for (int k = starts[c]; k < starts[c + 1]; k++)
                color[elems[k]] = c;
        int new_ncells = 0;
        for (int c = 0; c < ncells; c++) {
            int begin = starts[c], end = starts[c + 1];
            new_starts[new_ncells++] = begin;
            if (end - begin == 1)
                continue;
            for (int k = begin; k < end; k++) {
                int v = elems[k], m = 0;
                for (uint64_t nb = rows_[v]; nb; nb &= nb - 1) {
                    uint8_t cu = (uint8_t)color[ctz(nb)];
                    int i = m++;
                    for (; i > 0 && sigs[v][i - 1] > cu; i--)
                        sigs[v][i] = sigs[v][i - 1];
                    sigs[v][i] = cu;
                }
                siglen[v] = m;
            }
            for (int k = begin + 1; k < end; k++) {
                int v = elems[k], i = k;
                for (; i > begin && sig_cmp(elems[i - 1], v) > 0; i--)
                    elems[i] = elems[i - 1];
                elems[i] = v;
            }
            for (int k = begin + 1; k < end; k++)
                if (sig_cmp(elems[k - 1], elems[k]) != 0)
                    new_starts[new_ncells++] = k;
        }
        if (new_ncells == ncells)
            return;
        for (int i = 0; i < new_ncells; i++)
            starts[i] = new_starts[i];
        starts[new_ncells] = cn;
        ncells = pool_ncells[d] = new_ncells;
    }
}

/* True if every pair in the cell is a (true or false) twin: any order of
 * the cell is then an automorphism, so the search fixes one. */
static int is_twin_cell(const int *elems, int begin, int end)
{
    uint64_t cell = 0;
    for (int k = begin; k < end; k++)
        cell |= (uint64_t)1 << elems[k];
    int v0 = elems[begin];
    uint64_t outside = rows_[v0] & ~cell, inside0 = rows_[v0] & cell;
    int clique = inside0 == (cell ^ (uint64_t)1 << v0);
    if (!clique && inside0)
        return 0;
    for (int k = begin + 1; k < end; k++) {
        int v = elems[k];
        uint64_t inside = clique ? cell ^ (uint64_t)1 << v : 0;
        if ((rows_[v] & ~cell) != outside || (rows_[v] & cell) != inside)
            return 0;
    }
    return 1;
}

/* Compare this leaf's adjacency bit string against the best and keep the
 * first strict minimum.  A greater prefix abandons early, which never
 * changes the minimum. */
static void try_leaf(const int *order)
{
    int n = cn, less = 0;
    for (int j = 0; j < n; j++)
        position[order[j]] = j;
    for (int j = 0; j < n; j++) {
        uint64_t r = 0;
        for (uint64_t nb = rows_[order[j]]; nb; nb &= nb - 1)
            r |= (uint64_t)1 << (n - 1 - position[ctz(nb)]);
        leaf[j] = r;
        if (have_best && !less) {
            if (r > best_key[j])
                return;
            less = r < best_key[j];
        }
    }
    if (have_best && !less)
        return;
    for (int j = 0; j < n; j++) {
        best_key[j] = leaf[j];
        best_order[j] = order[j];
    }
    have_best = 1;
}

/* Child partition: the member at index pick becomes a singleton ahead of
 * the rest of its cell, which keeps its order. */
static void copy_individualize(int d, int target, int pick)
{
    const int *src_e = pool_elems[d], *src_s = pool_starts[d];
    int *dst_e = pool_elems[d + 1], *dst_s = pool_starts[d + 1];
    int ncells = pool_ncells[d], begin = src_s[target];
    for (int i = 0; i < cn; i++)
        dst_e[i] = src_e[i];
    for (int k = pick; k > begin; k--)
        dst_e[k] = dst_e[k - 1];
    dst_e[begin] = src_e[pick];
    for (int i = 0; i <= target; i++)
        dst_s[i] = src_s[i];
    dst_s[target + 1] = begin + 1;
    for (int i = target + 1; i <= ncells; i++)
        dst_s[i + 1] = src_s[i];
    pool_ncells[d + 1] = ncells + 1;
}

/* Child partition with the target cell split into singletons in its
 * current order (used only for twin cells). */
static void copy_split_all(int d, int target)
{
    const int *src_e = pool_elems[d], *src_s = pool_starts[d];
    int *dst_e = pool_elems[d + 1], *dst_s = pool_starts[d + 1];
    int ncells = pool_ncells[d], begin = src_s[target];
    int extra = src_s[target + 1] - begin - 1;
    for (int i = 0; i < cn; i++)
        dst_e[i] = src_e[i];
    for (int i = 0; i <= target; i++)
        dst_s[i] = src_s[i];
    for (int i = 1; i <= extra; i++)
        dst_s[target + i] = begin + i;
    for (int i = target + 1; i <= ncells; i++)
        dst_s[i + extra] = src_s[i];
    pool_ncells[d + 1] = ncells + extra;
}

static void search(int d)
{
    refine(d);
    const int *elems = pool_elems[d], *starts = pool_starts[d];
    int ncells = pool_ncells[d], target = -1;
    for (int c = 0; c < ncells && target < 0; c++)
        if (starts[c + 1] - starts[c] > 1)
            target = c;
    if (target < 0) {
        try_leaf(elems);
        return;
    }
    int begin = starts[target], end = starts[target + 1];
    if (is_twin_cell(elems, begin, end)) {
        copy_split_all(d, target);
        search(d + 1);
        return;
    }
    for (int k = begin; k < end; k++) {
        copy_individualize(d, target, k);
        search(d + 1);
    }
}

static PyObject *canonical_rows(PyObject *Py_UNUSED(self), PyObject *const *args,
                                Py_ssize_t nargs)
{
    if (two_args("canonical_rows", nargs) < 0 || load(args[0], args[1]) < 0)
        return NULL;
    int n = cn;
    if (n == 1)
        return Py_BuildValue("(i)", 0);
    for (int i = 0; i < n; i++)
        pool_elems[0][i] = i;
    pool_starts[0][0] = 0;
    pool_starts[0][1] = n;
    pool_ncells[0] = 1;
    have_best = 0;
    search(0);
    for (int j = 0; j < n; j++)
        position[best_order[j]] = j;
    PyObject *out = PyTuple_New(n);
    if (!out)
        return NULL;
    for (int j = 0; j < n; j++) {
        uint64_t r = 0;
        for (uint64_t nb = rows_[best_order[j]]; nb; nb &= nb - 1)
            r |= (uint64_t)1 << position[ctz(nb)];
        PyObject *item = PyLong_FromUnsignedLongLong(r);
        if (!item) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, j, item);
    }
    return out;
}

/* ------------------------------------------------------------------------
 * One-step self-maps: one walk, with a leaf function per kernel
 */

static int order[MAXN];     /* breadth-first from label 0 */
static uint64_t closed[MAXN]; /* N[x], by point */
static uint64_t earlier[MAXN]; /* by position: the neighbours assigned before it */
static uint64_t reach[MAXN + 1]; /* by position: N[x] over it and every later one */
static int value[MAXN];     /* by point: its image under the current map */
static uint64_t all_points;

/* Called at each map with its image set and fixed-point count; returns 1
 * to stop the walk. */
typedef int (*leaf_fn)(uint64_t image, int fixed);

/* Called before each descent with the image set of the positions assigned so
 * far and reach[] of the next one; returns 1 to skip every map below. */
typedef int (*prune_fn)(uint64_t placed, uint64_t later);

static int prepare_maps(void)
{
    uint64_t visited = 1, assigned = 0;
    int count = 1;
    order[0] = 0;
    for (int head = 0; head < count; head++) {
        uint64_t fresh = rows_[order[head]] & ~visited;
        visited |= fresh;
        for (; fresh; fresh &= fresh - 1)
            order[count++] = ctz(fresh);
    }
    if (count != cn) {
        PyErr_SetString(PyExc_ValueError, "adjacency graph is disconnected");
        return -1;
    }
    for (int pos = 0; pos < cn; pos++) {
        int x = order[pos];
        closed[x] = rows_[x] | (uint64_t)1 << x;
        earlier[pos] = rows_[x] & assigned;
        assigned |= (uint64_t)1 << x;
    }
    all_points = assigned;
    reach[cn] = 0;
    for (int pos = cn - 1; pos >= 0; pos--)
        reach[pos] = reach[pos + 1] | closed[order[pos]];
    return 0;
}

/* Extends the assignment of positions 0..pos-1, whose image set is image
 * and which fix `fixed` points, by every admissible image of position pos.
 * A non-NULL prune may skip a subtree before the walk descends into it;
 * with NULL every map reaches at_map. */
static int walk(int pos, uint64_t image, int fixed, leaf_fn at_map, prune_fn prune)
{
    int x = order[pos];
    uint64_t allowed = closed[x];
    for (uint64_t nb = earlier[pos]; nb; nb &= nb - 1)
        allowed &= closed[value[ctz(nb)]];
    for (; allowed; allowed &= allowed - 1) {
        int v = ctz(allowed);
        uint64_t next = image | (uint64_t)1 << v;
        int next_fixed = fixed + (v == x);
        if (pos == cn - 1) {
            if (at_map(next, next_fixed))
                return 1;
            continue;
        }
        if (prune && prune(next, reach[pos + 1]))
            continue;
        value[x] = v;
        if (walk(pos + 1, next, next_fixed, at_map, prune))
            return 1;
    }
    return 0;
}

static int fl_reducible, fl_pointed, fl_moved;

/* Stops at the first pointed non-surjection, which settles all three flags. */
static int flags_at_map(uint64_t image, int fixed)
{
    if (image != all_points) {
        fl_reducible = 1;
        if (fixed) {
            fl_pointed = fl_moved = 1;
            return 1;
        }
    }
    if (fixed < cn)
        fl_moved = 1;
    return 0;
}

static PyObject *classify_flags(PyObject *Py_UNUSED(self), PyObject *const *args,
                                Py_ssize_t nargs)
{
    if (two_args("classify_flags", nargs) < 0 || load(args[0], args[1]) < 0 ||
        prepare_maps() < 0)
        return NULL;
    fl_reducible = fl_pointed = fl_moved = 0;
    walk(0, 0, 0, flags_at_map, NULL);
    return PyTuple_Pack(3, fl_reducible ? Py_True : Py_False, fl_pointed ? Py_True : Py_False,
                        fl_moved ? Py_False : Py_True);
}

static uint64_t mi_best; /* 0 until a non-surjection is seen: an image is never empty */

/* Whether image set a comes before b as an ascending label tuple.  Below
 * the lowest differing label d the two agree; the set holding d comes first
 * unless it ends there while the other goes on. */
static int image_less(uint64_t a, uint64_t b)
{
    if (a == b)
        return 0;
    int d = ctz(a ^ b);
    return (a >> d & 1) ? (b >> d) != 0 : (a >> d) == 0;
}

static int min_image_at_map(uint64_t image, int Py_UNUSED(fixed))
{
    if (image != all_points && (!mi_best || image_less(image, mi_best)))
        mi_best = image;
    return 0;
}

/* The exact bound of _pure.min_image_nonsurjective: no image set between
 * placed and placed | later comes before every reachable label up to the
 * highest placed one (_pure._least_completion).  placed is never empty. */
static int min_image_prune(uint64_t placed, uint64_t later)
{
    uint64_t up_to_top = ~(uint64_t)0 >> __builtin_clzll(placed);
    return mi_best && !image_less((placed | later) & up_to_top, mi_best);
}

static PyObject *min_image_nonsurjective(PyObject *Py_UNUSED(self), PyObject *const *args,
                                         Py_ssize_t nargs)
{
    if (two_args("min_image_nonsurjective", nargs) < 0 || load(args[0], args[1]) < 0 ||
        prepare_maps() < 0)
        return NULL;
    mi_best = 0;
    walk(0, 0, 0, min_image_at_map, min_image_prune);
    if (!mi_best)
        Py_RETURN_NONE;
    PyObject *out = PyTuple_New(__builtin_popcountll(mi_best));
    if (!out)
        return NULL;
    Py_ssize_t j = 0;
    for (uint64_t nb = mi_best; nb; nb &= nb - 1) {
        PyObject *item = PyLong_FromLong(ctz(nb));
        if (!item) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, j++, item);
    }
    return out;
}

/* ------------------------------------------------------------------------
 * Lattice adjacency
 */

#define COORD_LIMIT (1LL << 62)

/* Reads one cell as an (x, y) pair, as _pure's `x, y = cells[i]` does.  Each
 * coordinate must lie in -2**62..2**62-1, where every difference is exact. */
static int read_cell(PyObject *cell, long long xy[2])
{
    PyObject *pair = PySequence_Fast(cell, "a cell must be an (x, y) pair");
    if (!pair)
        return -1;
    int ok = PySequence_Fast_GET_SIZE(pair) == 2;
    if (!ok)
        PyErr_SetString(PyExc_ValueError, "a cell must be an (x, y) pair");
    for (int k = 0; ok && k < 2; k++) {
        int overflow;
        xy[k] = PyLong_AsLongLongAndOverflow(PySequence_Fast_GET_ITEM(pair, k), &overflow);
        if (xy[k] == -1 && PyErr_Occurred())
            ok = 0;
        else if (overflow || xy[k] < -COORD_LIMIT || xy[k] >= COORD_LIMIT) {
            PyErr_SetString(PyExc_ValueError, "cell coordinate outside -2**62..2**62-1");
            ok = 0;
        }
    }
    Py_DECREF(pair);
    return ok ? 0 : -1;
}

static PyObject *lattice_rows(PyObject *Py_UNUSED(self), PyObject *const *args,
                              Py_ssize_t nargs)
{
    if (two_args("lattice_rows", nargs) < 0)
        return NULL;
    int overflow;
    long kind = PyLong_AsLongAndOverflow(args[0], &overflow);
    if (kind == -1 && PyErr_Occurred())
        return NULL;
    if (overflow || (kind != 4 && kind != 8)) {
        PyErr_SetString(PyExc_ValueError, "adjacency kind must be 4 or 8");
        return NULL;
    }
    int four = kind == 4;
    if (!PySequence_Check(args[1])) {
        PyErr_SetString(PyExc_TypeError, "cells must be a sequence");
        return NULL;
    }
    PyObject *cells = PySequence_Fast(args[1], "cells must be a sequence");
    if (!cells)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(cells);
    long long xy[MAXN][2];
    int bad = n > MAXN;
    if (bad)
        PyErr_Format(PyExc_ValueError, "cell count %zd outside 1..%d", n, MAXN);
    for (Py_ssize_t i = 0; i < n && !bad; i++)
        bad = read_cell(PySequence_Fast_GET_ITEM(cells, i), xy[i]) < 0;
    Py_DECREF(cells);
    if (bad)
        return NULL;
    uint64_t out[MAXN] = {0};
    for (Py_ssize_t i = 0; i < n; i++)
        for (Py_ssize_t j = i + 1; j < n; j++) {
            long long dx = llabs(xy[i][0] - xy[j][0]), dy = llabs(xy[i][1] - xy[j][1]);
            if (four ? (dx == 0 && dy == 1) || (dx == 1 && dy == 0) : dx <= 1 && dy <= 1) {
                out[i] |= (uint64_t)1 << j;
                out[j] |= (uint64_t)1 << i;
            }
        }
    PyObject *list = PyList_New(n);
    if (!list)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *item = PyLong_FromUnsignedLongLong(out[i]);
        if (!item) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, item);
    }
    return list;
}

/* ------------------------------------------------------------------------ */

#define KERNEL(name, doc) \
    {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, doc}

static PyMethodDef core_methods[] = {
    KERNEL(canonical_rows, "canonical_rows(n, rows, /)\n--\n\n"
                           "Canonically relabeled adjacency rows; see digitop._pure."),
    KERNEL(classify_flags, "classify_flags(n, rows, /)\n--\n\n"
                           "(reducible, pointed_reducible, rigid); see digitop._pure."),
    KERNEL(min_image_nonsurjective,
           "min_image_nonsurjective(n, rows, /)\n--\n\n"
           "Least non-surjective one-step image set, or None; see digitop._pure."),
    KERNEL(lattice_rows, "lattice_rows(kind, cells, /)\n--\n\n"
                         "Adjacency rows induced on grid cells, each coordinate in\n"
                         "-2**62..2**62-1; see digitop._pure."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "digitop._core",
    .m_doc = "Compiled kernels; a drop-in replacement for digitop._pure.",
    .m_size = -1,
    .m_methods = core_methods,
};

PyMODINIT_FUNC PyInit__core(void)
{
    return PyModule_Create(&core_module);
}
