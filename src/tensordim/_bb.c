/* Hitting-set search kernel, compiled edition.
 *
 * Exports one entry point,
 * min_hitting_size(masks, cand_mask, lower, upper, witness=None): the least
 * number of cand_mask bits hitting every mask, or upper when nothing below
 * it exists, stopping early once lower is met.  When witness is a list and
 * the result is below upper, one solution of that size is appended to it
 * as an int mask.  It mirrors `_bb_py.min_hitting_size` rule for rule: same
 * contract, same branching order, same forced picks, packing bound, last-pick
 * and two-pick rules, same results and witnesses, and the same
 * OverflowError for a mask outside 64 bits.  See that module for the
 * algorithm description and the argument for each rule, and for the
 * certificate loop built on this entry point.
 * Masks are plain 64-bit words, so every search stays within 64 candidate
 * bits; recursion depth is therefore at most 64 and each level owns one
 * row of pending masks in a preallocated workspace.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

#define MAX_BITS 64

typedef struct {
    uint64_t *rows;       /* (depth_cap + 1) rows of cap pending masks */
    uint64_t *restricted; /* cap, packing-bound scratch */
    Py_ssize_t *order;    /* cap, counting-sort scratch */
    Py_ssize_t cap;
} Workspace;

static inline int popcount(uint64_t x) { return __builtin_popcountll(x); }

static int as_u64(PyObject *obj, uint64_t *out)
{
    PyObject *index = PyNumber_Index(obj);
    if (index == NULL)
        return -1;
    *out = PyLong_AsUnsignedLongLong(index);
    Py_DECREF(index);
    return (*out == (uint64_t)-1 && PyErr_Occurred()) ? -1 : 0;
}

/* New array holding seq's items as uint64; count in *n.  NULL on error. */
static uint64_t *read_u64s(PyObject *seq, Py_ssize_t *n)
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence of ints");
    if (fast == NULL)
        return NULL;
    *n = PySequence_Fast_GET_SIZE(fast);
    uint64_t *out = PyMem_Malloc(sizeof(uint64_t) * (*n > 0 ? *n : 1));
    if (out == NULL) {
        Py_DECREF(fast);
        PyErr_NoMemory();
        return NULL;
    }
    for (Py_ssize_t i = 0; i < *n; i++) {
        if (as_u64(PySequence_Fast_GET_ITEM(fast, i), &out[i]) < 0) {
            PyMem_Free(out);
            Py_DECREF(fast);
            return NULL;
        }
    }
    Py_DECREF(fast);
    return out;
}

static void ws_free(Workspace *ws)
{
    PyMem_Free(ws->rows);
    PyMem_Free(ws->restricted);
    PyMem_Free(ws->order);
}

/* Fill ws for one call: row 0 holds masks & cand.  -1 with an exception set
 * on failure, ws then freed. */
static int ws_init(Workspace *ws, PyObject *masks, uint64_t cand, int depth_cap)
{
    memset(ws, 0, sizeof(*ws));
    uint64_t *root = read_u64s(masks, &ws->cap);
    if (root == NULL)
        return -1;
    Py_ssize_t cap = ws->cap > 0 ? ws->cap : 1;
    ws->rows = PyMem_Malloc(sizeof(uint64_t) * cap * (depth_cap + 1));
    ws->restricted = PyMem_Malloc(sizeof(uint64_t) * cap);
    ws->order = PyMem_Malloc(sizeof(Py_ssize_t) * cap);
    if (ws->rows == NULL || ws->restricted == NULL || ws->order == NULL) {
        PyMem_Free(root);
        ws_free(ws);
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < ws->cap; i++)
        ws->rows[i] = root[i] & cand;
    PyMem_Free(root);
    return 0;
}

/* Greedy disjoint packing over masks restricted to avail, visited in
 * ascending popcount (stable within equal counts) via counting sort. */
static int packing_bound(Workspace *ws, const uint64_t *pending, Py_ssize_t np,
                         uint64_t avail)
{
    Py_ssize_t bucket[MAX_BITS + 2] = {0};
    for (Py_ssize_t i = 0; i < np; i++) {
        uint64_t r = pending[i] & avail;
        ws->restricted[i] = r;
        bucket[popcount(r) + 1]++;
    }
    for (int c = 1; c <= MAX_BITS + 1; c++)
        bucket[c] += bucket[c - 1];
    for (Py_ssize_t i = 0; i < np; i++)
        ws->order[bucket[popcount(ws->restricted[i])]++] = i;
    uint64_t union_mask = 0;
    int count = 0;
    for (Py_ssize_t i = 0; i < np; i++) {
        uint64_t r = ws->restricted[ws->order[i]];
        if ((r & union_mask) == 0) {
            union_mask |= r;
            count++;
        }
    }
    return count;
}

/* Copy the masks of pending that miss bit into out; returns their count. */
static Py_ssize_t drop_hit(const uint64_t *pending, Py_ssize_t np, uint64_t bit,
                           uint64_t *out)
{
    Py_ssize_t keep = 0;
    for (Py_ssize_t i = 0; i < np; i++)
        if ((pending[i] & bit) == 0)
            out[keep++] = pending[i];
    return keep;
}

typedef struct {
    Workspace ws;
    int best;
    uint64_t best_set; /* a solution of size best, once best < upper */
    int lower;
} SizeSearch;

static void size_dfs(SizeSearch *s, int count, uint64_t chosen, uint64_t avail,
                     uint64_t *pending, Py_ssize_t np, int depth)
{
    uint64_t branch_mask;
    for (;;) {
        if (s->best <= s->lower)
            return;
        if (np == 0) {
            if (count < s->best) {
                s->best = count;
                s->best_set = chosen;
            }
            return;
        }
        if (count + 1 >= s->best)
            return;
        if (count + 2 >= s->best) {
            /* last pick: only a vertex in every pending mask improves */
            for (Py_ssize_t i = 0; i < np; i++) {
                avail &= pending[i];
                if (avail == 0)
                    return;
            }
            s->best = count + 1;
            s->best_set = chosen | (avail & -avail);
            return;
        }
        uint64_t forced = 0;
        branch_mask = 0;
        int branch_count = 1 << 30;
        for (Py_ssize_t i = 0; i < np; i++) {
            uint64_t r = pending[i] & avail;
            if (r == 0)
                return;
            int c = popcount(r);
            if (c == 1)
                forced |= r;
            else if (c < branch_count) {
                branch_count = c;
                branch_mask = r;
            }
        }
        if (forced == 0)
            break;
        count += popcount(forced);
        if (count >= s->best)
            return;
        chosen |= forced;
        avail &= ~forced;
        np = drop_hit(pending, np, forced, pending);
    }
    uint64_t excluded = 0;
    if (count + 3 >= s->best) {
        /* two picks left: each child w is a last-pick node, settled here */
        for (uint64_t r = branch_mask; r; r &= r - 1) {
            uint64_t wb = r & -r;
            /* once best is count + 2, only a w in every mask improves */
            uint64_t common = count + 2 < s->best ? avail & ~excluded & ~wb : 0;
            int missed = 0;
            for (Py_ssize_t i = 0; i < np; i++) {
                if ((pending[i] & wb) == 0) {
                    missed = 1;
                    common &= pending[i];
                    if (common == 0)
                        break;
                }
            }
            if (!missed) {
                s->best = count + 1;
                s->best_set = chosen | wb;
                return;
            }
            if (common) {
                s->best = count + 2;
                s->best_set = chosen | wb | (common & -common);
                if (s->best <= s->lower)
                    return;
            }
            excluded |= wb;
        }
        return;
    }
    if (count + packing_bound(&s->ws, pending, np, avail) >= s->best)
        return;
    uint64_t *child = s->ws.rows + (Py_ssize_t)(depth + 1) * s->ws.cap;
    for (uint64_t r = branch_mask; r; r &= r - 1) {
        uint64_t wb = r & -r;
        Py_ssize_t keep = drop_hit(pending, np, wb, child);
        size_dfs(s, count + 1, chosen | wb, avail & ~excluded & ~wb, child, keep,
                 depth + 1);
        if (s->best <= s->lower)
            return;
        excluded |= wb;
    }
}

static char *size_kwlist[] = {"masks", "cand_mask", "lower", "upper", "witness", NULL};

static PyObject *min_hitting_size(PyObject *self, PyObject *args, PyObject *kwargs)
{
    PyObject *masks, *cand_obj, *witness = Py_None;
    int lower, upper;
    uint64_t cand;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOii|O:min_hitting_size", size_kwlist,
                                     &masks, &cand_obj, &lower, &upper, &witness))
        return NULL;
    if (as_u64(cand_obj, &cand) < 0)
        return NULL;
    if (witness != Py_None && !PyList_Check(witness)) {
        PyErr_SetString(PyExc_TypeError, "witness must be a list or None");
        return NULL;
    }
    if (lower >= upper)
        return PyLong_FromLong(upper);
    SizeSearch s = {.best = upper, .lower = lower};
    /* each level picks one candidate bit, so depth <= min(upper, 64) */
    int depth_cap = upper < MAX_BITS ? (upper > 0 ? upper : 0) : MAX_BITS;
    if (ws_init(&s.ws, masks, cand, depth_cap) < 0)
        return NULL;
    size_dfs(&s, 0, 0, cand, s.ws.rows, s.ws.cap, 0);
    ws_free(&s.ws);
    if (witness != Py_None && s.best < upper) {
        PyObject *set = PyLong_FromUnsignedLongLong(s.best_set);
        if (set == NULL || PyList_Append(witness, set) < 0) {
            Py_XDECREF(set);
            return NULL;
        }
        Py_DECREF(set);
    }
    return PyLong_FromLong(s.best);
}

static PyMethodDef methods[] = {
    {"min_hitting_size", (PyCFunction)(void (*)(void))min_hitting_size,
     METH_VARARGS | METH_KEYWORDS,
     "Smallest number of candidate bits hitting every mask, capped at upper.\n\n"
     "Same contract as `_bb_py.min_hitting_size`."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_bb",
    "Hitting-set search kernel, compiled edition; mirrors `_bb_py.min_hitting_size`.",
    -1, methods,
};

PyMODINIT_FUNC PyInit__bb(void) { return PyModule_Create(&module); }
