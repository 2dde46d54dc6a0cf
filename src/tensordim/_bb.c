/* Hitting-set search kernel, compiled edition.
 *
 * Exports the five entry points of `_bb_py` and mirrors each step for step.
 * min_hitting_size(masks, cand_mask, lower, upper, witness=None) is the
 * least number of cand_mask bits hitting every mask, or upper when nothing
 * below it exists, stopping early once lower is met.  When witness is a
 * list and the result is below upper, one solution of that size is
 * appended to it as an int mask.  It follows `_bb_py.min_hitting_size` rule
 * for rule: same contract, same branching order, same forced picks, packing
 * bound, last-pick and two-pick rules, same results and witnesses, and the
 * same OverflowError for a mask outside 64 bits.
 * greedy_completion(masks, cand_mask) is the solver's greedy upper seed:
 * the same bit-sliced counters, the same picks in the same order, and the
 * same ValueError for a mask with no candidate.
 * lex_min_hitting_set(masks, cand_mask, budget, min_size=None,
 * completion=None, sizes=None) is the certificate loop: the same
 * one- and two-member settles, completion take, completion move, failure
 * carry and per-step completion check, the same queries, the same results
 * and the same OverflowError, TypeError, ValueError and AssertionError.
 * The value swaps of a product's sizes are computed here, in C.
 * orbit_min_size(masks, lower, upper, sizes, min_candidates, min_budget,
 * min_size=None) is the symmetric size search: it drops the masks that
 * vertex 0 hits, forces vertex 0, takes every other id of the product as
 * a candidate, and branches on the same orbits from the value masks of
 * the sizes, in the same order, with the same rule and stops; the same
 * (size, mask) or (upper, None).
 * Both searches ask their size queries through one function, `query`, as
 * `_bb_py._ask` asks them: the masks restricted to the query's candidates
 * and de-duplicated, answered in place when min_size is None or this
 * module's min_hitting_size and by calling min_size otherwise, and one
 * rule for every answer: a size below upper must come with a witness,
 * else AssertionError.
 * product_pair_masks(sizes) builds a product of cliques' pair masks from
 * the same value masks: near and far words per vertex, one mask per pair
 * x < y, and the repeats dropped as the queries drop them, first
 * occurrence kept; the same list, and the same ValueError for a second
 * axis of size 2.  The three read their sizes with one `read_sizes`, with
 * `_bb_py._value_masks`'s checks and errors.  See `_bb_py` for the
 * algorithms and the argument for each rule.
 * The size search's two bit-counting functions, size_dfs and
 * packing_bound, carry a POPCNT clone picked at load time (POPCNT_CLONES).
 * Masks are plain 64-bit words, so every search stays within 64 candidate
 * bits; recursion depth is therefore at most 64 and each level owns one
 * row of pending masks in a preallocated workspace (the orbit search has
 * its own rows, one per branching level).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>

#define MAX_BITS 64

typedef struct {
    uint64_t *rows;       /* (depth_cap + 1) rows of cap pending masks */
    uint64_t *restricted; /* cap, packing-bound scratch */
    Py_ssize_t *order;    /* cap, counting-sort scratch */
    Py_ssize_t cap;
} Workspace;

static inline int popcount(uint64_t x) { return __builtin_popcountll(x); }

/* The two functions that count bits per pending mask per node get a POPCNT
 * clone beside the default one, picked at load time by an ifunc, so a CPU
 * without POPCNT still runs the default clone.  Only GCC and Clang on
 * x86-64 glibc (ELF with ifunc) get them; elsewhere the functions stay
 * plain, and no build needs -mpopcnt.  A build with POPCNT_CLONES defined
 * (-DPOPCNT_CLONES= gives the plain functions) keeps that definition, so a
 * POPCNT host can build and test the default clone's code alone. */
#ifndef POPCNT_CLONES
#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define POPCNT_CLONES __attribute__((target_clones("popcnt", "default")))
#endif
#endif
#endif
#ifndef POPCNT_CLONES
#define POPCNT_CLONES
#endif

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
    ws->rows = ws->restricted = NULL;
    ws->order = NULL;
}

/* Allocate ws for up to cap masks and searches up to depth_cap deep.  -1
 * with an exception set on failure, ws then freed. */
static int ws_alloc(Workspace *ws, Py_ssize_t cap, int depth_cap)
{
    memset(ws, 0, sizeof(*ws));
    ws->cap = cap > 0 ? cap : 1;
    ws->rows = PyMem_Malloc(sizeof(uint64_t) * ws->cap * (depth_cap + 1));
    ws->restricted = PyMem_Malloc(sizeof(uint64_t) * ws->cap);
    ws->order = PyMem_Malloc(sizeof(Py_ssize_t) * ws->cap);
    if (ws->rows == NULL || ws->restricted == NULL || ws->order == NULL) {
        ws_free(ws);
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

/* Greedy disjoint packing over masks restricted to avail, visited in
 * ascending popcount (stable within equal counts) via counting sort. */
POPCNT_CLONES
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

/* A new list of the count ids in ids; NULL on error. */
static PyObject *id_list(const int *ids, int count)
{
    PyObject *out = PyList_New(count);
    for (int i = 0; out != NULL && i < count; i++) {
        PyObject *v = PyLong_FromLong(ids[i]);
        if (v == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, v);
    }
    return out;
}

typedef struct {
    Workspace *ws;
    int best;
    uint64_t best_set; /* a solution of size best, once best < upper */
    int lower;
} SizeSearch;

POPCNT_CLONES
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
    if (count + packing_bound(s->ws, pending, np, avail) >= s->best)
        return;
    uint64_t *child = s->ws->rows + (Py_ssize_t)(depth + 1) * s->ws->cap;
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

/* Each level picks one candidate bit, so a search below upper stays within
 * min(upper, 64) levels. */
static int depth_cap(int upper)
{
    return upper < MAX_BITS ? (upper > 0 ? upper : 0) : MAX_BITS;
}

/* The search of min_hitting_size on the n masks in ws's first row, already
 * restricted to cand, for lower < upper, with ws depth_cap(upper) deep.
 * When the result is below upper, *found is a solution of that size. */
static int size_search(Workspace *ws, Py_ssize_t n, uint64_t cand, int lower, int upper,
                       uint64_t *found)
{
    SizeSearch s = {.ws = ws, .best = upper, .lower = lower};
    size_dfs(&s, 0, 0, cand, ws->rows, n, 0);
    *found = s.best_set;
    return s.best;
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
    Py_ssize_t n;
    uint64_t *words = read_u64s(masks, &n);
    if (words == NULL)
        return NULL;
    Workspace ws;
    if (ws_alloc(&ws, n, depth_cap(upper)) < 0) {
        PyMem_Free(words);
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++)
        ws.rows[i] = words[i] & cand;
    PyMem_Free(words);
    uint64_t found;
    int best = size_search(&ws, n, cand, lower, upper, &found);
    ws_free(&ws);
    if (witness != Py_None && best < upper) {
        PyObject *set = PyLong_FromUnsignedLongLong(found);
        if (set == NULL || PyList_Append(witness, set) < 0) {
            Py_XDECREF(set);
            return NULL;
        }
        Py_DECREF(set);
    }
    return PyLong_FromLong(best);
}

static char *greedy_kwlist[] = {"masks", "cand_mask", NULL};

static PyObject *greedy_completion(PyObject *self, PyObject *args, PyObject *kwargs)
{
    PyObject *masks, *cand_obj;
    uint64_t cand;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO:greedy_completion", greedy_kwlist, &masks,
                                     &cand_obj)
        || as_u64(cand_obj, &cand) < 0)
        return NULL;
    Py_ssize_t np;
    uint64_t *pending = read_u64s(masks, &np);
    if (pending == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < np; i++) {
        pending[i] &= cand;
        if (pending[i] == 0) {
            PyMem_Free(pending);
            PyErr_SetString(PyExc_ValueError, "a mask has no candidate resolver");
            return NULL;
        }
    }
    int picks[MAX_BITS], count = 0;
    while (np > 0) {
        /* Bit-sliced counters: bit w of levels[i] is bit i of the number of
         * pending masks holding w.  Adding a mask ripples its carries up. */
        uint64_t levels[MAX_BITS];
        int height = 0;
        for (Py_ssize_t i = 0; i < np; i++) {
            uint64_t m = pending[i];
            int h = 0;
            for (; h < height && m; h++) {
                uint64_t level = levels[h];
                levels[h] = level ^ m;
                m &= level;
            }
            if (m)
                levels[height++] = m;
        }
        /* The largest count, read from the top level down, and its least id. */
        uint64_t best = cand;
        for (int h = height - 1; h >= 0; h--)
            if (best & levels[h])
                best &= levels[h];
        uint64_t wb = best & -best;
        picks[count++] = __builtin_ctzll(wb);
        np = drop_hit(pending, np, wb, pending);
    }
    PyMem_Free(pending);
    return id_list(picks, count);
}

/* A hash set of masks that de-duplicates one list at a time, first
 * occurrence kept: open addressing, with the slots of earlier lists told
 * apart by their stamp. */
typedef struct {
    uint64_t *keys;
    uint32_t *stamps;  /* a slot is in use when its stamp is gen */
    uint32_t gen;      /* one per list */
    size_t slots;      /* a power of two above twice the longest list */
    int shift;
} Dedup;

static void dedup_free(Dedup *d)
{
    PyMem_Free(d->keys);
    PyMem_Free(d->stamps);
    d->keys = NULL;
    d->stamps = NULL;
}

/* Allocate d for lists of up to n masks.  -1 with an exception set on
 * failure, d then freed. */
static int dedup_alloc(Dedup *d, Py_ssize_t n)
{
    memset(d, 0, sizeof(*d));
    for (d->shift = 64 - 4, d->slots = 16; d->slots < 2 * (size_t)n; d->slots *= 2)
        d->shift--;
    d->keys = PyMem_Malloc(sizeof(uint64_t) * d->slots);
    d->stamps = PyMem_Calloc(d->slots, sizeof(uint32_t));
    if (d->keys == NULL || d->stamps == NULL) {
        dedup_free(d);
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

/* Write the masks of in that miss skip, restricted to keep and without
 * repeats (first occurrence kept), to out; returns their count. */
static Py_ssize_t distinct_masks(Dedup *d, const uint64_t *in, Py_ssize_t n, uint64_t skip,
                                 uint64_t keep, uint64_t *out)
{
    if (++d->gen == 0) { /* the stamps wrapped: no slot is in use */
        memset(d->stamps, 0, sizeof(uint32_t) * d->slots);
        d->gen = 1;
    }
    Py_ssize_t count = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (in[i] & skip)
            continue;
        uint64_t m = in[i] & keep;
        size_t h = (size_t)((m * 0x9E3779B97F4A7C15ull) >> d->shift);
        while (d->stamps[h] == d->gen && d->keys[h] != m)
            h = (h + 1) & (d->slots - 1);
        if (d->stamps[h] != d->gen) {
            d->stamps[h] = d->gen;
            d->keys[h] = m;
            out[count++] = m;
        }
    }
    return count;
}

/* obj as a witness or completion mask: TypeError for a non-integer,
 * AssertionError outside 64 bits (no such mask lies inside the
 * candidates). */
static int read_completion(PyObject *obj, uint64_t *out)
{
    if (as_u64(obj, out) == 0)
        return 0;
    if (PyErr_ExceptionMatches(PyExc_OverflowError)) {
        PyErr_Clear();
        PyErr_SetString(PyExc_AssertionError, "a completion does not fit in 64 bits");
    }
    return -1;
}

/* How the searches below ask their size queries: min_size NULL for the
 * search above, on ws, else a Python callable; seen de-duplicates each
 * query's masks into ws's first row. */
typedef struct {
    PyObject *min_size;
    Workspace ws;
    Dedup seen;
} Queries;

static void queries_free(Queries *Q)
{
    ws_free(&Q->ws);
    dedup_free(&Q->seen);
}

/* Q, zeroed by the caller, for queries on up to cap masks with upper at
 * most upper.  A min_size of None or this module's min_hitting_size is
 * answered by the search above, in place.  -1 with an exception set on
 * failure; queries_free frees Q either way. */
static int queries_alloc(Queries *Q, PyObject *min_size, Py_ssize_t cap, int upper)
{
    int own = min_size == Py_None
              || (PyCFunction_Check(min_size)
                  && PyCFunction_GET_FUNCTION(min_size)
                         == (PyCFunction)(void (*)(void))min_hitting_size);
    Q->min_size = own ? NULL : min_size;
    if (ws_alloc(&Q->ws, cap, own ? depth_cap(upper) : 0) < 0)
        return -1;
    return dedup_alloc(&Q->seen, cap);
}

/* `_bb_py._ask`, the one size query of the certificate loop and the orbit
 * search's leaves: the least size below upper of a set of candidates in
 * cand hitting every one of the n masks that misses skip, asked on those
 * masks restricted to cand and de-duplicated.  min_size gets lower and
 * upper by keyword, as `_bb_py` passes them (tdbench/tracing.py reads
 * them by name), and an answer below upper with no witness, or with one
 * outside 64 bits, raises AssertionError.  1 with the size in *size and the set in *found when it
 * is below upper, else 0 with both left as they were; -1 on error. */
static int query(Queries *Q, const uint64_t *masks, Py_ssize_t n, uint64_t skip, uint64_t cand,
                 long long lower, long long upper, long long *size, uint64_t *found)
{
    n = distinct_masks(&Q->seen, masks, n, skip, cand, Q->ws.rows);
    long long got = upper;
    uint64_t set = 0;
    if (Q->min_size == NULL) {
        if (upper < INT_MIN) {
            PyErr_Format(PyExc_OverflowError, "%lld does not fit in a C int", upper);
            return -1;
        }
        if (lower < upper)
            got = size_search(&Q->ws, n, cand, (int)lower, (int)upper, &set);
    }
    else {
        PyObject *list = PyList_New(n), *witness = NULL, *call = NULL, *kw = NULL, *answer = NULL;
        for (Py_ssize_t i = 0; list != NULL && i < n; i++) {
            PyObject *m = PyLong_FromUnsignedLongLong(Q->ws.rows[i]);
            if (m == NULL)
                Py_CLEAR(list);
            else
                PyList_SET_ITEM(list, i, m);
        }
        if (list != NULL && (witness = PyList_New(0)) != NULL
            && (call = Py_BuildValue("(OK)", list, (unsigned long long)cand)) != NULL
            && (kw = Py_BuildValue("{s:L,s:L,s:O}", "lower", lower, "upper", upper, "witness",
                                   witness)) != NULL
            && (answer = PyObject_Call(Q->min_size, call, kw)) != NULL)
            got = PyLong_AsLongLong(answer);
        int error = answer == NULL || (got == -1 && PyErr_Occurred());
        if (!error && got < upper) {
            if (PyList_GET_SIZE(witness) == 0) {
                PyErr_SetString(PyExc_AssertionError, "a size query succeeded without a witness");
                error = 1;
            }
            else
                error = read_completion(PyList_GET_ITEM(witness, 0), &set) < 0;
        }
        Py_XDECREF(list);
        Py_XDECREF(witness);
        Py_XDECREF(call);
        Py_XDECREF(kw);
        Py_XDECREF(answer);
        if (error)
            return -1;
    }
    if (got >= upper)
        return 0;
    *size = got;
    *found = set;
    return 1;
}

/* The value masks of a product of cliques, axis after axis: axis i's
 * masks are values[first[i]] up to values[first[i + 1]].  Every size is at
 * least 2 and n at most 64, so there are at most 6 axes and 64 masks. */
#define MAX_AXES 6
typedef struct {
    uint64_t values[MAX_BITS];
    int first[MAX_AXES + 1];
    int count, n;
} Axes;

/* sizes as A's value masks, in the mixed-radix codec: value a on axis i
 * is the run of stride ids at a * stride in every period of m_i * stride
 * ids.  The sizes are checked in order: TypeError for a non-integer,
 * ValueError for one below 2, for a product above 64 and for a nonempty
 * cand that is not every id of the product from its least one up (the
 * certificate loop's contract).  -1 on error. */
static int read_sizes(Axes *A, PyObject *sizes, uint64_t cand)
{
    PyObject *fast = PySequence_Fast(sizes, "sizes must be a sequence of ints");
    if (fast == NULL)
        return -1;
    int m[MAX_AXES];
    const char *bad = NULL;
    A->count = 0;
    A->n = 1;
    for (Py_ssize_t i = 0; bad == NULL && i < PySequence_Fast_GET_SIZE(fast); i++) {
        PyObject *index = PyNumber_Index(PySequence_Fast_GET_ITEM(fast, i));
        if (index == NULL)
            break;
        int overflow;
        long size = PyLong_AsLongAndOverflow(index, &overflow);
        Py_DECREF(index);
        if (overflow < 0 || (!overflow && size < 2))
            bad = "a clique size must be at least 2";
        else if (overflow > 0 || size > MAX_BITS / A->n)
            bad = "the product of the sizes exceeds 64 vertices";
        else {
            A->n *= (int)size;
            m[A->count++] = (int)size;
        }
    }
    Py_DECREF(fast);
    if (PyErr_Occurred())
        return -1;
    if (bad == NULL && cand && cand + (cand & -cand) != (A->n < MAX_BITS ? 1ull << A->n : 0))
        bad = "cand_mask holds an id outside the product or misses one above its least";
    if (bad != NULL) {
        PyErr_SetString(PyExc_ValueError, bad);
        return -1;
    }
    int stride = A->n, k = 0;
    for (int i = 0; i < A->count; i++) {
        A->first[i] = k;
        stride /= m[i];
        uint64_t run = 0;
        for (int p = 0; p < A->n; p += m[i] * stride)
            run |= ((1ull << stride) - 1) << p;
        for (int a = 0; a < m[i]; a++)
            A->values[k++] = run << a * stride;
    }
    A->first[A->count] = k;
    return 0;
}

/* One value transposition: the ids of low move up by shift, those of high
 * down. */
typedef struct {
    uint64_t low, high;
    int shift;
} Swap;

static uint64_t apply_swaps(const Swap *swaps, int count, uint64_t mask)
{
    for (int k = 0; k < count; k++)
        mask = (mask & ~(swaps[k].low | swaps[k].high)) | (mask & swaps[k].low) << swaps[k].shift
               | (mask & swaps[k].high) >> swaps[k].shift;
    return mask;
}

/* `_bb_py._value_swaps`: the transpositions (u_i v_i) on the axes where u
 * and v differ, into swaps, and their count; -1 when u_i > v_i on some
 * axis or when they do not map the prefix mask taken onto itself.  Each
 * value is read off the masks, and the shift is the distance between the
 * two values' least ids. */
static int value_swaps(const Axes *A, uint64_t taken, int u, int v, Swap *swaps)
{
    int count = 0;
    for (int i = 0; i < A->count; i++) {
        uint64_t low = 0, high = 0;
        for (int a = A->first[i]; a < A->first[i + 1]; a++) {
            if (A->values[a] >> u & 1)
                low = A->values[a];
            if (A->values[a] >> v & 1)
                high = A->values[a];
        }
        int shift = __builtin_ctzll(high) - __builtin_ctzll(low);
        if (shift < 0)
            return -1;
        if (shift > 0)
            swaps[count++] = (Swap){low, high, shift};
    }
    return apply_swaps(swaps, count, taken) == taken ? count : -1;
}

/* 0 when comp lies inside cand, has at most size members and hits every
 * one of the np pending masks; else -1 with AssertionError set. */
static int check_completion(const uint64_t *pending, Py_ssize_t np, uint64_t comp, uint64_t cand,
                            long long size)
{
    int ok = (comp & ~cand) == 0 && popcount(comp) <= size;
    for (Py_ssize_t i = 0; ok && i < np; i++)
        ok = (pending[i] & comp) != 0;
    if (ok)
        return 0;
    PyErr_Format(PyExc_AssertionError, "%llu is not a completion within %lld candidates",
                 (unsigned long long)comp, size);
    return -1;
}

static char *lex_kwlist[] = {"masks", "cand_mask", "budget", "min_size", "completion",
                             "sizes", NULL};

static PyObject *lex_min_hitting_set(PyObject *self, PyObject *args, PyObject *kwargs)
{
    PyObject *masks, *cand_obj, *min_size = Py_None, *completion = Py_None, *sizes = Py_None;
    int budget;
    uint64_t cand;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOi|OOO:lex_min_hitting_set", lex_kwlist,
                                     &masks, &cand_obj, &budget, &min_size, &completion,
                                     &sizes))
        return NULL;
    Axes A;
    const Axes *axes = sizes == Py_None ? NULL : &A; /* NULL: no value swaps */
    if (as_u64(cand_obj, &cand) < 0 || (axes != NULL && read_sizes(&A, sizes, cand) < 0))
        return NULL;
    Py_ssize_t np;
    uint64_t *pending = read_u64s(masks, &np);
    if (pending == NULL)
        return NULL;
    Queries Q = {0};
    PyObject *out = NULL;
    /* comp: inside cand, at most budget - members members, hitting every
     * pending mask; 0 while no such set is known. */
    uint64_t comp = 0;
    if (completion != Py_None
        && (read_completion(completion, &comp) < 0
            || check_completion(pending, np, comp, cand, budget) < 0))
        goto cleanup;
    if (queries_alloc(&Q, min_size, np, budget) < 0)
        goto cleanup;
    int prefix[MAX_BITS], members = 0, failed[MAX_BITS];
    uint64_t taken = 0; /* the prefix as a mask */
    while (np > 0) {
        long long need = (long long)budget - members - 1;
        if (need < 0)
            goto none;
        if (need == 0) {
            /* One member left: the least candidate in every pending mask. */
            uint64_t common = cand;
            for (Py_ssize_t i = 0; i < np; i++)
                common &= pending[i];
            if (common == 0)
                goto none;
            prefix[members++] = __builtin_ctzll(common);
            break;
        }
        /* A v outside every pending mask hits nothing pending, and no
         * minimum solution holds it: the scan passes it by. */
        uint64_t scan = 0;
        for (Py_ssize_t i = 0; i < np; i++)
            scan |= pending[i];
        scan &= cand;
        if (need == 1) {
            /* Two members left: the first v whose missed masks share a
             * candidate above v, or that misses none (the last-pick rule). */
            for (; scan; scan &= scan - 1) {
                uint64_t vb = scan & -scan;
                uint64_t common = cand & -(vb << 1);
                int missed = 0;
                for (Py_ssize_t i = 0; i < np; i++) {
                    if ((pending[i] & vb) == 0) {
                        missed = 1;
                        common &= pending[i];
                        if (common == 0)
                            break;
                    }
                }
                if (common || !missed) {
                    prefix[members++] = __builtin_ctzll(vb);
                    if (missed)
                        prefix[members++] = __builtin_ctzll(common);
                    goto done;
                }
            }
            goto none;
        }
        int nfailed = 0, found = 0; /* failed: queries known to fail at this prefix */
        uint64_t vb = 0;
        for (; scan; scan &= scan - 1) {
            vb = scan & -scan;
            int v = __builtin_ctzll(vb);
            comp &= -vb; /* members below v hit nothing pending */
            if (vb == (comp & -comp)) {
                comp ^= vb; /* comp - v lies above v and fits: the query succeeds */
                found = 1;
                break;
            }
            if (axes != NULL) {
                Swap swaps[MAX_AXES];
                /* the completion move, checked below */
                int count = comp ? value_swaps(axes, taken, v, __builtin_ctzll(comp), swaps) : -1;
                if (count >= 0) {
                    comp = apply_swaps(swaps, count, comp) ^ vb;
                    found = 1;
                    break;
                }
                int carried = 0;
                for (int k = 0; k < nfailed && !carried; k++)
                    carried = value_swaps(axes, taken, failed[k], v, swaps) >= 0;
                if (carried) {
                    failed[nfailed++] = v; /* the failure carry */
                    continue;
                }
            }
            long long size;
            found = query(&Q, pending, np, vb, cand & -(vb << 1), need, need + 1, &size, &comp);
            if (found != 0)
                break;
            failed[nfailed++] = v;
        }
        if (found < 0)
            goto cleanup;
        if (found == 0)
            goto none;
        prefix[members++] = __builtin_ctzll(vb);
        taken |= vb;
        cand &= -(vb << 1);
        np = drop_hit(pending, np, vb, pending);
        if (check_completion(pending, np, comp, cand, need) < 0)
            goto cleanup;
    }
done:
    out = id_list(prefix, members);
    goto cleanup;
none:
    out = Py_NewRef(Py_None);
cleanup:
    PyMem_Free(pending);
    queries_free(&Q);
    return out;
}

/* The orbit search's state: the value masks, the branching rule, its
 * queries, and one row of masks per branching level. */
typedef struct {
    Axes axes;
    int lower, min_candidates, min_budget;
    uint64_t *rows; /* each level's masks, cap per row */
    Py_ssize_t cap;
    Queries queries;
} Orbits;

/* The orbits of the pointwise stabilizer of forced on cand, as
 * `_bb_py._stabilizer_orbits` lists them, into out; returns their count.
 * They are disjoint, so at most 64: each axis splits every orbit so far
 * by its classes, in order, dropping the empty parts. */
static int stabilizer_orbits(const Axes *A, uint64_t forced, uint64_t cand, uint64_t *out)
{
    uint64_t parts[2][MAX_BITS];
    int count = cand != 0, cur = 0;
    parts[0][0] = cand;
    for (int i = 0; i < A->count && count; i++) {
        int first = A->first[i], end = A->first[i + 1];
        uint64_t other = cand;
        for (int a = first; a < end; a++)
            if (A->values[a] & forced)
                other &= ~A->values[a];
        int next = 0;
        for (int p = 0; p < count; p++) {
            uint64_t orbit = parts[cur][p];
            for (int a = first; a < end; a++)
                if ((A->values[a] & forced) && (orbit & A->values[a]))
                    parts[!cur][next++] = orbit & A->values[a];
            if (orbit & other)
                parts[!cur][next++] = orbit & other;
        }
        count = next;
        cur = !cur;
    }
    /* Largest first, then by least id (an insertion sort). */
    for (int p = 0; p < count; p++) {
        uint64_t orbit = parts[cur][p];
        int q = p;
        for (; q > 0; q--) {
            uint64_t prev = out[q - 1];
            int c = popcount(orbit), c_prev = popcount(prev);
            if (c_prev > c || (c_prev == c && (prev & -prev) < (orbit & -orbit)))
                break;
            out[q] = prev;
        }
        out[q] = orbit;
    }
    return count;
}

/* One node of `_bb_py.orbit_min_size`'s search, at the given depth: the np
 * masks are those forced (depth + 1 vertices, vertex 0 and one per level)
 * leaves unhit.  1 with the size in *size and the set in *found when one
 * below upper exists, else 0; -1 on error.  Each level takes a bit out of
 * cand, so the search stays within 64 levels. */
static int orbit_node(Orbits *O, const uint64_t *masks, Py_ssize_t np, uint64_t cand,
                      uint64_t forced, long long upper, int depth, long long *size,
                      uint64_t *found)
{
    int k = depth + 1, root = depth == 0, count = 0;
    uint64_t orbits[MAX_BITS];
    if (np > 0 && (root || upper - k >= O->min_budget))
        count = stabilizer_orbits(&O->axes, forced, cand, orbits);
    if (count == 0 || (!root && popcount(orbits[0]) < O->min_candidates)) {
        int hit = query(&O->queries, masks, np, 0, cand, O->lower > k ? O->lower - k : 0,
                        upper - k, size, found);
        if (hit == 1) {
            *size += k;
            *found |= forced;
        }
        return hit;
    }
    long long best = upper;
    int has_best = 0;
    uint64_t *child = O->rows + (Py_ssize_t)(depth + 1) * O->cap;
    for (int i = 0; i < count; i++) {
        /* Every branch forces k + 1 vertices. */
        if (best <= O->lower || k + 1 >= best)
            break;
        uint64_t rep = orbits[i] & -orbits[i];
        Py_ssize_t keep = drop_hit(masks, np, rep, child);
        int hit = orbit_node(O, child, keep, cand & ~rep, forced | rep, best, depth + 1, size,
                             found);
        if (hit < 0)
            return -1;
        if (hit) {
            best = *size;
            has_best = 1;
        }
        cand &= ~orbits[i];
    }
    return has_best;
}

static char *orbit_kwlist[] = {"masks", "lower", "upper", "sizes", "min_candidates",
                               "min_budget", "min_size", NULL};

static PyObject *orbit_min_size(PyObject *self, PyObject *args, PyObject *kwargs)
{
    PyObject *masks, *sizes, *min_size = Py_None;
    int lower, upper, min_candidates, min_budget;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OiiOii|O:orbit_min_size", orbit_kwlist,
                                     &masks, &lower, &upper, &sizes, &min_candidates,
                                     &min_budget, &min_size))
        return NULL;
    Orbits O = {.lower = lower, .min_candidates = min_candidates, .min_budget = min_budget};
    Py_ssize_t np;
    uint64_t *words;
    if (read_sizes(&O.axes, sizes, 0) < 0 || (words = read_u64s(masks, &np)) == NULL)
        return NULL;
    /* Vertex 0 is forced and every other id is a candidate.  The root's
     * masks are those vertex 0 misses, and each of the n - 1 levels below
     * it has a row of its own. */
    int n = O.axes.n;
    uint64_t cand = (n < MAX_BITS ? (1ull << n) - 1 : ~0ull) & ~1ull;
    np = drop_hit(words, np, 1, words);
    O.cap = np > 0 ? np : 1;
    if ((O.rows = PyMem_Realloc(words, sizeof(uint64_t) * O.cap * n)) == NULL) {
        PyMem_Free(words);
        return PyErr_NoMemory();
    }
    long long size;
    uint64_t found;
    int has = queries_alloc(&O.queries, min_size, np, upper) < 0
                  ? -1
                  : orbit_node(&O, O.rows, np, cand, 1, upper, 0, &size, &found);
    PyMem_Free(O.rows);
    queries_free(&O.queries);
    if (has < 0)
        return NULL;
    if (!has)
        return Py_BuildValue("(iO)", upper, Py_None);
    return Py_BuildValue("(LK)", size, (unsigned long long)found);
}

static char *pairs_kwlist[] = {"sizes", NULL};

static PyObject *product_pair_masks(PyObject *self, PyObject *args, PyObject *kwargs)
{
    PyObject *sizes;
    Axes A;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O:product_pair_masks", pairs_kwlist,
                                     &sizes)
        || read_sizes(&A, sizes, 0) < 0)
        return NULL;
    /* near[v]: the union of v's value masks; side[v]: v's value mask on
     * the size-2 axis, 0 without one. */
    uint64_t near[MAX_BITS] = {0}, side[MAX_BITS] = {0};
    for (int i = 0, pairs_axis = -1; i < A.count; i++) {
        int first = A.first[i], end = A.first[i + 1];
        if (end - first == 2) {
            if (pairs_axis >= 0) {
                PyErr_SetString(PyExc_ValueError,
                                "two axes of size 2 make the product disconnected");
                return NULL;
            }
            pairs_axis = i;
        }
        for (int a = first; a < end; a++)
            for (uint64_t r = A.values[a]; r; r &= r - 1) {
                near[__builtin_ctzll(r)] |= A.values[a];
                if (i == pairs_axis)
                    side[__builtin_ctzll(r)] = A.values[a];
            }
    }
    int n = A.n;
    uint64_t full = n < MAX_BITS ? (1ull << n) - 1 : ~0ull;
    Py_ssize_t pairs = (Py_ssize_t)n * (n - 1) / 2, k = 0;
    uint64_t far[MAX_BITS];
    for (int v = 0; v < n; v++)
        far[v] = full & ~near[v];
    uint64_t *masks = PyMem_Malloc(sizeof(uint64_t) * (pairs > 0 ? pairs : 1));
    Dedup seen;
    if (masks == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    if (dedup_alloc(&seen, pairs) < 0) {
        PyMem_Free(masks);
        return NULL;
    }
    for (int x = 0; x < n; x++)
        for (int y = x + 1; y < n; y++) {
            uint64_t m = (far[x] ^ far[y]) | 1ull << x | 1ull << y;
            if (side[x] != side[y])
                m |= near[x] & near[y];
            masks[k++] = m;
        }
    /* In place: the count written never passes the index read. */
    Py_ssize_t count = distinct_masks(&seen, masks, pairs, 0, ~0ull, masks);
    dedup_free(&seen);
    PyObject *out = PyList_New(count);
    for (Py_ssize_t i = 0; out != NULL && i < count; i++) {
        PyObject *m = PyLong_FromUnsignedLongLong(masks[i]);
        if (m == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, m);
    }
    PyMem_Free(masks);
    return out;
}

static PyMethodDef methods[] = {
    {"min_hitting_size", (PyCFunction)(void (*)(void))min_hitting_size,
     METH_VARARGS | METH_KEYWORDS,
     "Smallest number of candidate bits hitting every mask, capped at upper.\n\n"
     "Same contract as `_bb_py.min_hitting_size`."},
    {"greedy_completion", (PyCFunction)(void (*)(void))greedy_completion,
     METH_VARARGS | METH_KEYWORDS,
     "Greedy hitting set from the candidates, in pick order.\n\n"
     "Same contract and picks as `_bb_py.greedy_completion`."},
    {"lex_min_hitting_set", (PyCFunction)(void (*)(void))lex_min_hitting_set,
     METH_VARARGS | METH_KEYWORDS,
     "Lexicographically least hitting set of size <= budget, from size queries.\n\n"
     "Same contract and queries as `_bb_py.lex_min_hitting_set`; min_size None or\n"
     "this module's min_hitting_size is answered without a Python call."},
    {"orbit_min_size", (PyCFunction)(void (*)(void))orbit_min_size,
     METH_VARARGS | METH_KEYWORDS,
     "Least size below upper of a hitting set holding vertex 0 on a product of cliques,\n"
     "by orbital branching.\n\n"
     "Same contract and leaf queries as `_bb_py.orbit_min_size`; min_size None or\n"
     "this module's min_hitting_size is answered without a Python call."},
    {"product_pair_masks", (PyCFunction)(void (*)(void))product_pair_masks,
     METH_VARARGS | METH_KEYWORDS,
     "Distinct pair masks of a connected product of cliques, in pair order.\n\n"
     "Same contract and masks as `_bb_py.product_pair_masks`."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_bb",
    "Hitting-set search kernel, compiled edition; mirrors `_bb_py`.",
    -1, methods,
};

PyMODINIT_FUNC PyInit__bb(void) { return PyModule_Create(&module); }
