"""Exact and heuristic metric-dimension solvers.

The exact search reduces the problem to minimum hitting set: a probe set
resolves the graph exactly when, for every pair of distinct vertices, it
contains a vertex whose distances to the two differ.  A branch-and-bound
kernel finds the optimum size k: the compiled `_bb` when `_loader` finds
one (in a source checkout it builds one at import), else the pure-Python
`_bb_py`, which TENSORDIM_PURE forces.  The certificate is then built by
the kernel's own `lex_min_hitting_set` (the compiled loop mirrors
`_bb_py`'s step for step) from size queries to the same kernel's
`min_hitting_size`, passed by keyword so that a tracer wrapping it sees
every query.  Each step appends the least vertex v above the prefix such
that k - |prefix| - 1 vertices above v can hit every mask v leaves
unhit.  No minimum set extends the prefix with a smaller member, so
the result is the lexicographically least minimum certificate.  The loop
starts from a solution of size k that the solver already holds: the size
search's witness when it beat the upper seed, else that seed.  The upper
seed is the paper's construction on a product of two cliques, which is
optimal and is checked only at the end (below), and otherwise the forced
vertices (below) plus a greedy completion, which the same kernel's
`greedy_completion` builds: the candidate in the most pending masks,
repeats counted, lowest id on ties, until every mask is hit.  (tdbench
traces it through `_greedy_completion`, kept as a one-line call.)  A
query that such a solution answers is skipped (the `_bb_py` docstring
gives the argument), so the certificate is unchanged.  Every instance
the kernel searches (the root, each symmetric branch that stops, each
certificate query) has its masks restricted to that instance's
candidates and de-duplicated, first occurrence kept: by the solver for
the plain root, and by the kernel itself for the others and for a
product's pair masks, in the same order on both kernels, so both search
the same input and branch the same way.
Plain subset enumeration, `exhaustive_metric_dimension`, stays as the
reference: it visits k-subsets in lexicographic order and therefore
returns the same certificate.

The greedy heuristic, `greedy_resolving_set`, is the set-cover greedy on
the vertex pairs (Khuller, Raghavachari and Rosenfeld, Discrete Appl.
Math. 1996): each pick takes the vertex that leaves the fewest pairs tied,
lowest id on ties.  A pair stays tied after adding v exactly when its
resolver mask misses the chosen set and v, so that vertex is the one in
the most unhit masks, repeats counted: the rule of `greedy_completion`,
which stops, as the heuristic does, when no mask is left.  Up to 64
vertices the heuristic is `_greedy_completion` on every pair's mask,
repeats kept; a larger table, beyond 64-bit masks, counts its tied pairs
with a numpy key sort.

Vertices that are mutual twins (identical distance rows away from each
other) are interchangeable, so from each twin class of size s the s-1
smallest ids are forced into the solution before the search starts.  The
classes are read off the pair table, built once for the search: two
vertices are twins when nothing but themselves resolves their pair.

The input's type picks the route.  A distance table takes the plain
search above.  Connected products of cliques K_{m_1} x ... x K_{m_t} with
t >= 2 (at most one m_i is 2), given by their factors, take a different
route with no n x n table: the kernel's `product_pair_masks` reads their
pair masks off coordinates, in the order of `build_pair_table` with the
repeats dropped (first occurrence kept), the greedy upper seed counts
those distinct masks, and every check runs in coordinate space.  (A
single factor is a clique, solved on its distance table.)  They have no
twins.  Take u != v and an axis a where they differ, the
size-2 axis if they differ there.  Every other axis has a value that is
neither u's nor v's (on the size-2 axis they agree), so a vertex z with
z_a = u_a and those values elsewhere has d(v, z) = 1 and d(u, z) in
{2, 3}.  Their automorphisms include S_{m_1} x ... x S_{m_t} acting on
the coordinates, which is transitive on the vertices, so the size search
breaks symmetry by orbital branching (Ostrowski, Linderoth, Rossi and
Smriglio, Math. Prog. 2011).  It searches
up from `constructions.lower_bound_lines`, which is at least max(m_i) - 1
on these products (its docstring has the one-line proof):

- Some minimum resolving set contains vertex 0 (map any member to 0), so
  the kernel forces vertex 0 itself: the search starts from the forced set
  F = {0}, with every other id a candidate and nothing excluded.
- The pointwise stabilizer of F fixes, on each axis, the values that F
  uses and permutes the others.  Its orbits on the candidates are keyed
  axis by axis: a vertex's own value where F uses it, "other" elsewhere.
- Suppose some minimum set W holds F and avoids the excluded candidates
  E, and E is invariant under the stabilizer.  If F leaves a pair
  unresolved, W has a member outside F.  Let O_i be the first orbit, in a
  fixed order, that W meets.  A stabilizer element maps a member of W in
  O_i to the orbit's least id rep_i; it fixes F, and it keeps W away from
  O_1..O_{i-1} and from E.  So branch i, which forces F + {rep_i} and
  excludes E + O_1..O_{i-1}, finds a set of size |W|, and the least branch
  optimum is the optimum.
- The branch's exclusions are unions of orbits of the stabilizer of F, so
  they are invariant under the smaller stabilizer of F + {rep_i}, and the
  argument applies again one level down, at any depth; a node that does
  not branch goes to the kernel whole.  The root F = {0} branches, and so
  does a node below it while its largest orbit has `ORBIT_MIN_CANDIDATES`
  candidates and the incumbent exceeds |F| by `ORBIT_MIN_BUDGET` (values
  measured when each branch was a Python call; the kernel now runs the
  whole recursion, `orbit_min_size`).  The `best <= lower` stop holds
  across all levels.  Orbits go largest first, so the later branches
  drop the most candidates.

A resolving set of such a product misses at most one value per axis, yet
the search carries no rule for it, because the rule could never prune.
Suppose the vertices still chosen or available miss values a and b on
axis i, and take the two vertices that differ only on axis i, with values
a and b there.  A vertex with neither value on axis i is at the same
distance from both (the distance depends only on which coordinates
match), so only vertices with value a or b on axis i tell them apart.
That pair's mask is still pending and has no available resolver, and the
kernel cuts the node on it already.

The certificate queries run on the full instance, without forcing vertex
0, so the certificate is the least one in sorted order either way.  The
kernel's loop takes the factor sizes and answers some of them without
asking, by value transpositions that map the prefix onto itself (`_bb_py`
gives the argument and its two implications, the completion move and the
failure carry).

A caller that needs only the dimension (`certificate=False`) runs the same
forcing, seeds and size search and skips the certificate loop.  Either
way every solve ends with one resolving check: the forced vertices plus
the solution behind the size (the certificate's members, else the size
search's solution or the seed that set the size) must be a resolving set
of that size.  No seed is checked when it is taken: a seed that does not
resolve is caught by that check when nothing beats it, and, with the
certificate, first by the certificate loop, which checks its completion.
"""

from __future__ import annotations

import functools
import itertools
from typing import TYPE_CHECKING

from . import _bb_py, _loader
from .constructions import _two_factor_hint, lower_bound_lines
from .graphs import CliqueFactors, DistanceMatrix, tensor_clique_distances
from .metric import DimResult, is_resolving

if TYPE_CHECKING:
    import numpy as np

_default_kernel = _loader.solver_kernel()

MAX_EXACT_VERTICES = 64
# Orbit branching below the root (see the module docstring) needs a largest
# orbit of this many candidates and an incumbent this far above |forced|.
ORBIT_MIN_CANDIDATES = 4
ORBIT_MIN_BUDGET = 5


def kernel_name() -> str:
    """Which hitting-set kernel the exact solver will use."""
    return "python" if _default_kernel is _bb_py else "compiled"


@functools.cache
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """`np.triu_indices(n, k=1)`, the pairs x < y in the order of
    `itertools.combinations(range(n), 2)`, built once per n and read-only."""
    import numpy as np

    xs, ys = np.triu_indices(n, k=1)
    xs.flags.writeable = ys.flags.writeable = False
    return xs, ys


def build_pair_table(dist: DistanceMatrix) -> np.ndarray:
    """Resolver bitsets for every vertex pair (needs at most 64 vertices), as
    `uint64` masks: mask k has bit w set when vertex w tells apart the k-th
    pair x < y of `itertools.combinations(range(n), 2)`."""
    n = dist.n
    if n > MAX_EXACT_VERTICES:
        raise ValueError(f"pair table supports at most {MAX_EXACT_VERTICES} vertices, got {n}")
    import numpy as np

    d = dist.values
    xs, ys = _pair_index(n)
    # Bit w of a pair's mask is column w of its row of differences: pack the
    # bits least significant first and read each padded row as one word.
    bits = np.packbits(d[xs] != d[ys], axis=1, bitorder="little")
    words = np.zeros((len(xs), 8), dtype=np.uint8)
    words[:, : bits.shape[1]] = bits
    return words.view("<u8").ravel().astype(np.uint64)


def _twin_classes(n: int, pair_masks: np.ndarray) -> list[list[int]]:
    """Maximal classes of mutually twin vertices, ids ascending, read off
    the pair table of `build_pair_table`.

    x < y each tell their own pair apart, so they are twins exactly when
    the pair's mask holds no other bit.  Twins are an equivalence relation
    (Hernando, Mora, Pelayo, Seara and Wood, 2010), so each class is the
    twins of its least vertex: the least x in a twin pair with y names
    y's class.
    """
    import numpy as np

    one = np.uint64(1)
    # Clearing the two lowest bits, x and y, leaves nothing on a twin pair.
    rest = pair_masks & (pair_masks - one)
    rest &= rest - one
    twins = np.flatnonzero(rest == 0)
    least = list(range(n))
    # Most inputs have no twins; the pair indices cost more than the scan.
    if twins.size:
        xs, ys = _pair_index(n)
        for x, y in zip(xs[twins].tolist(), ys[twins].tolist()):
            least[y] = min(least[y], x)
    classes: dict[int, list[int]] = {}
    for v, x in enumerate(least):
        classes.setdefault(x, []).append(v)
    return list(classes.values())


def greedy_resolving_set(dist: DistanceMatrix) -> list[int]:
    """Greedy heuristic: repeatedly take the vertex that leaves the fewest
    pairs of vertices tied (equal distances to every vertex taken so far),
    lowest id on ties, until no pair is tied.  Returns the picks sorted.

    This is the set-cover greedy on the pairs (Khuller, Raghavachari and
    Rosenfeld, 1996), and the kernel's `greedy_completion` runs the same
    rule.  A pair stays tied after adding v exactly when its resolver mask
    misses the chosen set and v.  So the fewest tied pairs after v means v
    lies in the most masks not yet hit, repeats counted, with the same
    lowest-id tie rule, and both stop when no mask is left.  Up to
    MAX_EXACT_VERTICES vertices the picks therefore come from
    `_greedy_completion` on every pair's mask of `build_pair_table`,
    repeats kept.  Larger tables, which 64-bit masks cannot hold, count
    the tied pairs directly (`_greedy_by_key_sort`).
    """
    if not dist.connected:
        raise ValueError("graph is disconnected")
    n = dist.n
    if n == 0:
        return []
    if n <= MAX_EXACT_VERTICES:
        chosen = _greedy_completion(build_pair_table(dist).tolist(), (1 << n) - 1)
    else:
        chosen = _greedy_by_key_sort(dist)
    chosen.sort()
    if not is_resolving(dist, chosen):
        raise AssertionError("greedy result failed the resolving check")
    return chosen


def _greedy_by_key_sort(dist: DistanceMatrix) -> list[int]:
    """`greedy_resolving_set`'s picks, in pick order, on a connected table
    of any size: row v of the row-sorted key matrix holds each vertex's
    (class, distance to v) key, and the runs of equal keys count the pairs
    that stay tied after adding v."""
    import numpy as np

    n = dist.n
    span = int(dist.values.max()) + 1
    # Keys class * span + distance stay below n * span.
    key_type = np.min_scalar_type(n * span)
    dt = np.ascontiguousarray(dist.values.T, dtype=key_type)
    labels = np.zeros(n, dtype=key_type)
    chosen: list[int] = []
    current = pairs = n * (n - 1) // 2
    while current > 0:
        keys = dt + labels * span
        keys.sort(axis=1)
        run_start = np.where(keys[:, 1:] != keys[:, :-1], np.arange(1, n, dtype=key_type), 0)
        np.maximum.accumulate(run_start, axis=1, out=run_start)
        # Entry j of a run starting at s is tied with the j - s before it.
        tied = pairs - run_start.sum(axis=1)
        best_v = int(np.argmin(tied))
        chosen.append(best_v)
        # Renumber the classes by ranking the keys present, as np.unique's
        # inverse would, with a presence table over all n * span keys.
        split = labels * span + dt[best_v]
        present = np.zeros(n * span, dtype=key_type)
        present[split] = 1
        labels = np.cumsum(present, dtype=key_type)[split] - 1
        current = int(tied[best_v])
    return chosen


def exhaustive_metric_dimension(dist: DistanceMatrix) -> DimResult:
    """Plain subset enumeration by increasing size, lexicographic within."""
    if not dist.connected:
        return DimResult(None, None)
    n = dist.n
    if n <= 1:
        return DimResult(0, ())
    d = dist.values
    for k in range(1, n):
        for combo in itertools.combinations(range(n), k):
            reps = d[:, combo]
            if len({row.tobytes() for row in reps}) == n:
                return DimResult(k, combo)
    raise AssertionError("unreachable: the full vertex set always resolves")


def _greedy_completion(pending: list[int], cand_mask: int) -> list[int]:
    """A greedy hitting set for the reduced instance (upper seed), in pick
    order: the kernel's `greedy_completion` takes the candidate in the most
    pending masks, repeats counted, lowest id on ties."""
    return _default_kernel.greedy_completion(pending, cand_mask)


def _mask(ids) -> int:
    out = 0
    for v in ids:
        out |= 1 << v
    return out


def _orbit_min_size(masks: list[int], lower: int, upper: int,
                    sizes: tuple[int, ...]) -> tuple[int, int | None]:
    """Least size below `upper` of a set that holds vertex 0 and hits
    every one of the pair `masks` of the product of cliques of these
    `sizes`.  The kernel's `orbit_min_size` forces vertex 0, branches on
    the orbits of the pointwise stabilizer of its forced vertices at the
    root and at nodes that pass the ORBIT_MIN_* rule, read here at each
    call, and hands every other node to the same kernel's
    `min_hitting_size` (see the module docstring).
    Returns the size and such a set as a mask, or (upper, None) when none
    is smaller."""
    # min_size is looked up at each call, so a tracer wrapping it sees every
    # leaf; the compiled kernel answers its own function in place.
    return _default_kernel.orbit_min_size(masks, lower, upper, sizes, ORBIT_MIN_CANDIDATES,
                                          ORBIT_MIN_BUDGET,
                                          min_size=_default_kernel.min_hitting_size)


def exact_metric_dimension(
    space: DistanceMatrix | CliqueFactors,
    *,
    certificate: bool = True,
) -> DimResult:
    """Exact metric dimension with the lexicographically least certificate.

    The input's type picks the route, as in `is_resolving`.  A distance
    table takes the plain search: twin-forced vertices, a greedy upper
    seed, and a search up from 0.  A connected product of two or more
    cliques, given by its factors, takes the symmetric route with no n x n
    table: the kernel's `product_pair_masks` reads its distinct pair masks
    off coordinates, the size search branches on orbits and runs up from
    `lower_bound_lines`, the certificate loop uses its value swaps, and the
    upper seed is the paper's construction on two factors, unchecked, else
    a greedy completion on the distinct masks.  A single factor is solved
    on its distance table.  A disconnected input gives DimResult(None,
    None); a connected one over 64 vertices raises ValueError before
    anything is built.
    `exhaustive_metric_dimension` is the subset scan kept as a reference.
    With `certificate=False` only the dimension is computed, and the
    result's certificate is None: the certificate loop is skipped.  Either
    way every solve ends with one resolving check, on the set that proves
    the size (the certificate, else the forced vertices plus the size
    search's solution or the seed that set the size).  The dimension does
    not depend on the route or on `certificate`.
    """
    if not space.connected:
        return DimResult(None, None)
    n = space.n
    if n > MAX_EXACT_VERTICES:
        raise ValueError(f"exact search supports at most {MAX_EXACT_VERTICES} vertices, got {n}")
    if isinstance(space, CliqueFactors) and space.t == 1:
        space = tensor_clique_distances(space)

    clique_product = isinstance(space, CliqueFactors)
    forced: list[int] = []
    # The upper seed, outside the forced vertices, as a mask: the construction
    # on two factors, else a greedy completion.  The check at the end covers
    # the construction: when nothing beats it, it is the solution behind the
    # size.
    if clique_product:
        # The kernel needs each mask once, and builds a product's that way.
        # The greedy counts each distinct mask once here, and picks the same
        # seed as counting every pair would on each product of three or more
        # factors up to 64 vertices.
        pending = _default_kernel.product_pair_masks(space.sizes)
        cand_mask = (1 << n) - 1
        if space.t == 2:
            seed = _mask(_two_factor_hint(*space.sizes))
        else:
            seed = _mask(_greedy_completion(pending, cand_mask))
    else:
        pair_masks = build_pair_table(space)
        for cls in _twin_classes(n, pair_masks):
            forced.extend(cls[:-1])
        forced.sort()
        forced_mask = _mask(forced)
        cand_mask = ((1 << n) - 1) & ~forced_mask
        # Masks missing the forced vertices lie inside cand_mask already.
        # Graphs without twins force nothing.
        unhit = pair_masks.tolist()
        if forced_mask:
            unhit = [m for m in unhit if m & forced_mask == 0]
        # The greedy counts every pair, repeats included.
        seed = _mask(_greedy_completion(unhit, cand_mask))  # 0 when nothing is pending
        pending = list(dict.fromkeys(unhit))
    if not pending:
        return DimResult(len(forced), tuple(forced) if certificate else None)
    if clique_product:
        k_rest, found = _orbit_min_size(pending, lower_bound_lines(space), seed.bit_count(),
                                        space.sizes)
    else:
        witness: list[int] = []
        # lower and upper by keyword, as in _bb_py.lex_min_hitting_set.
        k_rest = _default_kernel.min_hitting_size(pending, cand_mask, lower=0,
                                                  upper=seed.bit_count(), witness=witness)
        found = witness[0] if witness else None
    # A solution of size k_rest seeds the certificate loop: the search's own
    # when it beat the seed, else the seed, which set k_rest.
    if found is None:
        found = seed
    dim = len(forced) + k_rest
    if certificate:
        rest = _default_kernel.lex_min_hitting_set(pending, cand_mask, k_rest,
                                                   min_size=_default_kernel.min_hitting_size,
                                                   completion=found,
                                                   sizes=space.sizes if clique_product else None)
        if rest is None or len(rest) != k_rest:
            raise AssertionError("certificate search disagrees with the size search")
        # The certificate is a solution of size k_rest too, and the one returned.
        found = _mask(rest)
    proof = tuple(sorted(forced + _bb_py._bits_ascending(found)))
    if len(proof) != dim or not is_resolving(space, proof):
        raise AssertionError("the set behind the exact dimension failed the resolving check")
    return DimResult(dim, proof if certificate else None)
