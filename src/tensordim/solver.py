"""Exact and heuristic metric-dimension solvers.

The exact search reduces the problem to minimum hitting set: a probe set
resolves the graph exactly when, for every pair of distinct vertices, it
contains a vertex whose distances to the two differ.  A branch-and-bound
kernel (compiled when available, pure Python otherwise) finds the optimum
size; a second lexicographic pass extracts the least certificate.  Small
graphs use plain subset enumeration instead, which visits k-subsets in
lexicographic order and therefore returns the same certificate.

Vertices that are mutual twins (identical distance rows away from each
other) are interchangeable, so from each twin class of size s the s-1
smallest ids are forced into the solution before the search starts.

Products of cliques K_{m_1} x ... x K_{m_t} with t >= 2 and every m_i >= 3
take a different route.  They have no twins: if u and v differ on axis a,
a vertex z with z_a = u_a and, on every other axis, a value that is neither
u's nor v's has d(u, z) = 2 and d(v, z) = 1.  Their automorphisms include
S_{m_1} x ... x S_{m_t} acting on the coordinates, which is transitive on
the vertices, so the size search breaks symmetry at the root:

- Some minimum resolving set contains vertex 0 (map any member to 0).
- Permuting the nonzero values of each axis fixes vertex 0.  The orbits of
  this stabilizer S_{m_1-1} x ... x S_{m_t-1} on the other vertices are the
  equality patterns with vertex 0: the set of axes on which a vertex has
  coordinate 0.  The orbit's least id, with 0 on those axes and 1 on the
  others, represents it.
- A minimum set W containing 0 has a second member (one vertex sees at most
  three distances).  Let O_i be the first orbit, in a fixed order, that W
  meets.  A stabilizer element maps a member of W in O_i to rep_i and keeps
  W away from O_1..O_{i-1}.  So branch i, which forces {0, rep_i} and drops
  O_1..O_{i-1} from the candidates, finds a set of size |W|, and the least
  branch optimum is the dimension.

The symmetry applies only to the size search.  The lexicographic pass runs
on the full instance, so the certificate is the least one in sorted order
either way.
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _bb_py
from .graphs import CliqueFactors, DistanceMatrix
from .metric import check_vertex_set, is_resolving

try:
    from . import _bb as _default_kernel
except ImportError:  # pragma: no cover - depends on the build environment
    _default_kernel = _bb_py

if os.environ.get("TENSORDIM_PURE"):
    _default_kernel = _bb_py

MAX_EXACT_VERTICES = 64
ENUMERATION_CUTOFF = 12


def kernel_name() -> str:
    """Which hitting-set kernel the exact solver will use."""
    return "python" if _default_kernel is _bb_py else "compiled"


@dataclass(frozen=True)
class DimResult:
    """Metric dimension plus certificate; dim None means disconnected."""

    dim: int | None
    certificate: tuple[int, ...] | None

    @property
    def disconnected(self) -> bool:
        return self.dim is None


@dataclass(frozen=True)
class PairResolutionTable:
    """Per-pair resolver bitsets over the vertices.

    pairs[k] is the k-th unordered pair (x, y) with x < y in lexicographic
    order; masks[k] has bit w set when vertex w tells x and y apart.
    """

    n: int
    pairs: tuple[tuple[int, int], ...]
    masks: np.ndarray

    def resolvers(self, k: int) -> list[int]:
        return _bb_py._bits_ascending(int(self.masks[k]))


def build_pair_table(dist: DistanceMatrix) -> PairResolutionTable:
    """Resolver bitsets for every vertex pair (needs at most 64 vertices)."""
    n = dist.n
    if n > MAX_EXACT_VERTICES:
        raise ValueError(f"pair table supports at most {MAX_EXACT_VERTICES} vertices, got {n}")
    d = dist.values
    pairs = []
    masks = []
    weights = (1 << np.arange(n, dtype=object))
    for x in range(n):
        for y in range(x + 1, n):
            diff = d[x] != d[y]
            pairs.append((x, y))
            masks.append(int((weights[diff]).sum()) if diff.any() else 0)
    return PairResolutionTable(n, tuple(pairs), np.array(masks, dtype=np.uint64))


def _twin_classes(dist: DistanceMatrix) -> list[list[int]]:
    """Maximal classes of mutually twin vertices, ids ascending."""
    d = dist.values
    n = dist.n

    def twins(x: int, y: int) -> bool:
        keep = np.ones(n, dtype=bool)
        keep[[x, y]] = False
        return bool((d[x, keep] == d[y, keep]).all())

    classes: list[list[int]] = []
    assigned = [False] * n
    for x in range(n):
        if assigned[x]:
            continue
        cls = [x]
        for y in range(x + 1, n):
            if not assigned[y] and all(twins(z, y) for z in cls):
                cls.append(y)
                assigned[y] = True
        assigned[x] = True
        classes.append(cls)
    return classes


def greedy_resolving_set(dist: DistanceMatrix) -> list[int]:
    """Greedy heuristic: repeatedly take the vertex splitting the most
    still-identical representation classes, lowest id on ties.

    Counts pairs through class refinement, so no pair list is materialized.
    """
    if not dist.connected:
        raise ValueError("graph is disconnected")
    n = dist.n
    d = dist.values.astype(np.int64)
    labels = np.zeros(n, dtype=np.int64)
    chosen: list[int] = []

    def unresolved_pairs(lbl: np.ndarray) -> int:
        _, counts = np.unique(lbl, return_counts=True)
        return int((counts * (counts - 1) // 2).sum())

    current = unresolved_pairs(labels)
    span = int(d.max()) + 1
    while current > 0:
        best_v = -1
        best_after = current + 1
        for v in range(n):
            _, counts = np.unique(labels * span + d[:, v], return_counts=True)
            after = int((counts * (counts - 1) // 2).sum())
            if after < best_after:
                best_after = after
                best_v = v
        chosen.append(best_v)
        _, labels = np.unique(labels * span + d[:, best_v], return_inverse=True)
        current = best_after
    chosen.sort()
    if not is_resolving(dist, chosen):
        raise AssertionError("greedy result failed the resolving check")
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


def _greedy_completion(pending: list[int], cand_mask: int) -> int:
    """Size of a greedy hitting set for the reduced instance (upper seed)."""
    count = 0
    pend = list(pending)
    while pend:
        scores: dict[int, int] = {}
        for m in pend:
            for w in _bb_py._bits_ascending(m & cand_mask):
                scores[w] = scores.get(w, 0) + 1
        best_w = min(scores, key=lambda w: (-scores[w], w))
        wb = 1 << best_w
        cand_mask &= ~wb
        pend = [m for m in pend if m & wb == 0]
        count += 1
    return count


def _min_size_job(args):
    masks, cand_mask, covered, lower, upper, gm, go = args
    return _default_kernel.min_hitting_size(masks, cand_mask, covered, lower, upper, gm, go)


def _min_size(masks: list[int], cand_mask: int, covered: int, lower: int, upper: int,
              gm, go, threads: int) -> int:
    threads = min(threads, os.cpu_count() or 1)
    if threads <= 1 or not masks:
        return _default_kernel.min_hitting_size(masks, cand_mask, covered, lower, upper, gm, go)
    # Fan the root branching out to worker processes: the branch pair is the
    # one with the fewest resolvers; branch j forces resolver w_j and
    # excludes w_1..w_{j-1}, so the subtrees partition the solutions and the
    # merge (a plain min) cannot depend on scheduling.
    root = min((m & cand_mask for m in masks), key=lambda r: (int(r).bit_count(), r))
    if root == 0:
        return upper
    jobs = []
    excluded = 0
    for w in _bb_py._bits_ascending(root):
        wb = 1 << w
        sub_masks = [m for m in masks if m & wb == 0]
        jobs.append((sub_masks, cand_mask & ~excluded & ~wb, covered | wb,
                     max(0, lower - 1), upper - 1, gm, go))
        excluded |= wb
    # The pool starts all its workers at once, so never ask for more than
    # there are cores or jobs.
    with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
        results = list(pool.map(_min_size_job, jobs))
    return min(upper, min(1 + res for res in results))


def _symmetric_min_size(masks: list[int], cand_mask: int, lower: int, upper: int,
                        factors: CliqueFactors, gm, go, threads: int) -> int:
    """`_min_size` for a product of cliques, forcing vertex 0 and branching
    on the orbits of its stabilizer (see the module docstring)."""
    zero = factors.coordinates() == 0
    orbits: dict[tuple[bool, ...], int] = {}
    for v in range(1, factors.vertex_count):
        key = tuple(zero[v])
        orbits[key] = orbits.get(key, 0) | 1 << v
    best = upper
    excluded = 0
    # Largest orbit first, so the later branches drop the most candidates.
    for orbit in sorted(orbits.values(), key=lambda o: -o.bit_count()):
        if best <= lower:
            break
        pair = 1 | (orbit & -orbit)
        best = min(best, 2 + _min_size([m for m in masks if m & pair == 0],
                                       cand_mask & ~excluded & ~pair, pair,
                                       max(0, lower - 2), best - 2, gm, go, threads))
        excluded |= orbit
    return best


def _factor_groups(factors: CliqueFactors) -> tuple[list[int], list[int]]:
    """Flattened per-factor value masks for the structural pruning rule."""
    coords = factors.coordinates()
    gm: list[int] = []
    go: list[int] = [0]
    for axis in range(factors.t):
        for value in range(factors.sizes[axis]):
            mask = 0
            for v in np.flatnonzero(coords[:, axis] == value):
                mask |= 1 << int(v)
            gm.append(mask)
        go.append(len(gm))
    return gm, go


def exact_metric_dimension(
    dist: DistanceMatrix,
    *,
    lower_hint: int = 0,
    upper_hint: Sequence[int] | None = None,
    factors: CliqueFactors | None = None,
    threads: int = 1,
    method: str = "auto",
) -> DimResult:
    """Exact metric dimension with the lexicographically least certificate.

    `lower_hint` must be a valid lower bound and `upper_hint` a resolving
    set when given; a result equal to `lower_hint` trusts the hint, since
    the search stops as soon as it meets it.  `factors` asserts that `dist`
    is the product of those cliques with vertex ids in the mixed-radix
    codec (only the vertex count is checked).  With two or more factors,
    all of size >= 3, it enables the factor-group pruning rule and the
    symmetric size search and skips the twin scan; `factors=None` is the
    plain reference search.  `method` is "auto", "enumeration", or
    "branch-and-bound"; auto enumerates below the cutoff.  The result does
    not depend on `factors` or `threads`.
    """
    if method not in ("auto", "enumeration", "branch-and-bound"):
        raise ValueError(f"unknown method {method!r}")
    if not dist.connected:
        return DimResult(None, None)
    n = dist.n
    if factors is not None and factors.vertex_count != n:
        raise ValueError("factor sizes do not match the vertex count")
    if lower_hint < 0:
        raise ValueError(f"lower_hint must be non-negative, got {lower_hint}")
    hint: list[int] | None = None
    if upper_hint is not None:
        hint = check_vertex_set(n, upper_hint)
        if not is_resolving(dist, hint):
            raise ValueError("upper_hint is not a resolving set")
        if lower_hint > len(hint):
            raise ValueError(f"lower_hint {lower_hint} exceeds the upper_hint size {len(hint)}")
    if method == "auto":
        method = "enumeration" if n < ENUMERATION_CUTOFF else "branch-and-bound"
    if method == "enumeration":
        return exhaustive_metric_dimension(dist)
    if n > MAX_EXACT_VERTICES:
        raise ValueError(f"exact search supports at most {MAX_EXACT_VERTICES} vertices, got {n}")
    if n == 1:
        return DimResult(0, ())

    table = build_pair_table(dist)
    clique_product = factors is not None and factors.t >= 2 and min(factors.sizes) >= 3
    forced: list[int] = []
    gm: Sequence[int] = ()
    go: Sequence[int] = (0,)
    if clique_product:
        gm, go = _factor_groups(factors)
    else:
        for cls in _twin_classes(dist):
            forced.extend(cls[:-1])
        forced.sort()
    forced_mask = 0
    for v in forced:
        forced_mask |= 1 << v
    pending = [int(m) for m in table.masks if m & forced_mask == 0]
    cand_mask = ((1 << n) - 1) & ~forced_mask

    hint_rest = len(hint) - len(forced) if hint is not None else None

    if not pending:
        cert = tuple(forced)
        return DimResult(len(cert), cert)

    rest_upper = _greedy_completion(pending, cand_mask)
    if hint_rest is not None:
        rest_upper = min(rest_upper, hint_rest)
    rest_lower = max(0, lower_hint - len(forced))
    if clique_product:
        k_rest = _symmetric_min_size(pending, cand_mask, rest_lower, rest_upper,
                                     factors, gm, go, threads)
    else:
        k_rest = _min_size(pending, cand_mask, forced_mask, rest_lower, rest_upper,
                           gm, go, threads)
    rest = _default_kernel.lex_min_hitting_set(pending, cand_mask, forced_mask,
                                               k_rest, gm, go)
    if rest is None or len(rest) != k_rest:
        raise AssertionError("certificate search disagrees with the size search")
    cert = tuple(sorted(forced + rest))
    if not is_resolving(dist, cert):
        raise AssertionError("exact certificate failed the resolving check")
    return DimResult(len(cert), cert)
