"""Closed-form dimensions, certified resolving sets, and bounds for tensor
products of cliques.

For two factors K_m x K_n (2 <= m <= n) the metric dimension is known in
closed form, and every value is witnessed by an explicit set:

* (2, 2): the product is disconnected.
* m = 2, n >= 3: dimension n - 1, witnessed by one full row short one entry.
* m >= 3, n >= 2m - 1: dimension n - 1, witnessed by two shifted diagonals
  plus the rest of the first row.
* m >= 3, m <= n <= 2m - 2 ("balanced"): dimension ceil(2(m + n - 2) / 3),
  witnessed by three wrapped diagonal blocks.

For longer products only bounds are known.  `lower_bound_lines` is a
counting bound.  Take a connected product K_{m_1} x ... x K_{m_t} on n
vertices and an axis i with m_i >= 3.  A line along axis i is the m_i
vertices that agree off axis i; there are n / m_i of them.

* Distance depends only on which coordinates match: 1 when none do, and
  otherwise 2, or 3 when the two differ on a size-2 axis.
* So two vertices x, y of a line, with values a and b on axis i, are told
  apart only by x, y and the w with w_i in {a, b} that differ from the
  line on every other axis.  A w with w_i outside {a, b} matches x and y
  on the same coordinates.  A w with w_i = a that matches the line
  somewhere off axis i is at distance 2 or 3 from both, and 3 from y
  exactly when it is 3 from x, because axis i (where only y differs from
  w) has m_i >= 3.  On a size-2 axis that last step fails: in 2x3x3,
  w = (0, 0, 1) is at distance 2 from (0, 0, 0) and 3 from (1, 0, 0).
* Say a vertex sees a line when it lies on it or differs from it on every
  other axis.  For a resolving set W, the axis-i values of the members
  that see a line may miss at most one value, else the two line vertices
  with the missing values stay unresolved.  So at least m_i - 1 members
  see each line.
* A vertex lies on one line and differs on every other axis from
  prod_{j != i} (m_j - 1) of them, so it sees at most
  1 + prod_{j != i} (m_j - 1) lines.  Counting the pairs (member, line it
  sees) both ways gives
  |W| >= ceil((n / m_i)(m_i - 1) / (1 + prod_{j != i} (m_j - 1))).

On two factors m <= n the bound is n - 1, the same as
`lower_bound_largest_factor` and the closed form's value unless the pair
is balanced.  On 3x3x3 it gives 4, on 3x3x7 11, and on 2x3xn 2(n - 1),
the exact value for n = 5..10.

Every constructor machine-checks its output before returning it and raises
ConstructionFailed otherwise; a failure is a bug, never silently repaired.
The one unchecked builder, `_two_factor_hint`, is the exact solver's
upper seed on two factors; the solver's one resolving check at the end
of each solve covers it.
Coordinates below are 0-based; sets are returned as flat vertex ids in
block order.
"""

from __future__ import annotations

import math

from .graphs import CliqueFactors, _Frozen
from .metric import DimResult, is_resolving


class ConstructionFailed(Exception):
    """A constructed set failed its resolving check (indicates a bug)."""

    def __init__(self, factors: CliqueFactors, wset: list[int], pair: tuple[int, int]):
        self.factors = factors
        self.wset = wset
        self.pair = pair
        super().__init__(
            f"constructed set of size {len(wset)} for factors {factors.sizes} "
            f"leaves the pair {pair} unresolved"
        )


class FormulaCase(_Frozen):
    """Which closed-form case (m, n) falls in; k is the balanced block length."""

    __slots__ = ("kind", "k")
    kind: str  # "disconnected" | "m2" | "large_n" | "balanced"
    k: int | None

    def __init__(self, kind: str, k: int | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "k", k)


def formula_case(m: int, n: int) -> FormulaCase:
    """Case split for 2 <= m <= n.  Exactly one case applies."""
    if not 2 <= m <= n:
        raise ValueError(f"needs 2 <= m <= n, got ({m}, {n})")
    if m == 2 and n == 2:
        return FormulaCase("disconnected")
    if m == 2:
        return FormulaCase("m2")
    if n >= 2 * m - 1:
        return FormulaCase("large_n")
    return FormulaCase("balanced", k=(m + n - 2) // 3)


def dim_formula(m: int, n: int) -> DimResult:
    """Closed-form metric dimension of K_m x K_n (value only, no certificate).

    Argument order is normalized, so dim_formula(5, 3) == dim_formula(3, 5).
    """
    if m < 2 or n < 2:
        raise ValueError(f"factors must be at least 2, got ({m}, {n})")
    if m > n:
        m, n = n, m
    case = formula_case(m, n)
    if case.kind == "disconnected":
        return DimResult(None, None)
    if case.kind == "balanced":
        return DimResult(-(-2 * (m + n - 2) // 3), None)
    return DimResult(n - 1, None)


def _certified(wset: list[int], factors: CliqueFactors) -> list[int]:
    verdict = is_resolving(factors, wset)
    if not verdict:
        raise ConstructionFailed(factors, wset, (verdict.x, verdict.y))
    return wset


def _m2_set(factors: CliqueFactors) -> list[int]:
    n = factors.sizes[1]
    if n < 3:
        raise ValueError(f"needs n >= 3, got {n}")
    return [factors.flat_index((0, j)) for j in range(n - 1)]


def construct_m2(n: int) -> list[int]:
    """Resolving set of size n - 1 for K_2 x K_n, n >= 3: the vertices
    (0, j) for j < n - 1."""
    factors = CliqueFactors((2, n))
    return _certified(_m2_set(factors), factors)


def _large_n_set(factors: CliqueFactors) -> list[int]:
    m, n = factors.sizes
    if m < 3 or n < 2 * m - 1:
        raise ValueError(f"needs m >= 3 and n >= 2m - 1, got ({m}, {n})")
    coords = [(i, i) for i in range(m - 1)]
    coords += [(i, m - 1 + i) for i in range(m - 1)]
    coords += [(0, j) for j in range(2 * (m - 1), n - 1)]
    return [factors.flat_index(c) for c in coords]


def construct_large_n(m: int, n: int) -> list[int]:
    """Resolving set of size n - 1 for K_m x K_n with n >= 2m - 1, m >= 3.

    Blocks: the diagonal (i, i) for i < m - 1, the shifted diagonal
    (i, m - 1 + i) for i < m - 1, and the first-row tail (0, j) for
    2(m - 1) <= j < n - 1.
    """
    factors = CliqueFactors((m, n))
    return _certified(_large_n_set(factors), factors)


def _balanced_set(factors: CliqueFactors) -> list[int]:
    m, n = factors.sizes
    if not (3 <= m <= n <= 2 * m - 2):
        raise ValueError(f"needs 3 <= m <= n <= 2m - 2, got ({m}, {n})")
    k = (m + n - 2) // 3

    def wrap(j: int) -> int:
        return (j - 1) % k + 1

    ones = [(i, i) for i in range(1, k + 1)]
    ones += [(k + i, wrap(i)) for i in range(1, m - k)]
    ones += [(wrap(m - k - 1 + i), k + i) for i in range(1, n - k)]
    return [factors.flat_index((a - 1, b - 1)) for a, b in ones]


def construct_balanced(m: int, n: int) -> list[int]:
    """Resolving set of size m + n - 2 - k for K_m x K_n in the balanced
    range m <= n <= 2m - 2, m >= 3, where k = floor((m + n - 2) / 3).

    Three blocks (1-based here, converted below): the diagonal (i, i) for
    i <= k; the left column block (k + i, wrap(i)) for i <= m - k - 1; and
    the top row block (wrap(m - k - 1 + i), k + i) for i <= n - k - 1,
    where wrap folds an index into 1..k.  The three index ranges are
    disjoint by coordinate, so the size is exact.
    """
    factors = CliqueFactors((m, n))
    return _certified(_balanced_set(factors), factors)


def _resolving_set(factors: CliqueFactors) -> list[int]:
    """construct_resolving's set for factors (m, n), before its resolving
    check."""
    m, n = factors.sizes
    if not m <= n:
        raise ValueError(f"needs 2 <= m <= n, got ({m}, {n})")
    case = formula_case(m, n)
    if case.kind == "disconnected":
        raise ValueError("K_2 x K_2 is disconnected; no resolving set exists")
    if case.kind == "m2":
        return _m2_set(factors)
    if case.kind == "large_n":
        return _large_n_set(factors)
    return _balanced_set(factors)


def construct_resolving(m: int, n: int) -> list[int]:
    """Certified minimum resolving set of K_m x K_n for 2 <= m <= n,
    matching dim_formula in size."""
    factors = CliqueFactors((m, n))
    return _certified(_resolving_set(factors), factors)


def lower_bound_largest_factor(factors: CliqueFactors) -> int:
    """max(m_i) - 1: distance depends only on which coordinates match, so a
    resolving set misses at most one value per factor, and its projection
    alone forces this many members.  Needs a connected product."""
    if not factors.connected:
        raise ValueError("bound requires a connected product")
    return max(factors.sizes) - 1


def lower_bound_lines(factors: CliqueFactors) -> int:
    """The line-counting bound of the module docstring, the largest over
    the axes of size >= 3 (0 when there is none).  Needs a connected
    product.

    With t >= 2 factors it is at least `lower_bound_largest_factor`: a
    largest axis i has m_i >= 3, and n / m_i = prod_{j != i} m_j >=
    1 + prod_{j != i} (m_j - 1), so that axis alone gives m_i - 1."""
    if not factors.connected:
        raise ValueError("bound requires a connected product")
    n = factors.vertex_count
    best = 0
    for i, m in enumerate(factors.sizes):
        if m >= 3:
            seen = 1 + math.prod(s - 1 for j, s in enumerate(factors.sizes) if j != i)
            best = max(best, -(-(n // m) * (m - 1) // seen))
    return best


def _oriented(wset: list[int], a: int, b: int) -> list[int]:
    """A set built for K_min(a,b) x K_max(a,b), as ids of K_a x K_b."""
    if a <= b:
        return wset
    swapped = CliqueFactors((b, a))
    target = CliqueFactors((a, b))
    out = []
    for v in wset:
        x, y = swapped.coords_of(v)
        out.append(target.flat_index((y, x)))
    return out


def _two_factor_set(a: int, b: int) -> list[int]:
    """construct_resolving oriented for arbitrary order of the two sizes."""
    return _oriented(construct_resolving(min(a, b), max(a, b)), a, b)


def _two_factor_hint(a: int, b: int) -> list[int]:
    """_two_factor_set without its resolving check, for the exact solver,
    whose upper seed it is: the solver's final check covers it."""
    return _oriented(_resolving_set(CliqueFactors((min(a, b), max(a, b)))), a, b)


def lower_bound_subproduct(factors: CliqueFactors) -> int:
    """Largest dimension among the drop-one-factor subproducts.

    A resolving set of the full product projects to a resolving structure
    of every subproduct, so each subproduct dimension bounds from below.
    Two-factor subproducts use the closed form; deeper ones recurse on this
    same bound.  Needs t >= 3 and all factors >= 3.
    """
    if factors.t < 3:
        raise ValueError("bound needs at least three factors")
    if any(s < 3 for s in factors.sizes):
        raise ValueError("bound requires every factor of size >= 3")
    best = 0
    for drop in range(factors.t):
        sub = CliqueFactors(factors.sizes[:drop] + factors.sizes[drop + 1 :])
        if sub.t == 2:
            a, b = sorted(sub.sizes)
            value = dim_formula(a, b).dim
        else:
            value = lower_bound_subproduct(sub)
        best = max(best, int(value))
    return best


def upper_bound_construction(factors: CliqueFactors) -> list[int]:
    """Certified resolving set of at most 3(|W_a| + |W_b|) vertices for a
    product of t >= 3 cliques, all factors >= 3.

    Drops the first smallest and the last largest factor (after sorting by
    size, for determinism); resolves each remaining subproduct (closed form
    for two factors, recursively otherwise); and crosses each subproduct
    set with the three lowest values 0, 1, 2 of its dropped factor.  Any
    two vertices differ somewhere, and one of the two blocks contains an
    anchor value avoiding both of their entries in its dropped coordinate,
    which reduces the comparison to the resolved subproduct.
    """
    if factors.t < 3:
        raise ValueError("construction needs at least three factors")
    if any(s < 3 for s in factors.sizes):
        raise ValueError("construction requires every factor of size >= 3")
    sizes = factors.sizes
    drop_lo = sizes.index(min(sizes))
    drop_hi = factors.t - 1 - sizes[::-1].index(max(sizes))

    def sub_set(drop: int) -> list[int]:
        sub = CliqueFactors(sizes[:drop] + sizes[drop + 1 :])
        if sub.t == 2:
            return _two_factor_set(*sub.sizes)
        return upper_bound_construction(sub)

    out: list[int] = []
    seen: set[int] = set()
    block_sizes = []
    for drop in (drop_lo, drop_hi):
        sub = CliqueFactors(sizes[:drop] + sizes[drop + 1 :])
        members = sub_set(drop)
        block_sizes.append(len(members))
        for anchor in (0, 1, 2):
            for v in members:
                coords = list(sub.coords_of(v))
                coords.insert(drop, anchor)
                flat = factors.flat_index(coords)
                if flat not in seen:
                    seen.add(flat)
                    out.append(flat)
    if len(out) > 3 * sum(block_sizes):
        raise AssertionError("construction exceeded its size bound")
    return _certified(out, factors)
