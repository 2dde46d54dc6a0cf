"""Resolving-set primitives: representations, the resolving check,
coordinate projections, and the `DimResult` of the solvers and the closed form."""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from operator import index

from .graphs import (
    CliqueFactors,
    DistanceMatrix,
    clique_distance_columns,
    clique_resolving_keys,
)


@dataclass(frozen=True)
class DimResult:
    """Metric dimension plus certificate; dim None means disconnected.  The
    certificate is also None when only the dimension was asked for."""

    dim: int | None
    certificate: tuple[int, ...] | None

    @property
    def disconnected(self) -> bool:
        return self.dim is None


@dataclass(frozen=True)
class UnresolvedPair:
    """Two distinct vertices with identical distance vectors to the probe set.

    Falsy on purpose, so `if is_resolving(dist, w): ...` reads naturally
    while the failure case still carries its certificate.
    """

    x: int
    y: int

    def __bool__(self) -> bool:
        return False

    def __iter__(self):
        return iter((self.x, self.y))


def check_vertex_set(n: int, wset: Sequence[int]) -> list[int]:
    """Validate a vertex set: integer ids in range, no duplicates.  Returns a
    list of ints.  An id that is not an integer (a float, a string, a bool)
    raises TypeError; numpy integers are accepted."""
    out: list[int] = []
    seen: set[int] = set()
    for w in wset:
        if type(w) is not int:  # plain ints, the common case, need no conversion
            if isinstance(w, bool):
                raise TypeError(f"vertex id {w!r} is a bool, not an integer")
            w = index(w)
        if not 0 <= w < n:
            raise ValueError(f"vertex id {w} out of range for {n} vertices")
        if w in seen:
            raise ValueError(f"duplicate vertex id {w}")
        seen.add(w)
        out.append(w)
    return out


def representation(dist: DistanceMatrix, v: int, wset: Sequence[int]) -> tuple[int, ...]:
    """Distance vector from v to the probe set, in the set's order."""
    w = check_vertex_set(dist.n, wset)
    if not 0 <= v < dist.n:
        raise ValueError(f"vertex id {v} out of range")
    return tuple(int(dist.values[v, j]) for j in w)


def is_resolving(
    dist: DistanceMatrix | CliqueFactors, wset: Sequence[int]
) -> bool | UnresolvedPair:
    """True when all representations are distinct, else the least bad pair.

    `dist` is a distance table, or the factors of a product of cliques.  A
    connected product is checked on one int key per vertex
    (`graphs.clique_resolving_keys`), with no distance read at all; a
    disconnected one on its representation columns, sliced from its BFS
    table.  The certificate is the lexicographically least unresolved pair
    (x, y): x is the smallest vertex involved in any collision and y the
    smallest vertex sharing x's representation.
    """
    n = dist.n
    w = check_vertex_set(n, wset)
    if n <= 1:
        return True
    if not w:
        return UnresolvedPair(0, 1)
    if isinstance(dist, CliqueFactors):
        if dist.connected:
            keys = clique_resolving_keys(dist, w)
            if len(set(keys)) == n:
                return True
            count = Counter(keys)
            x = next(v for v, key in enumerate(keys) if count[key] > 1)
            return UnresolvedPair(x, keys.index(keys[x], x + 1))
        reps = clique_distance_columns(dist, w)
    else:
        reps = dist.values[:, w]
    import numpy as np

    # One fixed-width byte string per row.  A stable sort puts equal rows
    # next to each other in ascending vertex order, so the least colliding
    # vertex x heads its run and the next vertex in the run is y.
    rows = np.ascontiguousarray(reps).view(np.dtype((np.void, reps.itemsize * len(w)))).ravel()
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order]
    # Sorted positions whose row equals the next one.
    repeats = np.flatnonzero(sorted_rows[1:] == sorted_rows[:-1])
    if repeats.size == 0:
        return True
    i = repeats[np.argmin(order[repeats])]
    return UnresolvedPair(int(order[i]), int(order[i + 1]))


def projection(wset: Sequence[int], axis: int, factors: CliqueFactors) -> set[int]:
    """Set of factor values used by the set in one coordinate position."""
    w = check_vertex_set(factors.vertex_count, wset)
    if not 0 <= axis < factors.t:
        raise ValueError(f"axis {axis} out of range for {factors.t} factors")
    return {factors.coords_of(v)[axis] for v in w}


def swap_witness(
    wset: Sequence[int], factors: CliqueFactors
) -> tuple[int, int] | None:
    """Find two probe vertices whose coordinate swap the set cannot resolve.

    In a two-factor product with both factors at least 3, if the set
    contains members (u, v) and (x, y) with u != x and v != y whose four
    coordinate values appear in no other member, then (u, y) and (x, v)
    receive identical representations: every other member differs from both
    in both coordinates, and each of (u, v), (x, y) shares exactly one
    coordinate with each.  Returns the first such swapped pair as flat ids,
    scanning member pairs in set order, or None.
    """
    if factors.t != 2:
        raise ValueError("swap witness is defined for two-factor products")
    if any(m < 3 for m in factors.sizes):
        raise ValueError("swap witness requires both factors of size >= 3")
    w = check_vertex_set(factors.vertex_count, wset)
    coords = [factors.coords_of(v) for v in w]
    for i in range(len(coords)):
        u, v = coords[i]
        for j in range(i + 1, len(coords)):
            x, y = coords[j]
            if u == x or v == y:
                continue
            isolated = all(
                coords[k][0] not in (u, x) and coords[k][1] not in (v, y)
                for k in range(len(coords))
                if k != i and k != j
            )
            if isolated:
                return (factors.flat_index((u, y)), factors.flat_index((x, v)))
    return None
