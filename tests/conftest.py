"""Shared test oracles.

Everything here is written independently of the package internals, on
purpose: plain adjacency dicts, list-based BFS, exhaustive subset scans,
and the greedy heuristics as per-vertex loops.  Tests compare package
output against these slow references.

`compiled_kernel` is the C search kernel as the package's loader finds or
builds it, so the kernel tests run without an install step, also under
TENSORDIM_PURE.  `solver_kernel` runs a solver-level test once on each
kernel.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def oracle_bfs(n: int, edges) -> list[list[int]]:
    """All-pairs distances by per-source BFS over adjacency lists.

    Returns a nested list with -1 for unreachable pairs.
    """
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    table = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        frontier = [s]
        level = 0
        while frontier:
            level += 1
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if dist[w] == -1:
                        dist[w] = level
                        nxt.append(w)
            frontier = nxt
        table.append(dist)
    return table


def oracle_is_resolving(table, wset) -> bool:
    reps = [tuple(table[v][w] for w in wset) for v in range(len(table))]
    return len(set(reps)) == len(reps)


def oracle_least_pair(table, w):
    """The least vertex x whose representation another vertex shares, and
    the least such other vertex y."""
    reps = [tuple(row[j] for j in w) for row in table]
    x = min(v for v in range(len(reps)) if reps.count(reps[v]) > 1)
    return x, next(y for y in range(len(reps)) if y != x and reps[y] == reps[x])


def oracle_min_resolving(table):
    """Smallest resolving set by exhaustive scan, first in sorted-tuple order.

    Requires a connected distance table.  Returns (size, subset).
    """
    n = len(table)
    if n <= 1:
        return 0, ()
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            if oracle_is_resolving(table, combo):
                return k, combo
    raise AssertionError("the full vertex set always resolves")


def oracle_min_hitting(masks, nbits):
    """Smallest bit subset intersecting every mask, exhaustively."""
    universe = list(range(nbits))
    for k in range(nbits + 1):
        for combo in itertools.combinations(universe, k):
            chosen = 0
            for b in combo:
                chosen |= 1 << b
            if all(m & chosen for m in masks):
                return k, combo
    return None


def oracle_greedy(table) -> list[int]:
    """The greedy heuristic as a plain loop: per pick, score each vertex by
    the pairs still tied after adding it (np.unique per vertex), take the
    lowest id among the best.  Returns the picks sorted.  Requires a
    connected distance table."""
    d = np.asarray(table, dtype=np.int64)
    n = len(d)
    labels = np.zeros(n, dtype=np.int64)
    chosen = []

    def tied_pairs(lbl):
        _, counts = np.unique(lbl, return_counts=True)
        return int((counts * (counts - 1) // 2).sum())

    current = tied_pairs(labels)
    span = int(d.max()) + 1 if n else 1
    while current > 0:
        best_v, best_after = -1, current + 1
        for v in range(n):
            after = tied_pairs(labels * span + d[:, v])
            if after < best_after:
                best_v, best_after = v, after
        chosen.append(best_v)
        _, labels = np.unique(labels * span + d[:, best_v], return_inverse=True)
        current = best_after
    return sorted(chosen)


def oracle_greedy_completion(pending, cand_mask) -> list[int]:
    """Greedy hitting set as a plain loop, in pick order: rescore every
    pending mask bit by bit after each pick, most hits first, lowest bit on
    ties."""
    picks = []
    pend = list(pending)
    while pend:
        scores = {}
        for m in pend:
            for w in range(64):
                if (m & cand_mask) >> w & 1:
                    scores[w] = scores.get(w, 0) + 1
        best_w = min(scores, key=lambda w: (-scores[w], w))
        pend = [m for m in pend if not m >> best_w & 1]
        picks.append(best_w)
    return picks


def random_connected_edges(rng: random.Random, n: int, p: float):
    """Random connected graph edge list; spanning tree plus coin-flip edges."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a = order[i]
        b = order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return sorted(edges)


@pytest.fixture
def rng():
    return random.Random(0xD1ACE)


@pytest.fixture(scope="session")
def compiled_kernel():
    """The compiled kernel from `tensordim._loader`, which builds it once per
    `_bb.c` and reuses the build; loading it does not change the kernel the
    solver picked at import.  Skips without a C compiler; a failed build
    raises with the compiler's output."""
    from tensordim import _loader

    module = _loader.load(strict=True)
    if module is None:
        pytest.skip(f"no compiled kernel: {_loader.why_pure}")
    return module


@pytest.fixture(params=["_bb_py", "_bb"])
def solver_kernel(request, monkeypatch):
    """Run the solver on each kernel in turn."""
    from tensordim import _bb_py, solver

    if request.param == "_bb_py":
        kernel = _bb_py
    else:
        kernel = request.getfixturevalue("compiled_kernel")
    monkeypatch.setattr(solver, "_default_kernel", kernel)
    return kernel
