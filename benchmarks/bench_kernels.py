"""Benchmark the compiled search kernel against the pure-Python reference.

Runs the same minimum-hitting-set searches through both implementations
(the size search, then the certificate loop `_bb_py.lex_min_hitting_set`
driven by that kernel's size search and seeded with the solution the size
search found) and prints wall times, the speedup, the number of size
queries the certificate loop made on each kernel and the number it
answered by symmetry instead.  On the products of cliques the loop gets
the solver's symmetry, `solver._value_swaps`; the size search stays the
plain one on every instance.  When no built
`tensordim._bb` is importable, the kernel is compiled into a temporary
directory with the test suite's recipe (setup.py).  Usage:

    PYTHONPATH=src python benchmarks/bench_kernels.py [--repeats N]
"""

from __future__ import annotations

import argparse
import random
import sys
import tempfile
import time
from pathlib import Path

from tensordim import _bb_py
from tensordim.graphs import CliqueFactors, tensor_clique_distances
from tensordim.solver import _value_masks, _value_swaps, build_pair_table

try:
    from tensordim import _bb
except ImportError:
    _bb = None


def product_instance(sizes):
    f = CliqueFactors(sizes)
    table = build_pair_table(tensor_clique_distances(f))
    return (f"product {'x'.join(map(str, sizes))}", [int(m) for m in table.masks],
            f.vertex_count, _value_swaps(f, _value_masks(f)))


def random_instance(seed, nbits, nmasks):
    rng = random.Random(seed)
    masks = []
    for _ in range(nmasks):
        m = 0
        for b in range(nbits):
            if rng.random() < 0.25:
                m |= 1 << b
        masks.append(m or 1 << rng.randrange(nbits))
    return f"random {nbits}b/{nmasks}m seed {seed}", masks, nbits, None


def run_search(kernel, masks, nbits, symmetry):
    """(size, certificate, certificate queries asked, queries answered by
    symmetry)."""
    cand = (1 << nbits) - 1
    witness = []
    size = kernel.min_hitting_size(masks, cand, 0, nbits + 1, witness=witness)
    queries = answered = 0

    def query(*args, **kwargs):
        nonlocal queries
        queries += 1
        return kernel.min_hitting_size(*args, **kwargs)

    def rule(prefix, u, v):
        # The loop stops consulting at a map, so each map answers one query.
        nonlocal answered
        sigma = symmetry(prefix, u, v)
        answered += sigma is not None
        return sigma

    sol = _bb_py.lex_min_hitting_set(masks, cand, size, min_size=query,
                                     completion=witness[0] if witness else None,
                                     symmetry=rule if symmetry else None)
    return size, sol, queries, answered


def best_time(kernel, args, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = run_search(kernel, *args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def compare(compiled, repeats: int) -> int:
    instances = [
        product_instance((4, 4)),
        product_instance((5, 5)),
        product_instance((6, 6)),
        product_instance((3, 3, 4)),
        random_instance(1, 20, 60),
        random_instance(2, 24, 80),
        random_instance(3, 28, 100),
    ]

    width = max(len(name) for name, *_ in instances)
    print(f"{'instance':<{width}}  {'python':>10}  {'compiled':>10}  {'speedup':>8}"
          f"  {'queries py/c':>12}  {'by symmetry':>11}")
    for name, masks, nbits, symmetry in instances:
        args = (masks, nbits, symmetry)
        t_py, r_py = best_time(_bb_py, args, repeats)
        t_c, r_c = best_time(compiled, args, repeats)
        if r_py != r_c:
            print(f"{name}: KERNEL MISMATCH {r_py} vs {r_c}", file=sys.stderr)
            return 1
        queries = f"{r_py[2]}/{r_c[2]}"
        print(f"{name:<{width}}  {t_py:>9.4f}s  {t_c:>9.4f}s  {t_py / t_c:>7.1f}x  {queries:>12}"
              f"  {r_py[3]:>11}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    opts = parser.parse_args()

    if _bb is not None:
        return compare(_bb, opts.repeats)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
    from conftest import build_kernel

    with tempfile.TemporaryDirectory() as tmp:
        compiled = build_kernel(Path(tmp))
        if compiled is None:
            print("no built kernel and no C compiler; nothing to compare", file=sys.stderr)
            return 1
        return compare(compiled, opts.repeats)


if __name__ == "__main__":
    sys.exit(main())
