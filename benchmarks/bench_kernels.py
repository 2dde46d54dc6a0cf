"""Benchmark the compiled search kernel against the pure-Python reference.

Runs the same searches on both kernels and prints wall times, the
speedup, the number of kernel calls on each kernel and the number of
certificate queries answered by symmetry instead.  A product of cliques
runs the solver's route, as `dim --tensor ... --exact` does:
`solver.exact_metric_dimension(dist, factors=...)` (orbital branching in
the size search, then the certificate loop with the solver's symmetry
`solver._value_swaps`), with `solver._default_kernel` set to the kernel
under test; the distance table is built once, outside the timing.  A random instance runs the plain size
search, then the certificate loop `_bb_py.lex_min_hitting_set` driven by
that kernel and seeded with the solution the size search found.  Times
are best of `--repeats`; the counts come from one further, untimed run.
When no built `tensordim._bb` is importable, the kernel is compiled into
a temporary directory with the test suite's recipe (setup.py).  Usage:

    PYTHONPATH=src python benchmarks/bench_kernels.py [--repeats N]
"""

from __future__ import annotations

import argparse
import random
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

from tensordim import _bb_py, solver
from tensordim.graphs import CliqueFactors, tensor_clique_distances

try:
    from tensordim import _bb
except ImportError:
    _bb = None


def product_instance(sizes):
    """The solver's route on K_{m_1} x ... x K_{m_t}: a callable taking a
    kernel and the wrapper `solver._value_swaps` to use."""
    factors = CliqueFactors(sizes)
    dist = tensor_clique_distances(factors)

    def run(kernel, swaps=solver._value_swaps):
        saved = solver._default_kernel, solver._value_swaps
        solver._default_kernel, solver._value_swaps = kernel, swaps
        try:
            return solver.exact_metric_dimension(dist, factors=factors)
        finally:
            solver._default_kernel, solver._value_swaps = saved

    return f"product {'x'.join(map(str, sizes))}", run


def random_instance(seed, nbits, nmasks):
    """The plain size search and certificate loop on random masks."""
    rng = random.Random(seed)
    masks = []
    for _ in range(nmasks):
        m = 0
        for b in range(nbits):
            if rng.random() < 0.25:
                m |= 1 << b
        masks.append(m or 1 << rng.randrange(nbits))
    cand = (1 << nbits) - 1

    def run(kernel, swaps=None):
        witness = []
        size = kernel.min_hitting_size(masks, cand, 0, nbits + 1, witness=witness)
        sol = _bb_py.lex_min_hitting_set(masks, cand, size, min_size=kernel.min_hitting_size,
                                         completion=witness[0] if witness else None)
        return size, sol

    return f"random {nbits}b/{nmasks}m seed {seed}", run


def counted(run, kernel):
    """(result, kernel calls, certificate queries answered by symmetry)."""
    calls = answered = 0
    value_swaps_of = solver._value_swaps

    def min_hitting_size(*args, **kwargs):
        nonlocal calls
        calls += 1
        return kernel.min_hitting_size(*args, **kwargs)

    def value_swaps(*args):
        symmetry = value_swaps_of(*args)

        def rule(prefix, u, v):
            # The loop stops consulting at a map, so each map answers one query.
            nonlocal answered
            sigma = symmetry(prefix, u, v)
            answered += sigma is not None
            return sigma

        return rule

    result = run(SimpleNamespace(min_hitting_size=min_hitting_size), value_swaps)
    return result, calls, answered


def best_time(run, kernel, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run(kernel)
        best = min(best, time.perf_counter() - t0)
    return best


def compare(compiled, repeats: int) -> int:
    instances = [
        product_instance((4, 4)),
        product_instance((5, 5)),
        product_instance((6, 6)),
        product_instance((3, 3, 4)),
        product_instance((8, 8)),
        product_instance((4, 4, 4)),
        product_instance((3, 4, 5)),
        product_instance((2, 28)),
        product_instance((2, 4, 6)),
        random_instance(1, 20, 60),
        random_instance(2, 24, 80),
        random_instance(3, 28, 100),
    ]

    width = max(len(name) for name, _ in instances)
    print(f"{'instance':<{width}}  {'python':>10}  {'compiled':>10}  {'speedup':>8}"
          f"  {'calls py/c':>10}  {'by symmetry':>11}")
    for name, run in instances:
        t_py = best_time(run, _bb_py, repeats)
        t_c = best_time(run, compiled, repeats)
        r_py, r_c = counted(run, _bb_py), counted(run, compiled)
        if r_py != r_c:
            print(f"{name}: KERNEL MISMATCH {r_py} vs {r_c}", file=sys.stderr)
            return 1
        calls = f"{r_py[1]}/{r_c[1]}"
        print(f"{name:<{width}}  {t_py:>9.4f}s  {t_c:>9.4f}s  {t_py / t_c:>7.1f}x  {calls:>10}"
              f"  {r_py[2]:>11}", flush=True)
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
