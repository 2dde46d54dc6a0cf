"""Benchmark the compiled search kernel against the pure-Python reference.

Runs the same searches on both kernels and prints, per kernel, the wall
time of the solve with the certificate, the time of the dimension alone
and the kernel queries the certificate loop asked, then the speedup of
the certified solve.  It exits 1 if the kernels give different results
or queries.  A product of cliques is timed by `check_products.measure`,
the route of `dim --tensor ... --exact` with and without the certificate,
with `solver._default_kernel` set to the kernel under test.  A random
instance runs the plain size search, then that kernel's own certificate
loop (`lex_min_hitting_set`) seeded with the size search's witness; it
has no dimension-only time.  Times are best of `--repeats`, and the
queries are counted in one more run, untimed, since counting calls back
into Python for each query the compiled loop otherwise answers in place.
The compiled kernel comes from `tensordim._loader`, which builds it once
per `_bb.c` in a source checkout, also under TENSORDIM_PURE; the first
output line names its file, or says why there is none, and a failed
build raises with the compiler's output.  Usage:

    PYTHONPATH=src python benchmarks/bench_kernels.py [--repeats N]
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from pathlib import Path

from tensordim import _bb_py, _loader, solver
from tensordim.graphs import CliqueFactors

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check_products  # noqa: E402

PRODUCTS = [(4, 4), (5, 5), (6, 6), (3, 3, 4), (8, 8), (4, 4, 4), (3, 4, 5), (2, 28), (2, 4, 6)]
RANDOM = [(1, 20, 60), (2, 24, 80), (3, 28, 100)]


def random_masks(seed, nbits, nmasks):
    """nmasks masks on nbits bits, each bit set with probability 1/4, none empty."""
    rng = random.Random(seed)
    masks = []
    for _ in range(nmasks):
        m = 0
        for b in range(nbits):
            if rng.random() < 0.25:
                m |= 1 << b
        masks.append(m or 1 << rng.randrange(nbits))
    return masks


def random_instance(seed, nbits, nmasks):
    """The plain size search and certificate loop on random masks."""
    masks = random_masks(seed, nbits, nmasks)
    cand = (1 << nbits) - 1

    def run(kernel):
        witness = []
        size = kernel.min_hitting_size(masks, cand, 0, nbits + 1, witness=witness)
        sol = kernel.lex_min_hitting_set(masks, cand, size, min_size=kernel.min_hitting_size,
                                         completion=witness[0] if witness else None)
        return size, sol

    return f"random {nbits}b/{nmasks}m seed {seed}", run


def counted(run, kernel):
    """run(kernel) and the kernel queries of its certificate loop: (result, queries)."""
    return check_products.counting_queries(lambda: run(kernel), kernel)


def product_row(sizes, kernel, repeats):
    """`check_products.measure` on the product, with `kernel` as the solver's."""
    saved = solver._default_kernel
    solver._default_kernel = kernel
    try:
        return check_products.measure(CliqueFactors(sizes), repeats)
    finally:
        solver._default_kernel = saved


def random_row(run, kernel, repeats):
    """A random instance in the shape of `product_row`, without the
    dimension-only solve; its queries are counted in one more run, untimed."""
    t_cert, result = check_products.best_time(lambda: run(kernel), repeats)
    _, queries = counted(run, kernel)
    return t_cert, result, queries, None, None


def seconds(t):
    return f"{'-':>9}" if t is None else f"{t:>8.4f}s"


def compare(compiled, repeats: int) -> int:
    rows = [(f"product {'x'.join(map(str, sizes))}", functools.partial(product_row, sizes))
            for sizes in PRODUCTS]
    for name, run in (random_instance(*args) for args in RANDOM):
        rows.append((name, functools.partial(random_row, run)))

    width = max(len(name) for name, _ in rows)
    print(f"{'instance':<{width}}  {'cert py':>9}  {'dim py':>9}  {'cert c':>9}  {'dim c':>9}"
          f"  {'speedup':>8}  {'queries py/c':>12}")
    for name, row in rows:
        t_py, cert_py, q_py, d_py, dim_py = row(_bb_py, repeats)
        t_c, cert_c, q_c, d_c, dim_c = row(compiled, repeats)
        if (cert_py, q_py, dim_py) != (cert_c, q_c, dim_c):
            print(f"{name}: KERNEL MISMATCH {(cert_py, q_py, dim_py)} vs "
                  f"{(cert_c, q_c, dim_c)}", file=sys.stderr)
            return 1
        print(f"{name:<{width}}  {seconds(t_py)}  {seconds(d_py)}  {seconds(t_c)}  {seconds(d_c)}"
              f"  {t_py / t_c:>7.1f}x  {f'{q_py}/{q_c}':>12}", flush=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    opts = parser.parse_args()

    compiled = _loader.load(strict=True)
    if compiled is None:
        print(f"compiled kernel: none ({_loader.why_pure}); nothing to compare", file=sys.stderr)
        return 1
    print(f"compiled kernel: {compiled.__file__}")
    return compare(compiled, opts.repeats)


if __name__ == "__main__":
    sys.exit(main())
