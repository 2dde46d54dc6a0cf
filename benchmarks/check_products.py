"""Recompute the committed exact values of the products of cliques.

`data/clique_products.json` holds the dimension and the lexicographically
least minimum resolving set of all 103 connected products of two or more
cliques with at most 64 vertices.  This script recomputes each one with
`solver.exact_metric_dimension(dist, factors=...)`, the route of
`dim --tensor ... --exact`, once with the certificate and once without
(the route of `bounds` and `table`), and compares the `DimResult`s with
the file.  It prints the best time of each over `--repeats` runs, the
number of kernel queries the certificate loop asked (the same on either
kernel), and the totals for the two-factor products and for all of them.
It exits 1 on any difference, or when the file does not list exactly the
103 products.

It runs on the kernel the solver picked at import: the compiled one,
which `tensordim._loader` builds on first import in a source checkout,
or with TENSORDIM_PURE=1 the pure-Python one, which takes minutes.  The
first output line names the kernel and, for the pure one, why.  When the
import fell back to the pure kernel without TENSORDIM_PURE, the script
asks the loader again and raises with the compiler's output if the build
fails, or exits 1 when there is no C compiler.  Usage:

    PYTHONPATH=src python benchmarks/check_products.py [--repeats N]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

from tensordim import _loader, solver
from tensordim.graphs import CliqueFactors, tensor_clique_distances

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data" / "clique_products.json"


def connected_products(limit: int = 64) -> list[tuple[int, ...]]:
    """Sorted sizes of every connected product of two or more cliques with
    at most `limit` vertices, by factor count and then by sizes."""
    out = []

    def grow(sizes: tuple[int, ...]) -> None:
        if len(sizes) >= 2 and sizes.count(2) <= 1:
            out.append(sizes)
        m = sizes[-1] if sizes else 2
        while math.prod(sizes) * m <= limit:
            grow(sizes + (m,))
            m += 1

    grow(())
    return sorted(out, key=lambda s: (len(s), s))


def best_time(run, repeats: int):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - t0)
    return best, result


def counting_queries(run, kernel=None):
    """run(), with the kernel queries counted that the certificate loops of
    `kernel` (the solver's by default) ask: returns (result, queries)."""
    kernel = solver._default_kernel if kernel is None else kernel
    real = kernel.lex_min_hitting_set
    queries = 0

    def counted(*args, min_size, **kwargs):
        def query(*q_args, **q_kwargs):
            nonlocal queries
            queries += 1
            return min_size(*q_args, **q_kwargs)

        return real(*args, min_size=query, **kwargs)

    kernel.lex_min_hitting_set = counted
    try:
        return run(), queries
    finally:
        kernel.lex_min_hitting_set = real


def measure(factors: CliqueFactors, repeats: int):
    """The best times of the solve with the certificate and of the
    dimension-only solve, their results, and the kernel queries the
    certificate loop asked: (t_cert, with_cert, queries, t_dim, dim_only).
    The queries are counted in one more solve, untimed: counting calls
    back into Python for each query, which the compiled loop otherwise
    answers in place."""
    dist = tensor_clique_distances(factors)
    t_cert, with_cert = best_time(
        lambda: solver.exact_metric_dimension(dist, factors=factors), repeats)
    _, queries = counting_queries(lambda: solver.exact_metric_dimension(dist, factors=factors))
    t_dim, dim_only = best_time(
        lambda: solver.exact_metric_dimension(dist, factors=factors, certificate=False), repeats)
    return t_cert, with_cert, queries, t_dim, dim_only


def kernel_line() -> str:
    """The kernel the solver runs and, when it is the pure one, why."""
    name = solver.kernel_name()
    if name == "python" and _loader.why_pure:
        return f"kernel: {name} ({_loader.why_pure})"
    return f"kernel: {name}"


def check(repeats: int) -> int:
    rows = json.loads(DATA.read_text(encoding="utf-8"))["products"]
    listed = [tuple(row["sizes"]) for row in rows]
    if listed != connected_products():
        print(f"{DATA.name} does not list the {len(connected_products())} products in order",
              file=sys.stderr)
        return 1
    print(kernel_line())
    print(f"{'product':<10}  {'dim':>3}  {'cert s':>8}  {'dim only s':>10}  {'queries':>7}")
    totals = {"two-factor": [0.0, 0.0], "all": [0.0, 0.0]}
    bad = 0
    for row in rows:
        factors = CliqueFactors(row["sizes"])
        t_cert, with_cert, queries, t_dim, dim_only = measure(factors, repeats)
        want = solver.DimResult(row["dim"], tuple(row["certificate"]))
        name = "x".join(map(str, factors.sizes))
        if with_cert != want or dim_only != solver.DimResult(row["dim"], None):
            print(f"{name}: got {with_cert} and {dim_only}, want {want}", file=sys.stderr)
            bad += 1
        for key in ("two-factor", "all") if factors.t == 2 else ("all",):
            totals[key][0] += t_cert
            totals[key][1] += t_dim
        print(f"{name:<10}  {row['dim']:>3}  {t_cert:>8.4f}  {t_dim:>10.4f}  {queries:>7}",
              flush=True)
    for key, (t_cert, t_dim) in totals.items():
        print(f"total {key:<10}  cert {t_cert:.3f} s  dim only {t_dim:.3f} s")
    print(f"{len(rows) - bad} of {len(rows)} products match {DATA.name}")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=1)
    opts = parser.parse_args()
    if opts.repeats < 1:
        parser.error("--repeats must be at least 1")

    if solver.kernel_name() == "python" and not os.environ.get("TENSORDIM_PURE"):
        # The import falls back quietly; asked again, the loader raises with
        # the compiler's output when the build fails.
        compiled = _loader.load(strict=True)
        if compiled is None:
            print(f"{kernel_line()}; set TENSORDIM_PURE=1 to run the pure kernel",
                  file=sys.stderr)
            return 1
        solver._default_kernel = compiled
    return check(opts.repeats)


if __name__ == "__main__":
    sys.exit(main())
