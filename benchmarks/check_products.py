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

The compiled kernel is used when a built `tensordim._bb` is importable;
otherwise it is compiled into a temporary directory with the test suite's
recipe (setup.py).  With TENSORDIM_PURE=1 the solver's pure-Python kernel
runs instead, which takes minutes.  Usage:

    PYTHONPATH=src python benchmarks/check_products.py [--repeats N]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

from tensordim import solver
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


def counting_queries(run):
    """run(), with the kernel queries its certificate loops ask counted:
    returns (result, queries)."""
    real = solver._bb_py.lex_min_hitting_set
    queries = 0

    def counted(*args, min_size, **kwargs):
        def query(*q_args, **q_kwargs):
            nonlocal queries
            queries += 1
            return min_size(*q_args, **q_kwargs)

        return real(*args, min_size=query, **kwargs)

    solver._bb_py.lex_min_hitting_set = counted
    try:
        return run(), queries
    finally:
        solver._bb_py.lex_min_hitting_set = real


def measure(factors: CliqueFactors, repeats: int):
    """The best times of the solve with the certificate and of the
    dimension-only solve, their results, and the kernel queries the
    certificate loop asked: (t_cert, with_cert, queries, t_dim, dim_only)."""
    dist = tensor_clique_distances(factors)
    t_cert, (with_cert, queries) = best_time(
        lambda: counting_queries(lambda: solver.exact_metric_dimension(dist, factors=factors)),
        repeats)
    t_dim, dim_only = best_time(
        lambda: solver.exact_metric_dimension(dist, factors=factors, certificate=False), repeats)
    return t_cert, with_cert, queries, t_dim, dim_only


def check(repeats: int) -> int:
    rows = json.loads(DATA.read_text(encoding="utf-8"))["products"]
    listed = [tuple(row["sizes"]) for row in rows]
    if listed != connected_products():
        print(f"{DATA.name} does not list the {len(connected_products())} products in order",
              file=sys.stderr)
        return 1
    print(f"kernel: {solver.kernel_name()}")
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


@contextlib.contextmanager
def compiled_kernel():
    """The compiled kernel while the block runs: the built `tensordim._bb`
    when importable, else one compiled into a temporary directory with the
    test suite's recipe (setup.py), or None when there is no C compiler."""
    try:
        from tensordim import _bb
    except ImportError:
        sys.path.insert(0, str(ROOT / "tests"))
        from conftest import build_kernel

        with tempfile.TemporaryDirectory() as tmp:
            yield build_kernel(Path(tmp))
    else:
        yield _bb


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=1)
    opts = parser.parse_args()
    if opts.repeats < 1:
        parser.error("--repeats must be at least 1")

    if solver.kernel_name() == "compiled" or os.environ.get("TENSORDIM_PURE"):
        return check(opts.repeats)
    with compiled_kernel() as compiled:
        if compiled is None:
            print("no built kernel and no C compiler; set TENSORDIM_PURE=1 to run "
                  "the pure kernel", file=sys.stderr)
            return 1
        solver._default_kernel = compiled
        return check(opts.repeats)


if __name__ == "__main__":
    sys.exit(main())
