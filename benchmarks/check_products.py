"""Recompute the committed exact values of the products of cliques.

`data/clique_products.json` holds the dimension and the lexicographically
least minimum resolving set of all 103 connected products of two or more
cliques with at most 64 vertices.  This script recomputes each one with
`solver.exact_metric_dimension(factors)`, the route of
`dim --tensor ... --exact`, once with the certificate and once without
(the route of `bounds` and `table`), and compares the `DimResult`s with
the file.  It prints the best time of each over `--repeats` runs, the
number of kernel queries the certificate loop asked (the same on either
kernel), and the totals for the two-factor products and for all of them.
It exits 1 on any difference, or when the file does not list exactly the
103 products.  `--json PATH` also writes those figures to PATH, with the
kernel's name, the checkout's commit (null without git), `diff`, the
SHA-256 of `git diff HEAD --binary` (null on a clean tree or without
git), which names the measured tree when it has uncommitted changes to
tracked files, and `repeats`.

It runs on the kernel the solver picked at import: the compiled one,
which `tensordim._loader` builds on first import in a source checkout,
or with TENSORDIM_PURE=1 the pure-Python one, which takes minutes.  The
first output line names the kernel and, for the pure one, why.  When the
import fell back to the pure kernel without TENSORDIM_PURE, the script
asks the loader again and raises with the compiler's output if the build
fails, or exits 1 when there is no C compiler.  Usage:

    PYTHONPATH=src python benchmarks/check_products.py [--repeats N] [--json PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

from tensordim import _loader, solver
from tensordim.graphs import CliqueFactors

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
    """run(), with the kernel queries counted that the solver kernel's
    certificate loops ask: returns (result, queries)."""
    kernel = solver._default_kernel
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
    t_cert, with_cert = best_time(lambda: solver.exact_metric_dimension(factors), repeats)
    _, queries = counting_queries(lambda: solver.exact_metric_dimension(factors))
    t_dim, dim_only = best_time(
        lambda: solver.exact_metric_dimension(factors, certificate=False), repeats)
    return t_cert, with_cert, queries, t_dim, dim_only


def kernel_line() -> str:
    """The kernel the solver runs and, when it is the pure one, why."""
    name = solver.kernel_name()
    if name == "python" and _loader.why_pure:
        return f"kernel: {name} ({_loader.why_pure})"
    return f"kernel: {name}"


def product_record(row: dict, repeats: int) -> tuple[dict, str | None]:
    """The figures of one product of the data file, and what differs when
    the solves do not give its results."""
    factors = CliqueFactors(row["sizes"])
    t_cert, with_cert, queries, t_dim, dim_only = measure(factors, repeats)
    want = solver.DimResult(row["dim"], tuple(row["certificate"]))
    match = with_cert == want and dim_only == solver.DimResult(row["dim"], None)
    record = {"product": "x".join(map(str, factors.sizes)), "dim": row["dim"], "cert_s": t_cert,
              "dim_only_s": t_dim, "queries": queries, "match": match}
    return record, None if match else f"got {with_cert} and {dim_only}, want {want}"


def totals(records: list[dict]) -> dict:
    """Summed best times of the two-factor products and of all of them."""
    out = {}
    for key, chosen in (("two-factor", [r for r in records if r["product"].count("x") == 1]),
                        ("all", records)):
        out[key] = {"cert_s": sum(r["cert_s"] for r in chosen),
                    "dim_only_s": sum(r["dim_only_s"] for r in chosen)}
    return out


def git(*args: str) -> bytes | None:
    """The output of `git args` in the checkout; None when git is
    unavailable or fails."""
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, timeout=30,
                              check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None


def commit() -> str | None:
    """The checkout's commit, marked "-dirty" when it has uncommitted
    changes; None when git is unavailable."""
    done = git("describe", "--always", "--dirty", "--abbrev=40", "--exclude=*")
    return None if done is None else done.decode().strip()


def tree_diff() -> str | None:
    """The SHA-256 of `git diff HEAD --binary`, which tells apart the trees
    that `commit` marks "-dirty"; None on a clean tree or without git."""
    done = git("diff", "HEAD", "--binary")
    return hashlib.sha256(done).hexdigest() if done else None


def bench_record(records: list[dict], repeats: int) -> dict:
    """What `--json` writes: the kernel, the commit, the diff on top of it,
    `repeats`, each product's figures and the totals."""
    return {"kernel": solver.kernel_name(), "commit": commit(), "diff": tree_diff(),
            "repeats": repeats, "products": records, "totals": totals(records)}


def check(repeats: int, json_path: Path | None = None) -> int:
    rows = json.loads(DATA.read_text(encoding="utf-8"))["products"]
    listed = [tuple(row["sizes"]) for row in rows]
    if listed != connected_products():
        print(f"{DATA.name} does not list the {len(connected_products())} products in order",
              file=sys.stderr)
        return 1
    print(kernel_line())
    print(f"{'product':<10}  {'dim':>3}  {'cert s':>8}  {'dim only s':>10}  {'queries':>7}")
    records = []
    for row in rows:
        r, error = product_record(row, repeats)
        records.append(r)
        if error:
            print(f"{r['product']}: {error}", file=sys.stderr)
        print(f"{r['product']:<10}  {r['dim']:>3}  {r['cert_s']:>8.4f}  {r['dim_only_s']:>10.4f}  "
              f"{r['queries']:>7}", flush=True)
    for key, total in totals(records).items():
        print(f"total {key:<10}  cert {total['cert_s']:.3f} s  "
              f"dim only {total['dim_only_s']:.3f} s")
    bad = sum(not r["match"] for r in records)
    print(f"{len(rows) - bad} of {len(rows)} products match {DATA.name}")
    if json_path is not None:
        json_path.write_text(json.dumps(bench_record(records, repeats), indent=1) + "\n",
                             encoding="utf-8")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also write the figures to PATH as JSON")
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
    return check(opts.repeats, opts.json)


if __name__ == "__main__":
    sys.exit(main())
