"""Check the exact values of `data/clique_products.json` with an integer
program, independently of the search kernel.

The metric dimension is the least size of a vertex set that hits every
pair's resolver mask: minimise sum_v x_v over binary x_v, subject to
sum_{v in mask} x_v >= 1 for each distinct mask.  The masks come from BFS
distances on the product's graph (`graphs.tensor_of_cliques`, then
`graphs.all_pairs_distances`) and `solver.build_pair_table`: neither the
branch-and-bound kernel nor the coordinate rule of the product route is
used.  HiGHS solves each program through `scipy.optimize.milp`, with
`--time-limit` seconds per product; the chosen set is checked against the
masks before its size counts.

Prints, per product, the file's dimension, the solver's status, the
proven value (or, at the time limit, the bounds found so far) and the
time.  A product disagrees when the file's dimension lies outside those
bounds: below the proven lower bound, or above the size of a hitting set
found.  Exits 1 on any disagreement; a product stopped at the time limit
inside its bounds is counted as unproven, not as a disagreement.
`--only` picks products by name (e.g. `--only 2x3x3 3x3x3`); the default is
all 103.

Needs scipy, which the package does not depend on; scipy is imported
here only.  Usage:

    PYTHONPATH=src python benchmarks/audit_products.py [--time-limit S] [--only AxB ...]
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from tensordim.graphs import CliqueFactors, all_pairs_distances, tensor_of_cliques
from tensordim.solver import build_pair_table

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data" / "clique_products.json"


def hitting_matrix(sizes) -> np.ndarray:
    """One 0/1 row per distinct pair mask of the product, from its BFS
    distance table: column v is 1 when vertex v tells the pair apart."""
    dist = all_pairs_distances(tensor_of_cliques(CliqueFactors(sizes)))
    masks = np.unique(build_pair_table(dist))
    return ((masks[:, None] >> np.arange(dist.n, dtype=np.uint64)) & np.uint64(1)).astype(float)


def solve(matrix: np.ndarray, time_limit: float) -> dict:
    """The least hitting set's size by HiGHS: the status, the lower bound
    proven, the size of the best hitting set found (None when none was
    found) and the seconds taken."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = matrix.shape[1]
    t0 = time.perf_counter()
    res = milp(np.ones(n), integrality=np.ones(n), bounds=Bounds(0, 1),
               constraints=LinearConstraint(matrix, lb=1, ub=np.inf),
               options={"time_limit": time_limit})
    seconds = time.perf_counter() - t0
    upper = None
    if res.x is not None:
        chosen = np.round(res.x)
        if not (matrix @ chosen >= 1).all():
            raise AssertionError("the solver's set misses a pair mask")
        upper = int(chosen.sum())
    # The objective is a vertex count, so the proven bound rounds up.
    dual = res.mip_dual_bound
    lower = 0 if dual is None or math.isnan(dual) else math.ceil(dual - 1e-6)
    status = {0: "optimal", 1: "time limit"}.get(res.status, res.message)
    return {"status": status, "lower": lower, "upper": upper, "seconds": seconds}


def audit(rows: list[dict], time_limit: float) -> int:
    """Solve each product of `rows` (entries of the data file) and print its
    line; returns 1 when any file value disagrees, else 0."""
    print(f"{'product':<10}  {'dim':>3}  {'status':<10}  {'value':>7}  {'time s':>8}")
    proven = unproven = disagree = 0
    for row in rows:
        name = "x".join(map(str, row["sizes"]))
        got = solve(hitting_matrix(row["sizes"]), time_limit)
        lower, upper = got["lower"], got["upper"]
        value = str(lower) if lower == upper else f"{lower}..{'?' if upper is None else upper}"
        print(f"{name:<10}  {row['dim']:>3}  {got['status']:<10}  {value:>7}  "
              f"{got['seconds']:>8.3f}", flush=True)
        if row["dim"] < lower or (upper is not None and row["dim"] > upper):
            disagree += 1
            print(f"{name}: {DATA.name} says {row['dim']}, the program {value}", file=sys.stderr)
        elif lower == upper:
            proven += 1
        else:
            unproven += 1
    print(f"{proven} of {len(rows)} products proven equal to {DATA.name}; "
          f"{unproven} unproven within the time limit; {disagree} disagree")
    return 1 if disagree else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--time-limit", type=float, default=60.0, metavar="S",
                        help="seconds per product (default 60)")
    parser.add_argument("--only", nargs="+", metavar="AxB", help="products to check, by name")
    opts = parser.parse_args(argv)
    if opts.time_limit <= 0:
        parser.error("--time-limit must be positive")
    rows = json.loads(DATA.read_text(encoding="utf-8"))["products"]
    if opts.only:
        by_name = {"x".join(map(str, row["sizes"])): row for row in rows}
        missing = [name for name in opts.only if name not in by_name]
        if missing:
            parser.error(f"not in {DATA.name}: {', '.join(missing)}")
        rows = [by_name[name] for name in opts.only]
    return audit(rows, opts.time_limit)


if __name__ == "__main__":
    sys.exit(main())
