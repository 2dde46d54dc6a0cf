"""Command-line front end.

Subcommands: gen, dim, verify, construct, bounds, table.  Exit codes:
0 on success (including "disconnected" reports), 1 when a verification
answers false, 2 on usage or parse errors and when memory runs out.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .constructions import (
    _two_factor_set,
    dim_formula,
    formula_case,
    lower_bound_largest_factor,
    lower_bound_lines,
    lower_bound_subproduct,
    upper_bound_construction,
)
from .graphs import (
    CliqueFactors,
    Graph,
    all_pairs_distances,
    build_bipartite_minus_matching,
    build_clique,
    read_edge_list,
    tensor_clique_distances,
    tensor_of_cliques,
    write_edge_list,
)
from .metric import is_resolving
from .solver import MAX_EXACT_VERTICES, exact_metric_dimension, greedy_resolving_set


class UsageError(ValueError):
    pass


def _parse_factors(text: str) -> CliqueFactors:
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"bad factor list {text!r}; expected e.g. 3,4") from None
    try:
        return CliqueFactors(sizes)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _read_input(args) -> tuple[Graph | CliqueFactors, CliqueFactors | None]:
    """A path-or-tensor input as parsed, plus the factor tag: the graph, or
    the product as its factors.  No distance table is built."""
    if (args.path is None) == (args.tensor is None):
        raise UsageError("give exactly one input: a graph file or --tensor")
    if args.tensor is not None:
        factors = _parse_factors(args.tensor)
        return factors, factors
    return read_edge_list(args.path), None


def _check_exact_size(space: Graph | CliqueFactors) -> None:
    """Refuse a connected input too large for the exact search with a usage
    error, before anything is computed for it (an edge list's pair masks,
    or the rows of `table`); a disconnected one is still reported as
    such."""
    n = space.n
    if n > MAX_EXACT_VERTICES and space.connected:
        raise UsageError(f"exact search supports at most {MAX_EXACT_VERTICES} vertices, got {n}")


def _set_report(ids, factors: CliqueFactors | None) -> dict:
    report = {"resolving_set_ids": list(ids)}
    report["resolving_set"] = (
        [list(factors.coords_of(v)) for v in ids] if factors is not None else None
    )
    return report


def _write(text: str, out: str | None) -> None:
    """text to the file `out`, LF line ends, or to stdout."""
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(report: dict, out: str | None) -> None:
    _write(json.dumps(report, indent=2) + "\n", out)


def _cmd_gen(args) -> int:
    picked = [opt for opt in (args.clique, args.tensor, args.bmm) if opt is not None]
    if len(picked) != 1:
        raise UsageError("give exactly one of --clique, --tensor, --bmm")
    if args.clique is not None:
        g = build_clique(args.clique)
    elif args.bmm is not None:
        g = build_bipartite_minus_matching(args.bmm)
    else:
        g = tensor_of_cliques(_parse_factors(args.tensor))
    if args.out:
        write_edge_list(g, args.out)
    else:
        sys.stdout.write(f"{g.n} {g.edge_count()}\n")
        for u, v in g.edges():
            sys.stdout.write(f"{u} {v}\n")
    return 0


def _cmd_dim(args) -> int:
    modes = [m for m, on in (("formula", args.formula), ("exact", args.exact),
                             ("greedy", args.greedy)) if on]
    if len(modes) != 1:
        raise UsageError("give exactly one of --formula, --exact, --greedy")
    mode = modes[0]

    if mode == "formula":
        if args.tensor is None or args.path is not None:
            raise UsageError("--formula needs --tensor")
        factors = _parse_factors(args.tensor)
        if factors.t != 2:
            raise UsageError("--formula needs exactly two factors")
        m, n = factors.sizes
        result = dim_formula(m, n)
        report = {"factors": list(factors.sizes), "n": factors.vertex_count,
                  "method": "formula", "dim": result.dim}
        if result.disconnected:
            report["disconnected"] = True
        _emit(report, args.out)
        return 0

    space, factors = _read_input(args)
    if mode == "exact":
        _check_exact_size(space)
    report = {"n": space.n, "method": mode}
    if factors is not None:
        report["factors"] = list(factors.sizes)
    if not space.connected:
        report.update({"dim": None, "disconnected": True})
        _emit(report, args.out)
        return 0
    # The exact search takes a graph as parsed and a product by its factors,
    # with no n x n table; the greedy reads a distance table.
    if mode == "greedy":
        space = all_pairs_distances(space) if factors is None else tensor_clique_distances(factors)
        wset = greedy_resolving_set(space)
        report["dim"] = len(wset)
        report.update(_set_report(wset, factors))
        _emit(report, args.out)
        return 0

    result = exact_metric_dimension(space)
    # exact_metric_dimension has checked the certificate.
    report["dim"] = result.dim
    report.update(_set_report(result.certificate, factors))
    _emit(report, args.out)
    return 0


def _parse_set(text: str, factors: CliqueFactors | None, n: int) -> list[int]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--set is not valid JSON: {exc}") from None
    if not isinstance(data, list):
        raise UsageError("--set must be a JSON array")
    # `type(...) is int` rather than isinstance: JSON true and false load as
    # bool, a subclass of int, and a float coordinate would give a fractional id.
    for x in data:
        for c in x if isinstance(x, list) else [x]:
            if type(c) is not int:
                raise UsageError(f"--set entries must be integers, got {json.dumps(c)}")
    if all(isinstance(x, int) for x in data):
        ids = data
    elif all(isinstance(x, list) for x in data):
        if factors is None:
            raise UsageError("coordinate tuples need --tensor input")
        try:
            ids = [factors.flat_index(tuple(c)) for c in data]
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    else:
        raise UsageError("--set must hold flat ids or coordinate tuples, not a mix")
    for v in ids:
        if not 0 <= v < n:
            raise UsageError(f"vertex id {v} out of range for {n} vertices")
    if len(set(ids)) != len(ids):
        raise UsageError("--set contains a duplicate vertex")
    return ids


def _cmd_verify(args) -> int:
    space, factors = _read_input(args)
    # A graph is checked by one BFS per member, with no n x n table.
    verdict = is_resolving(space, _parse_set(args.set, factors, space.n))
    if verdict:
        print("resolving")
        return 0
    if factors is not None:
        cx = factors.coords_of(verdict.x)
        cy = factors.coords_of(verdict.y)
        print(f"unresolved pair: ids {verdict.x} {verdict.y} "
              f"coords {cx} {cy}")
    else:
        print(f"unresolved pair: ids {verdict.x} {verdict.y}")
    return 1


def _cmd_construct(args) -> int:
    factors = _parse_factors(args.tensor)
    if factors.t != 2:
        raise UsageError("construct needs exactly two factors")
    a, b = factors.sizes
    if (a, b) == (2, 2):
        _emit({"factors": [2, 2], "disconnected": True}, args.out)
        return 0
    wset = _two_factor_set(a, b)
    case = formula_case(min(a, b), max(a, b))
    verified = bool(is_resolving(factors, wset))
    report = {"factors": [a, b], "case": case.kind, "size": len(wset),
              "formula": dim_formula(a, b).dim, "verified": verified}
    report.update(_set_report(wset, factors))
    _emit(report, args.out)
    return 0


def _cmd_bounds(args) -> int:
    factors = _parse_factors(args.tensor)
    all_big = all(s >= 3 for s in factors.sizes)
    report: dict = {"factors": list(factors.sizes), "vertices": factors.vertex_count}
    bounds: dict = {}
    for key, bound in (("largest_factor_lower", lower_bound_largest_factor),
                       ("line_lower", lower_bound_lines)):
        if factors.connected:
            bounds[key] = {"applicable": True, "value": bound(factors)}
        else:
            bounds[key] = {"applicable": False, "reason": "needs a connected product"}
    if all_big and factors.t >= 3:
        bounds["subproduct_lower"] = {
            "applicable": True, "value": lower_bound_subproduct(factors)}
        wset = upper_bound_construction(factors)
        verified = bool(is_resolving(factors, wset))
        bounds["construction_upper"] = {
            "applicable": True, "value": len(wset), "verified": verified}
    else:
        reason = ("needs at least three factors" if all_big
                  else "needs every factor of size >= 3")
        bounds["subproduct_lower"] = {"applicable": False, "reason": reason}
        bounds["construction_upper"] = {"applicable": False, "reason": reason}
    report["bounds"] = bounds
    if factors.vertex_count <= args.exact_up_to:
        # The solver refuses a connected product over 64 vertices before it
        # builds anything.
        result = exact_metric_dimension(factors, certificate=False)
        exact: dict = {"computed": True, "dim": result.dim}
        if result.disconnected:
            exact["disconnected"] = True
        report["exact"] = exact
    else:
        report["exact"] = {"computed": False,
                           "reason": f"vertex count exceeds --exact-up-to {args.exact_up_to}"}
    _emit(report, args.out)
    return 0


def build_table_rows(max_m: int, max_n: int, exact_up_to: int) -> list[dict]:
    """Rows of the formula/construction/exact agreement table.  A product
    too large for the exact search is refused before any row is built."""
    for m in range(2, max_m + 1):
        for n in range(m, max_n + 1):
            if m * n <= exact_up_to:
                _check_exact_size(CliqueFactors((m, n)))
    rows = []
    for m in range(2, max_m + 1):
        for n in range(m, max_n + 1):
            formula = dim_formula(m, n).dim
            factors = CliqueFactors((m, n))
            row: dict = {"m": m, "n": n, "formula": formula,
                         "construction_size": None, "verified": None, "exact": None}
            if formula is not None:
                wset = _two_factor_set(m, n)
                row["construction_size"] = len(wset)
                row["verified"] = bool(is_resolving(factors, wset))
            exact_known = m * n <= exact_up_to
            if exact_known:
                # None: disconnected
                row["exact"] = exact_metric_dimension(factors, certificate=False).dim
            if formula is None:
                row["agree"] = (not exact_known) or row["exact"] is None
            else:
                row["agree"] = (
                    row["construction_size"] == formula
                    and bool(row["verified"])
                    and ((not exact_known) or row["exact"] == formula)
                )
            row["exact_computed"] = exact_known
            rows.append(row)
    return rows


def _cmd_table(args) -> int:
    if args.max_m < 2 or args.max_n < args.max_m:
        raise UsageError("needs 2 <= max-m <= max-n")
    rows = build_table_rows(args.max_m, args.max_n, args.exact_up_to)
    lines = ["m,n,formula,construction_size,verified,exact,agree"]
    for row in rows:
        formula = "disconnected" if row["formula"] is None else str(row["formula"])
        size = "" if row["construction_size"] is None else str(row["construction_size"])
        verified = "" if row["verified"] is None else str(row["verified"]).lower()
        if not row["exact_computed"]:
            exact = ""
        elif row["exact"] is None:
            exact = "disconnected"
        else:
            exact = str(row["exact"])
        agree = str(row["agree"]).lower()
        lines.append(f"{row['m']},{row['n']},{formula},{size},{verified},{exact},{agree}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


# Built once per process: main() may be called many times in one process.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensordim",
        description="Metric dimension of graphs and tensor products of cliques.",
    )
    common = argparse.ArgumentParser(add_help=False)
    # Accepted and ignored: the search runs in one process.  Scripts and the
    # benchmark harness pass --threads 1, and removing the flag would make
    # every such call exit 2.
    common.add_argument("--threads", type=int, default=1, help=argparse.SUPPRESS)
    common.add_argument("--out", default=None, help="write output to this file")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="write a graph as an edge list")
    p.add_argument("--clique", type=int, default=None, metavar="N")
    p.add_argument("--tensor", default=None, metavar="SIZES")
    p.add_argument("--bmm", type=int, default=None, metavar="N",
                   help="complete bipartite K_{N,N} minus a perfect matching")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("dim", parents=[common], help="metric dimension")
    p.add_argument("path", nargs="?", default=None, help="edge-list file")
    p.add_argument("--tensor", default=None, metavar="SIZES")
    p.add_argument("--formula", action="store_true", help="closed form (two factors)")
    p.add_argument("--exact", action="store_true", help="exact search with certificate")
    p.add_argument("--greedy", action="store_true", help="greedy upper bound")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("verify", parents=[common], help="check a resolving set")
    p.add_argument("path", nargs="?", default=None, help="edge-list file")
    p.add_argument("--tensor", default=None, metavar="SIZES")
    p.add_argument("--set", required=True,
                   help="JSON array of flat ids or coordinate tuples")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("construct", parents=[common],
                       help="certified resolving set for two factors")
    p.add_argument("--tensor", required=True, metavar="M,N")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("bounds", parents=[common], help="bounds for a product of cliques")
    p.add_argument("--tensor", required=True, metavar="SIZES")
    p.add_argument("--exact-up-to", type=int, default=40, metavar="V",
                   help="solve exactly when the product has at most V vertices")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("table", parents=[common],
                       help="CSV of formula vs construction vs exact")
    p.add_argument("--max-m", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--exact-up-to", type=int, default=0, metavar="V",
                   help="solve exactly when m*n is at most V")
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # An input too large for its tables, under an address-space limit; with
    # none, the operating system may end the process first.
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
