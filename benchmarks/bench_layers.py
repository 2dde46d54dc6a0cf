"""Time the edge-list parser, the distance table, the greedy heuristic, the
greedy upper seed, and the two ways to the exact search's pair masks and
final check.

Runs `read_edge_list`, `all_pairs_distances`, `greedy_resolving_set` and
`solver._greedy_completion` on the random-graphs graph set of `tdbench`
(seed 1; the upper-seed inputs are those met while solving each graph
exactly) and on large inputs that workload never reaches: the edge list
of K_20 x K_20, a path on 1000 vertices, K_2 x K_2 x K_100, K_200 and the
greedy set of K_40 x K_40.  On the same graph set it times every pair's
mask from the adjacency, by `graph_pair_masks` on each kernel, against
`build_pair_table(all_pairs_distances(g))`, and the resolving check of
each graph's exact certificate by one BFS per member, `is_resolving(g, w)`,
against `all_pairs_distances` plus the table check.  The edge lists are
written to a temporary directory.  Prints the best of N wall times per
row.  Usage:

    PYTHONPATH=src python benchmarks/bench_layers.py [--repeats N]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

from tensordim import _bb_py, _loader, solver
from tensordim.graphs import (CliqueFactors, Graph, all_pairs_distances, build_clique,
                              read_edge_list, tensor_clique_distances, tensor_of_cliques,
                              write_edge_list)
from tensordim.metric import is_resolving

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tdbench"))
from workloads import random_graphs  # noqa: E402


def random_graph_files(workdir: Path) -> list[str]:
    """The random-graphs edge lists (seed 1), written into workdir."""
    return sorted({call.argv[1] for call in random_graphs(1, workdir).calls})


def product_edge_list(workdir: Path, sizes) -> Path:
    """The edge list of the product of cliques of these sizes, in workdir."""
    path = workdir / f"{'x'.join(map(str, sizes))}.txt"
    write_edge_list(tensor_of_cliques(CliqueFactors(sizes)), path)
    return path


def seed_inputs(tables):
    inputs = []
    completion = solver._greedy_completion

    def record(pending, cand_mask):
        inputs.append((pending, cand_mask))
        return completion(pending, cand_mask)

    solver._greedy_completion = record
    try:
        for dist in tables:
            solver.exact_metric_dimension(dist)
    finally:
        solver._greedy_completion = completion
    return inputs


def adjacency(g: Graph) -> list[int]:
    """The neighbour words `graph_pair_masks` takes, as the solver builds them."""
    return [solver._mask(g.neighbors(v)) for v in range(g.n)]


def table_masks(g: Graph) -> list[int]:
    """Every pair's mask by way of the distance table."""
    return solver.build_pair_table(all_pairs_distances(g)).tolist()


def table_check(g: Graph, w) -> object:
    """The resolving check by way of the distance table."""
    return is_resolving(all_pairs_distances(g), w)


def best_time(fn, args_list, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for args in args_list:
            fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    opts = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        paths = random_graph_files(Path(tmp))
        product = product_edge_list(Path(tmp), (20, 20))
        graphs = [read_edge_list(p) for p in paths]
        tables = [all_pairs_distances(g) for g in graphs]
        rows = [
            ("read_edge_list", "random-graphs", read_edge_list, [(p,) for p in paths]),
            ("read_edge_list", "20x20", read_edge_list, [(product,)]),
            ("all_pairs_distances", "random-graphs", all_pairs_distances, [(g,) for g in graphs]),
            ("all_pairs_distances", "path1000", all_pairs_distances,
             [(Graph(1000, [(i, i + 1) for i in range(999)]),)]),
            ("all_pairs_distances", "2x2x100", all_pairs_distances,
             [(tensor_of_cliques(CliqueFactors((2, 2, 100))),)]),
            ("all_pairs_distances", "K200", all_pairs_distances, [(build_clique(200),)]),
            ("greedy_resolving_set", "random-graphs", solver.greedy_resolving_set,
             [(d,) for d in tables]),
            ("greedy_resolving_set", "40x40", solver.greedy_resolving_set,
             [(tensor_clique_distances(CliqueFactors((40, 40))),)]),
            ("_greedy_completion", "random-graphs", solver._greedy_completion,
             seed_inputs(tables)),
            ("table pair masks", "random-graphs", table_masks, [(g,) for g in graphs]),
            ("graph_pair_masks py", "random-graphs", _bb_py.graph_pair_masks,
             [(adjacency(g),) for g in graphs]),
        ]
        compiled = _loader.load()
        if compiled is not None:
            rows.append(("graph_pair_masks C", "random-graphs", compiled.graph_pair_masks,
                         [(adjacency(g),) for g in graphs]))
        checks = [(g, solver.exact_metric_dimension(g).certificate) for g in graphs]
        rows += [("table check", "random-graphs", table_check, checks),
                 ("member-BFS check", "random-graphs", is_resolving, checks)]
        print(f"{'function':<22}  {'input':<14}  {'calls':>5}  {'best':>9}")
        for name, label, fn, args_list in rows:
            t = best_time(fn, args_list, opts.repeats)
            print(f"{name:<22}  {label:<14}  {len(args_list):>5}  {t:>8.4f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
