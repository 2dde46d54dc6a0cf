"""Time the edge-list parser, the distance table, the greedy heuristic and
the greedy upper seed.

Runs `read_edge_list`, `all_pairs_distances`, `greedy_resolving_set` and
`solver._greedy_completion` on the random-graphs graph set of `tdbench`
(seed 1; the upper-seed inputs are those met while solving each graph
exactly) and on large inputs that workload never reaches: the edge list
of K_20 x K_20, a path on 1000 vertices, K_2 x K_2 x K_100, K_200 and the
greedy set of K_40 x K_40.  The edge lists are written to a temporary
directory.  Prints the best of N wall times per row.  Usage:

    PYTHONPATH=src python benchmarks/bench_layers.py [--repeats N]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

from tensordim import solver
from tensordim.graphs import (CliqueFactors, Graph, all_pairs_distances, build_clique,
                              read_edge_list, tensor_clique_distances, tensor_of_cliques,
                              write_edge_list)

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
        ]
        print(f"{'function':<22}  {'input':<14}  {'calls':>5}  {'best':>9}")
        for name, label, fn, args_list in rows:
            t = best_time(fn, args_list, opts.repeats)
            print(f"{name:<22}  {label:<14}  {len(args_list):>5}  {t:>8.4f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
