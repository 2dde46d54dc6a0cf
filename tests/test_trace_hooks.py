"""The traced benchmark run (`tdbench/run.py --trace 1`) wraps package
functions by name, so a renamed or removed entry point breaks it.  This
installs its tracer on the package the way `tdbench/run.py` does, on the
pure kernel that a plain checkout benchmarks and on the compiled one, and
runs exact searches under it that reach every kernel call site: the
symmetric size search and the certificate loop (a product of cliques) and
the plain size search (a graph file); and the greedy heuristic on a graph
file, whose pair table and kernel greedy run inside it.  The tracer reads
the kernel's
`lower` and `upper` by name, so a call site passing them by position
fails here.  On the compiled kernel the loop's queries and the orbit
search's leaves reach the traced search only through the `min_size`
callback the solver passes.
`tdbench/` is loaded from source and never written to.
"""

import importlib.util
import random
import sys

import tensordim
from tensordim import Graph, _bb_py, cli, constructions, graphs, metric, solver, write_edge_list

from conftest import ROOT, random_connected_edges


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("tdbench_tracing",
                                                  ROOT / "tdbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    write_edge_list(Graph(14, random_connected_edges(random.Random(5), 14, 0.2)), path)
    return str(path)


def traced_runs(monkeypatch, kernel, *argvs):
    """The tracer's passes over `cli.main` on each of `argvs`, one pass
    each, solved on `kernel`; checks that every target is restored
    afterwards."""
    tracing = load_tracing(monkeypatch)
    monkeypatch.setattr(solver, "_default_kernel", kernel)
    modules = {"cli": cli, "constructions": constructions, "solver": solver,
               "graphs": graphs, "metric": metric, "package": tensordim}
    originals = {(key, name): getattr(modules.get(key, kernel), name)
                 for key, name, _, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        for argv in argvs:
            tracer.begin_pass()
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    for (key, name), original in originals.items():
        assert getattr(modules.get(key, kernel), name) is original
    return tracer.passes


def traced_passes(monkeypatch, tmp_path, kernel, *products):
    """The tracer's passes over `dim --tensor 3,4 --exact`, a graph file
    and then each of `products`, solved on `kernel`."""
    return traced_runs(monkeypatch, kernel, ["dim", "--tensor", "3,4", "--exact"],
                       ["dim", graph_file(tmp_path), "--exact"],
                       *(["dim", "--tensor", sizes, "--exact"] for sizes in products))


def test_tracer_installs_on_the_pure_kernel(monkeypatch, capsys, tmp_path):
    passes = traced_passes(monkeypatch, tmp_path, _bb_py)
    capsys.readouterr()
    (product_spans, product_counts), (file_spans, file_counts) = passes
    assert {"cli.self", "solver.exact_self", "kernel.size_search",
            "kernel.lex_search"} <= {span[0] for span in product_spans}
    # The plain size search runs directly under exact_metric_dimension.
    assert any(layer == "kernel.size_search" and file_spans[parent][0] == "solver.exact_self"
               for layer, _, _, parent, _ in file_spans)
    for counts in (product_counts, file_counts):
        assert counts["kernel.calls"] > 0
        assert counts["solver.seed_gap"] >= 0
        assert counts["solver.lower_stops"] <= counts["kernel.calls"]


def test_tracer_counts_the_compiled_loops_queries(monkeypatch, capsys, tmp_path,
                                                  compiled_kernel):
    # The certificate of 3x4 takes no query (its completion answers them
    # all); that of 3x3x3 takes six.
    pure = traced_passes(monkeypatch, tmp_path, _bb_py, "3,3,3")
    compiled = traced_passes(monkeypatch, tmp_path, compiled_kernel, "3,3,3")
    capsys.readouterr()
    product_spans = compiled[2][0]
    # The loop's queries run inside it.
    assert any(layer == "kernel.size_search" and product_spans[parent][0] == "kernel.lex_search"
               for layer, _, _, parent, _ in product_spans)
    assert [counts["kernel.calls"] for _, counts in compiled] == [
        counts["kernel.calls"] for _, counts in pure]


def test_the_greedy_heuristic_traces_its_pair_table_and_kernel_greedy(monkeypatch, capsys,
                                                                       tmp_path, solver_kernel):
    # On a graph of at most 64 vertices the heuristic is the kernel's greedy
    # on the pair table, each traced once, inside the heuristic's own span.
    ((spans, _),) = traced_runs(monkeypatch, solver_kernel,
                                ["dim", graph_file(tmp_path), "--greedy"])
    capsys.readouterr()
    for layer in ("solver.pair_table", "solver.greedy_seed"):
        assert [spans[parent][0] for name, _, _, parent, _ in spans if name == layer] == [
            "solver.greedy"], layer
