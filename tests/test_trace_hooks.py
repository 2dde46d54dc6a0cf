"""The traced benchmark run (`tdbench/run.py --trace 1`) wraps package
functions by name, so a renamed or removed entry point breaks it.  This
installs its tracer on the package the way `tdbench/run.py` does, on the
pure kernel that a plain checkout benchmarks, and runs exact searches
under it that reach every kernel call site: the symmetric size search and
the certificate loop (a product of cliques) and the plain size search (a
graph file).  The tracer reads the kernel's `lower` and `upper` by name,
so a call site passing them by position fails here.  `tdbench/` is loaded
from source and never written to.
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


def test_tracer_installs_on_the_pure_kernel(monkeypatch, capsys, tmp_path):
    tracing = load_tracing(monkeypatch)
    monkeypatch.setattr(solver, "_default_kernel", _bb_py)
    path = tmp_path / "g.txt"
    write_edge_list(Graph(14, random_connected_edges(random.Random(5), 14, 0.2)), path)
    modules = {"cli": cli, "constructions": constructions, "solver": solver,
               "graphs": graphs, "metric": metric, "package": tensordim}
    originals = {(key, name): getattr(modules.get(key, _bb_py), name)
                 for key, name, _, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        for argv in (["dim", "--tensor", "3,4", "--exact"], ["dim", str(path), "--exact"]):
            tracer.begin_pass()
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    (product_spans, product_counts), (file_spans, file_counts) = tracer.passes
    assert {"cli.self", "solver.exact_self", "kernel.size_search",
            "kernel.lex_search"} <= {span[0] for span in product_spans}
    # The plain size search runs directly under exact_metric_dimension.
    assert any(layer == "kernel.size_search" and file_spans[parent][0] == "solver.exact_self"
               for layer, _, _, parent, _ in file_spans)
    for counts in (product_counts, file_counts):
        assert counts["kernel.calls"] > 0
        assert counts["solver.seed_gap"] >= 0
        assert counts["solver.lower_stops"] <= counts["kernel.calls"]
    for (key, name), original in originals.items():
        assert getattr(modules.get(key, _bb_py), name) is original
