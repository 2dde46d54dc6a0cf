"""The traced benchmark run (`tdbench/run.py --trace 1`) wraps package
functions by name, so a renamed or removed entry point breaks it.  This
installs its tracer on the package the way `tdbench/run.py` does, on the
pure kernel that a plain checkout benchmarks, and runs one exact search
under it.  `tdbench/` is loaded from source and never written to.
"""

import importlib.util
import sys

import tensordim
from tensordim import _bb_py, cli, constructions, graphs, metric, solver

from conftest import ROOT


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("tdbench_tracing",
                                                  ROOT / "tdbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_the_pure_kernel(monkeypatch, capsys):
    tracing = load_tracing(monkeypatch)
    monkeypatch.setattr(solver, "_default_kernel", _bb_py)
    modules = {"cli": cli, "constructions": constructions, "solver": solver,
               "graphs": graphs, "metric": metric, "package": tensordim}
    originals = {(key, name): getattr(modules.get(key, _bb_py), name)
                 for key, name, _, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        tracer.begin_pass()
        assert cli.main(["dim", "--tensor", "3,4", "--exact"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    layers = {span[0] for span in tracer.spans}
    assert {"cli.self", "solver.exact_self", "kernel.size_search",
            "kernel.lex_search"} <= layers
    assert tracer.counts["kernel.calls"] > 0
    for (key, name), original in originals.items():
        assert getattr(modules.get(key, _bb_py), name) is original
