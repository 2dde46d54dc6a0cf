"""The scripts under `benchmarks/` call package internals by name, so a
renamed or removed one breaks them long before anyone runs them by hand.
This loads `check_products.py` and `bench_kernels.py` from source, never
writing bytecode there, and runs a small part of each.
"""

import importlib.util
import json
import sys

from tensordim import DimResult, _bb_py, solver

from conftest import ROOT

PRODUCTS = json.loads((ROOT / "data" / "clique_products.json").read_text(encoding="utf-8"))[
    "products"]


def load_script(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"benchmarks_{name}",
                                                  ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_products_lists_the_data_files_products(monkeypatch):
    check_products = load_script(monkeypatch, "check_products")
    assert check_products.connected_products() == [tuple(p["sizes"]) for p in PRODUCTS]


def test_bench_kernels_runs_a_product_on_the_pure_kernel(monkeypatch):
    bench_kernels = load_script(monkeypatch, "bench_kernels")
    kernel = solver._default_kernel
    name, run = bench_kernels.product_instance((3, 4))
    want = next(p for p in PRODUCTS if p["sizes"] == [3, 4])
    assert run(_bb_py) == DimResult(want["dim"], tuple(want["certificate"])), name
    assert solver._default_kernel is kernel
