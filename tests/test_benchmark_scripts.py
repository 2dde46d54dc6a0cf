"""The scripts under `benchmarks/` call package internals by name, so a
renamed or removed one breaks them long before anyone runs them by hand.
This loads `check_products.py`, `bench_layers.py` and `audit_products.py`
from source, never writing bytecode there, and runs a small part of each.
The audit needs scipy and is skipped without it.
"""

import hashlib
import importlib.util
import json
import subprocess
import sys

import pytest

from tensordim import DimResult, Graph, _bb_py, _loader, all_pairs_distances, solver
from tensordim.graphs import CliqueFactors, read_edge_list, tensor_of_cliques

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
    # Its queries column, on the pure kernel: the certificate loop's kernel
    # queries, while both solves still give the file's results.
    monkeypatch.setattr(solver, "_default_kernel", _bb_py)
    lex_min = _bb_py.lex_min_hitting_set
    for sizes, asked in [((4, 7), 2), ((3, 3, 3), 6)]:
        want = next(p for p in PRODUCTS if tuple(p["sizes"]) == sizes)
        _, with_cert, queries, _, dim_only = check_products.measure(CliqueFactors(sizes), 2)
        assert with_cert == DimResult(want["dim"], tuple(want["certificate"])), sizes
        assert dim_only == DimResult(want["dim"], None), sizes
        assert queries == asked, sizes
    assert _bb_py.lex_min_hitting_set is lex_min


def test_check_products_writes_its_figures_as_json(monkeypatch, tmp_path):
    # The --json record on the pure kernel, for two products.
    check_products = load_script(monkeypatch, "check_products")
    monkeypatch.setattr(solver, "_default_kernel", _bb_py)
    rows = [p for p in PRODUCTS if p["sizes"] in ([4, 7], [3, 3, 3])]
    records = []
    for row in rows:
        record, error = check_products.product_record(row, 1)
        assert error is None
        records.append(record)
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(check_products.bench_record(records, 1)), encoding="utf-8")
    got = json.loads(path.read_text(encoding="utf-8"))
    assert got["kernel"] == "python" and got["repeats"] == 1
    assert got["commit"] is None or isinstance(got["commit"], str)
    assert got["diff"] is None or len(got["diff"]) == 64
    assert [(r["product"], r["dim"], r["queries"], r["match"]) for r in got["products"]] == [
        ("4x7", 6, 2, True), ("3x3x3", 6, 6, True)]
    assert got["totals"]["two-factor"]["cert_s"] == records[0]["cert_s"]
    assert got["totals"]["all"]["dim_only_s"] == sum(r["dim_only_s"] for r in records)


def test_check_products_names_the_tree_it_measured(monkeypatch, tmp_path):
    # `commit` and `diff` in a scratch checkout: outside a checkout both are
    # None; a clean tree has its commit and no diff; an edit to a tracked
    # file marks the commit "-dirty" and gives the SHA-256 of
    # `git diff HEAD --binary`, which changes with the edit.
    check_products = load_script(monkeypatch, "check_products")
    monkeypatch.setattr(check_products, "ROOT", tmp_path)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    assert check_products.commit() is None and check_products.tree_diff() is None

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
                               *args], cwd=tmp_path, capture_output=True, check=True).stdout

    git("init", "-q")
    (tmp_path / "f").write_text("a\n", encoding="utf-8")
    git("add", "f")
    git("commit", "-q", "-m", "one")
    head = git("rev-parse", "HEAD").decode().strip()
    assert check_products.commit() == head and check_products.tree_diff() is None
    seen = set()
    for text in ("b\n", "c\n"):
        (tmp_path / "f").write_text(text, encoding="utf-8")
        want = hashlib.sha256(git("diff", "HEAD", "--binary")).hexdigest()
        assert check_products.commit() == head + "-dirty"
        assert check_products.tree_diff() == want
        seen.add(want)
    assert len(seen) == 2


def test_check_products_names_the_kernel_and_why_it_is_pure(monkeypatch, compiled_kernel):
    check_products = load_script(monkeypatch, "check_products")
    monkeypatch.setattr(solver, "_default_kernel", compiled_kernel)
    assert check_products.kernel_line() == "kernel: compiled"
    monkeypatch.setattr(solver, "_default_kernel", _bb_py)
    monkeypatch.setattr(_loader, "why_pure", "no C compiler")
    assert check_products.kernel_line() == "kernel: python (no C compiler)"


def load_with_bare_imports(monkeypatch, name, *imported):
    # bench_layers imports tdbench's `workloads` (and with it `checks`) by
    # bare name from a path the script prepends; both are undone afterwards.
    monkeypatch.setattr(sys, "path", list(sys.path))
    try:
        return load_script(monkeypatch, name)
    finally:
        for module in imported:
            sys.modules.pop(module, None)


def test_bench_layers_writes_the_product_edge_list(monkeypatch, tmp_path):
    bench_layers = load_with_bare_imports(monkeypatch, "bench_layers", "workloads", "checks")
    path = bench_layers.product_edge_list(tmp_path, (3, 4))
    assert path.parent == tmp_path
    assert read_edge_list(path) == tensor_of_cliques(CliqueFactors((3, 4)))


def test_bench_layers_records_the_greedy_seeds(monkeypatch):
    bench_layers = load_with_bare_imports(monkeypatch, "bench_layers", "workloads", "checks")
    completion = solver._greedy_completion
    path = all_pairs_distances(Graph(6, [(v, v + 1) for v in range(5)]))
    star = all_pairs_distances(Graph(5, [(0, v) for v in range(1, 5)]))
    inputs = bench_layers.seed_inputs([path, star])
    assert solver._greedy_completion is completion
    # One upper seed per exact solve.  The path's end vertex 0 resolves it.
    # The star's four leaves are twins: the three forced resolve every pair.
    assert [sorted(completion(*args)) for args in inputs] == [[0], []]
    assert inputs[1] == ([], 0b10001)


def test_audit_products_proves_the_small_products(monkeypatch, tmp_path, capsys):
    # HiGHS proves each of these in well under a second, on masks built
    # from BFS distances, and agrees with the data file.
    pytest.importorskip("scipy")
    audit = load_script(monkeypatch, "audit_products")
    names = ["2x3x3", "2x3x4", "2x3x5", "3x3x3"]
    assert audit.main(["--only", *names, "--time-limit", "30"]) == 0
    lines = capsys.readouterr().out.splitlines()
    dims = {"x".join(map(str, p["sizes"])): p["dim"] for p in PRODUCTS}
    assert [line.split()[:4] for line in lines[1:5]] == [
        [name, str(dims[name]), "optimal", str(dims[name])] for name in names]
    assert lines[5].startswith("4 of 4 products proven equal")
    # The same program against a file whose value is off by one.
    data = json.loads((ROOT / "data" / "clique_products.json").read_text(encoding="utf-8"))
    for p in data["products"]:
        if p["sizes"] == [3, 3, 3]:
            p["dim"] += 1
    wrong = tmp_path / "clique_products.json"
    wrong.write_text(json.dumps(data), encoding="utf-8")
    monkeypatch.setattr(audit, "DATA", wrong)
    assert audit.main(["--only", "3x3x3"]) == 1
    assert "clique_products.json says 7, the program 6" in capsys.readouterr().err
