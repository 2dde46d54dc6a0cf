"""End-to-end behavior of the command-line interface."""

import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from tensordim import CliqueFactors, Graph, read_edge_list, tensor_of_cliques, write_edge_list
from tensordim import cli, constructions, graphs, metric, solver
from tensordim.cli import main

from conftest import ROOT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_gen_clique_stdout(capsys):
    code, out, _ = run(capsys, "gen", "--clique", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "4 6"
    assert len(lines) == 7


def test_gen_roundtrip_equals_builder(tmp_path, capsys):
    path = tmp_path / "g.txt"
    code, _, _ = run(capsys, "gen", "--tensor", "3,3", "--out", str(path))
    assert code == 0
    assert read_edge_list(path) == tensor_of_cliques(CliqueFactors((3, 3)))


def test_gen_requires_exactly_one_builder(capsys):
    assert run(capsys, "gen")[0] == 2
    assert run(capsys, "gen", "--clique", "3", "--bmm", "4")[0] == 2


def test_dim_formula(capsys):
    report = run_json(capsys, "dim", "--tensor", "3,4", "--formula")
    assert report == {"factors": [3, 4], "n": 12, "method": "formula", "dim": 4}


def test_dim_formula_disconnected(capsys):
    report = run_json(capsys, "dim", "--tensor", "2,2", "--formula")
    assert report["dim"] is None
    assert report["disconnected"] is True


def test_dim_formula_needs_two_factors(capsys):
    assert run(capsys, "dim", "--tensor", "3,3,3", "--formula")[0] == 2


def test_dim_exact_reports_verified_certificate(capsys):
    report = run_json(capsys, "dim", "--tensor", "3,3", "--exact")
    assert report["dim"] == 3
    assert len(report["resolving_set_ids"]) == 3
    assert len(report["resolving_set"]) == 3
    # the printed certificate must pass verification
    code, out, _ = run(capsys, "verify", "--tensor", "3,3",
                       "--set", json.dumps(report["resolving_set_ids"]))
    assert code == 0 and out.strip() == "resolving"
    code, out, _ = run(capsys, "verify", "--tensor", "3,3",
                       "--set", json.dumps(report["resolving_set"]))
    assert code == 0 and out.strip() == "resolving"


def test_dim_exact_disconnected(capsys):
    report = run_json(capsys, "dim", "--tensor", "2,2", "--exact")
    assert report["dim"] is None and report["disconnected"] is True


def test_dim_greedy(capsys):
    report = run_json(capsys, "dim", "--tensor", "4,5", "--greedy")
    assert report["method"] == "greedy"
    assert report["dim"] == len(report["resolving_set_ids"]) >= 5
    code, _, _ = run(capsys, "verify", "--tensor", "4,5",
                     "--set", json.dumps(report["resolving_set_ids"]))
    assert code == 0


def test_dim_on_file_input(tmp_path, capsys):
    path = tmp_path / "g.txt"
    run(capsys, "gen", "--bmm", "4", "--out", str(path))
    report = run_json(capsys, "dim", str(path), "--exact")
    assert report["dim"] == 3
    assert report["resolving_set"] is None
    assert len(report["resolving_set_ids"]) == 3


def test_dim_mode_is_mandatory_and_exclusive(capsys):
    assert run(capsys, "dim", "--tensor", "3,3")[0] == 2
    assert run(capsys, "dim", "--tensor", "3,3", "--exact", "--greedy")[0] == 2


def test_dim_needs_exactly_one_input(tmp_path, capsys):
    path = tmp_path / "g.txt"
    run(capsys, "gen", "--clique", "3", "--out", str(path))
    assert run(capsys, "dim", "--exact")[0] == 2
    assert run(capsys, "dim", str(path), "--tensor", "3,3", "--exact")[0] == 2


def test_dim_threads_accepted_and_seed_rejected(capsys):
    plain = run(capsys, "dim", "--tensor", "3,4", "--exact")
    assert plain[0] == 0
    assert run(capsys, "dim", "--tensor", "3,4", "--exact", "--threads", "2") == plain
    assert json.loads(plain[1])["dim"] == 4
    assert run(capsys, "dim", "--tensor", "3,4", "--exact", "--seed", "7")[0] == 2


def test_dim_greedy_and_exact_on_empty_graph(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("0 0\n")
    for mode in ("--greedy", "--exact"):
        report = run_json(capsys, "dim", str(path), mode)
        assert (report["dim"], report["resolving_set_ids"]) == (0, [])


def test_dim_exact_refuses_large_products_before_building_a_table(monkeypatch, capsys):
    def no_table(factors):
        raise AssertionError(f"built a distance table for {factors.sizes}")

    monkeypatch.setattr(cli, "tensor_clique_distances", no_table)
    for sizes in ("40,40", "300,300", "5,13", "2,3,11"):
        code, out, err = run(capsys, "dim", "--tensor", sizes, "--exact")
        assert (code, out) == (2, "")
        assert "at most 64 vertices" in err
    code, _, err = run(capsys, "bounds", "--tensor", "5,13", "--exact-up-to", "100")
    assert code == 2 and "at most 64 vertices" in err
    monkeypatch.undo()
    # Two factors of size 2 make the product disconnected, whatever its size.
    report = run_json(capsys, "dim", "--tensor", "2,2,17", "--exact")
    assert report["disconnected"] is True


def test_table_refuses_large_products_before_building_a_row(monkeypatch, capsys):
    def no_table(factors):
        raise AssertionError(f"built a distance table for {factors.sizes}")

    monkeypatch.setattr(cli, "tensor_clique_distances", no_table)
    code, out, err = run(capsys, "table", "--max-m", "3", "--max-n", "22",
                         "--exact-up-to", "100")
    assert (code, out) == (2, "")
    assert "exact search supports at most 64 vertices, got 66" in err


def test_bounds_and_table_build_no_certificate(monkeypatch, capsys):
    def no_certificate(*args, **kwargs):
        raise AssertionError("ran the certificate loop")

    monkeypatch.setattr(solver._default_kernel, "lex_min_hitting_set", no_certificate)
    for sizes in ("3,3,3", "3,4", "2,3,4", "2,2,3"):
        report = run_json(capsys, "bounds", "--tensor", sizes, "--exact-up-to", "64")
        assert report["exact"]["computed"] is True
    code, out, _ = run(capsys, "table", "--max-m", "6", "--max-n", "8", "--exact-up-to", "40")
    assert code == 0 and out.count(",true\n") == 25
    with pytest.raises(AssertionError, match="certificate loop"):
        main(["dim", "--tensor", "3,4", "--exact"])


def test_dim_exact_checks_each_set_once(monkeypatch, capsys):
    # One check, on the certificate: the construction, the solver's upper
    # seed, is not checked when it is taken.
    checked = []
    original = metric.is_resolving

    def counting(space, wset):
        checked.append(tuple(wset))
        return original(space, wset)

    for module in (metric, constructions, solver, cli):
        if getattr(module, "is_resolving", None) is original:
            monkeypatch.setattr(module, "is_resolving", counting)
    report = run_json(capsys, "dim", "--tensor", "4,7", "--exact")
    assert report["dim"] == 6
    assert checked == [tuple(report["resolving_set_ids"])]


def test_bounds_checks_the_construction_once(monkeypatch, capsys):
    # Dimension only: the construction, the solver's upper seed, sets the
    # size, and the solver's one check, at the end, proves it.
    checked = []
    original = metric.is_resolving

    def counting(space, wset):
        checked.append(tuple(wset))
        return original(space, wset)

    for module in (metric, constructions, solver, cli):
        if getattr(module, "is_resolving", None) is original:
            monkeypatch.setattr(module, "is_resolving", counting)
    report = run_json(capsys, "bounds", "--tensor", "4,7")
    assert report["exact"]["computed"] is True and report["exact"]["dim"] == 6
    assert len(checked) == 1


def test_dim_exact_refuses_large_files_before_building_a_table(tmp_path, monkeypatch, capsys):
    def no_table(g):
        raise AssertionError(f"built a distance table for {g.n} vertices")

    monkeypatch.setattr(cli, "all_pairs_distances", no_table)
    path_graph = tmp_path / "path.txt"
    path_graph.write_text("65 64\n" + "".join(f"{v} {v + 1}\n" for v in range(64)))
    code, out, err = run(capsys, "dim", str(path_graph), "--exact")
    assert (code, out) == (2, "")
    assert "at most 64 vertices, got 65" in err
    # Vertex 64 is isolated: reported as disconnected, still with no table.
    split = tmp_path / "split.txt"
    split.write_text("65 63\n" + "".join(f"{v} {v + 1}\n" for v in range(63)))
    report = run_json(capsys, "dim", str(split), "--exact")
    assert (report["n"], report["dim"], report["disconnected"]) == (65, None, True)


def test_a_large_declared_vertex_count_parses_small_and_fast(tmp_path, capsys):
    # "200000 0" declares 200,000 vertices and no edge.  None of them holds
    # a neighbour set, so the header costs nothing per vertex, and dim
    # reports the graph disconnected without building a table.
    text = "200000 0\n"
    t0 = time.perf_counter()
    g = graphs.parse_edge_list(text)
    elapsed = time.perf_counter() - t0
    assert (g.n, g.edge_count()) == (200000, 0)
    del g
    assert graphs.parse_edge_list("4 1\n1 2\n") == Graph(4, [(1, 2)])
    tracemalloc.start()
    try:
        graphs.parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.2 and peak < 5_000_000, (elapsed, peak)
    path = tmp_path / "isolated.txt"
    path.write_text(text)
    report = run_json(capsys, "dim", str(path), "--greedy")
    assert (report["n"], report["dim"], report["disconnected"]) == (200000, None, True)


# The command line under a 1 GiB address-space limit, so a graph that
# allocates per declared vertex fails with MemoryError instead of taking
# the machine's memory.
BOUNDED_SCRIPT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from tensordim.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_bounded(*argv) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", BOUNDED_SCRIPT, *argv], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=60)


def test_a_two_billion_vertex_header_is_reported_in_bounded_memory(tmp_path):
    # Only the vertices an edge names hold a neighbour set, so two billion
    # declared vertices and no edge are reported disconnected at once.
    path = tmp_path / "huge.txt"
    path.write_text("2000000000 0")
    done = run_bounded("dim", str(path), "--exact")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"n": 2_000_000_000, "method": "exact", "dim": None,
                                       "disconnected": True}


def test_verify_on_a_table_too_large_fails_clearly(tmp_path):
    # A set out of range is refused before anything is computed; a valid
    # one on two million vertices gets its verdict from one BFS column,
    # within the limit: vertex 0 is the only one at distance 0, and every
    # other vertex is unreachable from it.
    path = tmp_path / "large.txt"
    path.write_text("2000000 0")
    done = run_bounded("verify", str(path), "--set", "[2000000]")
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "error: vertex id 2000000 out of range for 2000000 vertices\n")
    done = run_bounded("verify", str(path), "--set", "[0]")
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "unresolved pair: ids 1 2\n", ""), done.stderr


def test_verify_unresolved_pair_with_coordinates(capsys):
    code, out, _ = run(capsys, "verify", "--tensor", "3,3",
                       "--set", "[[0,0],[1,1]]")
    assert code == 1
    assert "ids 1 3" in out
    assert "(0, 1)" in out and "(1, 0)" in out


def test_verify_full_vertex_set(capsys):
    code, out, _ = run(capsys, "verify", "--tensor", "3,3",
                       "--set", json.dumps(list(range(9))))
    assert code == 0 and out.strip() == "resolving"


def test_verify_flat_ids_on_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    run(capsys, "gen", "--clique", "4", "--out", str(path))
    assert run(capsys, "verify", str(path), "--set", "[0,1,2]")[0] == 0
    assert run(capsys, "verify", str(path), "--set", "[0,1]")[0] == 1


def test_verify_input_validation(tmp_path, capsys):
    assert run(capsys, "verify", "--tensor", "3,3", "--set", "nope")[0] == 2
    assert run(capsys, "verify", "--tensor", "3,3", "--set", "[[0,0],[0,0]]")[0] == 2
    assert run(capsys, "verify", "--tensor", "3,3", "--set", "[99]")[0] == 2
    assert run(capsys, "verify", "--tensor", "3,3", "--set", "[0,[1,1]]")[0] == 2
    # JSON booleans are ints to Python, and float coordinates give fractional ids
    for text in ("[true, false, 4]", "[[true, 0], [1, 1]]", "[[0.5, 1]]", "[1.0]"):
        assert run(capsys, "verify", "--tensor", "3,3", "--set", text)[0] == 2
    path = tmp_path / "g.txt"
    run(capsys, "gen", "--clique", "3", "--out", str(path))
    # coordinate tuples are meaningless without factor structure
    assert run(capsys, "verify", str(path), "--set", "[[0,0]]")[0] == 2


def test_verify_missing_file(capsys):
    assert run(capsys, "verify", "/no/such/file", "--set", "[0]")[0] == 2


def test_construct_report(capsys):
    report = run_json(capsys, "construct", "--tensor", "4,6")
    assert report["case"] == "balanced"
    assert report["size"] == report["formula"] == 6
    assert report["verified"] is True
    assert len(report["resolving_set"]) == 6
    code, _, _ = run(capsys, "verify", "--tensor", "4,6",
                     "--set", json.dumps(report["resolving_set_ids"]))
    assert code == 0


def test_construct_accepts_either_orientation(capsys):
    report = run_json(capsys, "construct", "--tensor", "6,4")
    assert report["factors"] == [6, 4]
    assert report["size"] == 6 and report["verified"] is True


def test_construct_two_by_two(capsys):
    report = run_json(capsys, "construct", "--tensor", "2,2")
    assert report == {"factors": [2, 2], "disconnected": True}


def test_construct_input_validation(capsys):
    assert run(capsys, "construct", "--tensor", "5")[0] == 2
    assert run(capsys, "construct", "--tensor", "3,3,3")[0] == 2
    assert run(capsys, "construct", "--tensor", "1,4")[0] == 2


def test_bounds_two_factors(capsys):
    report = run_json(capsys, "bounds", "--tensor", "3,4")
    assert report["bounds"]["largest_factor_lower"] == {"applicable": True, "value": 3}
    assert report["bounds"]["line_lower"] == {"applicable": True, "value": 3}
    assert report["bounds"]["subproduct_lower"]["applicable"] is False
    assert report["bounds"]["construction_upper"]["applicable"] is False
    assert report["exact"] == {"computed": True, "dim": 4}


def test_bounds_small_factor_gates_everything(capsys):
    # One factor of size 2 gates the paper's constructions; a second one
    # disconnects the product and gates the largest-factor bound too.
    report = run_json(capsys, "bounds", "--tensor", "2,3,3")
    assert report["bounds"]["largest_factor_lower"] == {"applicable": True, "value": 2}
    # The line bound skips the size-2 axis but still applies.
    assert report["bounds"]["line_lower"] == {"applicable": True, "value": 4}
    for name in ("subproduct_lower", "construction_upper"):
        assert report["bounds"][name]["applicable"] is False
    report = run_json(capsys, "bounds", "--tensor", "2,2,3")
    for name in ("largest_factor_lower", "line_lower", "subproduct_lower",
                 "construction_upper"):
        assert report["bounds"][name]["applicable"] is False


def test_bounds_triple_product_band(capsys):
    report = run_json(capsys, "bounds", "--tensor", "3,3,3")
    bounds = report["bounds"]
    assert bounds["largest_factor_lower"]["value"] == 2
    assert bounds["subproduct_lower"]["value"] == 3
    assert bounds["line_lower"]["value"] == 4
    assert bounds["line_lower"]["value"] <= report["exact"]["dim"]
    assert bounds["construction_upper"]["value"] <= 18
    assert bounds["construction_upper"]["verified"] is True
    exact = report["exact"]
    assert exact["computed"] is True
    assert bounds["subproduct_lower"]["value"] <= exact["dim"]
    assert exact["dim"] <= bounds["construction_upper"]["value"]


def test_bounds_exact_threshold(capsys):
    report = run_json(capsys, "bounds", "--tensor", "3,3,3", "--exact-up-to", "8")
    assert report["exact"]["computed"] is False


def test_table_small_sweep(capsys):
    code, out, _ = run(capsys, "table", "--max-m", "3", "--max-n", "4",
                       "--exact-up-to", "16")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,formula,construction_size,verified,exact,agree"
    rows = {tuple(line.split(",")[:2]): line.split(",") for line in lines[1:]}
    assert rows[("2", "2")] == ["2", "2", "disconnected", "", "", "disconnected", "true"]
    assert rows[("2", "3")] == ["2", "3", "2", "2", "true", "2", "true"]
    assert rows[("2", "4")] == ["2", "4", "3", "3", "true", "3", "true"]
    assert rows[("3", "3")] == ["3", "3", "3", "3", "true", "3", "true"]
    assert rows[("3", "4")] == ["3", "4", "4", "4", "true", "4", "true"]


def test_table_exact_cells_empty_when_not_computed(capsys):
    code, out, _ = run(capsys, "table", "--max-m", "4", "--max-n", "7")
    lines = out.strip().splitlines()
    rows = {tuple(line.split(",")[:2]): line.split(",") for line in lines[1:]}
    assert rows[("3", "7")][2:6] == ["6", "6", "true", ""]
    assert rows[("4", "5")][2] == "5"
    assert all(row[5] == "" for row in rows.values())


def test_table_all_rows_agree_up_to_six(capsys):
    code, out, _ = run(capsys, "table", "--max-m", "6", "--max-n", "6",
                       "--exact-up-to", "36")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.endswith(",true") for line in lines[1:])
    assert len(lines) == 1 + 15


def test_table_to_file_is_lf_terminated(tmp_path, capsys):
    path = tmp_path / "t.csv"
    code, _, _ = run(capsys, "table", "--max-m", "2", "--max-n", "3",
                     "--out", str(path))
    assert code == 0
    raw = path.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")


def test_table_argument_validation(capsys):
    assert run(capsys, "table", "--max-m", "4", "--max-n", "3")[0] == 2
    assert run(capsys, "table", "--max-m", "1", "--max-n", "3")[0] == 2


def test_unknown_command_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_bad_factor_strings(capsys):
    assert run(capsys, "dim", "--tensor", "3;4", "--exact")[0] == 2
    assert run(capsys, "dim", "--tensor", "", "--exact")[0] == 2
    assert run(capsys, "dim", "--tensor", "3,x", "--exact")[0] == 2


def test_dim_file_with_parse_error_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3 1\n0 9\n", encoding="utf-8")
    code, _, err = run(capsys, "dim", str(path), "--exact")
    assert code == 2
    assert "line 2" in err


def test_certify_paths_build_no_distance_table(monkeypatch, capsys):
    def no_table(*args):
        raise AssertionError("built an n x n distance table")

    for module in (graphs, metric, constructions, cli):
        for name in ("tensor_clique_distances", "all_pairs_distances"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_table)
    built = run_json(capsys, "construct", "--tensor", "40,40")
    assert built["verified"] is True
    assert run_json(capsys, "construct", "--tensor", "2,40")["verified"] is True
    code, out, _ = run(capsys, "verify", "--tensor", "40,40",
                       "--set", json.dumps(built["resolving_set"]))
    assert (code, out) == (0, "resolving\n")
    code, out, _ = run(capsys, "verify", "--tensor", "40,40",
                       "--set", json.dumps(built["resolving_set_ids"][1:]))
    assert code == 1 and out.startswith("unresolved pair: ids ")
    report = run_json(capsys, "bounds", "--tensor", "3,3,4", "--exact-up-to", "0")
    assert report["bounds"]["construction_upper"]["verified"] is True
    code, out, _ = run(capsys, "table", "--max-m", "4", "--max-n", "6")
    assert code == 0 and ",false" not in out


def test_exact_product_routes_build_no_distance_or_pair_table(monkeypatch, capsys):
    # A product of two or more cliques is solved from its factors: its pair
    # masks come from coordinates, and every check runs in coordinate space.
    def no_table(*args):
        raise AssertionError("built an n x n distance or pair table")

    with monkeypatch.context() as patched:
        for module in (graphs, metric, constructions, solver, cli):
            for name in ("tensor_clique_distances", "all_pairs_distances", "build_pair_table"):
                if hasattr(module, name):
                    patched.setattr(module, name, no_table)
        for sizes, certificate in [("3,3,4", [0, 1, 4, 13, 18, 23, 31]),
                                   ("2,3,4", [0, 1, 4, 6, 13, 15, 18])]:
            report = run_json(capsys, "dim", "--tensor", sizes, "--exact")
            assert report["resolving_set_ids"] == certificate, sizes
        report = run_json(capsys, "bounds", "--tensor", "3,3,4", "--exact-up-to", "64")
        assert report["exact"] == {"computed": True, "dim": 7}
        code, out, _ = run(capsys, "table", "--max-m", "4", "--max-n", "6",
                           "--exact-up-to", "24")
        assert code == 0 and ",false" not in out and out.count(",true\n") == 12
    # A single factor, the clique K_9, is solved on its distance table.
    assert run_json(capsys, "dim", "--tensor", "9", "--exact")["dim"] == 8


def test_reused_parser_matches_fresh_parsers(capsys):
    calls = [
        ("verify", "--tensor", "3,3"),  # missing --set: argparse usage error
        ("dim", "--tensor", "3,4", "--exact"),
        ("verify", "--tensor", "3,3", "--set", "[0, 4]"),
    ]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cli._build_parser.cache_clear()
    reused = [run(capsys, *argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [2, 0, 1]


# Run in a fresh interpreter: imports tensordim.cli, runs each command and
# names the first step after which numpy is loaded, else prints "none".
NUMPY_FREE_SCRIPT = """
import contextlib, io, json, sys

def loaded():
    return "numpy" in sys.modules

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    return rc, out.getvalue()

import tensordim.cli as cli
steps = [("import tensordim.cli", loaded())]
for sizes in ("3,4", "3,3,4", "2,3,4"):
    rc, _ = run("dim", "--tensor", sizes, "--exact")
    steps.append(("dim --exact " + sizes, rc != 0 or loaded()))
rc, out = run("construct", "--tensor", "40,40")
ids = json.loads(out)["resolving_set_ids"]
steps.append(("construct 40,40", rc != 0 or loaded()))
rc, _ = run("verify", "--tensor", "40,40", "--set", json.dumps(ids))
steps.append(("verify the set", rc != 0 or loaded()))
rc, _ = run("verify", "--tensor", "40,40", "--set", json.dumps(ids[1:]))
steps.append(("verify the set minus one member", rc != 1 or loaded()))
rc, _ = run("bounds", "--tensor", "3,3,4", "--exact-up-to", "64")
steps.append(("bounds 3,3,4", rc != 0 or loaded()))
rc, _ = run("table", "--max-m", "4", "--max-n", "6", "--exact-up-to", "12")
steps.append(("table", rc != 0 or loaded()))
rc, _ = run("dim", "--tensor", "5", "--exact")
steps.append(("dim --exact 5", rc != 0 or loaded()))
path = sys.argv[1]
rc, out = run("dim", path, "--exact")
ids = json.loads(out)["resolving_set_ids"]
steps.append(("dim FILE --exact", rc != 0 or loaded()))
rc, _ = run("verify", path, "--set", json.dumps(ids))
steps.append(("verify FILE", rc != 0 or loaded()))
rc, _ = run("verify", path, "--set", json.dumps(ids[1:]))
steps.append(("verify FILE, the set minus one member", rc != 1 or loaded()))
print(next((name for name, bad in steps if bad), "none"))
"""


@pytest.mark.parametrize("pure", [False, True], ids=["compiled", "pure"])
def test_product_commands_load_no_numpy(pure, tmp_path):
    # A product of cliques is solved and checked in coordinate space, and
    # an edge list of at most 64 vertices by its adjacency and one BFS per
    # member, so none of these commands needs numpy, which is loaded only
    # where a distance table is built or read.  The file is a path with
    # two pendant twins on each inner vertex.
    path = tmp_path / "twins.txt"
    write_edge_list(Graph(12, [(v, v + 1) for v in range(3)]
                          + [(v, 4 + 2 * (v - 1) + j) for v in (1, 2) for j in range(2)]
                          + [(0, 8), (8, 9), (9, 10), (10, 11)]), path)
    env = {k: v for k, v in os.environ.items() if k != "TENSORDIM_PURE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if pure:
        env["TENSORDIM_PURE"] = "1"
    done = subprocess.run([sys.executable, "-c", NUMPY_FREE_SCRIPT, str(path)], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "none"
