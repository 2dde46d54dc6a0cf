"""Graph builders, the coordinate codec, distances, and edge-list I/O."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tensordim import (
    INF,
    CliqueFactors,
    EdgeListError,
    Graph,
    all_pairs_distances,
    build_bipartite_minus_matching,
    build_clique,
    check_k2_kn_isomorphism,
    clique_distance_columns,
    diameter,
    parse_edge_list,
    read_edge_list,
    tensor_clique_distances,
    tensor_of_cliques,
    tensor_product,
    write_edge_list,
)
from tensordim.graphs import BFS_FOLD_BYTES, bfs_column

from conftest import oracle_bfs


def test_clique_edges():
    g = build_clique(5)
    assert g.n == 5
    assert g.edge_count() == 10
    assert all(g.has_edge(u, v) for u in range(5) for v in range(5) if u != v)
    assert not g.has_edge(2, 2)


def test_clique_of_one_has_no_edges():
    g = build_clique(1)
    assert g.n == 1 and g.edge_count() == 0


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


def test_isolated_vertices_keep_every_graph_answer():
    # Vertices 0 and 4 have no neighbour set stored; every query answers
    # for them as for any vertex, and a graph built or parsed is the same.
    g = Graph(5, [(2, 1), (3, 1)])
    assert [g.neighbors(v) for v in range(5)] == [frozenset(), {2, 3}, {1}, {1}, frozenset()]
    assert [g.degree(v) for v in range(5)] == [0, 2, 1, 1, 0]
    assert not g.has_edge(0, 4) and g.has_edge(2, 1)
    assert list(g.edges()) == [(1, 2), (1, 3)] and g.edge_count() == 2
    assert not g.connected and Graph(1).connected and Graph(0).connected
    parsed = parse_edge_list("5 2\n1 3\n2 1\n")
    assert parsed == g and hash(parsed) == hash(g)
    assert g != Graph(6, [(2, 1), (3, 1)]) and g != Graph(5, [(2, 1), (4, 1)])
    for v in (5, -1):
        with pytest.raises(IndexError):
            g.neighbors(v)


def test_builders_reject_too_few_vertices():
    with pytest.raises(ValueError):
        build_clique(0)
    with pytest.raises(ValueError):
        build_bipartite_minus_matching(1)


def test_bipartite_minus_matching_degrees():
    n = 5
    g = build_bipartite_minus_matching(n)
    assert g.n == 2 * n
    assert g.edge_count() == n * (n - 1)
    for v in range(g.n):
        assert g.degree(v) == n - 1
    # no edge inside a part, and the matching (i, n+i) is absent
    for i in range(n):
        assert not g.has_edge(i, n + i)
        for j in range(i + 1, n):
            assert not g.has_edge(i, j)
            assert not g.has_edge(n + i, n + j)


def test_bipartite_minus_matching_smallest_cases():
    # n=2 leaves exactly the two cross edges
    assert set(build_bipartite_minus_matching(2).edges()) == {(0, 3), (1, 2)}
    assert diameter(build_bipartite_minus_matching(3)) == 3


def test_tensor_product_edge_rule():
    g = build_clique(3)
    h = build_clique(4)
    gh = tensor_product(g, h)
    assert gh.n == 12
    for (u, v), (x, y) in itertools.combinations(
            [(u, v) for u in range(3) for v in range(4)], 2):
        want = g.has_edge(u, x) and h.has_edge(v, y)
        assert gh.has_edge(u * 4 + v, x * 4 + y) == want
    # |E(GxH)| = 2 |E(G)| |E(H)|
    assert gh.edge_count() == 2 * g.edge_count() * h.edge_count()
    assert gh.edge_count() == 36
    assert tensor_of_cliques(CliqueFactors((3, 3))).edge_count() == 18


def test_tensor_degree_is_product_of_factor_degrees():
    # 27 vertices, each of degree 2*2*2
    g = tensor_of_cliques(CliqueFactors((3, 3, 3)))
    assert g.n == 27
    assert all(g.degree(v) == 8 for v in range(g.n))
    gh = tensor_product(build_clique(4), cycle := Graph(5, [(i, (i + 1) % 5) for i in range(5)]))
    for u in range(4):
        for v in range(5):
            assert gh.degree(u * 5 + v) == 3 * cycle.degree(v)


def test_tensor_product_commutes_up_to_coordinate_swap():
    g = build_clique(3)
    h = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    gh = tensor_product(g, h)
    hg = tensor_product(h, g)
    swapped = set()
    for a, b in gh.edges():
        u, v = divmod(a, h.n)
        x, y = divmod(b, h.n)
        swapped.add((v * g.n + u, y * g.n + x))
    assert Graph(hg.n, swapped) == hg


def test_coordinate_codec_roundtrip():
    f = CliqueFactors((3, 4, 2))
    seen = set()
    for coords in itertools.product(range(3), range(4), range(2)):
        flat = f.flat_index(coords)
        assert f.coords_of(flat) == coords
        seen.add(flat)
    assert seen == set(range(f.vertex_count))
    table = f.coordinates()
    for flat in range(f.vertex_count):
        assert tuple(int(c) for c in table[flat]) == f.coords_of(flat)


def test_codec_known_values():
    f = CliqueFactors((3, 4))
    assert f.flat_index((2, 3)) == 11
    assert f.coords_of(5) == (1, 1)


def test_codec_rejects_out_of_range():
    f = CliqueFactors((3, 4))
    with pytest.raises(ValueError):
        f.flat_index((3, 0))
    with pytest.raises(ValueError):
        f.flat_index((0, -1))
    with pytest.raises(ValueError):
        f.coords_of(12)


def test_factor_sizes_validated():
    with pytest.raises(ValueError):
        CliqueFactors((1, 3))
    with pytest.raises(ValueError):
        CliqueFactors(())


@st.composite
def edge_sets(draw):
    """(n, edges) with n = 0..40 and any simple edge set: isolated vertices
    and several components included."""
    n = draw(st.integers(0, 40))
    if n < 2:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return n, draw(st.lists(pair, max_size=3 * n))


@settings(max_examples=150, deadline=None)
@given(edge_sets())
def test_bfs_distances_match_oracle(case):
    n, edges = case
    g = Graph(n, edges)
    dist = all_pairs_distances(g)
    table = oracle_bfs(n, edges)
    ref = np.array(table, dtype=np.int64).reshape(n, n)
    assert dist.values.shape == (n, n)
    assert np.array_equal(dist.values == INF, ref == -1)
    assert np.array_equal(dist.values[ref != -1], ref[ref != -1])
    assert dist.connected == bool((ref != -1).all())
    # One BFS per source gives the oracle's row, -1 where unreachable too.
    assert [bfs_column(g, v) for v in range(n)] == table


def path_edges(first, last):
    return [(v, v + 1) for v in range(first, last)]


@pytest.mark.parametrize("n,edges", [
    (300, path_edges(0, 299)),
    (301, path_edges(0, 300) + [(300, 0)]),
    # Two long components and an isolated vertex.
    (321, path_edges(0, 199) + path_edges(200, 319)),
    (0, []),
    (1, []),
], ids=["path300", "cycle301", "two-paths-and-a-point", "empty", "single"])
def test_bfs_distances_match_oracle_past_the_fold(n, edges):
    # The BFS holds one n x n layer for each round from 0 to the largest
    # distance, and folds them before they unpack past BFS_FOLD_BYTES.
    dist = all_pairs_distances(Graph(n, edges))
    ref = np.array(oracle_bfs(n, edges), dtype=np.int64).reshape(n, n)
    assert np.array_equal(dist.values, np.where(ref == -1, INF, ref))
    if n > 1:
        assert (ref.max() + 1) * n * n > BFS_FOLD_BYTES


def test_distance_table_is_a_metric(rng):
    for _ in range(15):
        n = rng.randrange(2, 12)
        edges = {tuple(sorted(rng.sample(range(n), 2)))
                 for _ in range(rng.randrange(1, 3 * n))}
        dist = all_pairs_distances(Graph(n, edges))
        for u in range(n):
            assert dist.d(u, u) == 0
            for v in range(n):
                assert dist.d(u, v) == dist.d(v, u)
        finite = [(u, v) for u in range(n) for v in range(n) if dist.d(u, v) != INF]
        for u, v in finite:
            for w in range(n):
                if dist.d(u, w) != INF and dist.d(w, v) != INF:
                    assert dist.d(u, v) <= dist.d(u, w) + dist.d(w, v)


def test_closed_form_distances_equal_bfs():
    # the closed form for connected products must agree with BFS, including
    # the distance-3 pairs of products with one factor of size 2
    for sizes in [(3, 3), (3, 4), (4, 4), (3, 5), (5, 5),
                  (3, 3, 3), (3, 3, 4), (3, 4, 5), (5, 5, 5),
                  (2, 3), (2, 5), (3, 2), (2, 7), (2, 3, 3), (3, 2, 4), (4, 3, 2),
                  (2,), (3,)]:
        f = CliqueFactors(sizes)
        fast = tensor_clique_distances(f)
        slow = all_pairs_distances(tensor_of_cliques(f))
        n = f.vertex_count
        a = np.array([[fast.d(u, v) for v in range(n)] for u in range(n)])
        b = np.array([[slow.d(u, v) for v in range(n)] for u in range(n)])
        assert np.array_equal(a, b)


def test_distance_columns_are_table_columns(rng):
    for sizes in [(2, 5), (3, 4), (2, 3, 4), (3, 3, 3), (2, 2, 3)]:
        f = CliqueFactors(sizes)
        bfs = all_pairs_distances(tensor_of_cliques(f)).values
        for _ in range(10):
            cols = rng.sample(range(f.vertex_count), rng.randrange(0, f.vertex_count + 1))
            got = clique_distance_columns(f, cols)
            assert got.dtype == np.uint16 and got.shape == (f.vertex_count, len(cols))
            assert np.array_equal(got, bfs[:, cols]), (sizes, cols)


def test_distance_rule_with_one_factor_of_size_two():
    # differing in the size-2 coordinate but sharing another: distance 3
    f = CliqueFactors((3, 2, 4))
    dist = tensor_clique_distances(f)
    for u in range(f.vertex_count):
        for v in range(f.vertex_count):
            cu, cv = f.coords_of(u), f.coords_of(v)
            differ = [a != b for a, b in zip(cu, cv)]
            if u == v:
                want = 0
            elif all(differ):
                want = 1
            elif differ[1]:
                want = 3
            else:
                want = 2
            assert dist.d(u, v) == want


def test_factors_vertex_count_and_connectivity():
    assert CliqueFactors((3, 4, 5)).n == 60
    assert CliqueFactors((2, 7)).connected
    assert CliqueFactors((2,)).connected
    assert not CliqueFactors((2, 2)).connected
    assert not CliqueFactors((2, 3, 2)).connected


def test_distance_rule_for_all_big_factors():
    # distinct vertices: adjacent iff they differ in every coordinate,
    # otherwise at distance two
    f = CliqueFactors((3, 4, 5))
    dist = tensor_clique_distances(f)
    rng = random.Random(7)
    for _ in range(300):
        u = rng.randrange(f.vertex_count)
        v = rng.randrange(f.vertex_count)
        cu, cv = f.coords_of(u), f.coords_of(v)
        if u == v:
            want = 0
        elif all(a != b for a, b in zip(cu, cv)):
            want = 1
        else:
            want = 2
        assert dist.d(u, v) == want


def test_diameter_cases():
    assert diameter(tensor_of_cliques(CliqueFactors((2, 2)))) is None
    for n in range(3, 7):
        assert diameter(tensor_of_cliques(CliqueFactors((2, n)))) == 3
    for sizes in itertools.chain(
            itertools.combinations_with_replacement(range(3, 6), 2),
            itertools.combinations_with_replacement(range(3, 6), 3)):
        assert diameter(tensor_of_cliques(CliqueFactors(sizes))) == 2
    assert diameter(build_clique(4)) == 1
    assert diameter(build_clique(1)) == 0
    assert diameter(Graph(3, [(0, 1)])) is None


def test_distance_pins():
    k4 = all_pairs_distances(build_clique(4))
    for u in range(4):
        for v in range(4):
            assert k4.d(u, v) == (0 if u == v else 1)
    # K_2 x K_3 is a six-cycle: antipodal vertices sit at distance 3
    g = tensor_of_cliques(CliqueFactors((2, 3)))
    assert g.edge_count() == 6
    assert all(g.degree(v) == 2 for v in range(6))
    dist = all_pairs_distances(g)
    assert dist.connected
    assert dist.d(0, 3) == 3  # (0,0) vs (1,0)


def test_disconnected_table_flags():
    dist = all_pairs_distances(Graph(4, [(0, 1), (2, 3)]))
    assert not dist.connected
    assert dist.d(0, 2) == INF
    assert dist.d(0, 1) == 1


def test_graph_connectivity_matches_the_distance_table(rng):
    # One search from vertex 0, against the oracle's full BFS table.
    assert Graph(0).connected and Graph(1).connected and not Graph(2).connected
    for _ in range(40):
        n = rng.randrange(2, 12)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.2]
        want = all(d != -1 for row in oracle_bfs(n, edges) for d in row)
        assert Graph(n, edges).connected == want


def test_two_by_two_product_is_two_disjoint_edges():
    g = tensor_of_cliques(CliqueFactors((2, 2)))
    assert g.edge_count() == 2
    assert not all_pairs_distances(g).connected


def test_k2_kn_matches_bipartite_builder():
    for n in range(2, 9):
        assert check_k2_kn_isomorphism(n)


def test_edge_list_roundtrip(tmp_path, rng):
    for _ in range(10):
        n = rng.randrange(1, 12)
        edges = {tuple(sorted(rng.sample(range(n), 2)))
                 for _ in range(rng.randrange(0, 2 * n))} if n > 1 else set()
        g = Graph(n, edges)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert read_edge_list(path) == g


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edge_sets())
def test_edge_list_round_trip_property(tmp_path, case):
    # Any simple graph on 0..40 vertices, isolated vertices included.
    g = Graph(*case)
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    assert read_edge_list(path) == g


def test_edge_list_is_lf_terminated(tmp_path):
    path = tmp_path / "g.txt"
    write_edge_list(build_clique(3), path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_parse_accepts_comments_and_blank_lines():
    text = "# triangle\n3 3\n\n0 1\n1 2\n# done soon\n0 2\n"
    assert parse_edge_list(text) == build_clique(3)
    # A comment right after a number.
    assert parse_edge_list("3 2# header\n0 1#c\n1 2#\n") == Graph(3, [(0, 1), (1, 2)])


def test_parse_accepts_tabs_and_crlf_line_ends(tmp_path):
    text = "3\t2\r\n0\t1\r\n\r\n 1 \t 2 \r\n"
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode())
    assert parse_edge_list(text) == read_edge_list(path) == Graph(3, [(0, 1), (1, 2)])


@pytest.mark.parametrize("text,lineno", [
    ("", 1),                                # missing header
    ("x 3\n", 1),                           # bad header token
    ("3\n", 1),                             # header needs two fields
    ("3 1\n0 5\n", 2),                      # endpoint out of range
    ("3 1\n1 1\n", 2),                      # self loop
    ("3 2\n0 1\n0 1\n", 3),                 # duplicate edge
    ("3 2\n0 1\n# swapped\n1 0\n", 4),      # duplicate edge, ends swapped
    ("3 2\r\n0\t1\r\n0\t1\r\n", 3),         # duplicate edge, tabs and CRLF
    ("3 1\n0#1\n", 2),                      # "#" cuts the second endpoint
    ("3 1\n0 1 2\n", 2),                    # extra field
    ("3 2\n0 1\n", 3),                      # fewer edges than declared
    ("3 1\n0 1\n1 2\n", 3),                 # more edges than declared
    ("3 1\na b\n", 2),                      # non-integer endpoint
])
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(EdgeListError) as err:
        parse_edge_list(text)
    assert err.value.line == lineno


# Tokens for arbitrary edge-list text: counts, endpoints (in range or not),
# bad integers and comments.
TOKENS = st.sampled_from(["0", "1", "2", "3", "9", "-1", "00", "x", "1.5", "0x1", "#", "# 1 2"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(TOKENS, max_size=4).map(" ".join), max_size=8))
def test_parse_fails_only_with_an_edge_list_error(lines):
    text = "\n".join(lines)
    try:
        g = parse_edge_list(text)
    except EdgeListError as err:
        assert 1 <= err.line <= len(text.splitlines()) + 1
    else:
        assert isinstance(g, Graph)


@st.composite
def broken_edge_lists(draw):
    """(text, line): a valid edge list with one fault, and the 1-based line
    that must report it (one past the last line for a missing line)."""
    n, edges = draw(edge_sets().filter(lambda case: case[0] >= 2))
    g = Graph(n, edges)
    m = g.edge_count()
    body = [f"{u} {v}" for u, v in g.edges()]
    kinds = ["token", "range", "loop", "missing-line", "no-header"]
    if m:
        kinds += ["duplicate", "extra-line"]
    kind = draw(st.sampled_from(kinds))
    lines = [f"{n} {m}"] + body
    if kind == "token":
        bad = draw(st.integers(0, len(lines) - 1))
        lines[bad] = draw(st.sampled_from(["a b", "1", "1 2 3", "0x1 2", "1.0 2", "1 -"]))
    elif kind == "range":
        bad = draw(st.integers(1, len(lines)))
        lines.insert(bad, draw(st.sampled_from([f"{n} 0", f"0 {n + 3}", "-1 1"])))
        lines[0] = f"{n} {m + 1}"
    elif kind == "loop":
        bad = draw(st.integers(1, len(lines)))
        v = draw(st.integers(0, n - 1))
        lines.insert(bad, f"{v} {v}")
        lines[0] = f"{n} {m + 1}"
    elif kind == "duplicate":
        first = draw(st.integers(1, m))
        bad = draw(st.integers(first + 1, len(lines)))
        u, v = lines[first].split()
        lines.insert(bad, draw(st.sampled_from([f"{u} {v}", f"{v} {u}"])))
        lines[0] = f"{n} {m + 1}"
    elif kind == "missing-line":
        lines[0] = f"{n} {m + 1}"
        bad = None
    elif kind == "extra-line":
        lines[0] = f"{n} {m - 1}"
        bad = len(lines) - 1
    else:
        lines = []
        bad = None
    # Comment and blank lines anywhere shift the line numbers only.
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "# note", "   "])))
        if bad is not None and at <= bad:
            bad += 1
    return "".join(line + "\n" for line in lines), (len(lines) + 1 if bad is None else bad + 1)


@settings(max_examples=150, deadline=None)
@given(broken_edge_lists())
def test_parse_reports_each_fault_on_its_line(case):
    text, line = case
    with pytest.raises(EdgeListError) as err:
        parse_edge_list(text)
    assert err.value.line == line


def test_graph_equality_ignores_edge_order():
    assert Graph(3, [(0, 1), (1, 2)]) == Graph(3, [(2, 1), (0, 1)])
    assert Graph(3, [(0, 1)]) != Graph(3, [(0, 2)])
    assert Graph(3, []) != Graph(4, [])
