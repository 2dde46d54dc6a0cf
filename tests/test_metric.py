"""Representations, resolving-set checks, projections, swap witnesses."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensordim import (
    CliqueFactors,
    Graph,
    UnresolvedPair,
    all_pairs_distances,
    build_clique,
    check_vertex_set,
    is_resolving,
    projection,
    representation,
    swap_witness,
    tensor_clique_distances,
)

from conftest import oracle_bfs, oracle_is_resolving, oracle_least_pair


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def test_representation_values():
    dist = all_pairs_distances(path_graph(4))
    assert representation(dist, 0, [0, 3]) == (0, 3)
    assert representation(dist, 2, [0, 3]) == (2, 1)
    assert representation(dist, 1, []) == ()


def test_representation_values_on_product():
    f = CliqueFactors((3, 3))
    dist = tensor_clique_distances(f)
    w = [f.flat_index(c) for c in [(0, 0), (1, 0), (0, 1)]]
    # differs from every member in both coordinates
    assert representation(dist, f.flat_index((2, 2)), w) == (1, 1, 1)
    # shares a coordinate with the last two members
    assert representation(dist, f.flat_index((1, 1)), w) == (1, 2, 2)
    assert is_resolving(dist, w)


def test_check_vertex_set():
    check_vertex_set(4, [0, 3])
    with pytest.raises(ValueError):
        check_vertex_set(4, [0, 4])
    with pytest.raises(ValueError):
        check_vertex_set(4, [-1])
    with pytest.raises(ValueError):
        check_vertex_set(4, [1, 1])


@pytest.mark.parametrize("wset", [[0.7, 4.2], [0, 4.0], ["3", "4", "0"], [True, 2],
                                  [np.bool_(True), 2], [np.float64(1.0)]],
                         ids=["floats", "integral-float", "strings", "bool", "numpy-bool",
                              "numpy-float"])
def test_vertex_ids_must_be_integers(wset):
    # int() would truncate 0.7 to 0 and parse "3"; neither is a vertex id.
    f = CliqueFactors((3, 3))
    for space in (f, tensor_clique_distances(f)):
        with pytest.raises(TypeError):
            is_resolving(space, wset)


def test_numpy_integer_ids_are_accepted():
    f = CliqueFactors((3, 3))
    ids = np.array([0, 4, 8], dtype=np.uint8)
    assert check_vertex_set(9, ids) == [0, 4, 8]
    assert all(type(v) is int for v in check_vertex_set(9, ids))
    assert is_resolving(tensor_clique_distances(f), [np.int64(0), np.int32(1), 3]) == \
        is_resolving(tensor_clique_distances(f), [0, 1, 3])


def test_path_end_resolves():
    dist = all_pairs_distances(path_graph(6))
    assert is_resolving(dist, [0])
    assert is_resolving(dist, [5])
    verdict = is_resolving(dist, [2])
    assert not verdict
    # vertices 0 and 4 both sit at distance two from the lone member
    assert (verdict.x, verdict.y) == (0, 4)


def test_unresolved_pair_is_falsy_and_unpacks():
    pair = UnresolvedPair(3, 7)
    assert not pair
    x, y = pair
    assert (x, y) == (3, 7)


def test_empty_set_resolves_only_trivial_graphs():
    assert is_resolving(all_pairs_distances(build_clique(1)), [])
    assert not is_resolving(all_pairs_distances(build_clique(2)), [])


def test_full_vertex_set_always_resolves(rng):
    for _ in range(10):
        n = rng.randrange(1, 9)
        edges = {tuple(sorted(rng.sample(range(n), 2)))
                 for _ in range(2 * n)} if n > 1 else set()
        dist = all_pairs_distances(Graph(n, edges))
        assert is_resolving(dist, list(range(n)))


def test_clique_needs_all_but_one():
    dist = all_pairs_distances(build_clique(5))
    assert is_resolving(dist, [0, 1, 2, 3])
    for combo in itertools.combinations(range(5), 3):
        assert not is_resolving(dist, list(combo))


def test_verdicts_match_oracle_on_random_sets(rng):
    for _ in range(40):
        n = rng.randrange(2, 9)
        edges = {tuple(sorted(rng.sample(range(n), 2)))
                 for _ in range(rng.randrange(1, 3 * n))}
        dist = all_pairs_distances(Graph(n, edges))
        table = [[dist.d(u, v) for v in range(n)] for u in range(n)]
        for _ in range(6):
            w = rng.sample(range(n), rng.randrange(0, n + 1))
            verdict = is_resolving(dist, w)
            assert bool(verdict) == oracle_is_resolving(table, sorted(w))
            if verdict:
                # supersets of a resolving set resolve
                extra = rng.sample(range(n), rng.randrange(0, n + 1))
                assert is_resolving(dist, sorted(set(w) | set(extra)))
            else:
                # the reported pair is the least colliding vertex and the
                # least other vertex sharing its representation
                assert (verdict.x, verdict.y) == oracle_least_pair(table, w)


def test_reported_pair_is_lex_least_genuine_collision():
    f = CliqueFactors((3, 3))
    dist = tensor_clique_distances(f)
    verdict = is_resolving(dist, [0, 4])
    assert (verdict.x, verdict.y) == (1, 3)
    assert representation(dist, 1, [0, 4]) == representation(dist, 3, [0, 4])


# Resolving sets in which member 1 (3x3: (0, 1)) or member 0 (2x3: (0, 0))
# shares a coordinate with the same members as non-member 2 ((0, 2)), with
# the same value on the size-2 axis: only the members' own keys tell them
# apart.
MEMBER_LIKE_A_NON_MEMBER = [((3, 3), [0, 1, 3]), ((2, 3), [0, 1])]


def test_coordinate_check_matches_table_check(rng):
    for sizes in [(2, 3), (2, 5), (3, 4), (5, 7), (3, 3, 3), (2, 3, 4), (2, 40), (7,), (2,)]:
        f = CliqueFactors(sizes)
        dist = tensor_clique_distances(f)
        n = f.vertex_count
        sets = [[], list(range(n))] + [rng.sample(range(n), rng.randrange(1, min(n, 14) + 1))
                                       for _ in range(60)]
        sets += [w for s, w in MEMBER_LIKE_A_NON_MEMBER if s == sizes]
        for w in sets:
            by_coords, by_table = is_resolving(f, w), is_resolving(dist, w)
            assert bool(by_coords) == bool(by_table)
            if not by_table:
                assert (by_coords.x, by_coords.y) == (by_table.x, by_table.y)


def test_coordinate_check_on_the_empty_set_and_bad_sets():
    f = CliqueFactors((3, 3))
    assert is_resolving(f, []) == UnresolvedPair(0, 1)
    with pytest.raises(ValueError):
        is_resolving(f, [9])
    with pytest.raises(ValueError):
        is_resolving(f, [1, 1])


def test_superset_of_resolving_set_resolves(rng):
    f = CliqueFactors((4, 5))
    dist = tensor_clique_distances(f)
    base = [0, 1, 2, 8, 13]
    assert is_resolving(dist, base)
    for _ in range(20):
        extra = rng.sample(range(f.vertex_count), rng.randrange(0, 6))
        w = sorted(set(base) | set(extra))
        assert is_resolving(dist, w)


def test_projection_collects_axis_values():
    f = CliqueFactors((3, 4))
    w = [f.flat_index(c) for c in [(0, 0), (1, 2), (1, 3)]]
    assert projection(w, 0, f) == {0, 1}
    assert projection(w, 1, f) == {0, 2, 3}
    with pytest.raises(ValueError):
        projection(w, 2, f)


def test_projection_deficiency_means_not_resolving(rng):
    # a coordinate missing two of its values leaves some pair unresolved
    for sizes in [(3, 3), (3, 5), (4, 4), (5, 4), (3, 3, 3), (3, 4, 3), (4, 3, 5)]:
        f = CliqueFactors(sizes)
        dist = tensor_clique_distances(f)
        for _ in range(20):
            w = rng.sample(range(f.vertex_count), rng.randrange(1, f.vertex_count))
            if any(len(projection(w, axis, f)) <= size - 2
                   for axis, size in enumerate(sizes)):
                assert not is_resolving(dist, w)


def test_swap_witness_on_diagonal():
    f = CliqueFactors((4, 4))
    dist = tensor_clique_distances(f)
    diag = [f.flat_index((i, i)) for i in range(4)]
    witness = swap_witness(diag, f)
    assert witness is not None
    a, b = witness
    assert representation(dist, a, diag) == representation(dist, b, diag)
    ca, cb = f.coords_of(a), f.coords_of(b)
    assert ca[0] != cb[0] and ca[1] != cb[1]


def test_swap_witness_exact_pair():
    f = CliqueFactors((3, 3))
    w = [f.flat_index((0, 0)), f.flat_index((1, 1))]
    assert swap_witness(w, f) == (f.flat_index((0, 1)), f.flat_index((1, 0)))


def test_every_isolated_pair_swaps_to_equal_representations():
    f = CliqueFactors((4, 4))
    dist = tensor_clique_distances(f)
    w = [f.flat_index((i, i)) for i in range(3)]
    assert swap_witness(w, f) is not None
    for (u, v), (x, y) in itertools.combinations([(0, 0), (1, 1), (2, 2)], 2):
        a, b = f.flat_index((u, y)), f.flat_index((x, v))
        assert representation(dist, a, w) == representation(dist, b, w)


def test_swap_witness_none_when_no_isolated_pair():
    f = CliqueFactors((3, 3))
    # every pair of members shares a coordinate with a third member
    w = [f.flat_index(c) for c in [(0, 0), (0, 1), (1, 0), (1, 1)]]
    assert swap_witness(w, f) is None


def test_swap_witness_ignores_degenerate_pairs():
    f = CliqueFactors((3, 4))
    # members share a row: representations differ at the shared-row member
    w = [f.flat_index(c) for c in [(0, 0), (0, 1)]]
    assert swap_witness(w, f) is None


def test_swap_witness_requires_two_big_factors():
    with pytest.raises(ValueError):
        swap_witness([0, 1], CliqueFactors((2, 3)))
    with pytest.raises(ValueError):
        swap_witness([0, 1], CliqueFactors((3, 3, 3)))


def test_swap_witness_rejects_bad_sets():
    f = CliqueFactors((3, 3))
    with pytest.raises(ValueError):
        swap_witness([0, 9], f)


def product_case(sizes, w):
    """(factors, oracle distance table, w) for a product of cliques."""
    n = math.prod(sizes)
    coords = list(itertools.product(*map(range, sizes)))
    # Adjacent exactly when they differ in every coordinate.
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if all(a != b for a, b in zip(coords[u], coords[v]))]
    return CliqueFactors(tuple(sizes)), oracle_bfs(n, edges), w


@st.composite
def probe_cases(draw):
    """(space, table, w): a graph of at most 12 vertices (several components
    allowed) or the factors of a product of cliques of at most 40 vertices,
    connected or not; its distance table by the oracle BFS; a probe set."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 12))
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] != e[1])
        edges = draw(st.lists(pair, max_size=3 * n)) if n > 1 else []
        w = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        return all_pairs_distances(Graph(n, edges)), oracle_bfs(n, edges), w
    sizes = draw(st.lists(st.integers(2, 8), min_size=1, max_size=4).filter(
        lambda s: math.prod(s) <= 40))
    n = math.prod(sizes)
    return product_case(sizes, draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)))


@settings(max_examples=200, deadline=None)
@given(probe_cases())
# (0, 1) and (1, 0) share a coordinate with both members of {(0, 0), (1, 1)}
# and differ on the size-2 axis: (2, 3) against (3, 2).
@example(product_case((2, 3), [0, 4]))
@example(product_case((2, 3, 4), [0, 5, 11, 14, 22]))
@example(product_case((2, 40), [0, 3, 41, 77, 78]))
@example(product_case((2, 40), list(range(1, 40))))
@example(product_case((6,), [2, 4]))
@example(product_case((3, 4), []))
@example(product_case((2, 3, 4), list(range(24))))
@example(product_case(*MEMBER_LIKE_A_NON_MEMBER[0]))
@example(product_case(*MEMBER_LIKE_A_NON_MEMBER[1]))
def test_is_resolving_matches_the_oracle(case):
    # Both input types: the verdict, and on failure the least unresolved
    # pair, are those of the plain per-vertex representation scan.
    space, table, w = case
    verdict = is_resolving(space, w)
    assert bool(verdict) == oracle_is_resolving(table, w)
    if not verdict:
        assert (verdict.x, verdict.y) == oracle_least_pair(table, w)
