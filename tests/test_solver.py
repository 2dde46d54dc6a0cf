"""Exact solver, greedy heuristic, pair table, and determinism contracts."""

import itertools

import pytest

from tensordim import (
    CliqueFactors,
    Graph,
    all_pairs_distances,
    build_clique,
    build_pair_table,
    dim_formula,
    exact_metric_dimension,
    exhaustive_metric_dimension,
    greedy_resolving_set,
    is_resolving,
    kernel_name,
    tensor_clique_distances,
    tensor_of_cliques,
)
from tensordim import _bb_py, solver

from conftest import oracle_min_resolving, random_connected_edges


@pytest.fixture(params=["_bb_py", "_bb"])
def solver_kernel(request, monkeypatch):
    """Run the solver on each kernel in turn."""
    if request.param == "_bb_py":
        kernel = _bb_py
    else:
        kernel = request.getfixturevalue("compiled_kernel")
    monkeypatch.setattr(solver, "_default_kernel", kernel)
    return kernel


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def test_kernel_name_is_known():
    assert kernel_name() in {"python", "compiled"}


def test_pair_table_masks_encode_resolvers():
    dist = all_pairs_distances(path_graph(4))
    table = build_pair_table(dist)
    assert len(table.pairs) == 6
    assert table.pairs == tuple(itertools.combinations(range(4), 2))
    for idx, (x, y) in enumerate(table.pairs):
        resolvers = table.resolvers(idx)
        for v in range(4):
            separates = dist.d(x, v) != dist.d(y, v)
            assert (v in resolvers) == separates
        # each endpoint always separates its own pair
        assert x in resolvers and y in resolvers


def test_pair_table_rejects_large_graphs():
    dist = all_pairs_distances(build_clique(65))
    with pytest.raises(ValueError):
        build_pair_table(dist)


def test_resolving_iff_all_pair_masks_hit(rng):
    for _ in range(20):
        n = rng.randrange(2, 10)
        dist = all_pairs_distances(Graph(n, random_connected_edges(rng, n, 0.3)))
        table = build_pair_table(dist)
        for _ in range(8):
            w = rng.sample(range(n), rng.randrange(0, n + 1))
            chosen = 0
            for v in w:
                chosen |= 1 << v
            hits_all = all(int(m) & chosen for m in table.masks)
            assert hits_all == bool(is_resolving(dist, w))


def test_exhaustive_known_values():
    k5 = exhaustive_metric_dimension(all_pairs_distances(build_clique(5)))
    assert (k5.dim, k5.certificate) == (4, (0, 1, 2, 3))
    p6 = exhaustive_metric_dimension(all_pairs_distances(path_graph(6)))
    assert (p6.dim, p6.certificate) == (1, (0,))
    c6 = exhaustive_metric_dimension(all_pairs_distances(cycle_graph(6)))
    assert (c6.dim, c6.certificate) == (2, (0, 1))
    star = exhaustive_metric_dimension(
        all_pairs_distances(Graph(4, [(0, 1), (0, 2), (0, 3)])))
    assert (star.dim, star.certificate) == (2, (1, 2))


def test_exhaustive_trivial_and_disconnected():
    one = exhaustive_metric_dimension(all_pairs_distances(build_clique(1)))
    assert (one.dim, one.certificate) == (0, ())
    split = exhaustive_metric_dimension(all_pairs_distances(Graph(4, [(0, 1), (2, 3)])))
    assert split.dim is None and split.certificate is None and split.disconnected


def test_exhaustive_matches_oracle(rng):
    for _ in range(15):
        n = rng.randrange(2, 8)
        dist = all_pairs_distances(Graph(n, random_connected_edges(rng, n, 0.35)))
        table = [[dist.d(u, v) for v in range(n)] for u in range(n)]
        want_dim, want_set = oracle_min_resolving(table)
        got = exhaustive_metric_dimension(dist)
        assert got.dim == want_dim
        assert got.certificate == want_set


def test_exact_known_product_values():
    cases = {(2, 3): 2, (3, 3): 3, (3, 4): 4}
    for sizes, want in cases.items():
        f = CliqueFactors(sizes)
        res = exact_metric_dimension(tensor_clique_distances(f), factors=f)
        assert res.dim == want
        assert is_resolving(tensor_clique_distances(f), list(res.certificate))
    disc = exact_metric_dimension(tensor_clique_distances(CliqueFactors((2, 2))))
    assert disc.disconnected and disc.dim is None


def test_exact_matches_exhaustive_with_forced_branch_and_bound(rng):
    for _ in range(20):
        n = rng.randrange(4, 12)
        dist = all_pairs_distances(Graph(n, random_connected_edges(rng, n, 0.3)))
        enum = exact_metric_dimension(dist, method="enumeration")
        bb = exact_metric_dimension(dist, method="branch-and-bound")
        assert enum.dim == bb.dim
        assert enum.certificate == bb.certificate
        assert is_resolving(dist, list(bb.certificate))


def test_exact_minimality_on_small_products():
    # no smaller set than the reported dimension resolves
    for sizes in [(3, 3), (2, 5), (3, 4), (4, 4)]:
        f = CliqueFactors(sizes)
        dist = tensor_clique_distances(f)
        res = exact_metric_dimension(dist, factors=f)
        k = res.dim
        assert all(not is_resolving(dist, list(c))
                   for c in itertools.combinations(range(f.vertex_count), k - 1))


def test_exact_certificate_is_first_in_sorted_order(rng):
    # the reported set is the first minimum one in sorted-tuple order
    for _ in range(8):
        n = rng.randrange(4, 9)
        dist = all_pairs_distances(Graph(n, random_connected_edges(rng, n, 0.4)))
        res = exact_metric_dimension(dist, method="branch-and-bound")
        table = [[dist.d(u, v) for v in range(n)] for u in range(n)]
        want_dim, want_set = oracle_min_resolving(table)
        assert (res.dim, res.certificate) == (want_dim, want_set)


def test_threads_do_not_change_the_answer():
    f = CliqueFactors((4, 4))
    dist = tensor_clique_distances(f)
    one = exact_metric_dimension(dist, factors=f, method="branch-and-bound")
    two = exact_metric_dimension(dist, factors=f, method="branch-and-bound", threads=2)
    assert one == two


def test_threads_are_clamped_to_cores_and_root_branches(monkeypatch):
    pool_sizes = []

    class RecordingPool:
        """Records max_workers and runs the jobs in this process."""

        def __init__(self, max_workers):
            pool_sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(solver, "ProcessPoolExecutor", RecordingPool)
    # The root branches on the mask with the fewest resolvers: three here.
    masks = [0b0111, 0b11110, 0b101101]
    want = _bb_py.min_hitting_size(masks, 0b111111, 0, 0, 7)
    for cores in (5000, 2, 1, None):
        monkeypatch.setattr(solver.os, "cpu_count", lambda: cores)
        assert solver._min_size(masks, 0b111111, 0, 0, 7, (), (0,), 5000) == want
    assert pool_sizes == [3, 2]


def test_structural_pruning_does_not_change_the_answer():
    for sizes in [(3, 3), (3, 4), (4, 4)]:
        f = CliqueFactors(sizes)
        dist = tensor_clique_distances(f)
        on = exact_metric_dimension(dist, factors=f, method="branch-and-bound")
        plain = exact_metric_dimension(dist, method="branch-and-bound")
        assert on == plain


def test_products_of_cliques_with_factors_of_three_have_no_twins():
    for sizes in [(3, 3), (3, 5), (4, 4), (3, 3, 3)]:
        classes = solver._twin_classes(tensor_clique_distances(CliqueFactors(sizes)))
        assert all(len(cls) == 1 for cls in classes)


SYMMETRIC_SIZES = [(m, n) for m in range(3, 11) for n in range(m, 11) if m * n <= 30] + [(3, 3, 3)]


def test_symmetric_search_matches_plain_search(solver_kernel):
    for sizes in SYMMETRIC_SIZES:
        f = CliqueFactors(sizes)
        dist = tensor_clique_distances(f)
        sym = exact_metric_dimension(dist, factors=f, method="branch-and-bound")
        plain = exact_metric_dimension(dist, method="branch-and-bound")
        assert sym == plain, sizes


def test_symmetric_search_on_seven_by_seven_and_four_cubed(compiled_kernel, monkeypatch):
    # The certificates are those of the search without symmetry breaking.
    monkeypatch.setattr(solver, "_default_kernel", compiled_kernel)
    f = CliqueFactors((7, 7))
    res = exact_metric_dimension(tensor_clique_distances(f), factors=f)
    assert res.dim == dim_formula(7, 7).dim
    assert res.certificate == (0, 1, 9, 10, 18, 25, 33, 40)
    f = CliqueFactors((4, 4, 4))
    res = exact_metric_dimension(tensor_clique_distances(f), factors=f)
    assert (res.dim, res.certificate) == (8, (0, 1, 4, 16, 22, 41, 47, 59))


@pytest.mark.slow
@pytest.mark.parametrize("sizes", [(7, 8), (7, 9), (8, 8)], ids=["7x8", "7x9", "8x8"])
def test_exact_matches_formula_up_to_sixty_four_vertices(sizes, compiled_kernel, monkeypatch):
    monkeypatch.setattr(solver, "_default_kernel", compiled_kernel)
    f = CliqueFactors(sizes)
    dist = tensor_clique_distances(f)
    res = exact_metric_dimension(dist, factors=f)
    assert res.dim == dim_formula(*sizes).dim
    assert is_resolving(dist, list(res.certificate))


def test_hints_do_not_change_the_answer():
    f = CliqueFactors((3, 4))
    dist = tensor_clique_distances(f)
    base = exact_metric_dimension(dist, factors=f)
    hinted = exact_metric_dimension(
        dist, factors=f, lower_hint=3,
        upper_hint=[f.flat_index((0, j)) for j in range(4)] + [f.flat_index((1, 0))])
    assert base == hinted


def test_bad_upper_hint_rejected():
    f = CliqueFactors((3, 3))
    dist = tensor_clique_distances(f)
    with pytest.raises(ValueError):
        exact_metric_dimension(dist, factors=f, upper_hint=[0, 4])


def test_negative_lower_hint_rejected():
    f = CliqueFactors((3, 4))
    with pytest.raises(ValueError, match="lower_hint"):
        exact_metric_dimension(tensor_clique_distances(f), factors=f, lower_hint=-1)


def test_lower_hint_above_upper_hint_rejected():
    f = CliqueFactors((3, 4))
    upper = [f.flat_index((0, j)) for j in range(4)] + [f.flat_index((1, 0))]
    with pytest.raises(ValueError, match="lower_hint"):
        exact_metric_dimension(tensor_clique_distances(f), factors=f,
                               lower_hint=6, upper_hint=upper)


def test_unknown_method_rejected():
    dist = all_pairs_distances(build_clique(3))
    with pytest.raises(ValueError):
        exact_metric_dimension(dist, method="magic")


def test_exact_rejects_more_than_64_vertices():
    dist = all_pairs_distances(build_clique(65))
    with pytest.raises(ValueError):
        exact_metric_dimension(dist)


def test_factors_must_match_vertex_count():
    dist = all_pairs_distances(build_clique(5))
    with pytest.raises(ValueError):
        exact_metric_dimension(dist, factors=CliqueFactors((2, 3)))


def test_greedy_attains_optimum_on_easy_graphs():
    path = all_pairs_distances(Graph(4, [(0, 1), (1, 2), (2, 3)]))
    assert len(greedy_resolving_set(path)) == 1
    assert len(greedy_resolving_set(all_pairs_distances(build_clique(4)))) == 3


def test_greedy_returns_verified_sets(rng):
    for _ in range(15):
        n = rng.randrange(2, 14)
        dist = all_pairs_distances(Graph(n, random_connected_edges(rng, n, 0.3)))
        w = greedy_resolving_set(dist)
        assert is_resolving(dist, w)
        assert w == sorted(set(w))


def test_greedy_at_least_exact(rng):
    for _ in range(10):
        n = rng.randrange(3, 9)
        dist = all_pairs_distances(Graph(n, random_connected_edges(rng, n, 0.35)))
        exact = exact_metric_dimension(dist)
        assert len(greedy_resolving_set(dist)) >= exact.dim


def test_greedy_rejects_disconnected():
    with pytest.raises(ValueError):
        greedy_resolving_set(all_pairs_distances(Graph(4, [(0, 1), (2, 3)])))


def test_greedy_handles_large_products():
    f = CliqueFactors((12, 20))
    dist = tensor_clique_distances(f)
    w = greedy_resolving_set(dist)
    assert is_resolving(dist, w)


def test_exact_agrees_with_bipartite_form():
    # the two-factor product with a factor of two equals the bipartite graph
    # with a perfect matching removed, so dimensions must match
    from tensordim import build_bipartite_minus_matching
    for n in range(3, 6):
        a = exact_metric_dimension(
            all_pairs_distances(tensor_of_cliques(CliqueFactors((2, n)))))
        b = exact_metric_dimension(
            all_pairs_distances(build_bipartite_minus_matching(n)))
        assert a.dim == b.dim == n - 1
