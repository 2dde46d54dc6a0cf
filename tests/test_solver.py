"""Exact solver, greedy heuristic, pair table, and determinism contracts."""

import functools
import importlib.util
import itertools
import json
import operator
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from tensordim import (
    CliqueFactors,
    DimResult,
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

from conftest import (
    ROOT,
    oracle_greedy,
    oracle_greedy_completion,
    oracle_min_resolving,
    random_connected_edges,
)


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def test_kernel_name_is_known():
    assert kernel_name() in {"python", "compiled"}


def test_pair_table_masks_encode_resolvers(rng):
    n = rng.randrange(20, 40)
    graphs = [
        all_pairs_distances(path_graph(4)),
        # 64 vertices, so the masks use bit 63
        tensor_clique_distances(CliqueFactors((8, 8))),
        all_pairs_distances(Graph(n, random_connected_edges(rng, n, 0.1))),
    ]
    for dist in graphs:
        masks = build_pair_table(dist)
        assert masks.dtype == np.uint64
        assert len(masks) == dist.n * (dist.n - 1) // 2
        for mask, (x, y) in zip(masks.tolist(), itertools.combinations(range(dist.n), 2)):
            resolvers = [w for w in range(dist.n) if mask >> w & 1]
            assert resolvers == [v for v in range(dist.n) if dist.d(x, v) != dist.d(y, v)]
            # each endpoint always separates its own pair
            assert x in resolvers and y in resolvers


def connected_products():
    """`benchmarks/check_products.py`'s list of every connected product of
    two or more cliques up to 64 vertices; callers keep the script's
    bytecode unwritten (`sys.dont_write_bytecode`)."""
    spec = importlib.util.spec_from_file_location(
        "benchmarks_check_products", ROOT / "benchmarks" / "check_products.py")
    check_products = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_products)
    return check_products.connected_products()


def test_product_pair_masks_are_the_pair_table(compiled_kernel, monkeypatch):
    # Every connected product of two or more cliques with at most 64
    # vertices, those with a size-2 axis included: the masks each kernel
    # reads off coordinates are the distinct masks of the pair table of the
    # distance table, which tests/test_graphs.py ties to BFS, in the same
    # order, first occurrence kept.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    products = connected_products()
    assert len(products) == 103 and any(2 in sizes for sizes in products)
    for sizes in products:
        f = CliqueFactors(sizes)
        want = list(dict.fromkeys(build_pair_table(tensor_clique_distances(f)).tolist()))
        for kernel in (_bb_py, compiled_kernel):
            assert kernel.product_pair_masks(f.sizes) == want, (kernel, sizes)


def test_pair_table_rejects_large_graphs():
    dist = all_pairs_distances(build_clique(65))
    with pytest.raises(ValueError):
        build_pair_table(dist)


def test_resolving_iff_all_pair_masks_hit(rng):
    for _ in range(20):
        n = rng.randrange(2, 10)
        dist = all_pairs_distances(Graph(n, random_connected_edges(rng, n, 0.3)))
        masks = build_pair_table(dist)
        for _ in range(8):
            w = rng.sample(range(n), rng.randrange(0, n + 1))
            chosen = 0
            for v in w:
                chosen |= 1 << v
            hits_all = all(int(m) & chosen for m in masks)
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
        res = exact_metric_dimension(f)
        assert res.dim == want
        assert is_resolving(tensor_clique_distances(f), list(res.certificate))
    disc = exact_metric_dimension(tensor_clique_distances(CliqueFactors((2, 2))))
    assert disc.disconnected and disc.dim is None


def test_exact_matches_exhaustive_with_forced_branch_and_bound(rng):
    for _ in range(20):
        n = rng.randrange(4, 12)
        dist = all_pairs_distances(Graph(n, random_connected_edges(rng, n, 0.3)))
        enum = exhaustive_metric_dimension(dist)
        bb = exact_metric_dimension(dist)
        assert enum.dim == bb.dim
        assert enum.certificate == bb.certificate
        assert is_resolving(dist, list(bb.certificate))


def test_auto_method_runs_branch_and_bound_at_every_size(solver_kernel):
    f = CliqueFactors((3, 3))
    tables = [all_pairs_distances(Graph(0, [])), all_pairs_distances(build_clique(1)),
              all_pairs_distances(build_clique(2)), all_pairs_distances(Graph(2, [])),
              tensor_clique_distances(f)]
    want = [exhaustive_metric_dimension(dist) for dist in tables]
    assert [(r.dim, r.certificate) for r in want] == [
        (0, ()), (0, ()), (1, (0,)), (None, None), (3, (0, 1, 3))]
    # The product is solved on its table and from its factors.
    for space, res in zip(tables + [f], want + want[-1:]):
        assert exact_metric_dimension(space) == res


def test_exact_minimality_on_small_products():
    # no smaller set than the reported dimension resolves
    for sizes in [(3, 3), (2, 5), (3, 4), (4, 4)]:
        f = CliqueFactors(sizes)
        dist = tensor_clique_distances(f)
        res = exact_metric_dimension(f)
        k = res.dim
        assert all(not is_resolving(dist, list(c))
                   for c in itertools.combinations(range(f.vertex_count), k - 1))


def test_exact_certificate_is_first_in_sorted_order(rng):
    # the reported set is the first minimum one in sorted-tuple order
    for _ in range(8):
        n = rng.randrange(4, 9)
        dist = all_pairs_distances(Graph(n, random_connected_edges(rng, n, 0.4)))
        res = exact_metric_dimension(dist)
        table = [[dist.d(u, v) for v in range(n)] for u in range(n)]
        want_dim, want_set = oracle_min_resolving(table)
        assert (res.dim, res.certificate) == (want_dim, want_set)


def twin_classes_checked(dist):
    """solver._twin_classes, checked against a plain pairwise twin test: the
    classes partition the vertices in ascending order, and two vertices
    share a class exactly when they are twins."""
    n = dist.n
    table = dist.values.tolist()

    def twins(x, y):
        return all(table[x][z] == table[y][z] for z in range(n) if z not in (x, y))

    classes = solver._twin_classes(n, solver.build_pair_table(dist))
    assert sorted(v for cls in classes for v in cls) == list(range(n))
    assert all(cls == sorted(cls) for cls in classes)
    assert [cls[0] for cls in classes] == sorted(cls[0] for cls in classes)
    label = {v: i for i, cls in enumerate(classes) for v in cls}
    for x, y in itertools.combinations(range(n), 2):
        assert (label[x] == label[y]) == twins(x, y), (x, y)
    return classes


def test_products_of_cliques_with_factors_of_three_have_no_twins(rng):
    # Connected products have no twins, with one factor of size 2 or none.
    for sizes in [(3, 3), (3, 5), (4, 4), (3, 3, 3), (2, 5), (2, 3, 4), (3, 2, 4), (2, 3, 3, 3)]:
        classes = twin_classes_checked(tensor_clique_distances(CliqueFactors(sizes)))
        assert all(len(cls) == 1 for cls in classes), sizes
    # The leaves of sparse graphs are twins.
    twin_classes_checked(all_pairs_distances(Graph(9, [(0, v) for v in range(1, 9)])))
    # All six vertices of K_6 are mutually twin: one class, five forced.
    assert twin_classes_checked(all_pairs_distances(build_clique(6))) == [list(range(6))]
    for _ in range(30):
        n = rng.randrange(8, 25)
        p = rng.choice([0.0, 0.05, 0.2, 0.7])
        twin_classes_checked(all_pairs_distances(Graph(n, random_connected_edges(rng, n, p))))


SYMMETRIC_SIZES = [(m, n) for m in range(3, 11) for n in range(m, 11) if m * n <= 30] + [
    (3, 3, 3)] + [sizes for t in (2, 3) for sizes in itertools.product(range(2, 16), repeat=t)
                  if sizes.count(2) == 1 and np.prod(sizes) <= 30]


# (ORBIT_MIN_CANDIDATES, ORBIT_MIN_BUDGET): orbit branching at the root
# only, the default rule, and below the root wherever an orbit has two
# candidates.
ORBIT_RULES = [(4, solver.MAX_EXACT_VERTICES + 1),
               (solver.ORBIT_MIN_CANDIDATES, solver.ORBIT_MIN_BUDGET), (2, 0)]


def set_orbit_rule(monkeypatch, rule):
    monkeypatch.setattr(solver, "ORBIT_MIN_CANDIDATES", rule[0])
    monkeypatch.setattr(solver, "ORBIT_MIN_BUDGET", rule[1])


def test_symmetric_search_matches_plain_search(solver_kernel, monkeypatch):
    # Every product of cliques with all factors >= 3, or with one factor
    # of size 2 in any position, and at most 30 vertices, under each rule
    # for orbit branching.  Each solve with factors takes the symmetric
    # route, which calls the kernel's orbit search once.
    routed = []
    orbit_min_size = solver._orbit_min_size

    def spy(masks, lower, upper, sizes):
        routed.append(tuple(sizes))
        return orbit_min_size(masks, lower, upper, sizes)

    monkeypatch.setattr(solver, "_orbit_min_size", spy)
    for sizes in SYMMETRIC_SIZES:
        f = CliqueFactors(sizes)
        dist = tensor_clique_distances(f)
        plain = exact_metric_dimension(dist)
        for rule in ORBIT_RULES:
            set_orbit_rule(monkeypatch, rule)
            assert exact_metric_dimension(f) == plain, (sizes, rule)
            dim_only = exact_metric_dimension(f, certificate=False)
            assert dim_only.dim == plain.dim, (sizes, rule)
    assert routed == [sizes for sizes in SYMMETRIC_SIZES for _ in range(6)]


def test_symmetric_search_on_seven_by_seven_and_four_cubed(compiled_kernel, monkeypatch):
    # The certificates are those of the search without symmetry breaking,
    # under each rule for orbit branching.
    monkeypatch.setattr(solver, "_default_kernel", compiled_kernel)
    want = {(7, 7): DimResult(dim_formula(7, 7).dim, (0, 1, 9, 10, 18, 25, 33, 40)),
            (4, 4, 4): DimResult(8, (0, 1, 4, 16, 22, 41, 47, 59))}
    for sizes, result in want.items():
        f = CliqueFactors(sizes)
        dist = tensor_clique_distances(f)
        for rule in ORBIT_RULES:
            set_orbit_rule(monkeypatch, rule)
            assert exact_metric_dimension(f) == result, (sizes, rule)


def test_symmetric_search_on_the_slower_three_factor_products(compiled_kernel, monkeypatch):
    # Certificates found once and pinned here: 3x4x5 and 3x3x6 by the plain
    # route on the distance table, which takes seconds on them, 3x3x7 and
    # 2x3x10 by the symmetric route with a fixed depth of orbit branching.
    monkeypatch.setattr(solver, "_default_kernel", compiled_kernel)
    want = {(3, 4, 5): DimResult(9, (0, 6, 12, 18, 20, 27, 33, 36, 44)),
            (3, 3, 6): DimResult(11, (0, 1, 2, 6, 9, 10, 17, 19, 27, 38, 46)),
            (3, 3, 7): DimResult(14, (0, 1, 2, 3, 7, 8, 11, 12, 14, 20, 23, 32, 45, 54)),
            (2, 3, 10): DimResult(18, (0, 1, 2, 3, 4, 5, 6, 17, 18, 30, 31, 32, 33, 34, 35,
                                       36, 47, 48))}
    for sizes, result in want.items():
        f = CliqueFactors(sizes)
        assert exact_metric_dimension(f) == result, sizes


def test_rook_graph_has_the_same_resolving_sets(solver_kernel):
    # For 3 <= m <= n the complement of K_m x K_n is the rook's graph
    # K_m [] K_n (two cells adjacent when they share a row or a column),
    # and both have diameter 2, so distances 1 and 2 swap and the resolving
    # sets agree.  The rook's graph gets the plain search on its BFS table.
    for m in range(3, 6):
        for n in range(m, 30 // m + 1):
            f = CliqueFactors((m, n))
            rook = Graph(m * n, [(u, v) for u, v in itertools.combinations(range(m * n), 2)
                                 if u // n == v // n or u % n == v % n])
            want = exact_metric_dimension(f)
            assert exact_metric_dimension(all_pairs_distances(rook)) == want, (m, n)
            # Caceres et al. (SIAM J. Discrete Math. 21, 2007), as recalled
            # here: dim(K_m [] K_n) = floor(2(m + n - 1) / 3) for n <= 2m - 1.
            if n <= 2 * m - 1:
                assert want.dim == 2 * (m + n - 1) // 3, (m, n)


PRODUCTS_TO_FORTY = [(m, n) for m in range(3, 14) for n in range(m, 14) if m * n <= 40] + [
    (3, 3, 3), (3, 3, 4)]


def test_value_swaps_are_the_automorphisms_the_certificate_loop_needs():
    # Every prefix of size 0-2 below u, as in the loop, and every u < v.
    # The map exists exactly when u_i <= v_i on every axis and the value
    # transpositions (u_i v_i) on the axes where u and v differ map the
    # prefix onto itself; it is then that product of transpositions, a
    # distance-preserving permutation that permutes the prefix members,
    # sends v to u and sends every id above v to an id above u.
    moved_members = 0
    for sizes in [(3, 3), (3, 4), (4, 5), (3, 3, 3), (3, 3, 4), (2, 4), (3, 2, 3)]:
        f = CliqueFactors(sizes)
        n = f.vertex_count
        d = tensor_clique_distances(f).values
        coords = [tuple(c) for c in f.coordinates().tolist()]
        ids = {c: x for x, c in enumerate(coords)}
        symmetry = _bb_py._value_swaps(_bb_py._value_masks(sizes))
        preserves = {}
        for u, v in itertools.combinations(range(n), 2):
            cu, cv = coords[u], coords[v]
            ordered = all(a <= b for a, b in zip(cu, cv))
            swapped = tuple(ids[tuple(b if x == a else a if x == b else x
                                      for x, a, b in zip(c, cu, cv))] for c in coords)
            for k in range(3):
                for members in itertools.combinations(range(u), k):
                    prefix = sum(1 << p for p in members)
                    kept = sorted(swapped[p] for p in members) == list(members)
                    sigma = symmetry(prefix, u, v)
                    assert (sigma is not None) == (ordered and kept), (sizes, members, u, v)
                    if sigma is None:
                        continue
                    images = [sigma(1 << x) for x in range(n)]
                    assert all(image.bit_count() == 1 for image in images)
                    perm = tuple(image.bit_length() - 1 for image in images)
                    assert perm == swapped, (sizes, u, v)
                    if perm not in preserves:
                        preserves[perm] = bool((d[np.ix_(perm, perm)] == d).all())
                    assert preserves[perm], (sizes, u, v)
                    assert sigma(prefix) == prefix
                    moved_members += any(perm[p] != p for p in members)
                    assert perm[v] == u
                    assert min(perm[v + 1:], default=n) > u
    # The maps that swap prefix members are in use, not only those that
    # fix every member.
    assert moved_members


def test_value_swaps_carry_completions_from_v_to_u():
    # Brute force: for every prefix P of up to 2 members, every u < v above
    # it with a map, and every budget k up to the dimension, if P + v is
    # completed by at most k ids above v, then P + u is completed by at
    # most k ids above u.  This is the implication both the failure carry
    # and the completion move use; the converse need not hold (on 3x3,
    # with P empty, (0, 0) completes with fewer ids above it than (2, 0)).
    # The oracle is plain subset enumeration over pair masks read off the
    # distance table.
    for sizes, dim, sample in [((3, 3), 3, None), ((3, 4), 4, None), ((4, 4), 4, None),
                               ((3, 3, 3), 6, 120)]:
        f = CliqueFactors(sizes)
        n = f.vertex_count
        d = tensor_clique_distances(f).values.tolist()
        masks = [sum(1 << w for w in range(n) if d[x][w] != d[y][w])
                 for x, y in itertools.combinations(range(n), 2)]
        symmetry = _bb_py._value_swaps(_bb_py._value_masks(sizes))
        least = {}

        def least_completion(members, x):
            # The fewest ids above x completing members + x, or dim + 1.
            if (members, x) not in least:
                chosen = sum(1 << p for p in members) | 1 << x
                pending = [m for m in masks if not m & chosen]
                # hits[w]: the pending masks id w hits, as bits.
                hits = [sum(1 << i for i, m in enumerate(pending) if m >> w & 1)
                        for w in range(x + 1, n)]
                full = (1 << len(pending)) - 1
                least[members, x] = next(
                    (k for k in range(dim + 1) for combo in itertools.combinations(hits, k)
                     if functools.reduce(operator.or_, combo, 0) == full), dim + 1)
            return least[members, x]

        prefixes = [p for k in range(3) for p in itertools.combinations(range(n), k)]
        if sample:
            prefixes = random.Random(0).sample(prefixes, sample)
        pairs = 0
        for members in prefixes:
            prefix = sum(1 << p for p in members)
            start = members[-1] + 1 if members else 0
            for u, v in itertools.combinations(range(start, n), 2):
                if symmetry(prefix, u, v) is not None:
                    pairs += 1
                    assert least_completion(members, u) <= least_completion(members, v), (
                        sizes, members, u, v)
        assert pairs, sizes


def test_value_swaps_keep_the_certificates(monkeypatch):
    # Pure kernel, every product of cliques with all factors >= 3 and at
    # most 40 vertices: the solver's certificate equals that of the plain
    # certificate loop, with neither a seed nor the symmetry.  Products up
    # to 30 vertices are also compared with the plain route above.
    monkeypatch.setattr(solver, "_default_kernel", solver._bb_py)
    for sizes in PRODUCTS_TO_FORTY:
        f = CliqueFactors(sizes)
        dist = tensor_clique_distances(f)
        got = exact_metric_dimension(f)
        plain = solver._bb_py.lex_min_hitting_set(build_pair_table(dist).tolist(),
                                                  (1 << f.vertex_count) - 1, got.dim)
        assert got.certificate == tuple(plain), sizes


def test_value_swaps_answer_certificate_queries(compiled_kernel, monkeypatch):
    # The kernel queries the certificate loop asks, the same on both
    # kernels.  Without the value swaps 3x3x4 asks 25 queries and 4x7 asks
    # 15.  The pure loop consults the swaps only where the tests above
    # check them: u < v, both above every member of the current prefix.
    # (The compiled loop computes its own; the cross-kernel query logs in
    # tests/test_kernels.py gate them.)
    queries = []
    consulted = []
    value_swaps = _bb_py._value_swaps

    def swaps(value_masks):
        symmetry = value_swaps(value_masks)

        def rule(prefix, u, v):
            consulted.append((prefix, u, v))
            return symmetry(prefix, u, v)

        return rule

    monkeypatch.setattr(_bb_py, "_value_swaps", swaps)
    for kernel in (_bb_py, compiled_kernel):
        real = kernel.lex_min_hitting_set

        def counted(*args, min_size, real=real, **kwargs):
            def query(*q_args, **q_kwargs):
                queries.append(1)
                return min_size(*q_args, **q_kwargs)

            return real(*args, min_size=query, **kwargs)

        monkeypatch.setattr(kernel, "lex_min_hitting_set", counted)
        monkeypatch.setattr(solver, "_default_kernel", kernel)
        for sizes, asked in [((3, 3, 4), 10), ((3, 3, 3), 6), ((4, 7), 2), ((4, 10), 2),
                             ((5, 8), 3), ((6, 6), 6)]:
            f = CliqueFactors(sizes)
            queries.clear()
            consulted.clear()
            exact_metric_dimension(f)
            assert len(queries) == asked, (kernel.__name__, sizes)
            if kernel is _bb_py:
                assert consulted and all(prefix >> u == 0 and u < v
                                         for prefix, u, v in consulted)
            else:
                assert not consulted


def test_stabilizer_orbits_partition_the_candidates():
    # Orbits of the stabilizer of {0, v}, checked against a plain
    # coordinate comparison, largest first and then by least id.
    f = CliqueFactors((3, 4, 5))
    coords = [f.coords_of(v) for v in range(f.vertex_count)]
    value_masks = _bb_py._value_masks(f.sizes)
    for i, m in enumerate(f.sizes):
        for a in range(m):
            assert value_masks[i][a] == sum(1 << u for u in range(f.vertex_count)
                                            if coords[u][i] == a)
    v = f.flat_index((1, 1, 0))
    cand = ((1 << f.vertex_count) - 1) & ~1 & ~(1 << v) & ~(1 << 7)
    got = _bb_py._stabilizer_orbits(value_masks, 1 | 1 << v, cand)

    def key(u):
        return tuple(c if c in (coords[0][i], coords[v][i]) else None
                     for i, c in enumerate(coords[u]))

    want = {}
    for u in range(f.vertex_count):
        if cand >> u & 1:
            want[key(u)] = want.get(key(u), 0) | 1 << u
    assert sorted(got) == sorted(want.values())
    assert got == sorted(got, key=lambda o: (-o.bit_count(), o & -o))


def test_dimension_only_matches_the_certified_search(solver_kernel, rng):
    cases = []
    for n in range(2, 41, 2):
        p = rng.choice([0.05, 0.1, 0.2, 0.4])
        cases.append(all_pairs_distances(Graph(n, random_connected_edges(rng, n, p))))
    for sizes in [(2, 2), (2, 5), (3, 4), (4, 5), (2, 3, 4), (3, 3, 3), (2, 2, 3)]:
        f = CliqueFactors(sizes)
        cases += [f, tensor_clique_distances(f)]
    cases.append(all_pairs_distances(Graph(5, [(0, 1), (2, 3)])))
    cases.append(all_pairs_distances(build_clique(5)))
    disconnected = 0
    for space in cases:
        want = exact_metric_dimension(space)
        got = exact_metric_dimension(space, certificate=False)
        assert got == DimResult(want.dim, None)
        disconnected += got.dim is None
    assert disconnected == 5


PRODUCTS = {tuple(p["sizes"]): DimResult(p["dim"], tuple(p["certificate"])) for p in json.loads(
    (Path(__file__).resolve().parents[1] / "data" / "clique_products.json").read_text())["products"]}


@pytest.mark.parametrize("sizes", [(2, 5), (3, 4), (4, 7), (5, 5), (6, 6)],
                         ids=["2x5", "3x4", "4x7", "5x5", "6x6"])
def test_two_factor_products_build_no_greedy_seed(sizes, solver_kernel, monkeypatch):
    # The construction is the upper seed on two factors.
    def no_greedy(pending, cand_mask):
        raise AssertionError("a two-factor solve built a greedy seed")

    monkeypatch.setattr(solver, "_greedy_completion", no_greedy)
    f = CliqueFactors(sizes)
    assert exact_metric_dimension(f) == PRODUCTS[sizes]
    assert exact_metric_dimension(f, certificate=False) == DimResult(
        PRODUCTS[sizes].dim, None)


@pytest.mark.parametrize("certificate", [True, False], ids=["certificate", "dim-only"])
def test_a_construction_that_does_not_resolve_is_refused(certificate, monkeypatch):
    # One member short (5 of the 6 a minimum set of 4x7 needs), nothing
    # beats the construction, so it is the solution behind the size.  The
    # certificate loop's completion check refuses it, else the final check.
    construction = solver._two_factor_hint
    monkeypatch.setattr(solver, "_two_factor_hint", lambda m, n: construction(m, n)[1:])
    f = CliqueFactors((4, 7))
    refusal = "is not a completion" if certificate else "failed the resolving check"
    with pytest.raises(AssertionError, match=refusal):
        exact_metric_dimension(f, certificate=certificate)


def test_products_search_between_their_proven_bounds(monkeypatch):
    # The root call of the symmetric size search gets the line bound as its
    # lower bound on every connected product, a factor of size 2 included
    # (6 and 11 on 2x3x4 and 3x3x7), and the construction's size as its
    # upper bound on two factors.  A disconnected product makes no call.
    # The spy skips the search: nothing beats the seed, which is checked.
    roots = []

    def spy(masks, lower, upper, sizes):
        roots.append((lower, upper))
        return upper, None

    monkeypatch.setattr(solver, "_orbit_min_size", spy)
    for sizes, lower, upper in [((2, 5), 4, 4), ((2, 3, 4), 6, None), ((3, 3, 7), 11, None),
                                ((2, 2, 3), None, None)]:
        roots.clear()
        f = CliqueFactors(sizes)
        exact_metric_dimension(f, certificate=False)
        if lower is None:
            assert roots == [], sizes
        else:
            assert len(roots) == 1 and roots[0][0] == lower, sizes
            assert upper is None or roots[0][1] == upper, sizes


def test_nothing_pending_returns_the_forced_vertices():
    # Every vertex of K_5 is a twin of every other: four are forced and no
    # pair is left pending.  A single vertex has no pair at all.
    dist = all_pairs_distances(build_clique(5))
    assert exact_metric_dimension(dist).certificate == (0, 1, 2, 3)
    single = all_pairs_distances(Graph(1))
    assert exact_metric_dimension(single).certificate == ()


def test_exact_rejects_more_than_64_vertices():
    for space in (all_pairs_distances(build_clique(65)), CliqueFactors((5, 13)),
                  CliqueFactors((65,))):
        with pytest.raises(ValueError, match="at most 64 vertices, got 65"):
            exact_metric_dimension(space)
    # A disconnected product is reported as such at any size.
    assert exact_metric_dimension(CliqueFactors((2, 2, 17))) == DimResult(None, None)


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


def star_graph(n):
    return Graph(n, [(0, v) for v in range(1, n)])


def greedy_cases(rng):
    """(name, distance table, factors) for random connected graphs with
    n = 2..40, paths, stars, cycles, a few products of cliques, and both
    sides of the greedy's routing boundary (the kernel's greedy up to 64
    vertices, the key sort beyond): one vertex, sparse random graphs on
    63, 64 and 65 vertices, 8x8 and 2x32."""
    cases = []
    for n in range(2, 41):
        p = rng.choice([0.05, 0.1, 0.2, 0.4])
        cases.append((f"random{n}", all_pairs_distances(
            Graph(n, random_connected_edges(rng, n, p))), None))
    for n in [2, 3, 5, 12, 25, 40]:
        cases.append((f"path{n}", all_pairs_distances(path_graph(n)), None))
        cases.append((f"star{n}", all_pairs_distances(star_graph(n)), None))
        if n >= 3:
            cases.append((f"cycle{n}", all_pairs_distances(cycle_graph(n)), None))
    # Keys class * span + distance reach 2^16 and take a wider dtype.
    cases.append(("cycle600", all_pairs_distances(cycle_graph(600)), None))
    for sizes in [(2, 5), (3, 4), (3, 3, 3), (8, 8), (2, 32), (12, 20)]:
        f = CliqueFactors(sizes)
        cases.append(("x".join(map(str, sizes)), tensor_clique_distances(f), f))
    cases.append(("single", all_pairs_distances(Graph(1)), None))
    # Sparse, as in the random-graphs workload, so that their exact solves
    # stay short on the pure kernel.
    for n in (63, 64, 65):
        cases.append((f"sparse{n}", all_pairs_distances(
            Graph(n, random_connected_edges(rng, n, 0.05))), None))
    return cases


def test_greedy_matches_oracle(rng, solver_kernel):
    for name, dist, _ in greedy_cases(rng):
        assert greedy_resolving_set(dist) == oracle_greedy(dist.values), name


def test_greedy_completion_matches_oracle(rng, monkeypatch):
    # Every upper-seed input met while solving the cases exactly.
    inputs = []
    completion = solver._greedy_completion

    def record(pending, cand_mask):
        inputs.append((list(pending), cand_mask))
        return completion(pending, cand_mask)

    monkeypatch.setattr(solver, "_greedy_completion", record)
    for _, dist, f in greedy_cases(rng):
        if dist.n <= solver.MAX_EXACT_VERTICES:
            exact_metric_dimension(dist if f is None else f)
    assert len(inputs) >= 40
    for pending, cand_mask in inputs:
        assert completion(pending, cand_mask) == oracle_greedy_completion(pending, cand_mask)


def test_greedy_seed_on_distinct_masks_is_the_seed_on_every_pair():
    # The product route's greedy upper seed counts each distinct pair mask
    # once; on every product of three or more factors in the data file it
    # picks the same set as counting every pair of the pair table.
    products = [sizes for sizes in PRODUCTS if len(sizes) >= 3]
    assert len(products) == 24
    for sizes in products:
        f = CliqueFactors(sizes)
        everything = (1 << f.vertex_count) - 1
        every_pair = build_pair_table(tensor_clique_distances(f)).tolist()
        distinct = _bb_py.product_pair_masks(f.sizes)
        assert len(distinct) <= len(every_pair)
        assert (sorted(solver._greedy_completion(distinct, everything))
                == sorted(solver._greedy_completion(every_pair, everything))), sizes


def test_greedy_completion_rejects_unhittable_mask():
    with pytest.raises(ValueError, match="no candidate"):
        solver._greedy_completion([0b100], 0b011)


def test_greedy_rejects_disconnected():
    with pytest.raises(ValueError):
        greedy_resolving_set(all_pairs_distances(Graph(4, [(0, 1), (2, 3)])))


def test_greedy_on_empty_graph():
    assert greedy_resolving_set(all_pairs_distances(Graph(0))) == []


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
