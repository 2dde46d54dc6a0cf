"""Closed-form values, explicit resolving-set builders, and bounds."""

import itertools
import math

import numpy as np
import pytest

from tensordim import (
    CliqueFactors,
    ConstructionFailed,
    construct_balanced,
    construct_large_n,
    construct_m2,
    construct_resolving,
    dim_formula,
    exact_metric_dimension,
    exhaustive_metric_dimension,
    formula_case,
    is_resolving,
    lower_bound_largest_factor,
    lower_bound_lines,
    lower_bound_subproduct,
    projection,
    tensor_clique_distances,
    upper_bound_construction,
)
from tensordim.constructions import _certified


def expected_dim(m, n):
    """Piecewise reference for the two-factor closed form, written directly."""
    m, n = min(m, n), max(m, n)
    if (m, n) == (2, 2):
        return None
    if m == 2 or n >= 2 * m - 1:
        return n - 1
    return math.ceil(2 * (m + n - 2) / 3)


def test_formula_known_values():
    cases = {(2, 2): None, (2, 3): 2, (2, 4): 3, (3, 3): 3, (3, 4): 4,
             (3, 5): 4, (4, 4): 4, (4, 5): 5, (4, 6): 6, (5, 6): 6,
             (6, 6): 7, (3, 7): 6, (5, 5): 6, (10, 40): 39, (20, 30): 32}
    for (m, n), want in cases.items():
        assert dim_formula(m, n).dim == want


def test_formula_is_symmetric_and_validated():
    assert dim_formula(7, 3) == dim_formula(3, 7)
    assert dim_formula(2, 2).disconnected
    with pytest.raises(ValueError):
        dim_formula(1, 5)
    with pytest.raises(ValueError):
        dim_formula(3, 0)


def test_formula_matches_piecewise_reference():
    for m in range(2, 46):
        for n in range(m, 46):
            assert dim_formula(m, n).dim == expected_dim(m, n), (m, n)


def test_case_partition():
    for m in range(2, 46):
        for n in range(m, 46):
            case = formula_case(m, n)
            if (m, n) == (2, 2):
                assert case.kind == "disconnected"
            elif m == 2:
                assert case.kind == "m2"
            elif n >= 2 * m - 1:
                assert case.kind == "large_n"
            else:
                assert case.kind == "balanced"
                assert case.k == (m + n - 2) // 3
    # boundary rows route to different cases
    assert formula_case(4, 6).kind == "balanced"
    assert formula_case(4, 7).kind == "large_n"
    with pytest.raises(ValueError):
        formula_case(4, 3)


def test_frozen_construction_sets():
    assert construct_m2(3) == [0, 1]
    assert construct_m2(5) == [0, 1, 2, 3]
    assert construct_balanced(3, 3) == [0, 3, 1]
    assert construct_balanced(4, 4) == [0, 5, 8, 6]
    assert construct_balanced(3, 4) == [0, 4, 1, 2]
    assert construct_large_n(3, 5) == [0, 6, 2, 8]
    assert construct_large_n(3, 6) == [0, 7, 2, 9, 4]
    assert construct_large_n(4, 7) == [0, 8, 16, 3, 11, 19]


def test_dispatcher_routes_by_case():
    assert construct_resolving(2, 6) == construct_m2(6)
    assert construct_resolving(3, 9) == construct_large_n(3, 9)
    assert construct_resolving(4, 5) == construct_balanced(4, 5)
    with pytest.raises(ValueError):
        construct_resolving(2, 2)
    with pytest.raises(ValueError):
        construct_resolving(4, 3)


def test_domain_checks():
    with pytest.raises(ValueError):
        construct_m2(2)
    with pytest.raises(ValueError):
        construct_large_n(3, 4)
    with pytest.raises(ValueError):
        construct_balanced(3, 7)
    with pytest.raises(ValueError):
        construct_balanced(2, 2)


def test_construction_size_matches_formula_up_to_45():
    for m in range(2, 46):
        for n in range(m, 46):
            if (m, n) == (2, 2):
                continue
            w = construct_resolving(m, n)
            assert len(w) == dim_formula(m, n).dim, (m, n)
            assert len(set(w)) == len(w)


def test_constructions_leave_exactly_the_last_factor_vertex_out():
    # both projections of every built set cover all factor values but the last
    for m in range(2, 26):
        for n in range(m, 26):
            if (m, n) == (2, 2):
                continue
            f = CliqueFactors((m, n))
            w = construct_resolving(m, n)
            assert projection(w, 0, f) == set(range(m - 1)), (m, n)
            assert projection(w, 1, f) == set(range(n - 1)), (m, n)
            # independent re-check on top of the in-operation certification
            assert is_resolving(tensor_clique_distances(f), w)


def test_largest_factor_bound_never_exceeds_the_formula():
    for m in range(2, 46):
        for n in range(max(m, 3), 46):
            bound = lower_bound_largest_factor(CliqueFactors((m, n)))
            assert bound <= dim_formula(m, n).dim


def test_construction_matches_exact_dimension_on_small_products():
    for m in range(2, 6):
        for n in range(m, 6):
            if (m, n) == (2, 2):
                continue
            f = CliqueFactors((m, n))
            res = exact_metric_dimension(f)
            assert len(construct_resolving(m, n)) == res.dim


def test_certifier_raises_on_non_resolving_set():
    f = CliqueFactors((3, 3))
    with pytest.raises(ConstructionFailed) as err:
        _certified([0, 4], f)
    assert err.value.factors.sizes == (3, 3)
    assert err.value.wset == [0, 4]
    assert err.value.pair == (1, 3)


def test_largest_factor_lower_bound():
    assert lower_bound_largest_factor(CliqueFactors((3, 4, 5))) == 4
    assert lower_bound_largest_factor(CliqueFactors((3, 3))) == 2
    assert lower_bound_largest_factor(CliqueFactors((7,))) == 6
    assert lower_bound_largest_factor(CliqueFactors((2, 3))) == 2
    with pytest.raises(ValueError):
        lower_bound_largest_factor(CliqueFactors((2, 2, 3)))


def test_line_lower_bound_values():
    f = CliqueFactors
    assert lower_bound_lines(f((3, 3, 3))) == 4
    assert lower_bound_lines(f((3, 3, 7))) == 11
    assert lower_bound_lines(f((2, 3, 4))) == 6
    assert lower_bound_lines(f((2, 3, 3, 3))) == 8
    # One factor: ceil((m - 1) / 2), since a vertex sees the one line once.
    assert lower_bound_lines(f((7,))) == 3
    assert lower_bound_lines(f((2,))) == 0
    with pytest.raises(ValueError):
        lower_bound_lines(f((2, 2, 3)))


def test_line_bound_equals_the_largest_factor_bound_on_two_factors():
    for m in range(2, 30):
        for n in range(max(m, 3), 30):
            for sizes in ((m, n), (n, m)):
                f = CliqueFactors(sizes)
                assert lower_bound_lines(f) == lower_bound_largest_factor(f)
    # With t >= 2 factors it is never smaller, so the solver needs only the
    # line bound: every connected product up to 400 vertices, sizes ascending.
    checked = 0
    stack = [(m,) for m in range(2, 201)]
    while stack:
        sizes = stack.pop()
        if len(sizes) >= 2 and sizes.count(2) <= 1:
            f = CliqueFactors(sizes)
            assert lower_bound_lines(f) >= lower_bound_largest_factor(f), sizes
            checked += 1
        stack += [sizes + (m,) for m in range(sizes[-1], 400 // math.prod(sizes) + 1)]
    assert checked == 1475


def connected_orders(limit):
    """Every connected product, factor order included, up to limit vertices."""
    for t in range(1, limit.bit_length()):
        for sizes in itertools.product(range(2, limit + 1), repeat=t):
            if math.prod(sizes) <= limit and sizes.count(2) <= 1:
                yield sizes


def test_line_bound_never_exceeds_the_exact_dimension_up_to_12_vertices():
    checked = 0
    for sizes in connected_orders(12):
        f = CliqueFactors(sizes)
        dim = exhaustive_metric_dimension(tensor_clique_distances(f)).dim
        assert lower_bound_lines(f) <= dim, sizes
        checked += 1
    assert checked == 22  # 11 cliques and 11 ordered pairs


def line_pair_resolvers(sizes, axis):
    """For each pair x < y of vertices differing only on `axis`: the vertices
    that tell them apart by distance, and the set the line-counting argument
    claims, x, y and the w with w_axis in {x_axis, y_axis} that differ from
    both on every other axis."""
    f = CliqueFactors(sizes)
    d = tensor_clique_distances(f).values
    coords = [f.coords_of(v) for v in range(f.vertex_count)]
    for x, y in itertools.combinations(range(f.vertex_count), 2):
        cx, cy = coords[x], coords[y]
        if [j for j in range(f.t) if cx[j] != cy[j]] != [axis]:
            continue
        actual = set(np.flatnonzero(d[x] != d[y]).tolist())
        claimed = {x, y} | {
            w for w in range(f.vertex_count)
            if coords[w][axis] in (cx[axis], cy[axis])
            and all(coords[w][j] != cx[j] for j in range(f.t) if j != axis)}
        yield actual, claimed


@pytest.mark.parametrize("sizes", [(3, 3, 3), (2, 3, 4), (3, 4, 4)], ids=str)
def test_line_pairs_are_resolved_only_by_the_vertices_that_see_the_line(sizes):
    for axis, m in enumerate(sizes):
        pairs = list(line_pair_resolvers(sizes, axis))
        assert pairs
        if m >= 3:
            assert all(actual == claimed for actual, claimed in pairs)
        else:
            # The claim fails on the size-2 axis, which the bound skips.
            assert any(actual != claimed for actual, claimed in pairs)


def test_a_size_two_axis_pair_has_a_resolver_that_matches_the_line():
    f = CliqueFactors((2, 3, 3))
    d = tensor_clique_distances(f).values
    w, x, y = (f.flat_index(c) for c in ((0, 0, 1), (0, 0, 0), (1, 0, 0)))
    assert (d[w, x], d[w, y]) == (2, 3)


def test_subproduct_lower_bound_values():
    assert lower_bound_subproduct(CliqueFactors((3, 3, 3))) == 3
    assert lower_bound_subproduct(CliqueFactors((3, 3, 4))) == 4
    assert lower_bound_subproduct(CliqueFactors((3, 4, 5))) == 5
    with pytest.raises(ValueError):
        lower_bound_subproduct(CliqueFactors((3, 3)))
    with pytest.raises(ValueError):
        lower_bound_subproduct(CliqueFactors((2, 3, 3)))


def test_upper_bound_set_resolves_and_respects_size_cap():
    for sizes in [(3, 3, 3), (3, 3, 4), (3, 4, 4)]:
        f = CliqueFactors(sizes)
        w = upper_bound_construction(f)
        assert is_resolving(tensor_clique_distances(f), w)
        assert len(set(w)) == len(w)
        a, b, c = sorted(sizes)
        # cap: three anchor copies of each remaining two-factor set,
        # one from dropping the smallest factor, one from the largest
        assert len(w) <= 3 * (dim_formula(b, c).dim + dim_formula(a, b).dim)
    with pytest.raises(ValueError):
        upper_bound_construction(CliqueFactors((3, 3)))
    with pytest.raises(ValueError):
        upper_bound_construction(CliqueFactors((2, 3, 3)))


def test_upper_bound_frozen_size():
    assert len(upper_bound_construction(CliqueFactors((3, 3, 3)))) == 13


def test_four_factor_upper_bound_resolves():
    f = CliqueFactors((3, 3, 3, 3))
    w = upper_bound_construction(f)
    assert is_resolving(tensor_clique_distances(f), w)
