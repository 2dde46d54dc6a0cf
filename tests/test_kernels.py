"""The compiled search kernel must match the pure-Python reference exactly.

The compiled kernel comes from the `compiled_kernel` fixture, which takes
it from the package's loader (built from source once per `_bb.c`); the
solver's own kernel choice is not affected.  Each kernel has its own
certificate loop and orbit search; `lex` runs a kernel's loop on its own
size search, and the compiled loop and orbit search must ask the
reference's queries and leaves, in order.
"""

import functools
import importlib.util
import itertools
import json
import math
import os
import random
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tensordim import _bb_py, solver
from tensordim.graphs import CliqueFactors, tensor_clique_distances
from tensordim.metric import DimResult
from tensordim.solver import build_pair_table

from conftest import ROOT, oracle_greedy_completion, oracle_min_hitting
from test_solver import ORBIT_RULES, SYMMETRIC_SIZES, connected_products


@pytest.fixture(params=["_bb_py", "_bb"])
def kernel(request):
    if request.param == "_bb_py":
        return _bb_py
    return request.getfixturevalue("compiled_kernel")


def random_instance(rng, nbits, nmasks):
    masks = []
    for _ in range(nmasks):
        m = 0
        for b in range(nbits):
            if rng.random() < 0.3:
                m |= 1 << b
        if m == 0:
            m = 1 << rng.randrange(nbits)
        masks.append(m)
    return masks


def lex(kernel, *args):
    return kernel.lex_min_hitting_set(*args, min_size=kernel.min_hitting_size)


def oracle_lex_min(masks, nbits, k):
    for combo in itertools.combinations(range(nbits), k):
        chosen = 0
        for b in combo:
            chosen |= 1 << b
        if all(m & chosen for m in masks):
            return list(combo)
    return None


def test_min_size_matches_exhaustive_oracle(kernel):
    rng = random.Random(11)
    for _ in range(120):
        nbits = rng.randrange(3, 13)
        masks = random_instance(rng, nbits, rng.randrange(1, 10))
        want, _ = oracle_min_hitting(masks, nbits)
        got = kernel.min_hitting_size(masks, (1 << nbits) - 1, 0, nbits + 1)
        assert got == want


@st.composite
def bounded_instances(draw):
    """Masks over a few bits (empty masks included), a candidate mask that
    may leave some bits out, and lower <= opt with upper around opt, where
    opt is the oracle's optimum (None when no candidate set hits them all)."""
    nbits = draw(st.integers(1, 9))
    masks = draw(st.lists(st.integers(0, (1 << nbits) - 1), max_size=10))
    cand = draw(st.integers(0, (1 << nbits) - 1))
    found = oracle_min_hitting([m & cand for m in masks], nbits)
    if found is None:
        upper = draw(st.integers(0, nbits + 1))
        return masks, cand, draw(st.integers(0, nbits + 1)), upper, None
    opt = found[0]
    upper = draw(st.sampled_from([opt - 1, opt, opt + 1, opt + 2, nbits + 1]))
    return masks, cand, draw(st.integers(0, opt)), upper, opt


# The last-pick rule decides with one pick left under the incumbent.
@example(((0b011, 0b110, 0b101), 0b111, 0, 2, 2))  # no vertex hits all three
@example(((0b011, 0b110), 0b111, 0, 2, 1))  # vertex 1 hits both
@example(((0b001, 0b110), 0b111, 0, 3, 2))  # a forced pick comes first
@example(((0b101, 0, 0b011), 0b111, 0, 4, None))  # an empty mask
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bounded_instances())
def test_min_size_keeps_its_contract_at_tight_bounds(kernel, case):
    masks, cand, lower, upper, opt = case
    want = opt if opt is not None and opt < upper else upper
    witness = []
    got = kernel.min_hitting_size(list(masks), cand, lower, upper, witness=witness)
    assert got == want
    if got == upper:
        assert witness == []
    else:
        # One solution of the returned size: inside the candidates, hitting
        # every mask.
        [found] = witness
        assert found & ~cand == 0 and found.bit_count() == got
        assert all(m & found for m in masks)


def test_last_pick_is_settled_without_branching(monkeypatch):
    # One pick under the incumbent, the pure kernel answers from the
    # resolvers the pending masks share; it neither bounds nor branches.
    def fail(*args):
        raise AssertionError("the search branched on its last pick")

    monkeypatch.setattr(_bb_py, "_packing_bound", fail)
    assert _bb_py.min_hitting_size([0b011, 0b110], 0b111, 0, 2) == 1
    assert _bb_py.min_hitting_size([0b011, 0b110, 0b101], 0b111, 0, 2) == 2
    assert _bb_py.min_hitting_size([0b0001, 0b0110, 0b1100], 0b1111, 0, 3) == 2


def test_two_picks_are_settled_without_bounding(monkeypatch):
    # Two picks under the incumbent, the pure kernel settles each child in
    # place; it neither bounds nor recurses.  The witnesses are those that
    # branching reaches: the first child that two vertices complete, with
    # the least such second vertex, or the first vertex in every mask.
    def fail(*args):
        raise AssertionError("the search bounded a node with two picks left")

    monkeypatch.setattr(_bb_py, "_packing_bound", fail)
    for masks, want, found in [
        ([0b0011, 0b1100], 2, [0b0101]),
        ([0b0011, 0b0110], 1, [0b0010]),
        ([0b000011, 0b001100, 0b110000], 3, []),
        ([0b0011, 0b0101, 0b1110], 2, [0b0011]),
    ]:
        witness = []
        assert _bb_py.min_hitting_size(masks, (1 << 6) - 1, 0, 3, witness=witness) == want
        assert witness == found


@pytest.mark.parametrize("masks, cand", [
    ([3, 5], -1), ([3, 5], 1 << 64), ([3, 1 << 70], 7), ([3, -1], 7), ([1 << 64], 7),
], ids=["cand-negative", "cand-2^64", "mask-bit-70", "mask-negative", "mask-2^64"])
def test_words_outside_64_bits_raise(kernel, masks, cand):
    with pytest.raises(OverflowError):
        kernel.min_hitting_size(masks, cand, 0, 3)
    with pytest.raises(OverflowError):
        lex(kernel, masks, cand, 2)


def test_full_64_bit_words_are_accepted(kernel):
    top = (1 << 64) - 1
    assert kernel.min_hitting_size([top, 1 << 63], top, 0, 3) == 1
    assert lex(kernel, [top, 1 << 63], top, 1) == [63]


@functools.cache
def greedy_cases():
    """(masks, cand_mask, the oracle's picks): random mask lists with
    repeats, on every candidate and on a restricted cand_mask (each mask
    keeps a candidate, so no error), and the distinct pair masks of every
    connected product up to 64 vertices, whose symmetry makes ties common."""
    rng = random.Random(30)
    cases = []
    for _ in range(300):
        nbits = rng.randrange(1, 65)
        masks = random_instance(rng, nbits, rng.randrange(0, 40))
        masks += rng.choices(masks, k=rng.randrange(len(masks) + 1)) if masks else []
        cand = (1 << nbits) - 1
        if rng.random() < 0.5:
            cand &= rng.getrandbits(nbits)
            masks = [m for m in masks if m & cand]
        rng.shuffle(masks)
        cases.append((masks, cand))
    products = connected_products()
    assert len(products) == 103
    cases += [(_bb_py.product_pair_masks(sizes), (1 << math.prod(sizes)) - 1)
              for sizes in products]
    return [(masks, cand, oracle_greedy_completion(masks, cand)) for masks, cand in cases]


def test_greedy_completion_matches_the_oracle(kernel, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for masks, cand, want in greedy_cases():
        assert kernel.greedy_completion(masks, cand) == want


def test_greedy_completion_checks_its_inputs(kernel):
    with pytest.raises(ValueError, match="no candidate"):
        kernel.greedy_completion([0b011, 0b100], 0b011)
    assert kernel.greedy_completion([], 0) == []
    top = (1 << 64) - 1
    assert kernel.greedy_completion([top, 1 << 63], top) == [63]
    for masks, cand in [([1 << 64], 1), ([1], -1), ([-1], 1), ([1], 1 << 64)]:
        with pytest.raises(OverflowError):
            kernel.greedy_completion(masks, cand)
    with pytest.raises(TypeError):
        kernel.greedy_completion([1.0], 1)


def test_lex_solution_matches_exhaustive_oracle(kernel):
    rng = random.Random(12)
    for _ in range(120):
        nbits = rng.randrange(3, 12)
        masks = random_instance(rng, nbits, rng.randrange(1, 9))
        size, _ = oracle_min_hitting(masks, nbits)
        want = oracle_lex_min(masks, nbits, size)
        got = lex(kernel, masks, (1 << nbits) - 1, size)
        assert got == want


def test_budget_below_minimum_yields_none(kernel):
    rng = random.Random(13)
    for _ in range(40):
        nbits = rng.randrange(3, 10)
        masks = random_instance(rng, nbits, rng.randrange(2, 8))
        size, _ = oracle_min_hitting(masks, nbits)
        if size == 0:
            continue
        assert lex(kernel, masks, (1 << nbits) - 1, size - 1) is None


def test_nothing_pending_yields_empty_set(kernel):
    assert lex(kernel, [], 0b111, 0) == []


def test_witness_must_be_a_list(kernel):
    with pytest.raises(TypeError):
        kernel.min_hitting_size([0b11], 0b11, 0, 2, witness=())


@pytest.mark.parametrize("lower, upper, error", [
    (2.0, 3, TypeError), (0, 3.0, TypeError), ("0", 3, TypeError), (0, None, TypeError),
    (0, 2 ** 70, OverflowError), (-(2 ** 70), 3, OverflowError),
    (0, 2 ** 31, OverflowError), (-(2 ** 31) - 1, 3, OverflowError),
], ids=["lower-float", "upper-float", "lower-str", "upper-none", "upper-2^70",
        "lower--2^70", "upper-2^31", "lower-below-int-min"])
def test_bounds_outside_a_c_int_raise(kernel, lower, upper, error):
    # `_bb` parses lower and upper as C ints; the pure kernel checks the same.
    with pytest.raises(error):
        kernel.min_hitting_size([3, 5], 7, lower, upper)
    with pytest.raises(error):
        kernel.min_hitting_size([3, 5], 7, lower=lower, upper=upper)


def test_bounds_at_the_c_int_limits_and_index_types_are_accepted(kernel):
    assert kernel.min_hitting_size([3, 5], 7, -(2 ** 31), 2 ** 31 - 1) == 1
    assert kernel.min_hitting_size([3, 5], 7, np.int64(0), np.int32(3)) == 1
    assert kernel.min_hitting_size([3, 5], 7, False, True) == 1  # lower >= upper
    assert lex(kernel, [3, 5], 7, np.int64(1)) == [0]


@pytest.mark.parametrize("budget, error", [(1.0, TypeError), (2 ** 31, OverflowError)])
def test_lex_budget_outside_a_c_int_raises(kernel, budget, error):
    with pytest.raises(error):
        lex(kernel, [3, 5], 7, budget)


def oracle_min_solutions(masks, nbits):
    """Every minimum hitting set, as masks."""
    size, _ = oracle_min_hitting(masks, nbits)
    out = []
    for combo in itertools.combinations(range(nbits), size):
        chosen = sum(1 << b for b in combo)
        if all(m & chosen for m in masks):
            out.append(chosen)
    return size, out


def test_every_minimum_completion_gives_the_same_certificate(kernel):
    # A completion only spares queries; the loop still returns the
    # lexicographically least minimum solution.
    rng = random.Random(16)
    for _ in range(60):
        nbits = rng.randrange(3, 11)
        masks = random_instance(rng, nbits, rng.randrange(1, 9))
        size, solutions = oracle_min_solutions(masks, nbits)
        want = oracle_lex_min(masks, nbits, size)
        cand = (1 << nbits) - 1
        assert lex(kernel, masks, cand, size) == want
        for comp in solutions:
            assert kernel.lex_min_hitting_set(masks, cand, size, min_size=kernel.min_hitting_size,
                                              completion=comp) == want


@pytest.mark.parametrize("masks, cand, budget, comp", [
    ([0b011, 0b100], 0b111, 2, 0b001),  # misses 0b100
    ([0b011, 0b100], 0b111, 2, 0b111),  # three members over a budget of two
    ([0b011, 0b100], 0b110, 2, 0b101),  # bit 0 is no candidate
    ([0b011, 0], 0b111, 2, 0b001),  # nothing hits the empty mask
], ids=["misses-a-mask", "too-large", "outside-candidates", "empty-mask"])
def test_a_completion_that_is_no_solution_raises(kernel, masks, cand, budget, comp):
    with pytest.raises(AssertionError):
        kernel.lex_min_hitting_set(masks, cand, budget, min_size=kernel.min_hitting_size,
                                   completion=comp)


def test_a_wrong_witness_raises(compiled_kernel):
    # A size query whose witness does not hit the masks it was asked about,
    # and one that succeeds with no witness, on each kernel's loop.  Budget
    # 3: the first step still queries (two members to place after it).
    # Both searches read an answer by one rule, so the orbit search's
    # leaves refuse the silent query too (on 3x3, upper 9), and a witness
    # outside 64 bits.
    def lying(masks, cand_mask, lower, upper, witness):
        witness.append(0)
        return lower

    def silent(masks, cand_mask, lower, upper, witness):
        return lower

    def huge(masks, cand_mask, lower, upper, witness):
        witness.append(1 << 64)
        return lower

    for kernel in (_bb_py, compiled_kernel):
        for query in (lying, silent, huge):
            with pytest.raises(AssertionError):
                kernel.lex_min_hitting_set([0b000011, 0b001100, 0b110000], 0b111111, 3,
                                           min_size=query)
        for query, refusal in ((silent, "without a witness"), (huge, "64 bits")):
            with pytest.raises(AssertionError, match=refusal):
                kernel.orbit_min_size(kernel.product_pair_masks((3, 3)), 0, 9, (3, 3), 4, 5,
                                      min_size=query)


def test_a_completion_move_off_the_contract_raises(kernel):
    # Masks that are not the pair masks of 2x3: the value swap of 0 and 1
    # on the second axis sends 1, the completion's least member, to 0 and
    # moves the completion {1, 3, 5} to {0, 4, 5}, so the step at v = 0
    # hands on {4, 5}, which misses 0b001100, and the check raises.
    # Budget 3: the move is tried at the first step, with two members to
    # place after it.
    with pytest.raises(AssertionError):
        kernel.lex_min_hitting_set([0b000011, 0b001100, 0b110000], 0b111111, 3,
                                   min_size=kernel.min_hitting_size, completion=0b101010,
                                   sizes=(2, 3))


def plain_lex(masks, cand, budget):
    """The certificate loop with every step answered by the exhaustive
    oracle: the least candidate v above the members so far that hits a
    pending mask and leaves masks that budget - members - 1 candidates
    above v can hit."""
    prefix = []
    pending = list(masks)
    while pending:
        need = budget - len(prefix) - 1
        for v in range(cand.bit_length()):
            if not cand >> v & 1 or all(m >> v & 1 == 0 for m in pending):
                continue
            above = cand >> (v + 1) << (v + 1)
            rest = [m & above for m in pending if m >> v & 1 == 0]
            found = oracle_min_hitting(rest, cand.bit_length()) if need >= 0 else None
            if found is not None and found[0] <= need:
                break
        else:
            return None
        prefix.append(v)
        pending = rest
        cand = above
    return prefix


def test_the_last_two_members_are_settled_without_a_query(kernel):
    # At every budget, a query is asked only with two or more members left
    # to place after v (lower >= 2), and the result is that of the loop
    # with every step answered exhaustively: the lexicographically least
    # minimum solution at the optimum, None below it.
    rng = random.Random(17)
    lowers = []

    def query(*args, lower, **kwargs):
        lowers.append(lower)
        return kernel.min_hitting_size(*args, lower=lower, **kwargs)

    for _ in range(80):
        nbits = rng.randrange(3, 11)
        masks = random_instance(rng, nbits, rng.randrange(1, 10))
        cand = (1 << nbits) - 1
        size, _ = oracle_min_hitting(masks, nbits)
        for budget in range(nbits + 1):
            got = kernel.lex_min_hitting_set(masks, cand, budget, min_size=query)
            assert got == plain_lex(masks, cand, budget)
            if budget <= size:
                assert got == oracle_lex_min(masks, nbits, budget)
    assert lowers and min(lowers) >= 2


def test_restricted_candidate_mask_respected(kernel):
    # forbid bit 0 everywhere; solutions must avoid it
    rng = random.Random(14)
    for _ in range(40):
        nbits = rng.randrange(4, 10)
        masks = [m | 2 for m in random_instance(rng, nbits, rng.randrange(1, 6))]
        cand = ((1 << nbits) - 1) & ~1
        size = kernel.min_hitting_size(masks, cand, 0, nbits + 1)
        sol = lex(kernel, masks, cand, size)
        assert sol is not None and 0 not in sol


def product_instance(sizes):
    f = CliqueFactors(sizes)
    return build_pair_table(tensor_clique_distances(f)).tolist(), f.vertex_count


def test_both_kernels_agree_on_random_instances(compiled_kernel):
    rng = random.Random(15)
    cases = []
    for _ in range(250):
        nbits = rng.randrange(3, 17)
        masks = random_instance(rng, nbits, rng.randrange(1, 14))
        cases.append((masks, (1 << nbits) - 1))
    # Products of cliques with a few vertices already taken, the way the
    # solver takes twin-forced vertices: out of the candidates, and every
    # mask they hit dropped.  Each step of the certificate loop poses the
    # same kind of instance.
    for sizes, taken in [((4, 4), 0b10001), ((5, 5), 0b10000100000), ((3, 3, 4), 0b100)]:
        masks, n = product_instance(sizes)
        cand = ((1 << n) - 1) & ~taken
        cases.append(([m for m in masks if m & taken == 0], cand))
    for masks, cand in cases:
        upper = cand.bit_count() + 1
        found_a, found_b = [], []
        a = _bb_py.min_hitting_size(masks, cand, 0, upper, witness=found_a)
        b = compiled_kernel.min_hitting_size(masks, cand, 0, upper, witness=found_b)
        assert (a, found_a) == (b, found_b)
        assert lex(_bb_py, masks, cand, a) == lex(compiled_kernel, masks, cand, a)
        # One to three picks under the incumbent at the root, where the
        # last-pick and two-pick rules choose the witness.
        for upper in (a + 1, a + 2, a + 3):
            found_a, found_b = [], []
            a_at = _bb_py.min_hitting_size(masks, cand, 0, upper, witness=found_a)
            b_at = compiled_kernel.min_hitting_size(masks, cand, 0, upper, witness=found_b)
            assert (a_at, found_a) == (b_at, found_b)


def recording(min_size, log):
    """min_size, logging each query as (masks, cand_mask, lower, upper)."""
    def query(masks, cand_mask, lower, upper, witness=None):
        log.append((list(masks), cand_mask, lower, upper))
        return min_size(masks, cand_mask, lower=lower, upper=upper, witness=witness)

    return query


def test_both_loops_ask_the_same_queries(compiled_kernel):
    # Both loops ask one search the same queries, in order, and return the
    # same sets, at budgets around the optimum, with and without the size
    # search's solution as the completion.  The compiled loop answers its
    # own search's queries without calling back, with the same results.
    rng = random.Random(18)
    loops = (_bb_py.lex_min_hitting_set, compiled_kernel.lex_min_hitting_set)
    asked = 0
    for _ in range(1000):
        nbits = rng.randrange(3, 21)
        masks = random_instance(rng, nbits, rng.randrange(1, 30))
        cand = (1 << nbits) - 1
        if rng.random() < 0.2:
            cand &= ~(1 << rng.randrange(nbits))
        witness = []
        size = compiled_kernel.min_hitting_size(masks, cand, 0, nbits + 1, witness=witness)
        for budget in (size - 1, size, size + 1):
            for completion in [None] + witness * (budget >= size):
                logs = ([], [])
                got = [loop(masks, cand, budget, completion=completion,
                            min_size=recording(compiled_kernel.min_hitting_size, log))
                       for loop, log in zip(loops, logs)]
                assert got[0] == got[1] and logs[0] == logs[1]
                assert compiled_kernel.lex_min_hitting_set(masks, cand, budget,
                                                           completion=completion) == got[0]
                asked += len(logs[0])
    assert asked >= 1000
    # The compiled kernel's loop is its own, in C.
    assert compiled_kernel.lex_min_hitting_set.__self__ is compiled_kernel


SMALL_PRODUCTS = [p for p in json.loads((ROOT / "data" / "clique_products.json").read_text(
    encoding="utf-8"))["products"] if math.prod(p["sizes"]) <= 40]


def solve_small_products():
    """The solver's result on each product of at most 40 vertices, against
    `data/clique_products.json`."""
    for row in SMALL_PRODUCTS:
        factors = CliqueFactors(row["sizes"])
        got = solver.exact_metric_dimension(factors)
        assert got == DimResult(row["dim"], tuple(row["certificate"])), row["sizes"]


def test_the_small_products_get_the_data_files_certificates(solver_kernel):
    solve_small_products()


def test_both_loops_ask_the_same_queries_on_the_small_products(compiled_kernel, monkeypatch):
    # With the products' value swaps, which each loop computes itself: the
    # completion move and the failure carry spare the same queries in both.
    logs = []
    for loop in (_bb_py.lex_min_hitting_set, compiled_kernel.lex_min_hitting_set):
        logs.append([])
        kernel = SimpleNamespace(
            lex_min_hitting_set=loop, orbit_min_size=compiled_kernel.orbit_min_size,
            product_pair_masks=compiled_kernel.product_pair_masks,
            greedy_completion=compiled_kernel.greedy_completion,
            min_hitting_size=recording(compiled_kernel.min_hitting_size, logs[-1]))
        monkeypatch.setattr(solver, "_default_kernel", kernel)
        solve_small_products()
    assert logs[0] == logs[1] and logs[0]


def test_the_compiled_loop_runs_a_product_without_python_frames(compiled_kernel):
    # Its own search, a completion and a product's sizes: the value swaps,
    # the completion move and the failure carry all run in C, so the call
    # starts no Python frame.  The completion is the data file's
    # certificate with every value reversed (an automorphism), so the
    # loop has to move it.
    sizes = (3, 3, 4)
    n = math.prod(sizes)
    row = next(p for p in SMALL_PRODUCTS if tuple(p["sizes"]) == sizes)
    masks = compiled_kernel.product_pair_masks(sizes)
    completion = sum(1 << (n - 1 - v) for v in row["certificate"])
    args = (masks, (1 << n) - 1, row["dim"])
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        got = compiled_kernel.lex_min_hitting_set(*args, min_size=None, completion=completion,
                                                  sizes=sizes)
    finally:
        sys.setprofile(None)
    assert calls == []
    assert got == row["certificate"]
    assert got == _bb_py.lex_min_hitting_set(*args, completion=completion, sizes=sizes)


ORBIT_PRODUCTS = sorted(set(SYMMETRIC_SIZES) | {tuple(p["sizes"]) for p in SMALL_PRODUCTS},
                        key=lambda sizes: (len(sizes), sizes))


def orbit_roots(monkeypatch):
    """The arguments of the symmetric size search's call on each of
    ORBIT_PRODUCTS, as the solver makes it; the search itself is skipped
    (nothing beats the seed, which is checked)."""
    roots = []
    with monkeypatch.context() as patched:
        patched.setattr(solver, "_orbit_min_size", lambda *args: roots.append(args) or (
            args[2], None))
        for sizes in ORBIT_PRODUCTS:
            factors = CliqueFactors(sizes)
            solver.exact_metric_dimension(factors, certificate=False)
    assert len(roots) == len(ORBIT_PRODUCTS)
    return roots


def test_both_orbit_searches_ask_the_same_leaves(compiled_kernel, monkeypatch):
    # Under each rule for orbit branching, both kernels ask a logging
    # min_size the same leaf queries, in order, and return the same size
    # and set, which the compiled search also returns answering its leaves
    # in place.  The set holds vertex 0, lies inside the product and hits
    # every mask.
    leaves = 0
    for masks, lower, upper, sizes in orbit_roots(monkeypatch):
        for rule in ORBIT_RULES:
            args = (masks, lower, upper, sizes, *rule)
            logs = ([], [])
            got = [kernel.orbit_min_size(*args, min_size=recording(
                compiled_kernel.min_hitting_size, log))
                for kernel, log in zip((_bb_py, compiled_kernel), logs)]
            assert got[0] == got[1] and logs[0] == logs[1], (sizes, rule)
            assert compiled_kernel.orbit_min_size(*args) == got[0], (sizes, rule)
            size, found = got[0]
            if found is not None:
                assert found & 1 and found >> math.prod(sizes) == 0
                assert found.bit_count() == size < upper and all(m & found for m in masks)
            leaves += len(logs[0])
    assert leaves >= len(ORBIT_PRODUCTS) * len(ORBIT_RULES)


@pytest.fixture(scope="module")
def plain_kernel(compiled_kernel, tmp_path_factory):
    """`_bb.c` built once more, by `setup.py`, with POPCNT_CLONES defined
    empty: the size search's bit counts in the default clone's code alone,
    which the loader's build never runs on a CPU with POPCNT (its ifunc
    picks the POPCNT clone)."""
    out = tmp_path_factory.mktemp("plain")
    done = subprocess.run([sys.executable, "setup.py", "build_ext", "--build-lib", str(out),
                           "--build-temp", str(out / "t")], cwd=ROOT,
                          env=dict(os.environ, CFLAGS="-DPOPCNT_CLONES="),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    (path,) = (out / "tensordim").iterdir()
    assert b"size_dfs.popcnt" not in path.read_bytes()
    # The last part of the name picks the init function, PyInit__bb.
    spec = importlib.util.spec_from_file_location("plain_build._bb", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_default_clone_matches_the_loaders_build(compiled_kernel, plain_kernel,
                                                     monkeypatch):
    # Size searches, certificates and greedy picks on random instances, and
    # the orbit search and certificate of every product of at most 40
    # vertices: the same answers from both builds.
    kernels = (compiled_kernel, plain_kernel)
    rng = random.Random(31)
    for _ in range(200):
        nbits = rng.randrange(3, 25)
        masks = random_instance(rng, nbits, rng.randrange(1, 30))
        cand = (1 << nbits) - 1
        if rng.random() < 0.2:
            cand &= ~(1 << rng.randrange(nbits))
        got = []
        for kernel in kernels:
            witness = []
            size = kernel.min_hitting_size(masks, cand, 0, nbits + 1, witness=witness)
            got.append((size, witness, kernel.lex_min_hitting_set(masks, cand, size)))
        assert got[0] == got[1]
    for masks, lower, upper, sizes in orbit_roots(monkeypatch):
        got = [kernel.orbit_min_size(masks, lower, upper, sizes, solver.ORBIT_MIN_CANDIDATES,
                                     solver.ORBIT_MIN_BUDGET) for kernel in kernels]
        assert got[0] == got[1], sizes
        dim = got[0][0]
        cand = (1 << math.prod(sizes)) - 1
        assert (compiled_kernel.lex_min_hitting_set(masks, cand, dim, sizes=sizes)
                == plain_kernel.lex_min_hitting_set(masks, cand, dim, sizes=sizes)), sizes
    for masks, cand, want in greedy_cases():
        assert plain_kernel.greedy_completion(masks, cand) == want


def test_orbit_search_checks_its_inputs(kernel):
    # The search forces vertex 0 and drops the masks it hits (0b0101 here).
    sizes = (2, 2)  # K_2 x K_2
    assert kernel.orbit_min_size([0b0110, 0b0101], 0, 3, sizes, 4, 5) == (2, 0b0011)
    assert kernel.orbit_min_size([0b0110], 2, 2, sizes, 4, 5) == (2, None)
    assert kernel.orbit_min_size([0b0101], 0, 3, sizes, 4, 5) == (1, 0b0001)
    with pytest.raises(OverflowError):
        kernel.orbit_min_size([1 << 64], 0, 3, sizes, 4, 5)
    with pytest.raises(OverflowError):
        kernel.orbit_min_size([0b0110], 0, 2 ** 31, sizes, 4, 5)
    with pytest.raises(TypeError):
        kernel.orbit_min_size([0b0110], 0, 3.0, sizes, 4, 5)


def test_product_pair_masks_checks_its_inputs(kernel):
    assert kernel.product_pair_masks((2, 3)) == list(dict.fromkeys(
        build_pair_table(tensor_clique_distances(CliqueFactors((2, 3)))).tolist()))
    assert kernel.product_pair_masks(()) == []
    # 2x2x3: two axes of size 2 make the product disconnected.
    with pytest.raises(ValueError, match="size 2"):
        kernel.product_pair_masks([2, 2, 3])


# Each product entry point, called with the given sizes and cand_mask on
# an instance that is otherwise valid.
SIZED_ENTRY_POINTS = {
    "product_pair_masks": lambda kernel, sizes, cand: kernel.product_pair_masks(sizes),
    "orbit_min_size": lambda kernel, sizes, cand: kernel.orbit_min_size(
        [0b0110], 0, 3, sizes, 4, 5),
    "lex_min_hitting_set": lambda kernel, sizes, cand: kernel.lex_min_hitting_set(
        [0b0110], cand, 2, sizes=sizes),
}


@pytest.mark.parametrize("entry", sorted(SIZED_ENTRY_POINTS))
@pytest.mark.parametrize("sizes, error", [
    ((3, 1), ValueError),  # a size below 2
    ((-3, 3), ValueError),
    ((1, 2.0), ValueError),  # checked in order: the 1 comes first
    ((3, 2.0), TypeError),  # not an integer
    ((3, "3"), TypeError),
    (3, TypeError),  # not a sequence
    ((5, 13), ValueError),  # 65 vertices
    ((2 ** 70,), ValueError),
    ((2,) * 7, ValueError),  # 128 vertices, seven axes
    ((65, 2.0), ValueError),  # the product is checked size by size
], ids=["one", "negative", "one-first", "float", "str", "int", "65", "huge", "seven-axes",
        "product-first"])
def test_both_kernels_check_sizes_alike(compiled_kernel, entry, sizes, error):
    # One check of the sizes per kernel, shared by the three entry points
    # that take them: the same exception type on both kernels.
    for kernel in (_bb_py, compiled_kernel):
        with pytest.raises(error):
            SIZED_ENTRY_POINTS[entry](kernel, sizes, 0b110)


# Only the certificate loop takes a cand_mask with the sizes.
@pytest.mark.parametrize("entry", ["lex_min_hitting_set"])
def test_a_candidate_outside_the_product_raises(kernel, entry):
    with pytest.raises(ValueError, match="outside the product"):
        SIZED_ENTRY_POINTS[entry](kernel, (2, 3), 1 << 6)


@pytest.mark.parametrize("cand", [0b111101111, 0b111101110, 0b000001111, 0b110111111],
                         ids=["no-4", "no-0-no-4", "low-ids", "no-6"])
def test_the_loop_checks_its_candidates_are_an_up_set(kernel, cand):
    # With sizes, the value swaps need every id of the product from the
    # least candidate up, so the loop refuses any other candidates before
    # it asks a query, with one message on both kernels.
    masks = kernel.product_pair_masks((3, 3))
    with pytest.raises(ValueError, match="outside the product or misses one above its least"):
        kernel.lex_min_hitting_set(masks, cand, 9, sizes=(3, 3))


def test_the_loop_takes_an_up_set_of_candidates(kernel):
    # Every up-set of 3x3's ids passes the check: at budget 9, the least
    # hitting set within the candidates, or None when there is none.
    masks = kernel.product_pair_masks((3, 3))
    for least in range(10):
        cand = (1 << 9) - (1 << least)
        want = kernel.lex_min_hitting_set(masks, cand, 9)
        assert kernel.lex_min_hitting_set(masks, cand, 9, sizes=(3, 3)) == want
