"""Acceptance gate: the eight headline guarantees, one test each.

Each test prints a single PASS/FAIL line (visible with -s or -rA) and
enforces its runtime budget.  These are end-to-end checks; the unit
suites cover the same machinery piece by piece.
"""

import itertools
import random
import time

from tensordim import (
    CliqueFactors,
    all_pairs_distances,
    build_bipartite_minus_matching,
    check_k2_kn_isomorphism,
    construct_resolving,
    diameter,
    dim_formula,
    exact_metric_dimension,
    exhaustive_metric_dimension,
    is_resolving,
    lower_bound_largest_factor,
    lower_bound_subproduct,
    projection,
    representation,
    swap_witness,
    tensor_clique_distances,
    tensor_of_cliques,
    upper_bound_construction,
)

from conftest import random_connected_edges
from tensordim import Graph


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_1_exact_search_matches_closed_form_up_to_six(solver_kernel):
    # Every K_m x K_n with 2 <= m <= n and mn <= 64, the exact search's
    # limit, which the solver searches up from the proven bound max(m, n) - 1.
    t0 = time.perf_counter()
    pinned = {(3, 3): 3, (3, 4): 4, (3, 5): 4, (4, 4): 4, (4, 5): 5,
              (4, 6): 6, (5, 6): 6, (6, 6): 7}
    checked = 0
    ok = True
    for m in range(2, 9):
        for n in range(m, 64 // m + 1):
            if (m, n) == (2, 2):
                continue
            f = CliqueFactors((m, n))
            res = exact_metric_dimension(f)
            want = dim_formula(m, n).dim
            if m == 2:
                ok &= want == n - 1
            if (m, n) in pinned:
                ok &= want == pinned[(m, n)]
            ok &= res.dim == want
            ok &= bool(is_resolving(tensor_clique_distances(f), list(res.certificate)))
            checked += 1
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 600
    report("exact search equals closed form, 2<=m<=n, mn<=64", ok,
           f"{checked} products, {elapsed:.1f}s (budget 600s)")


def test_2_every_construction_certifies_up_to_forty():
    t0 = time.perf_counter()
    checked = 0
    failures = 0
    ok = True
    for m in range(2, 41):
        for n in range(m, 41):
            if (m, n) == (2, 2):
                continue
            try:
                wset = construct_resolving(m, n)
            except Exception:
                failures += 1
                continue
            ok &= len(wset) == dim_formula(m, n).dim
            checked += 1
    elapsed = time.perf_counter() - t0
    ok &= failures == 0
    ok &= elapsed < 300
    report("built resolving sets certify and match the closed form, up to 40", ok,
           f"{checked} built, {failures} failures, {elapsed:.1f}s (budget 300s)")


def test_3_diameter_by_factor_shape():
    ok = diameter(tensor_of_cliques(CliqueFactors((2, 2)))) is None
    for n in range(3, 7):
        ok &= diameter(tensor_of_cliques(CliqueFactors((2, n)))) == 3
    cases = 0
    for t in (2, 3):
        for sizes in itertools.combinations_with_replacement(range(3, 6), t):
            ok &= diameter(tensor_of_cliques(CliqueFactors(sizes))) == 2
            cases += 1
    report("diameter by factor shape", ok,
           f"disconnected 2x2, four diameter-3 cases, {cases} diameter-2 cases")


def test_4_deficient_projection_pins_the_reported_pair():
    # Whenever a projection misses two factor values, some same-line pair
    # collides.  The sampler keeps every surviving cross-line populated so
    # that the first reported collision is such a pair and nothing else.
    rng = random.Random(404)
    trials = 200
    good = 0
    for _ in range(trials):
        m = rng.randrange(3, 6)
        n = rng.randrange(3, 6)
        f = CliqueFactors((m, n))
        dist = tensor_clique_distances(f)
        axis = rng.randrange(2)
        other = 1 - axis
        dead = rng.sample(range(f.sizes[axis]), 2)
        base = [v for v in range(f.vertex_count)
                if f.coords_of(v)[axis] not in dead]
        while True:
            removed = rng.sample(base, rng.randrange(0, f.sizes[other] - 1))
            wset = sorted(set(base) - set(removed))
            lines = {f.coords_of(v)[other] for v in wset}
            if f.sizes[other] - len(lines) <= 1:
                break
        assert len(projection(wset, axis, f)) <= f.sizes[axis] - 2
        verdict = is_resolving(dist, wset)
        if verdict:
            continue
        cx, cy = f.coords_of(verdict.x), f.coords_of(verdict.y)
        differs = [i for i in range(2) if cx[i] != cy[i]]
        if differs != [axis]:
            continue
        if {cx[axis], cy[axis]} & projection(wset, axis, f):
            continue
        good += 1
    ok = good == trials
    report("two missing values in a coordinate pin the reported pair", ok,
           f"{good}/{trials} trials")


def test_5_isolated_pair_yields_equal_representation_witness():
    rng = random.Random(505)
    trials = 200
    good = 0
    for _ in range(trials):
        m = rng.randrange(3, 6)
        n = rng.randrange(3, 6)
        f = CliqueFactors((m, n))
        dist = tensor_clique_distances(f)
        u, x = rng.sample(range(m), 2)
        v, y = rng.sample(range(n), 2)
        pool = [f.flat_index((a, b)) for a in range(m) for b in range(n)
                if a not in (u, x) and b not in (v, y)]
        extra = rng.sample(pool, rng.randrange(0, len(pool) + 1))
        wset = sorted({f.flat_index((u, v)), f.flat_index((x, y)), *extra})
        witness = swap_witness(wset, f)
        if witness is None:
            continue
        a, b = witness
        if representation(dist, a, wset) == representation(dist, b, wset):
            good += 1
    ok = good == trials
    report("coordinate-isolated member pairs yield colliding swap vertices", ok,
           f"{good}/{trials} trials")


def test_6_bipartite_minus_matching_identification():
    ok = all(check_k2_kn_isomorphism(n) for n in range(2, 9))
    dims = {}
    for n in range(3, 7):
        res = exact_metric_dimension(
            all_pairs_distances(build_bipartite_minus_matching(n)))
        dims[n] = res.dim
        ok &= res.dim == n - 1
    report("bipartite-minus-matching equals the product with a factor of two", ok,
           f"isomorphism for n=2..8, dimensions {dims}")


def test_7_three_factor_bound_sandwich():
    ok = True
    details = []
    for sizes in [(3, 3, 3), (3, 3, 4)]:
        t0 = time.perf_counter()
        f = CliqueFactors(sizes)
        dist = tensor_clique_distances(f)
        lo_corner = lower_bound_largest_factor(f)
        lo_sub = lower_bound_subproduct(f)
        upper_set = upper_bound_construction(f)
        ok &= bool(is_resolving(dist, upper_set))
        res = exact_metric_dimension(f)
        elapsed = time.perf_counter() - t0
        ok &= lo_corner <= lo_sub <= res.dim <= len(upper_set)
        ok &= elapsed < 120
        details.append(f"{sizes}: {lo_corner}<={lo_sub}<={res.dim}<={len(upper_set)}"
                       f" in {elapsed:.1f}s")
    report("three-factor bound sandwich", ok, "; ".join(details))


def test_8_branch_and_bound_agrees_with_enumeration():
    rng = random.Random(808)
    trials = 50
    good = 0
    for _ in range(trials):
        n = rng.randrange(4, 13)
        g = Graph(n, random_connected_edges(rng, n, rng.uniform(0.15, 0.5)))
        dist = all_pairs_distances(g)
        enum = exhaustive_metric_dimension(dist)
        bb = exact_metric_dimension(dist)
        if enum.dim != bb.dim:
            continue
        if not is_resolving(dist, list(enum.certificate)):
            continue
        if not is_resolving(dist, list(bb.certificate)):
            continue
        if enum.certificate != bb.certificate:
            continue
        good += 1
    ok = good == trials
    report("branch-and-bound agrees with plain enumeration", ok,
           f"{good}/{trials} random connected graphs up to 12 vertices")
