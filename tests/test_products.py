"""The committed exact values of the products of cliques, checked without
a search.

`data/clique_products.json` lists all 103 connected products of two or
more cliques with at most 64 vertices, with their dimension and
lexicographically least minimum resolving set.
`benchmarks/check_products.py` recomputes them; here each certificate is
checked from coordinates and each value against the bounds and the closed
form.
"""

import json
from pathlib import Path

import pytest

from tensordim import (
    CliqueFactors,
    dim_formula,
    is_resolving,
    lower_bound_largest_factor,
    lower_bound_lines,
    lower_bound_subproduct,
    upper_bound_construction,
)

DATA = Path(__file__).resolve().parents[1] / "data" / "clique_products.json"
PRODUCTS = json.loads(DATA.read_text(encoding="utf-8"))["products"]
# The multi-factor products whose line bound is their exact value.
LINE_BOUND_EXACT = {(2, 3, n) for n in range(5, 11)} | {(2, 4, 7), (2, 4, 8)}


def connected_products(limit):
    """Sorted sizes of every connected product of two or more cliques with
    at most `limit` vertices, written out as nested ranges."""
    out = []
    for t in range(2, limit.bit_length()):
        for sizes in _sorted_tuples(t, 2, limit):
            if sizes.count(2) <= 1:
                out.append(sizes)
    return out


def _sorted_tuples(t, low, limit):
    if t == 0:
        yield ()
        return
    for m in range(low, limit + 1):
        if m ** t > limit:
            break
        for rest in _sorted_tuples(t - 1, m, limit // m):
            yield (m,) + rest


def test_the_file_lists_every_connected_product_up_to_64_vertices():
    assert [tuple(p["sizes"]) for p in PRODUCTS] == connected_products(64)
    assert len(PRODUCTS) == 103


@pytest.mark.parametrize("product", PRODUCTS, ids=lambda p: "x".join(map(str, p["sizes"])))
def test_committed_value_is_certified_and_within_the_bounds(product):
    factors = CliqueFactors(product["sizes"])
    dim, cert = product["dim"], product["certificate"]
    assert len(cert) == len(set(cert)) == dim
    assert cert == sorted(cert) and all(0 <= v < factors.vertex_count for v in cert)
    assert is_resolving(factors, cert)
    line = lower_bound_lines(factors)
    assert line <= dim
    if factors.t == 2:
        assert dim == dim_formula(*factors.sizes).dim
        assert line == lower_bound_largest_factor(factors)
        return
    assert lower_bound_largest_factor(factors) < line
    assert (line == dim) == (factors.sizes in LINE_BOUND_EXACT)
    if min(factors.sizes) >= 3:
        assert lower_bound_subproduct(factors) <= dim <= len(upper_bound_construction(factors))


def test_committed_multi_factor_values():
    # The 24 multi-factor values of the ROADMAP's Baseline table.
    dims = {tuple(p["sizes"]): p["dim"] for p in PRODUCTS if len(p["sizes"]) >= 3}
    assert dims == {
        (2, 3, 3): 6, (2, 3, 4): 7, (2, 3, 5): 8, (2, 3, 6): 10, (2, 3, 7): 12,
        (2, 3, 8): 14, (2, 3, 9): 16, (2, 3, 10): 18, (2, 4, 4): 8, (2, 4, 5): 10,
        (2, 4, 6): 11, (2, 4, 7): 12, (2, 4, 8): 14, (2, 5, 5): 11, (2, 5, 6): 12,
        (3, 3, 3): 6, (3, 3, 4): 7, (3, 3, 5): 9, (3, 3, 6): 11, (3, 3, 7): 14,
        (3, 4, 4): 8, (3, 4, 5): 9, (4, 4, 4): 8, (2, 3, 3, 3): 12,
    }
