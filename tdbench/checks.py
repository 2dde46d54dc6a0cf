"""Output checks, written without the package's own checker.

Distances come from the definition of the tensor product: a walk of
length k joins two vertices exactly when every coordinate has a walk of
length k in its own clique.  In K_m (m >= 3) such a walk exists for k = 0
only between equal values, for k = 1 only between distinct values and for
every k >= 2; in K_2 it exists when k has the parity of "values differ".
The distance is the least such k, at most 3 in a connected product.
Arbitrary graphs use plain breadth-first search.  Nothing here imports
`tensordim`.
"""

from __future__ import annotations

import itertools
import json
import re

UNREACHABLE = -1
# LOWEST[s] is the least k whose bit is set in s, for s a subset of {0..3}.
LOWEST = [UNREACHABLE] + [(s & -s).bit_length() - 1 for s in range(1, 16)]


def closed_form(m: int, n: int) -> int | None:
    """The paper's metric dimension of K_m x K_n; None when disconnected."""
    m, n = min(m, n), max(m, n)
    if (m, n) == (2, 2):
        return None
    if m == 2 or n >= 2 * m - 1:
        return n - 1
    return -(-2 * (m + n - 2) // 3)


def _walk_lengths(size: int, a: int, b: int) -> int:
    """Bit k set when K_size has a walk of length k (k <= 3) from a to b."""
    if size == 2:
        return 0b0101 if a == b else 0b1010
    return 0b1101 if a == b else 0b1110


def product_distance_rows(sizes, probes) -> list[list[int]]:
    """Distance from each probe (flat id) to every vertex of the product.

    Vertices are enumerated row-major, last coordinate fastest.
    """
    rows = []
    for w in probes:
        coords = decode(sizes, w)
        row = [0b1111]
        for size, c in zip(sizes, coords):
            masks = [_walk_lengths(size, a, c) for a in range(size)]
            row = [r & m for r in row for m in masks]
        rows.append([LOWEST[r] for r in row])
    return rows


def decode(sizes, v: int) -> tuple[int, ...]:
    coords = []
    for size in reversed(sizes):
        v, c = divmod(v, size)
        coords.append(c)
    return tuple(reversed(coords))


def encode(sizes, coords) -> int:
    v = 0
    for size, c in zip(sizes, coords):
        v = v * size + c
    return v


def bfs_rows(n: int, edges, probes) -> list[list[int]]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    rows = []
    for s in probes:
        dist = [UNREACHABLE] * n
        dist[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if dist[w] == UNREACHABLE:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        rows.append(dist)
    return rows


def representations(rows) -> list[tuple[int, ...]]:
    """Per-vertex distance vectors, given one distance row per probe."""
    return list(zip(*rows))


def resolves(rows, n: int) -> bool:
    return len(set(representations(rows))) == n if rows else n <= 1


class ProductGraph:
    """Plain-Python view of K_{m_1} x ... x K_{m_t}; rows cached per probe."""

    def __init__(self, sizes):
        self.sizes = tuple(sizes)
        self.n = 1
        for s in self.sizes:
            self.n *= s
        self._rows: dict[int, list[int]] = {}

    def rows(self, probes) -> list[list[int]]:
        missing = [w for w in probes if w not in self._rows]
        for w, row in zip(missing, product_distance_rows(self.sizes, missing)):
            self._rows[w] = row
        return [self._rows[w] for w in probes]


class EdgeListGraph:
    """Plain-Python view of an edge-list file, with an exhaustive oracle.

    Distances are computed on first use, so that holding many graphs while
    the benchmark measures costs little memory.
    """

    def __init__(self, text: str):
        self.text = text
        self.n = int(text.split(None, 1)[0])
        self._table: list[list[int]] | None = None
        self._oracle: int | None = None

    def rows(self, probes) -> list[list[int]]:
        if self._table is None:
            lines = [ln.split("#", 1)[0].split() for ln in self.text.splitlines()]
            edges = [(int(a), int(b)) for a, b in filter(None, lines[1:])]
            self._table = bfs_rows(self.n, edges, range(self.n))
        return [self._table[w] for w in probes]

    def oracle_dim(self) -> int:
        """Smallest resolving set size by exhaustive subset scan."""
        if self._oracle is None:
            self._oracle = next(
                k for k in range(self.n + 1)
                for combo in itertools.combinations(range(self.n), k)
                if resolves(self.rows(combo), self.n))
        return self._oracle


# --- per-command checks; each returns a list of problems (empty when ok) ---

def _load(out: str):
    try:
        return json.loads(out), []
    except ValueError:
        return None, ["output is not JSON"]


def _certificate_problems(report: dict, graph, expect_dim=None) -> list[str]:
    ids = report.get("resolving_set_ids")
    if not isinstance(ids, list) or len(set(ids)) != len(ids):
        return ["missing or repeated certificate ids"]
    if not all(isinstance(v, int) and 0 <= v < graph.n for v in ids):
        return ["certificate id out of range"]
    problems = []
    if report.get("dim") != len(ids):
        problems.append(f"dim {report.get('dim')} != certificate size {len(ids)}")
    if expect_dim is not None and report.get("dim") != expect_dim:
        problems.append(f"dim {report.get('dim')} != expected {expect_dim}")
    if isinstance(graph, ProductGraph):
        coords = [list(decode(graph.sizes, v)) for v in ids]
        if report.get("resolving_set") != coords:
            problems.append("coordinate tuples do not match the ids")
    if not resolves(graph.rows(ids), graph.n):
        problems.append("certificate does not resolve")
    return problems


def check_product_dim(rc: int, out: str, graph: ProductGraph) -> list[str]:
    """`dim --tensor ... --exact`; two factors must meet the closed form."""
    if rc != 0:
        return [f"exit code {rc}"]
    report, problems = _load(out)
    if problems:
        return problems
    expect = closed_form(*graph.sizes) if len(graph.sizes) == 2 else None
    return _certificate_problems(report, graph, expect)


def check_bounds(rc: int, out: str, graph: ProductGraph) -> list[str]:
    """`bounds --exact-up-to ...`: lower <= exact <= certified upper."""
    if rc != 0:
        return [f"exit code {rc}"]
    report, problems = _load(out)
    if problems:
        return problems
    b = report["bounds"]
    lower = max(b["largest_factor_lower"]["value"], b["subproduct_lower"]["value"])
    upper = b["construction_upper"]
    exact = report["exact"]
    if not exact.get("computed"):
        return ["exact value not computed"]
    if not upper.get("verified"):
        problems.append("construction upper bound not verified")
    if not lower <= exact["dim"] <= upper["value"]:
        problems.append(f"bounds out of order: {lower} <= {exact['dim']} <= {upper['value']}")
    if max(graph.sizes) - 1 > lower:
        problems.append("reported lower bound below the largest-factor bound")
    return problems


def check_construct(rc: int, out: str, graph: ProductGraph) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    report, problems = _load(out)
    if problems:
        return problems
    formula = closed_form(*graph.sizes)
    if report.get("formula") != formula or report.get("size") != formula:
        problems.append(f"size {report.get('size')} / formula {report.get('formula')} "
                        f"!= closed form {formula}")
    if report.get("verified") is not True:
        problems.append("construction not verified")
    return problems + _certificate_problems(
        dict(report, dim=report.get("size")), graph, formula)


UNRESOLVED = re.compile(r"unresolved pair: ids (\d+) (\d+)")


def check_verify(rc: int, out: str, graph, wset, expect_resolving: bool) -> list[str]:
    """`verify --set`: exit 0 and "resolving", or exit 1 and a true collision."""
    if expect_resolving:
        if rc != 0 or out.strip() != "resolving":
            return [f"expected a resolving verdict, got exit {rc}: {out.strip()[:80]}"]
        return [] if resolves(graph.rows(wset), graph.n) else ["set does not resolve"]
    match = UNRESOLVED.match(out)
    if rc != 1 or match is None:
        return [f"expected an unresolved pair, got exit {rc}: {out.strip()[:80]}"]
    x, y = int(match.group(1)), int(match.group(2))
    reps = representations(graph.rows(wset))
    if x == y or reps[x] != reps[y]:
        return [f"reported pair {x} {y} is resolved"]
    return []


def check_table(rc: int, out: str, max_m: int, max_n: int) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    lines = out.splitlines()
    if lines[:1] != ["m,n,formula,construction_size,verified,exact,agree"]:
        return ["bad table header"]
    expected = [(m, n) for m in range(2, max_m + 1) for n in range(m, max_n + 1)]
    rows = [line.split(",") for line in lines[1:]]
    if [(int(r[0]), int(r[1])) for r in rows] != expected:
        return ["table rows do not cover the requested range"]
    problems = []
    for m_, n_, formula, size, verified, exact, agree in rows:
        want = closed_form(int(m_), int(n_))
        want_text = "disconnected" if want is None else str(want)
        ok = formula == want_text and agree == "true"
        if want is not None:
            ok = ok and size == want_text and verified == "true"
        if exact not in ("", want_text):
            ok = False
        if not ok:
            problems.append(f"row {m_}x{n_} disagrees with the closed form")
    return problems


def check_graph_dim(rc: int, out: str, graph: EdgeListGraph, oracle_up_to: int) -> list[str]:
    """`dim FILE --exact` or `--greedy`; exact meets the oracle on small graphs."""
    if rc != 0:
        return [f"exit code {rc}"]
    report, problems = _load(out)
    if problems:
        return problems
    expect = None
    if report.get("method") == "exact" and graph.n <= oracle_up_to:
        expect = graph.oracle_dim()
    return _certificate_problems(report, graph, expect)
