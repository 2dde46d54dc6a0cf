"""Graphs, clique-factor coordinates, and shortest-path tables.

Vertices are the integers 0..n-1.  Products of cliques use a row-major
mixed-radix vertex codec: in K_{m_1} x ... x K_{m_t} the vertex with
coordinates (c_1, ..., c_t) gets the flat id
((c_1 * m_2 + c_2) * m_3 + c_3) * ..., so the last coordinate varies
fastest.  Every module and the command line speak this codec.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# numpy is imported where a distance table is built or read, so a product
# of cliques handled in coordinate space never loads it.

# Unreachable sentinel in distance tables.  It is the maximal value of the
# uint16 storage dtype and is never used in arithmetic, only in comparisons.
INF = 65535
# all_pairs_distances folds its held BFS layers into the table before they
# would unpack past this many bytes.
BFS_FOLD_BYTES = 1 << 22
# The neighbours of every vertex that has none.
_NO_NEIGHBOURS: frozenset[int] = frozenset()


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1.

    Only the vertices that have neighbours hold a neighbour set, so a large
    vertex count with few edges costs memory by its edges, not by n.
    """

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj: defaultdict[int, set[int]] = defaultdict(set)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self._adj = {v: frozenset(s) for v, s in adj.items()}

    @classmethod
    def _from_sets(cls, n: int, neighbours: dict[int, Iterable[int]]) -> Graph:
        """The graph whose vertex v has `neighbours[v]` as its neighbours,
        taken as checked: symmetric, in range, loop-free and not empty."""
        g = cls.__new__(cls)
        g.n = n
        g._adj = {v: frozenset(s) for v, s in neighbours.items()}
        return g

    def neighbors(self, v: int) -> frozenset[int]:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range for {self.n} vertices")
        return self._adj.get(v, _NO_NEIGHBOURS)

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors(u)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as a sorted pair, in ascending order."""
        for u in sorted(self._adj):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v)

    def edge_count(self) -> int:
        return sum(map(len, self._adj.values())) // 2

    @property
    def connected(self) -> bool:
        """Whether one search from vertex 0 reaches every vertex; no
        distance table is built.  The empty graph counts as connected, and
        a graph with two or more vertices and an isolated one is not, at
        once."""
        if self.n <= 1:
            return True
        if len(self._adj) < self.n:
            return False
        seen = {0}
        stack = [0]
        while stack:
            for w in self._adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self._adj.items())))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count()})"


@dataclass(frozen=True)
class CliqueFactors:
    """Ordered clique sizes (m_1, ..., m_t) defining a product of cliques.

    Every size must be at least 2 and at least one factor is required.
    """

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.sizes)
        if len(sizes) == 0:
            raise ValueError("at least one clique factor is required")
        if any(s < 2 for s in sizes):
            raise ValueError(f"every clique factor must have size >= 2, got {sizes}")
        object.__setattr__(self, "sizes", sizes)

    @property
    def t(self) -> int:
        return len(self.sizes)

    @property
    def vertex_count(self) -> int:
        return math.prod(self.sizes)

    @property
    def n(self) -> int:
        """Vertex count, under the same name as DistanceMatrix.n."""
        return self.vertex_count

    @property
    def connected(self) -> bool:
        """Whether the product is connected: at most one factor may have
        size 2, the only bipartite clique (Weichsel)."""
        return self.sizes.count(2) <= 1

    def flat_index(self, coords: Sequence[int]) -> int:
        """Row-major flat id of a coordinate tuple."""
        if len(coords) != self.t:
            raise ValueError(f"expected {self.t} coordinates, got {len(coords)}")
        flat = 0
        for c, m in zip(coords, self.sizes):
            if not 0 <= c < m:
                raise ValueError(f"coordinate {c} out of range for factor of size {m}")
            flat = flat * m + c
        return flat

    def coords_of(self, v: int) -> tuple[int, ...]:
        """Coordinate tuple of a flat vertex id (inverse of flat_index)."""
        if not 0 <= v < self.vertex_count:
            raise ValueError(f"vertex id {v} out of range")
        coords = [0] * self.t
        for i in range(self.t - 1, -1, -1):
            v, coords[i] = divmod(v, self.sizes[i])
        return tuple(coords)

    def coordinates(self) -> np.ndarray:
        """(vertex_count, t) array whose row v is coords_of(v)."""
        import numpy as np

        grid = np.unravel_index(np.arange(self.vertex_count), self.sizes)
        return np.stack(grid, axis=1).astype(np.int32)


class DistanceMatrix:
    """Immutable all-pairs distance table with INF marking unreachable."""

    __slots__ = ("values", "connected")

    def __init__(self, values: np.ndarray):
        import numpy as np

        values = np.ascontiguousarray(values, dtype=np.uint16)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError("distance table must be square")
        values.setflags(write=False)
        self.values = values
        self.connected = not bool((values == INF).any())

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def d(self, u: int, v: int) -> int:
        return int(self.values[u, v])

    def __repr__(self) -> str:
        return f"DistanceMatrix(n={self.n}, connected={self.connected})"


def build_clique(n: int) -> Graph:
    """Complete graph K_n."""
    if n < 1:
        raise ValueError("clique needs at least one vertex")
    return Graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def build_bipartite_minus_matching(n: int) -> Graph:
    """Complete bipartite graph K_{n,n} minus a perfect matching.

    Parts are {0..n-1} and {n..2n-1}; vertex i is matched to (and therefore
    not adjacent to) vertex n+i.
    """
    if n < 2:
        raise ValueError("needs parts of size at least 2")
    edges = ((i, n + j) for i in range(n) for j in range(n) if i != j)
    return Graph(2 * n, edges)


def tensor_product(g: Graph, h: Graph) -> Graph:
    """Tensor (categorical) product: (u,v) ~ (x,y) iff u~x in g and v~y in h.

    The product vertex (u, v) gets flat id u * h.n + v.
    """
    edges = []
    for u, x in g.edges():
        for v, y in h.edges():
            edges.append((u * h.n + v, x * h.n + y))
            edges.append((u * h.n + y, x * h.n + v))
    return Graph(g.n * h.n, edges)


def tensor_of_cliques(factors: CliqueFactors) -> Graph:
    """Iterated tensor product of cliques under the mixed-radix codec."""
    g = build_clique(factors.sizes[0])
    for m in factors.sizes[1:]:
        g = tensor_product(g, build_clique(m))
    return g


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """BFS from every vertex at once on Python-int bitsets; unreachable
    entries hold INF.

    reach[v] starts as {v}, and each round ORs into it the sets of v's
    neighbours from the round before, so after `level` rounds it holds the
    vertices within `level` of v.  The search stops on the first round
    that changes nothing.  Each round's rows are serialized into one bytes
    layer.  Over the R layers held (rounds 0..R-1), w lies in reach[v] in
    exactly R - d(v, w) of them, and in none when it is unreachable, so
    numpy reads the table off the count of set bits in the unpacked
    layers.  The held layers are folded into that count whenever they
    would unpack past BFS_FOLD_BYTES, so memory stays at a few n x n
    arrays, never diameter x n^2.

    Cost: O(diameter x (n + m)) big-int operations on n-bit ints, plus
    O(diameter x n^2) unpacked bits.  Against one list BFS per source (2-CPU
    x86-64 host), dense graphs gain the most: K_200 and K_2 x K_2 x K_100
    take 20-45x less time.  A path is the worst case of a level-synchronous
    BFS: one on 1000 vertices takes about 2.5x as long (0.6 s).
    """
    import numpy as np

    n = g.n
    nbrs = [tuple(g.neighbors(v)) for v in range(n)]
    width = (n + 7) // 8
    # At most 255 layers per fold, so _count_bits can count in uint8.
    per_fold = min(255, max(1, BFS_FOLD_BYTES // max(1, n * n)))
    count = np.zeros((n, n), dtype=np.uint16)
    held: list[bytes] = []
    rounds = 0
    reach = [1 << v for v in range(n)]
    rows = [r.to_bytes(width, "little") for r in reach]
    # A row that a round leaves unchanged holds v's whole component, so
    # only the rows that grew in the last round are recomputed.
    grew = range(n)
    while True:
        held.append(b"".join(rows))
        rounds += 1
        if len(held) == per_fold:
            count += _count_bits(held, n, width)
            held = []
        nxt = reach[:]
        active, grew = grew, []
        for v in active:
            r = reach[v]
            for u in nbrs[v]:
                r |= reach[u]
            if r != reach[v]:
                nxt[v] = r
                rows[v] = r.to_bytes(width, "little")
                grew.append(v)
        if not grew:
            break
        reach = nxt
    if held:
        count += _count_bits(held, n, width)
    return DistanceMatrix(np.where(count == 0, INF, rounds - count))


def _count_bits(layers: list[bytes], n: int, width: int) -> np.ndarray:
    """(n, n) uint8 count of the (at most 255) layers that set each bit; a
    layer holds n rows of `width` bytes, least significant bit first."""
    import numpy as np

    packed = np.frombuffer(b"".join(layers), dtype=np.uint8).reshape(len(layers), n, width)
    bits = np.unpackbits(packed, axis=2, count=n, bitorder="little")
    return bits.sum(axis=0, dtype=np.uint8)


def clique_distance_columns(factors: CliqueFactors, cols: Sequence[int]) -> np.ndarray:
    """(n, len(cols)) uint16 distances from every vertex to each vertex in cols.

    A connected product of cliques needs no graph: distinct vertices are at
    distance 1 when they differ in every coordinate, and otherwise at
    distance 2, except that when one factor has size 2, vertices that differ
    in that coordinate but share another are at distance 3 (a common
    neighbour would need a third value there).  The test suite compares this
    rule with BFS on the materialized graph.  Disconnected products (two or
    more factors of size 2) are sliced from their BFS table.
    """
    import numpy as np

    cols = np.asarray(cols, dtype=np.intp)
    if not factors.connected:
        return all_pairs_distances(tensor_of_cliques(factors)).values[:, cols]
    sizes, n, k = factors.sizes, factors.vertex_count, len(cols)
    col_coords = np.unravel_index(cols, sizes)

    def along(axis: int, block: np.ndarray) -> np.ndarray:
        # An (m_axis, k) block, shaped to broadcast over the vertex grid.
        shape = [1] * len(sizes) + [k]
        shape[axis] = sizes[axis]
        return block.reshape(shape)

    # share[v, j]: v and cols[j] agree in some coordinate.
    share = np.zeros(sizes + (k,), dtype=bool)
    for axis, c in enumerate(col_coords):
        share |= along(axis, np.arange(sizes[axis])[:, None] == c)
    table = share.reshape(n, k).astype(np.uint16)
    table += 1
    if 2 in sizes:
        axis = sizes.index(2)
        differ = along(axis, np.arange(2)[:, None] != col_coords[axis])
        table += (share & differ).reshape(n, k)
    table[cols, np.arange(k)] = 0
    return table


def clique_resolving_keys(factors: CliqueFactors, w: Sequence[int]) -> list[int]:
    """One int per vertex of a connected product of cliques, equal for two
    vertices exactly when their distance vectors to the members `w` agree.

    By the rule of clique_distance_columns, a non-member v is at distance 1
    from the members it differs from on every axis, and at distance 2 from
    the others, or 3 from those it differs from on the size-2 axis.  So
    its vector is fixed by S(v), the bitset of the members that share a
    coordinate with it (the OR of one member bitset per value of v), and,
    when S(v) is not empty, by its value on the size-2 axis.  The vector
    gives both back: bit j of S(v) is set when the distance to w[j] is not
    1, and then that distance is 3 exactly when v's size-2 value differs
    from w[j]'s.  So a non-member's key is S(v), plus a tag bit above the
    member bits for value 1 on the size-2 axis when S(v) is not empty.  A
    member is the one vertex at distance 0 from itself, so member j gets
    the key -1 - j, which no other vertex has.
    """
    if not factors.connected:
        raise ValueError("the distance rule needs a connected product")
    k = len(w)
    coords = [factors.coords_of(v) for v in w]
    keys = [0]
    for axis, m in enumerate(factors.sizes):
        bits = [0] * m
        for j, c in enumerate(coords):
            bits[c[axis]] |= 1 << j
        if m == 2:
            bits[1] |= 1 << k
        # Row-major: the new axis varies fastest.
        keys = [key | b for key in keys for b in bits]
    if 2 in factors.sizes:
        # A vertex that shares no coordinate with a member is at distance 1
        # from all of them, whatever its size-2 value.
        low = (1 << k) - 1
        keys = [key if key & low else 0 for key in keys]
    for j, v in enumerate(w):
        keys[v] = -1 - j
    return keys


def tensor_clique_distances(factors: CliqueFactors) -> DistanceMatrix:
    """Distance table of the tensor product of cliques: the all-columns case
    of clique_distance_columns (BFS for disconnected products)."""
    if not factors.connected:
        return all_pairs_distances(tensor_of_cliques(factors))
    return DistanceMatrix(clique_distance_columns(factors, range(factors.vertex_count)))


def diameter(g: Graph) -> int | None:
    """Largest finite distance, or None when the graph is disconnected."""
    dist = all_pairs_distances(g)
    if not dist.connected:
        return None
    if g.n == 0:
        raise ValueError("diameter of the empty graph is undefined")
    return int(dist.values.max())


def check_k2_kn_isomorphism(n: int) -> bool:
    """Check that K_2 x K_n equals K_{n,n} minus a perfect matching.

    The map (0, j) -> part-A vertex j, (1, j) -> part-B vertex n + j is the
    identity under the flat codec, so the two edge sets are compared
    directly.
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    prod = tensor_of_cliques(CliqueFactors((2, n)))
    model = build_bipartite_minus_matching(n)
    return prod == model


class EdgeListError(ValueError):
    """Malformed edge-list input; carries the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_edge_list(lines: str | Iterable[str]) -> Graph:
    """Parse the plain edge-list format.

    The first data line holds "<n> <m>"; the next m data lines hold one
    "u v" edge each.  Blank lines and text after "#" are ignored.  Accepts
    a whole document as one string or any iterable of lines.  One pass adds
    each edge to the neighbour sets, where an edge already present is a
    duplicate, in either order of its ends.
    """
    if isinstance(lines, str):
        lines = lines.splitlines()
    header: tuple[int, int] | None = None
    # Sets are made as their vertex first appears, so a header's count
    # allocates nothing before the edges are read.
    adj: defaultdict[int, set[int]] = defaultdict(set)
    count = 0
    lineno = 0
    for lineno, raw in enumerate(lines, start=1):
        text = raw.partition("#")[0]
        parts = text.split()
        if not parts:
            continue
        try:
            a, b = map(int, parts)
        except ValueError:  # a bad integer, or not two fields
            raise EdgeListError(lineno, f"expected two integers, got {text.strip()!r}") from None
        if header is None:
            if a < 0 or b < 0:
                raise EdgeListError(lineno, "vertex and edge counts must be nonnegative")
            header = n, m = a, b
            continue
        if count == m:
            raise EdgeListError(lineno, f"more than the declared {m} edges")
        if not (0 <= a < n and 0 <= b < n):
            raise EdgeListError(lineno, f"edge ({a}, {b}) out of range for {n} vertices")
        if a == b:
            raise EdgeListError(lineno, f"loop at vertex {a}")
        near = adj[a]
        if b in near:
            raise EdgeListError(lineno, f"duplicate edge ({a}, {b})")
        near.add(b)
        adj[b].add(a)
        count += 1
    if header is None:
        raise EdgeListError(lineno + 1, "missing header line")
    if count != m:
        raise EdgeListError(lineno + 1, f"expected {m} edges, got {count}")
    # Only the vertices an edge names get a neighbour set, so a large
    # declared count costs nothing.
    return Graph._from_sets(n, adj)


def read_edge_list(path: str | Path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh)


def write_edge_list(g: Graph, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{g.n} {g.edge_count()}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")
