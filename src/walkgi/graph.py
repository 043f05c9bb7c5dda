"""Simple undirected graphs with bit-row adjacency, plus strong-regularity
detection and local complementation.

Vertices are dense integers 0..n-1.  Each adjacency row is a Python int used
as a bitmask, so neighbourhood operations cost O(n/word) and graphs are cheap
to copy and hash.  Graphs are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_VERTICES = 4096


@dataclass(frozen=True, slots=True)
class SrgParams:
    """Parameters (n, d, alpha, beta) of a strongly regular graph."""

    n: int
    d: int
    alpha: int
    beta: int


@dataclass(frozen=True, slots=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    ``rows[i]`` is the neighbourhood of vertex i as a bitmask.  Construction
    validates the invariants: no loops, symmetric adjacency, no vertex index
    outside 0..n-1.
    """

    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        rows = self.rows
        n = len(rows)
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
        if min(rows) < 0 or max(rows) >> n:
            i = next(i for i, row in enumerate(rows) if row < 0 or row >> n)
            raise ValueError(f"adjacency row {i} references vertices outside 0..{n - 1}")
        # The n x n 0/1 text of the matrix with both axes reversed (row n-1-r
        # as its binary digits, column n-1-c first): a relabelling, so it is
        # loop-free and symmetric exactly when the adjacency is.  Both checks
        # are string operations, with no Python step per edge.
        spec = f"0{n}b"
        text = "".join([format(row, spec) for row in reversed(rows)])
        diagonal = text[::n + 1]
        if "1" in diagonal:
            raise ValueError(f"loop at vertex {n - 1 - diagonal.rindex('1')}")
        transpose = "".join([text[c::n] for c in range(n)])
        if text != transpose:
            r, c = divmod(next(k for k, (a, b) in enumerate(zip(text, transpose)) if a != b), n)
            raise ValueError(f"asymmetric adjacency between vertices {n - 1 - r} and {n - 1 - c}")

    @property
    def n(self) -> int:
        return len(self.rows)

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def neighbors(self, u: int) -> Iterator[int]:
        m = self.rows[u]
        while m:
            v = (m & -m).bit_length() - 1
            yield v
            m &= m - 1

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as pairs (u, v) with u < v, in lexicographic order."""
        for u, row in enumerate(self.rows):
            m = row >> (u + 1)
            while m:
                v = u + 1 + ((m & -m).bit_length() - 1)
                yield (u, v)
                m &= m - 1


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from a vertex count and edge pairs.

    Pairs are symmetrized and duplicates collapse.  Loops and out-of-range
    indices are rejected.
    """
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
    rows = [0] * n
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        if i == j:
            raise ValueError(f"loop edge ({i}, {j}) not allowed")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(tuple(rows))


def degree_sequence(G: Graph) -> tuple[int, ...]:
    """Vertex degrees in non-descending order."""
    return tuple(sorted(row.bit_count() for row in G.rows))


def srg_parameters(G: Graph) -> SrgParams | None:
    """Return SrgParams if G is strongly regular, else None.

    Requires a common degree d, a single common-neighbour count alpha over
    adjacent pairs and a single count beta over distinct nonadjacent pairs.
    Complete and edgeless graphs return None: beta (resp. alpha) would be
    vacuous there.
    """
    n = G.n
    degrees = {row.bit_count() for row in G.rows}
    if len(degrees) != 1:
        return None
    d = degrees.pop()
    edge_total = G.edge_count()
    if edge_total == 0 or edge_total == n * (n - 1) // 2:
        return None
    alpha: int | None = None
    beta: int | None = None
    for u in range(n):
        row_u = G.rows[u]
        for v in range(u + 1, n):
            common = (row_u & G.rows[v]).bit_count()
            if (row_u >> v) & 1:
                if alpha is None:
                    alpha = common
                elif alpha != common:
                    return None
            else:
                if beta is None:
                    beta = common
                elif beta != common:
                    return None
    assert alpha is not None and beta is not None
    return SrgParams(n, d, alpha, beta)


def local_complement(G: Graph, u: int) -> Graph:
    """Complement adjacency among the distinct neighbours of u.

    All other pairs, including every pair involving u itself, keep their
    adjacency.  Applying the operation twice at the same vertex restores G.
    """
    if not 0 <= u < G.n:
        raise ValueError(f"vertex {u} out of range for n={G.n}")
    mask = G.rows[u]
    rows = list(G.rows)
    m = mask
    while m:
        v = (m & -m).bit_length() - 1
        rows[v] ^= mask & ~(1 << v)
        m &= m - 1
    return Graph(tuple(rows))
