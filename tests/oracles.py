"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way and shares no
code with the package internals: cofactor expansion instead of fraction-free
elimination, walk enumeration and dense matrix products instead of packed
lanes, an echelon rank test on flattened powers instead of Hankel trace
minors, permutation enumeration instead of pruned backtracking, decoders
and the superseded WS1/LW1 encoders written from the byte layouts.  The one
exception is ``dense_walk_signature``, which hands dense powers to the
package's own canonical sorting (``WalkSignature.from_powers``) so that a
signature can be had at any chosen horizon.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from walkgi import Graph, WalkSignature, build_graph


@dataclass(frozen=True, slots=True)
class IntMatrix:
    """Dense square matrix of arbitrary-precision signed integers."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n == 0:
            raise ValueError("empty matrix")
        for row in rows:
            if len(row) != n:
                raise ValueError(f"matrix is not square: {n} rows, row of length {len(row)}")
            for v in row:
                if not isinstance(v, int):
                    raise ValueError(f"non-integer entry {v!r}")

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.rows)

    def is_symmetric(self) -> bool:
        rows = self.rows
        return all(rows[i][j] == rows[j][i] for i in range(self.n) for j in range(i + 1, self.n))


def adjacency_matrix(G: Graph) -> IntMatrix:
    """Symmetric 0/1 matrix with zero diagonal mirroring G's adjacency."""
    n = G.n
    return IntMatrix(tuple(tuple((row >> j) & 1 for j in range(n)) for row in G.rows))


def mat_mul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    """Exact matrix product."""
    if A.n != B.n:
        raise ValueError(f"dimension mismatch: {A.n} vs {B.n}")
    cols = tuple(zip(*B.rows))
    return IntMatrix(tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                           for row in A.rows))


def mat_pow(A: IntMatrix, k: int) -> IntMatrix:
    """Exact k-th power, k >= 1.

    Entry (i, j) of adjacency_matrix(G)**k counts the walks of length k from
    vertex i to vertex j.  Iterated multiplication: the exponents this
    pipeline needs are tiny, so clarity beats squaring tricks.
    """
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    P = A
    for _ in range(k - 1):
        P = mat_mul(P, A)
    return P


def distinct_eigenvalue_count(A: IntMatrix) -> int:
    """Number of distinct eigenvalues of a symmetric integer matrix.

    Equals the degree of the minimal polynomial over the rationals, found as
    the least k such that I, A, ..., A^k are linearly dependent when each
    power is flattened to an n^2-vector.  The rank test is exact: vectors are
    reduced against an integer echelon basis by cross-multiplication, with
    content GCDs stripped to keep entries small.
    """
    if not A.is_symmetric():
        raise ValueError("matrix is not symmetric")
    n = A.n
    basis: list[tuple[int, list[int]]] = []  # (leading index, primitive vector)

    def try_insert(vec: Sequence[int]) -> bool:
        """Reduce vec against the basis; insert if independent.

        Returns True when vec is linearly dependent on the basis.
        """
        v = list(vec)
        for lead, b in basis:
            c = v[lead]
            if c:
                p = b[lead]
                v = [p * x - c * y for x, y in zip(v, b)]
        for lead, x in enumerate(v):
            if x:
                v = _primitive(v)
                if v[lead] < 0:
                    v = [-y for y in v]
                basis.append((lead, v))
                basis.sort(key=lambda item: item[0])
                return False
        return True

    try_insert([1 if i == j else 0 for i in range(n) for j in range(n)])
    P = A
    for k in range(1, n + 1):
        if try_insert([x for row in P.rows for x in row]):
            return k
        if k < n:
            P = mat_mul(P, A)
    raise AssertionError("powers up to n stayed independent; impossible for a square matrix")


def _primitive(v: Iterable[int]) -> list[int]:
    v = list(v)
    g = 0
    for x in v:
        if x:
            g = gcd(g, x)
            if g == 1:
                return v
    if g > 1:
        v = [x // g for x in v]
    return v


def dense_upper_powers(G: Graph, m: int):
    """Upper triangles of A^1..A^m, in the layout ``walk_powers`` returns."""
    A = adjacency_matrix(G)
    P = A
    powers = []
    for k in range(1, m + 1):
        if k > 1:
            P = mat_mul(P, A)
        powers.append([x for i, row in enumerate(P.rows) for x in row[i:]])
    return powers


def dense_walk_signature(G: Graph, m: int) -> WalkSignature:
    """G's walk signature at a chosen horizon m, from dense powers."""
    return WalkSignature.from_powers(dense_upper_powers(G, m))


def cofactor_determinant(rows):
    """Laplace expansion along the first row. Exponential; keep n small."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * cofactor_determinant(minor)
    return total


def bareiss_first_pivot_determinant(rows):
    """Fraction-free elimination with first-nonzero pivoting, one entry at a
    time.

    The same algorithm and pivot rule as the package determinant, on plain
    entries instead of packed rows, so a lane-packing bug cannot hide.
    """
    n = len(rows)
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (pivot * m[i][j] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def fraction_gauss_determinant(rows):
    """Plain Gaussian elimination over Fraction with first-nonzero pivoting.

    A different algorithm family than the package's integer-preserving
    elimination.
    """
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= factor * m[k][j]
    assert det.denominator == 1
    return int(det)


def fraction_inverse(rows):
    """The inverse of a square integer matrix as rows of Fractions, by plain
    Gauss-Jordan elimination over Fraction with first-nonzero pivoting, or
    None when the matrix is singular."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot_row is None:
            return None
        m[k], m[pivot_row] = m[pivot_row], m[k]
        pivot = m[k][k]
        m[k] = [x / pivot for x in m[k]]
        for i in range(n):
            if i != k and m[i][k] != 0:
                factor = m[i][k]
                m[i] = [x - factor * y for x, y in zip(m[i], m[k])]
    return [row[n:] for row in m]


def count_walks(G: Graph, u: int, v: int, k: int) -> int:
    """Number of walks of length k from u to v, by direct enumeration."""
    if k == 0:
        return 1 if u == v else 0
    total = 0
    for w in G.neighbors(u):
        total += count_walks(G, w, v, k - 1)
    return total


def exhaustive_isomorphic(G: Graph, H: Graph):
    """Try every permutation. Returns a certificate tuple or None.

    Factorial with no pruning: intended for n <= 7.
    """
    if G.n != H.n:
        return None
    n = G.n
    g_edges = set(G.edges())
    for perm in itertools.permutations(range(n)):
        if all(H.has_edge(perm[u], perm[v]) == ((u, v) in g_edges)
               for u in range(n) for v in range(u + 1, n)):
            return perm
    return None


def naive_srg(G: Graph):
    """(n, d, alpha, beta) by counting common neighbours pairwise, or None."""
    n = G.n
    if n < 2:
        return None
    degrees = {G.degree(u) for u in range(n)}
    if len(degrees) != 1:
        return None
    d = degrees.pop()
    alphas, betas = set(), set()
    for u in range(n):
        for v in range(u + 1, n):
            common = sum(1 for w in G.neighbors(u) if G.has_edge(v, w))
            (alphas if G.has_edge(u, v) else betas).add(common)
    if not alphas or not betas:
        return None  # complete or edgeless: parameters degenerate
    if len(alphas) != 1 or len(betas) != 1:
        return None
    return (n, d, alphas.pop(), betas.pop())


def loop_validate(rows) -> None:
    """The graph invariants checked one edge at a time: raise ValueError
    for a row outside 0..n-1, a loop or an asymmetric pair, naming it.
    Plain Python over every row and every set bit, with no string tricks."""
    n = len(rows)
    full = (1 << n) - 1
    for i, row in enumerate(rows):
        if row < 0 or row & ~full:
            raise ValueError(f"adjacency row {i} references vertices outside 0..{n - 1}")
        if (row >> i) & 1:
            raise ValueError(f"loop at vertex {i}")
    for i, row in enumerate(rows):
        m = row
        while m:
            j = (m & -m).bit_length() - 1
            if not (rows[j] >> i) & 1:
                raise ValueError(f"asymmetric adjacency between vertices {i} and {j}")
            m &= m - 1


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def random_permutation(rng: random.Random, n: int):
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(perm)


def relabeled(G: Graph, perm) -> Graph:
    return build_graph(G.n, [(perm[u], perm[v]) for u, v in G.edges()])


def automorphism_orbits(G: Graph) -> list[tuple[int, ...]]:
    """Vertex orbits of Aut(G), from networkx's VF2++ matcher: v joins the
    orbit of u when G with u marked is isomorphic to G with v marked.  Each
    orbit ascending, orbits ordered by least vertex, as ``vertex_orbits``
    returns them.  Needs networkx."""
    import networkx as nx

    base = nx.Graph()
    base.add_nodes_from(range(G.n), mark=False)
    base.add_edges_from(G.edges())

    def marked(u: int):
        H = base.copy()
        H.nodes[u]["mark"] = True
        return H

    orbits: list[list[int]] = []
    for v in range(G.n):
        for orbit in orbits:
            if nx.vf2pp_is_isomorphic(marked(orbit[0]), marked(v), node_label="mark"):
                orbit.append(v)
                break
        else:
            orbits.append([v])
    return [tuple(orbit) for orbit in orbits]


def networkx_isomorphic(G: Graph, H: Graph) -> bool:
    """Whether G and H are isomorphic, by networkx's VF2++ matcher.  Needs
    networkx."""
    import networkx as nx

    def convert(G: Graph):
        X = nx.Graph()
        X.add_nodes_from(range(G.n))
        X.add_edges_from(G.edges())
        return X

    return nx.vf2pp_is_isomorphic(convert(G), convert(H))


def automorphism_count(G: Graph) -> int:
    """|Aut(G)|, by enumerating every isomorphism of G onto itself with
    networkx's VF2++ matcher.  Needs networkx."""
    import networkx as nx

    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges())
    return sum(1 for _ in nx.vf2pp_all_isomorphisms(H, H))


def edge_swapped(G: Graph, swaps: int, rng: random.Random) -> Graph:
    """G after ``swaps`` random degree-preserving swaps: edges {a, b} and
    {c, d} become {a, d} and {c, b} when both are new non-loops."""
    edges = set(G.edges())
    done = 0
    while done < swaps:
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        if rng.random() < 0.5:
            c, d = d, c
        new = (min(a, d), max(a, d)), (min(c, b), max(c, b))
        if a == d or c == b or new[0] == new[1] or new[0] in edges or new[1] in edges:
            continue
        edges -= {(a, b) if a < b else (b, a), (c, d) if c < d else (d, c)}
        edges |= set(new)
        done += 1
    return build_graph(G.n, edges)


# ------------------------------------------------------ walk encodings
#
# The WS2/LW2 decoders and the first published WS1/LW1 encoders, written
# from the byte layouts alone: a uint is 4 bytes big-endian; an int is a
# 4-byte length and then that many bytes of big-endian two's complement, the
# fewest that hold it.


def _uint(x: int) -> bytes:
    return x.to_bytes(4, "big")


def _int(x: int) -> bytes:
    length = 1
    while not -(1 << (8 * length - 1)) <= x < 1 << (8 * length - 1):
        length += 1
    return _uint(length) + x.to_bytes(length, "big", signed=True)


def ws1(sig: WalkSignature) -> bytes:
    """WS1: n, m, then every tuple of every row in full, in order."""
    return b"".join([b"WS1", _uint(sig.n), _uint(sig.m),
                     *(_int(x) for row in sig.rows for tup in row for x in tup)])


def lw1(parts: Sequence[tuple[int, WalkSignature]]) -> bytes:
    """LW1 of the (multiplicity, part) pairs ``decode_lw2`` returns: n, then
    every part's WS1 bytes, once per vertex, sorted, each after its length."""
    encodings = sorted(enc for count, sig in parts for enc in [ws1(sig)] * count)
    return b"".join([b"LW1", _uint(len(encodings)), *(_uint(len(enc)) + enc for enc in encodings)])


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data, self.pos = data, 0

    def take(self, k: int) -> bytes:
        if self.pos + k > len(self.data):
            raise ValueError(f"truncated at byte {self.pos}")
        self.pos += k
        return self.data[self.pos - k:self.pos]

    def uint(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def signed(self) -> int:
        length = self.uint()
        value = int.from_bytes(self.take(length), "big", signed=True)
        if _int(value) != _uint(length) + self.data[self.pos - length:self.pos]:
            raise ValueError(f"int at byte {self.pos - length} is not minimal")
        return value

    def done(self) -> bool:
        return self.pos == len(self.data)


def decode_ws2(data: bytes) -> WalkSignature:
    """The signature WS2 bytes encode.  Rejects any layout the encoder never
    writes: a table out of order or with repeats, runs out of table order,
    a row not of n entries, rows out of order, or trailing bytes."""
    r = _Reader(data)
    if r.take(3) != b"WS2":
        raise ValueError("not WS2")
    n, m, t = r.uint(), r.uint(), r.uint()
    table = [tuple(r.signed() for _ in range(m)) for _ in range(t)]
    if any(a >= b for a, b in zip(table, table[1:])):
        raise ValueError("table not strictly sorted")
    rows = []
    for _ in range(n):
        row, last = [], -1
        for _ in range(r.uint()):
            index, count = r.uint(), r.uint()
            if not last < index < t or count == 0:
                raise ValueError(f"bad run ({index}, {count})")
            row += [table[index]] * count
            last = index
        if len(row) != n:
            raise ValueError(f"row of {len(row)} entries, n = {n}")
        rows.append(tuple(row))
    if not r.done() or rows != sorted(rows) or {tup for row in rows for tup in row} != set(table):
        raise ValueError("not canonical WS2")
    return WalkSignature(m=m, rows=tuple(rows))


def decode_lw2(data: bytes) -> list[tuple[int, WalkSignature]]:
    """The (multiplicity, part) pairs LW2 bytes encode, in their order.
    Rejects parts out of order or repeated, multiplicities that do not sum
    to n, or trailing bytes."""
    r = _Reader(data)
    if r.take(3) != b"LW2":
        raise ValueError("not LW2")
    n = r.uint()
    parts, encodings = [], []
    while not r.done():
        count = r.uint()
        enc = r.take(r.uint())
        if count == 0 or (encodings and encodings[-1] >= enc):
            raise ValueError("parts not strictly sorted")
        encodings.append(enc)
        parts.append((count, decode_ws2(enc)))
    if sum(count for count, _ in parts) != n:
        raise ValueError(f"multiplicities do not sum to n = {n}")
    return parts
