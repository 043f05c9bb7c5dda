"""Exact integer matrix arithmetic on arbitrary-precision integers.

Everything here is overflow-proof by construction: entries are plain Python
ints, so matrix powers and determinants that break fixed-width machine
arithmetic (negative "walk counts", nonsense float determinants) come out
exact.

``walk_powers`` is the one kernel the pipeline uses for adjacency powers.  It
packs each row of a power into a single Python int with fixed-width,
byte-aligned lanes (Kronecker substitution), so one row of A*P is a sum of
big ints.  The lanes stay exact for two reasons: the packed ints are
arbitrary precision, so the sum never wraps, and every lane holds at least
the bit length of Delta**K, where Delta is the maximum degree and K bounds
the largest power computed (n when the horizon is searched for, else m).  A
walk count of length k is at most Delta**k and all counts are nonnegative,
so no lane ever carries into its neighbour.  Every power of A is symmetric,
so each packed row is unpacked only from the diagonal lane on: the kernel
returns upper triangles, and its Frobenius traces are twice the upper sum
less the diagonal.  The horizon test eliminates the Hankel trace matrix one
row per power, exactly and without pivoting, which a Gram matrix of
independent powers allows because its leading minors are positive.
``mat_mul``, ``mat_pow`` and ``distinct_eigenvalue_count`` are the plain
dense reference the kernel is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import gcd
from operator import mul
from typing import Iterable, Sequence

from .graph import Graph


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


def determinant(A: IntMatrix) -> int:
    """Exact integer determinant via Bareiss fraction-free elimination.

    Every division is an exact integer division and intermediate entries are
    minors of the input, so their sizes stay polynomially bounded.  Pivots
    are chosen by a full search of the eliminating column (smallest nonzero
    magnitude); row swaps flip the tracked sign.
    """
    n = A.n
    M = [list(row) for row in A.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot_row = -1
        pivot_abs = 0
        for i in range(k, n):
            v = M[i][k]
            if v and (pivot_row < 0 or abs(v) < pivot_abs):
                pivot_row = i
                pivot_abs = abs(v)
        if pivot_row < 0:
            return 0
        if pivot_row != k:
            M[k], M[pivot_row] = M[pivot_row], M[k]
            sign = -sign
        Mk = M[k]
        pk = Mk[k]
        for i in range(k + 1, n):
            Mi = M[i]
            mik = Mi[k]
            if mik:
                for j in range(k + 1, n):
                    Mi[j] = (pk * Mi[j] - mik * Mk[j]) // prev
                Mi[k] = 0
            elif pk != prev:
                for j in range(k + 1, n):
                    Mi[j] = (pk * Mi[j]) // prev
        prev = pk
    return sign * M[n - 1][n - 1]


def walk_powers(G: Graph, m: int | None = None) -> tuple[int, list[list[list[int]]]]:
    """Upper triangles of A^1..A^m for the adjacency matrix A of G, as
    ``(m, powers)``.

    Every power of A is symmetric, so only the upper triangle is unpacked:
    ``powers[k - 1][i]`` holds columns i..n-1 of row i, and
    ``powers[k - 1][i][j - i]`` is the number of walks of length k between
    vertices i and j, for i <= j.  With ``m`` None the horizon is found along
    the way: m is the least k such that I, A, ..., A^k are linearly
    dependent, i.e. the number of distinct eigenvalues of A.  The Frobenius
    Gram matrix of those powers is the Hankel matrix [tr A^(i+j)], singular
    exactly when they are dependent; power k adds tr A^(2k) = <A^k, A^k> and
    tr A^(2k-1) = <A^k, A^(k-1)>, each taken as twice the sum over the upper
    triangle less the diagonal.  Singularity is found by ``_HankelPivots``,
    one exact elimination step per power.
    """
    n = G.n
    if m is not None and m < 1:
        raise ValueError(f"walk horizon must be >= 1, got {m}")
    delta = max(row.bit_count() for row in G.rows)
    lane = max(1, ((delta ** (n if m is None else m)).bit_length() + 7) // 8)
    bits = 8 * lane
    lanes = [slice(k, k + lane) for k in range(0, n * lane, lane)]
    neighbours = [tuple(G.neighbors(i)) for i in range(n)]
    packed = [sum(1 << (bits * j) for j in nbrs) for nbrs in neighbours]
    powers: list[list[list[int]]] = []
    hankel = _HankelPivots(n)  # tr A^0 = n; tr A^1 = 0 (no loops)
    odd_trace = 0
    while True:
        rows = []
        for i, r in enumerate(packed):
            data = (r >> (bits * i)).to_bytes((n - i) * lane, "little")
            upper = map(data.__getitem__, lanes[:n - i])
            rows.append(list(map(int.from_bytes, upper, repeat("little"))))
        powers.append(rows)
        k = len(powers)
        if k == m:
            return m, powers
        if m is None:
            if k > 1:
                odd_trace = _frobenius(rows, powers[-2])
            if hankel.add(odd_trace, _frobenius(rows, rows)) == 0:
                return k, powers
            if k == n:
                raise AssertionError("powers up to n stayed independent; impossible for a square matrix")
        packed = [sum(map(packed.__getitem__, nbrs)) for nbrs in neighbours]


def _frobenius(P: list[list[int]], Q: list[list[int]]) -> int:
    """<P, Q> for symmetric P and Q given by their upper triangles."""
    upper = diagonal = 0
    for p, q in zip(P, Q):
        upper += sum(map(mul, p, q))
        diagonal += p[0] * q[0]
    return 2 * upper - diagonal


class _HankelPivots:
    """Leading principal minors of the Hankel matrix H = [t_(i+j)], one more
    per ``add``.

    Fraction-free (Bareiss) elimination without pivoting.  After l steps,
    row k's entry in column j >= l is the minor of H on rows 0..l-1, k and
    columns 0..l-1, j, so the last step leaves det H[0..k] as row k's pivot.
    H is symmetric, so row l's stored entries double as column l's, and a new
    row costs O(k^2) exact integer steps instead of a fresh O(k^3)
    determinant.  Every division is exact (Sylvester's identity).  Every
    divisor is an earlier pivot: a leading minor of the Gram matrix of
    linearly independent powers, hence positive, so no pivot search is
    needed as long as the caller stops at the first zero.
    """

    def __init__(self, t0: int) -> None:
        self.traces = [t0]
        self.rows = [[t0]]  # rows[l][j - l] = a_lj after l steps, j >= l

    def add(self, t_odd: int, t_even: int) -> int:
        """Append t_(2k-1) and t_(2k); return det H[0..k]."""
        traces = self.traces
        traces += (t_odd, t_even)
        k = len(self.rows)
        row = traces[k:]  # raw row k: t_k .. t_2k
        prev = 1
        for l, pivot_row in enumerate(self.rows):
            a_kl = row[l]
            pivot_row.append(a_kl)  # a_lk = a_kl by symmetry
            pivot = pivot_row[0]
            for j in range(l + 1, k + 1):
                row[j] = (pivot * row[j] - a_kl * pivot_row[j - l]) // prev
            prev = pivot
        self.rows.append(row[k:])
        return row[k]


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
