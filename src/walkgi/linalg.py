"""The two exact computations the pipeline runs on a graph's adjacency
matrix A: its determinant and its walk counts up to the horizon.

Everything here is overflow-proof by construction: entries are plain Python
ints, so matrix powers and determinants that break fixed-width machine
arithmetic (negative "walk counts", nonsense float determinants) come out
exact.

``determinant`` runs Bareiss elimination on the 0/1 rows of A, built
straight from the graph's bit rows.  ``walk_powers`` packs each row of a
power into a single Python int with fixed-width, byte-aligned lanes
(Kronecker substitution), so one row of A*P is a sum of big ints.  The lanes
stay exact for two reasons: the packed ints are arbitrary precision, so the
sum never wraps, and every lane holds at least the bit length of Delta**n,
where Delta is the maximum degree and n bounds the horizon.  A walk count of
length k is at most Delta**k and all counts are nonnegative, so no lane ever
carries into its neighbour.  Every power of A is symmetric, so each packed
row is unpacked only from the diagonal lane on: the kernel returns upper
triangles, and its Frobenius traces are twice the upper sum less the
diagonal.  The horizon test eliminates the Hankel trace matrix one row per
power, exactly and without pivoting, which a Gram matrix of independent
powers allows because its leading minors are positive.  The dense
reference both kernels are tested against lives in ``tests/oracles.py``.
"""

from __future__ import annotations

from itertools import repeat
from operator import mul

from .graph import Graph


def determinant(G: Graph) -> int:
    """Exact determinant of G's adjacency matrix via Bareiss fraction-free
    elimination.

    Every division is an exact integer division and intermediate entries are
    minors of the input, so their sizes stay polynomially bounded.  Pivots
    are chosen by a full search of the eliminating column (smallest nonzero
    magnitude); row swaps flip the tracked sign.
    """
    n = G.n
    M = [[(row >> j) & 1 for j in range(n)] for row in G.rows]
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


def walk_powers(G: Graph) -> tuple[int, list[list[list[int]]]]:
    """The horizon m of G and the upper triangles of A^1..A^m for the
    adjacency matrix A of G, as ``(m, powers)``.

    m is the least k such that I, A, ..., A^k are linearly dependent, i.e.
    the number of distinct eigenvalues of A; walks longer than m carry no
    further information.  Every power of A is symmetric, so only the upper
    triangle is unpacked: ``powers[k - 1][i]`` holds columns i..n-1 of row i,
    and ``powers[k - 1][i][j - i]`` is the number of walks of length k
    between vertices i and j, for i <= j.  The horizon is found along the
    way.  The Frobenius Gram matrix of the powers is the Hankel matrix
    [tr A^(i+j)], singular exactly when they are dependent; power k adds
    tr A^(2k) = <A^k, A^k> and tr A^(2k-1) = <A^k, A^(k-1)>, each taken as
    twice the sum over the upper triangle less the diagonal.  Singularity is
    found by ``_HankelPivots``, one exact elimination step per power.
    """
    n = G.n
    delta = max(row.bit_count() for row in G.rows)
    lane = max(1, ((delta ** n).bit_length() + 7) // 8)
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
