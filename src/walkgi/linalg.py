"""The exact computations the pipeline runs on a graph's adjacency matrix A:
its determinant, the determinants of its n local complements, and its walk
counts up to the horizon.

Everything here is overflow-proof by construction: entries are plain Python
ints, so matrix powers and determinants that break fixed-width machine
arithmetic (negative "walk counts", nonsense float determinants) come out
exact.

Both kernels pack each matrix row into a single Python int with fixed-width,
byte-aligned lanes (Kronecker substitution): lane j of a row holds its entry
in column j, and the row is the integer sum of v_j * X**j with X = 2**bits.
A row operation is then one big-int expression instead of a loop over
entries.  The packed ints are arbitrary precision, so no sum or product
wraps; what keeps the lanes apart is a width that holds every value a lane
can take.

``determinant`` runs Bareiss elimination on the packed rows of A, pivoting
on the first nonzero entry of each column.  Its divisions are exact for a
whole row at once, its entries are signed minors of A, and each step leaves
the eliminated column zero and drops that lane.  A lane holds the 0/1
Hadamard bound (n+1)^((n+1)/2) / 2^n on a minor of an n x n 0/1 matrix,
plus a sign bit.

``lc_determinants`` packs G once and builds no ``Graph`` for a local
complement G_u unless A is singular.  G_u differs from G only in the rows
v in N(u), which become row_v ^ row_u ^ {v}; on the block N x N,
N = N(u) with d = |N|, A_u = A + M_u with M_u = J - I - 2 A_N.  When A is
nonsingular, the matrix determinant lemma gives
det(A_u) = det(A) det(Z_N), where Z = A_u A^-1 and its d x d block
Z_N = I + M_u (A^-1)_NN.  Fraction-free Gauss-Jordan elimination on
[A | I], once per graph, gives p = det(PA), P the permutation of its pivot
swaps, and B = p A^-1, whose entries are minors of A.  Then
K_u = p Z_N = p I + M_u B_NN, and its row c is
p e_c - B_NN[c] - 2 (sum of B_NN[w] over w in N(c) & N): a few packed row
sums per row.  M_u's J term drops out: it adds to every row the sum of
the rows of B_NN, which is row u of A B = p I on the columns N, zero as
u is not in N.  Bareiss elimination of K_u started from prev = p rather
than 1 keeps each entry p times the entry the elimination of Z_N would
keep, and ends at p det(Z_N) = sign(P) det(A_u).  Each such entry is
p times a minor of Z on rows S and columns T inside N.  That is +- the
determinant of the n x n 0/1 matrix with A_u's rows in S and A's rows
outside T: it is A times the matrix with Z's rows in S and unit rows
outside T.  So every division is exact, and
the lane holds every entry when it holds the determinants of n x n 0/1
matrices whose rows are rows of A or of A_u.  The same steps continue the
elimination of the bordered matrix [[A, -E], [M_u E^T, I]] past its first
n pivots, E the n x d matrix of the unit columns e_w, w in N.  Nothing is
divided by a power of det A at the end, so no entry outgrows those lanes.

A zero row of A stays zero in every A_u, as no N(u) holds its vertex, so
every det(G_u) is then 0.  Any other singular A has no inverse.  There each
det(G_u) is taken by its definition, ``determinant(local_complement(G, u))``.

One lane width serves A, its scaled inverse and every K_u: the 0/1 bound
depends on n alone, so it holds for every 0/1 matrix of order n.

``walk_powers`` computes each row of A*P as a sum of packed rows of P, in
lanes of whole 64-bit words.  Walk counts are nonnegative, and an entry of
A^k is at most Delta**(k-1), Delta the maximum degree: the first k-1 steps
of a walk have at most Delta choices each, and the last is forced.  So
lanes are sized by the powers actually formed: one word while the next
power's bound Delta**k fits in 64 bits.  Before each power that would not
fit, the rows are repacked to twice the words.  One doubling always
suffices, as Delta < 2**12 adds at most 12 bits per power, so no lane ever
carries into its neighbour, lanes are at most twice as wide as the powers
up to the horizon need, and a graph repacks O(log m) times.  Every power
of A is symmetric, so only the upper triangle is unpacked: each packed row
is shifted past its lanes below the diagonal and written little-endian,
and the whole triangle is read back by one ``array("Q", ...)`` call, with
``byteswap`` on a big-endian machine.  A lane of w > 1 words is rebuilt
from its w strided word lists.  The triangle is one flat row-major list,
and the Frobenius traces are twice its products' sum less the diagonal's.
``walk_rows`` is the one reader of that layout outside this kernel: it
gives each vertex's n walk-count tuples, which the walk signature sorts
and ``walkgi walks`` prints.  The horizon test eliminates the Hankel
trace matrix one row per power, exactly and without pivoting, which a Gram
matrix of independent powers allows because its leading minors are
positive.  The dense reference both kernels are tested against lives in
``tests/oracles.py``.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from itertools import repeat
from math import isqrt
from operator import itemgetter, lshift, mul, or_
from typing import Sequence

from .graph import Graph, local_complement


def determinant(G: Graph) -> int:
    """Exact determinant of G's adjacency matrix via Bareiss fraction-free
    elimination on packed rows (see ``_bareiss``)."""
    if not all(G.rows):
        return 0
    lane = _lane(G.n)
    return _bareiss(_packed(G.rows, lane), lane)


def lc_determinants(G: Graph) -> list[int]:
    """Exact determinants of the adjacency matrices of the n local
    complements of G, in vertex order: entry u is det(G_u).

    G_u differs from G only in the block on N = N(u), where it adds
    M_u = J - I - 2 A_N, so det(G_u) = det(A) det(I + M_u (A^-1)_NN) when A
    is nonsingular.  ``_scaled_inverse`` gives det A = sign * p and the rows
    of B = p A^-1 once per graph.  Each vertex then takes one |N| x |N| Bareiss
    elimination of K_u = p I + M_u B_NN started from prev = p, which returns
    sign * det(G_u) (see the module docstring).  A zero row of G stays zero
    in every G_u, as no N(u) holds its vertex, so every entry is then 0.  Any
    other singular A has no inverse, and each det(G_u) is then computed from
    G_u itself.
    """
    n, rows = G.n, G.rows
    if not all(rows):
        return [0] * n
    neighbours = [G.neighbors(u) for u in range(n)]
    lane = _lane(n)
    bits = 8 * lane
    p, sign, inverse = _scaled_inverse(_packed(rows, lane), lane)
    if not p:
        return [determinant(local_complement(G, u)) for u in range(n)]
    # the lanes of each row of B as bytes, each biased by X / 2 to be
    # unsigned, so that B_NN's rows are picked lane by lane
    bias = int.from_bytes((bytes(lane - 1) + b"\x80") * n, "little")
    lanes = []
    for row in inverse:
        data = (row + bias).to_bytes(lane * n, "little")
        lanes.append([data[j:j + lane] for j in range(0, lane * n, lane)])
    dets = []
    for u, nbrs in enumerate(neighbours):
        d_bias = bias >> bits * (n - len(nbrs))
        picked = [0] * n  # row w of B_NN at w in N, zero elsewhere
        for w in nbrs:
            picked[w] = int.from_bytes(b"".join(map(lanes[w].__getitem__, nbrs)), "little") - d_bias
        K = [(p << bits * c) - picked[v] - 2 * sum(map(picked.__getitem__, neighbours[v]))
             for c, v in enumerate(nbrs)]
        dets.append(sign * _bareiss(K, lane, p))
    return dets


def _scaled_inverse(packed: list[int], lane: int) -> tuple[int, int, list[int]]:
    """(p, sign, B) for the 0/1 matrix A whose packed rows are ``packed``,
    by fraction-free Gauss-Jordan elimination on the packed rows of [A | I]:
    p is the determinant of A with its rows permuted by the pivot swaps,
    ``sign`` that permutation's sign, so det A = sign * p, and B holds the
    packed rows of p A^-1.  A singular A gives (0, sign, []).

    Step k pivots as ``_bareiss`` does, on the first row at or below k with
    a nonzero low lane, but updates every other row, above k as well, by
    (pk * P - t * Q) // prev.  Every entry is then a minor of [A | I], so
    of A, up to sign, and the lanes ``_lane`` sizes for A hold it.  Column
    k is zero in every updated row, and the pivot row drops its entry pk,
    so every row drops the low lane.  After n steps [A | I] has become
    [p I | p A^-1], and only the lanes of p A^-1 are left.
    """
    n = len(packed)
    bits = 8 * lane
    X = 1 << bits
    mask, half = X - 1, X >> 1
    M = [row | 1 << bits * (n + i) for i, row in enumerate(packed)]
    sign = prev = 1
    for k in range(n):
        for i in range(k, n):
            if M[i] & mask:
                break
        else:
            return 0, sign, []
        Mk = M[i]
        if i != k:
            M[i] = M[k]
            sign = -sign
        pk = Mk & mask
        if pk >= half:
            pk -= X
        rows = []
        for Mi in M:
            t = Mi & mask
            if t >= half:
                t -= X
            num = pk * Mi - t * Mk
            rows.append((num if prev == 1 else num // prev) >> bits)
        rows[k] = (Mk - pk) >> bits
        M = rows
        prev = pk
    return prev, sign, M


def _lane(n: int) -> int:
    """Bytes per signed lane that hold every minor of an n x n 0/1 matrix.

    Every k x k minor, k <= n, is at most the 0/1 Hadamard bound
    (n+1)^((n+1)/2) / 2^n, which grows with n and is reached whenever a
    Hadamard matrix of order n+1 exists.  A lane holds the bound B with its
    sign in B.bit_length() + 1 bits, rounded up to whole bytes.
    """
    return ((isqrt((n + 1) ** (n + 1)) >> n).bit_length() + 8) // 8


def _bareiss(M: list[int], lane: int, prev: int = 1) -> int:
    """Determinant of the matrix whose packed rows are M (consumed), by
    Bareiss fraction-free elimination, with lanes of ``lane`` bytes that
    hold every value it keeps: ``_lane`` sizes them for a 0/1 matrix.

    With ``prev`` = p the first step divides by p as well, and the result is
    p det(M / p): the elimination continues one that has already taken
    pivots up to p, as ``lc_determinants`` needs.  M / p need not be an
    integer matrix, but every value the steps keep must be an integer that
    the lanes hold.

    Each row is one int with a fixed-width, byte-aligned signed lane per
    remaining column: the integer sum of v_j * X**j, X = 2**bits.  Step k
    takes as pivot row Q the first row whose entry pk in column k is
    nonzero; moving it to the top is one row swap, which flips the sign, and
    any nonzero pivot gives the same determinant.  Every other row P, with
    entry t in column k, becomes (pk * P - t * Q) // prev, where prev is the
    previous pivot: one big-int expression per row, O(n^2) of them instead
    of O(n^3) entry updates.  As integers, pk * P - t * Q is the sum of
    (pk * v_j - t * w_j) * X**j, and each of those coefficients is divisible
    by prev (Sylvester's identity), so the division is exact for the whole
    row at once; it is skipped when prev is 1, which it often is on a 0/1
    matrix.  No lane is read while it holds an undivided product.

    After the division every entry is a minor of the row-permuted matrix,
    so its lane holds it with its sign.  Column k is then zero in every
    updated row, so each row drops that lane with an exact shift, and the
    column a step eliminates is always the low lane: the masked low bits,
    less X when they are at least X / 2.  Rows shrink by one lane per step;
    the one entry left at the end is the determinant of the row-permuted
    matrix.
    """
    bits = 8 * lane
    X = 1 << bits
    mask, half = X - 1, X >> 1
    sign = 1
    while len(M) > 1:
        for i, Mk in enumerate(M):
            if Mk & mask:
                break
        else:
            return 0
        if i:
            M[i] = M[0]
            sign = -sign
        pk = Mk & mask
        if pk >= half:
            pk -= X
        rows = []
        for Mi in M[1:]:
            t = Mi & mask
            if t >= half:
                t -= X
            num = pk * Mi - t * Mk
            rows.append((num if prev == 1 else num // prev) >> bits)
        M = rows
        prev = pk
    return sign * M[0]


def _packed(rows: tuple[int, ...], lane: int) -> list[int]:
    """Each bit row as one int with a ``lane``-byte lane per column, lane j
    holding bit j.  The binary digits, most significant first, become
    big-endian lanes by two byte replacements, so no Python loop runs per
    bit or per neighbour."""
    zero, one = bytes(lane), bytes(lane - 1) + b"\1"
    return [int.from_bytes(f"{row:b}".encode().replace(b"0", zero).replace(b"1", one), "big")
            for row in rows]


def walk_powers(G: Graph) -> list[list[int]]:
    """The upper triangles of A^1..A^m for the adjacency matrix A of G, up to
    G's horizon m, which is the length of the returned list.

    m is the least k such that I, A, ..., A^k are linearly dependent, i.e.
    the number of distinct eigenvalues of A; walks longer than m carry no
    further information.  Every power of A is symmetric, so only the upper
    triangle is unpacked, as one flat row-major list: row i holds columns
    i..n-1.  ``walk_rows`` reads the powers back per vertex, so that
    ``walk_rows(powers)[i][j][k - 1]`` is the number of walks of length k
    between vertices i and j.  The horizon is found along the way.  The
    Frobenius Gram matrix of the powers is the Hankel matrix [tr A^(i+j)],
    singular exactly when they are dependent; power k adds
    tr A^(2k) = <A^k, A^k> and tr A^(2k-1) = <A^k, A^(k-1)>, each taken as
    twice the sum over the upper triangle less the diagonal.  Singularity is
    found by ``_HankelPivots``, one exact elimination step per power.
    """
    n = G.n
    delta = max(row.bit_count() for row in G.rows)
    words = 1
    neighbours = [G.neighbors(i) for i in range(n)]
    diagonal = _row_starts(n)
    packed = _packed(G.rows, 8)
    powers: list[list[int]] = []
    hankel = _HankelPivots(n)  # tr A^0 = n; tr A^1 = 0 (no loops)
    odd_trace = 0
    while True:
        flat = _upper(packed, words)
        powers.append(flat)
        k = len(powers)
        if k > 1:
            odd_trace = _frobenius(flat, powers[-2], diagonal)
        if hankel.add(odd_trace, _frobenius(flat, flat, diagonal)) == 0:
            return powers
        if k == n:
            raise AssertionError("powers up to n stayed independent; impossible for a square matrix")
        if (delta ** k).bit_length() > 64 * words:  # A^(k+1) has entries up to delta**k
            packed = _widened(packed, words)
            words *= 2
        packed = [sum(map(packed.__getitem__, nbrs)) for nbrs in neighbours]


def walk_rows(powers: list[list[int]]) -> list[Sequence[tuple[int, ...]]]:
    """For each vertex i, its n tuples (A^1[i][j], ..., A^m[i][j]) in column
    order j, from the powers ``walk_powers`` returns.

    One ``zip`` of the flat upper triangles builds the tuple of every
    unordered pair {i, j}, in their flat order, and row i gathers its n
    tuples, from pairs {j, i} with j < i and then {i, j} with j >= i,
    through one cached getter.  n is read off the triangle's length,
    n (n + 1) / 2.
    """
    n = (isqrt(8 * len(powers[0]) + 1) - 1) // 2
    pairs = list(zip(*powers))
    return [row(pairs) for row in _row_getters(n)]


@lru_cache(maxsize=8)
def _row_getters(n: int) -> tuple[itemgetter, ...]:
    """Per vertex i, a getter of the n pair entries of row i from a flat
    row-major upper triangle, in column order."""
    if n == 1:
        return (itemgetter(slice(None)),)  # the one entry, as a list
    start = _row_starts(n)
    return tuple(itemgetter(*(start[j] + i - j for j in range(i)), *range(start[i], start[i] + n - i))
                 for i in range(n))


def _row_starts(n: int) -> list[int]:
    """Index of entry (i, i) in the flat row-major upper triangle of an
    n x n matrix, for each i: rows 0..i-1 hold n, n-1, ..., n-i+1 entries."""
    return [i * n - i * (i - 1) // 2 for i in range(n)]


def _upper(packed: list[int], words: int) -> list[int]:
    """The upper triangle of the symmetric matrix whose rows are ``packed``,
    with ``words`` 64-bit words per lane, as one flat row-major list.

    Row i is shifted past its first i lanes and written little-endian, and
    all rows go to one ``array`` of words.  A lane of w > 1 words is rebuilt
    from its w strided word lists, the most significant first."""
    bits = 64 * words
    n = len(packed)
    data = b"".join((r >> (bits * i)).to_bytes(8 * words * (n - i), "little")
                    for i, r in enumerate(packed))
    lanes = array("Q", data)
    if sys.byteorder == "big":
        lanes.byteswap()
    flat = lanes[words - 1::words].tolist()
    for t in range(words - 2, -1, -1):
        flat = list(map(or_, map(lshift, flat, repeat(64)), lanes[t::words]))
    return flat


def _widened(packed: list[int], words: int) -> list[int]:
    """Rows packed with ``words``-word lanes, repacked with twice the words
    per lane: the words of each lane move, in order, to the low words of its
    new lane.  Words move whole, so this is the same whichever byte order
    they are read in."""
    n = len(packed)
    wider = 2 * words
    rows = []
    for r in packed:
        lanes = array("Q", r.to_bytes(8 * words * n, "little"))
        wide = array("Q", bytes(8 * wider * n))
        for t in range(words):
            wide[t::wider] = lanes[t::words]
        rows.append(int.from_bytes(wide, "little"))
    return rows


def _frobenius(P: list[int], Q: list[int], diagonal: list[int]) -> int:
    """<P, Q> for symmetric P and Q given by their flat upper triangles,
    whose diagonal entries sit at the indices ``diagonal``."""
    on_diagonal = sum(map(mul, map(P.__getitem__, diagonal), map(Q.__getitem__, diagonal)))
    return 2 * sum(map(mul, P, Q)) - on_diagonal


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
