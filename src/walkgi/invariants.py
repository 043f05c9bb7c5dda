"""Relabeling-invariant graph fingerprints built from exact walk counts.

Three invariants, each with a canonical byte encoding so that structural
equality is exactly byte equality:

* walk signature: per vertex pair, the tuple of walk counts for lengths
  1..m, canonicalized by sorting tuples within each vertex row and sorting
  the rows;
* determinant profile: the magnitude-ordered determinants of the adjacency
  matrices of all n local complements;
* local-complement walk signature: the sorted multiset of walk signatures of
  the n local complements, each at its own eigenvalue-count horizon.  An
  automorphism s of G maps the local complement G_u onto G_s(u), so the
  signature is computed once per vertex orbit and repeated over its
  members.  Orbits come from ``graph.vertex_orbits`` and merge vertices only
  by automorphisms it has verified, so the bytes never depend on the
  search.  On a graph with no automorphisms the search is a small fraction
  of its lc-walk: about 5 ms beside about 0.5 s for 12-regular graphs at
  n = 28 (Python 3.11, 2-vCPU VM).

The horizon m of a graph is the number of distinct adjacency eigenvalues;
walks longer than that carry no further information.  ``walk_powers``
finds it from the same powers the walk signature is built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from operator import itemgetter

from .graph import Graph, local_complement, vertex_orbits
from .linalg import _row_starts, lc_determinants, walk_powers


def _encode_uint(x: int) -> bytes:
    return x.to_bytes(4, "big")


def _encode_int(x: int) -> bytes:
    # minimal big-endian two's complement, length-prefixed
    length = ((x if x >= 0 else ~x).bit_length() // 8) + 1
    return length.to_bytes(4, "big") + x.to_bytes(length, "big", signed=True)


@dataclass(frozen=True, slots=True)
class WalkSignature:
    """Canonical multiset-of-multisets of length-m walk-count tuples.

    ``rows[i][j]`` is a tuple (w_1, ..., w_m) of exact walk counts; tuples
    are sorted within each row and rows are sorted, so two structurally equal
    signatures have byte-identical encodings regardless of vertex labels.
    """

    m: int
    rows: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def from_powers(cls, powers: list[list[int]]) -> WalkSignature:
        """Signature of the powers A^1..A^m as returned by ``walk_powers``.

        The powers hold flat upper triangles, so one ``zip`` builds the tuple
        of every unordered pair {i, j}, in the same flat order, and row i
        gathers its n tuples, from pairs {j, i} with j < i and then {i, j}
        with j >= i, through one precomputed getter.
        """
        pairs = list(zip(*powers))
        getters = _row_getters((isqrt(8 * len(pairs) + 1) - 1) // 2)
        return cls(m=len(powers), rows=tuple(sorted(tuple(sorted(row(pairs))) for row in getters)))

    def encode(self, memo: dict[tuple[int, ...], bytes] | None = None) -> bytes:
        """The WS1 bytes, with each walk-count tuple's bytes taken from or
        added to ``memo``, a fresh one if None: tuples repeat heavily,
        within a signature and across the local complements of one graph."""
        memo = {} if memo is None else memo
        out = [b"WS1", _encode_uint(self.n), _encode_uint(self.m)]
        for row in self.rows:
            for tup in row:
                enc = memo.get(tup)
                if enc is None:
                    enc = memo[tup] = b"".join(map(_encode_int, tup))
                out.append(enc)
        return b"".join(out)


@lru_cache(maxsize=8)
def _row_getters(n: int) -> tuple[itemgetter, ...]:
    """Per vertex i, a getter of the n pair entries of row i from a flat
    row-major upper triangle, in column order."""
    if n == 1:
        return (itemgetter(slice(None)),)  # the one entry, as a list
    start = _row_starts(n)
    return tuple(itemgetter(*(start[j] + i - j for j in range(i)), *range(start[i], start[i] + n - i))
                 for i in range(n))


@dataclass(frozen=True, slots=True)
class DetProfile:
    """Ordered sequence of the n local-complement adjacency determinants.

    Ordering is ascending by absolute value, ties broken negative-first.
    Any total order would partition identically; this one is fixed so the
    encoding is deterministic.
    """

    values: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    def encode(self) -> bytes:
        out = [b"DP1", _encode_uint(self.n)]
        for v in self.values:
            out.append(_encode_int(v))
        return b"".join(out)


@dataclass(frozen=True, slots=True)
class LcWalkSignature:
    """Sorted multiset of the walk signatures of all n local complements,
    held as their WS1 encodings.

    ``part_encodings`` may be given in any order; they are sorted, so two
    structurally equal signatures compare equal and encode to the same
    bytes.  Encoding is injective, so nothing else of a part is kept.
    """

    part_encodings: tuple[bytes, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "part_encodings", tuple(sorted(self.part_encodings)))

    @property
    def n(self) -> int:
        return len(self.part_encodings)

    def encode(self) -> bytes:
        out = [b"LW1", _encode_uint(self.n)]
        for enc in self.part_encodings:
            out.append(_encode_uint(len(enc)))
            out.append(enc)
        return b"".join(out)


def walk_signature(G: Graph) -> WalkSignature:
    """Exact walk-count signature of G for walk lengths 1..m, where m is G's
    horizon, ``default_m(G)``, found from the same powers."""
    return WalkSignature.from_powers(walk_powers(G))


def default_m(G: Graph) -> int:
    """Walk horizon for G: the number of distinct adjacency eigenvalues."""
    return len(walk_powers(G))


def _profile_order(v: int) -> tuple[int, bool, int]:
    return (abs(v), v >= 0, v)


def lc_determinant_profile(G: Graph) -> DetProfile:
    """Determinants of the adjacency matrices of all n local complements."""
    values = lc_determinants(G)
    values.sort(key=_profile_order)
    return DetProfile(values=tuple(values))


def lc_walk_signature(G: Graph) -> LcWalkSignature:
    """Walk signatures of all n local complements, canonically sorted.

    Each complement gets its own horizon m_u = default_m of that complement,
    keeping the invariant a property of G alone (cacheable, pair-independent).
    One complement per vertex orbit is computed, and its bytes stand for
    every member: an automorphism s with s(u) = v maps G_u onto G_v.  Each
    signature is encoded at once and dropped; one memo of tuple bytes
    serves all orbits, as the complements share most of their walk-count
    tuples.
    """
    memo: dict[tuple[int, ...], bytes] = {}
    parts: list[bytes] = []
    for orbit in vertex_orbits(G):
        parts += [walk_signature(local_complement(G, orbit[0])).encode(memo)] * len(orbit)
    return LcWalkSignature(tuple(parts))
