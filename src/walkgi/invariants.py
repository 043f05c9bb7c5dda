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
  of its lc-walk: about 3.5 ms beside 0.45-0.7 s for 12-regular graphs at
  n = 28 (Python 3.11, 2-vCPU VM).

The two walk encodings are dictionary encodings.  WS2 writes a signature's
distinct walk-count tuples once, in a sorted table, and each sorted row as
runs of (table index, multiplicity); LW2 writes each distinct part once,
with its multiplicity.  Both are canonical and decode back to the
signature.  They replace WS1 and LW1, which wrote every tuple in full and
each part once per vertex: T(8)'s lc-walk encoding is 2.1 KiB against
1.03 MiB, Paley(61)'s 49 KiB against 92 MiB.

The horizon m of a graph is the number of distinct adjacency eigenvalues;
walks longer than that carry no further information.  ``walk_powers``
finds it from the same powers the walk signature is built from, and
``walk_rows`` reads each vertex's walk-count tuples out of them, so this
module never touches the powers' layout.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import NamedTuple

from .graph import Graph, local_complement, vertex_orbits
from .linalg import lc_determinants, walk_powers, walk_rows


def _encode_uint(x: int) -> bytes:
    return x.to_bytes(4, "big")


def _encode_int(x: int) -> bytes:
    # minimal big-endian two's complement, length-prefixed
    length = ((x if x >= 0 else ~x).bit_length() // 8) + 1
    return length.to_bytes(4, "big") + x.to_bytes(length, "big", signed=True)


class WalkSignature(NamedTuple):
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
        """Signature of the powers A^1..A^m as returned by ``walk_powers``:
        each vertex's tuples from ``walk_rows``, sorted, and the rows
        sorted."""
        return cls(m=len(powers), rows=tuple(sorted(tuple(sorted(row)) for row in walk_rows(powers))))

    def encode(self) -> bytes:
        """The WS2 bytes: n, m and the number T of distinct walk-count
        tuples, then those T tuples in sorted order, then each row as its
        number r of runs and r pairs (table index, multiplicity).  Rows are
        sorted, so equal tuples are adjacent and a row's runs come in table
        order; the bytes decode back to the rows."""
        index = dict.fromkeys(chain.from_iterable(self.rows))
        table = sorted(index)
        for k, tup in enumerate(table):
            index[tup] = _encode_uint(k)
        out = [b"WS2", _encode_uint(self.n), _encode_uint(self.m), _encode_uint(len(table))]
        out += [_encode_int(x) for tup in table for x in tup]
        for row in self.rows:
            runs = Counter(map(index.__getitem__, row))  # in the row's own sorted order
            out.append(_encode_uint(len(runs)))
            for k, count in runs.items():
                out += (k, _encode_uint(count))
        return b"".join(out)


class DetProfile(NamedTuple):
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


class LcWalkSignature(NamedTuple):
    """Sorted multiset of the walk signatures of all n local complements,
    held as their WS2 encodings.

    ``lc_walk_signature`` gives ``part_encodings`` in sorted order, so two
    structurally equal signatures compare equal and encode to the same
    bytes.  Encoding is injective, so nothing else of a part is kept.
    """

    part_encodings: tuple[bytes, ...]

    @property
    def n(self) -> int:
        return len(self.part_encodings)

    def encode(self) -> bytes:
        """The LW2 bytes: n, then each distinct part in sorted order as its
        multiplicity, its length and its bytes."""
        out = [b"LW2", _encode_uint(self.n)]
        for enc, k in Counter(self.part_encodings).items():  # sorted, as the parts are
            out += (_encode_uint(k), _encode_uint(len(enc)), enc)
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
    signature is encoded at once and dropped.
    """
    parts: list[bytes] = []
    for orbit in vertex_orbits(G):
        parts += [walk_signature(local_complement(G, orbit[0])).encode()] * len(orbit)
    return LcWalkSignature(tuple(sorted(parts)))
