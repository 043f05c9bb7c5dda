"""Seeded, stdlib-only generators for the benchmark's graph families.

A graph here is a tuple of adjacency bitmask rows (``rows[u] >> v & 1`` is
the edge u-v).  Nothing is imported from the program under test: the
benchmark writes its own graph6 text, so the program sees only files.

Every family member carries a base label.  Members with the same label are
relabellings of one base graph and must end in one final class; members
with different labels are certainly non-isomorphic and must never share a
class.  The generators check both facts as they build:

* each named base has its stated SRG parameters, each swap graph has its
  stated degree sequence;
* each copy is verified edge by edge to be the stated relabelling of its
  base;
* every base and swap graph has a distinct common-neighbour invariant
  (``pair_invariant``), which proves them pairwise non-isomorphic -- except
  the named SRG bases, whose non-isomorphism is classical (Chang 1959;
  Shrikhande 1959) and whose invariant is equal by strong regularity.
"""

from __future__ import annotations

import itertools
import random

GRAPH6_MAX_N = 62  # one-byte size header only; every family here is smaller


class FamilyError(AssertionError):
    """A generated family failed its own construction check."""


def build(n: int, edges) -> tuple[int, ...]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


def edge_list(rows) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(rows)) for v in range(u + 1, len(rows)) if rows[u] >> v & 1]


def triangular(m: int) -> tuple[int, ...]:
    """T(m): 2-subsets of an m-set, adjacent iff they meet."""
    pairs = list(itertools.combinations(range(m), 2))
    return build(len(pairs), [(i, j) for i, j in itertools.combinations(range(len(pairs)), 2)
                              if set(pairs[i]) & set(pairs[j])])


def rook(m: int) -> tuple[int, ...]:
    """Rook's graph on an m x m board: cells adjacent iff they share a row or column."""
    cells = [(a, b) for a in range(m) for b in range(m)]
    return build(m * m, [(i, j) for i, j in itertools.combinations(range(m * m), 2)
                         if cells[i][0] == cells[j][0] or cells[i][1] == cells[j][1]])


def shrikhande() -> tuple[int, ...]:
    """Cayley graph on Z4 x Z4 with connection set {+-(1,0), +-(0,1), +-(1,1)}."""
    offsets = ((0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3))
    return build(16, [(x * 4 + y, (x + dx) % 4 * 4 + (y + dy) % 4)
                      for x in range(4) for y in range(4) for dx, dy in offsets])


def seidel_switch(rows, switch_set) -> tuple[int, ...]:
    """Complement every adjacency between switch_set and the other vertices."""
    n = len(rows)
    inside = 0
    for u in switch_set:
        inside |= 1 << u
    outside = ((1 << n) - 1) & ~inside
    return tuple(row ^ (outside if inside >> u & 1 else inside) for u, row in enumerate(rows))


def chang_graphs() -> list[tuple[int, ...]]:
    """The three Chang graphs: T(8) Seidel-switched on the vertex sets that,
    read as edges of K8, form a perfect matching, an 8-cycle and C3 + C5."""
    index = {p: i for i, p in enumerate(itertools.combinations(range(8), 2))}

    def vertices(point_pairs):
        return [index[tuple(sorted(p))] for p in point_pairs]

    matching = [(0, 1), (2, 3), (4, 5), (6, 7)]
    octagon = [(i, (i + 1) % 8) for i in range(8)]
    triangle_pentagon = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 7), (7, 3)]
    t8 = triangular(8)
    return [seidel_switch(t8, vertices(s)) for s in (matching, octagon, triangle_pentagon)]


def srg_parameters(rows):
    """(n, d, alpha, beta) when the graph is strongly regular, else None."""
    n = len(rows)
    degrees = {row.bit_count() for row in rows}
    if len(degrees) != 1:
        return None
    alpha, beta = set(), set()
    for u, v in itertools.combinations(range(n), 2):
        (alpha if rows[u] >> v & 1 else beta).add((rows[u] & rows[v]).bit_count())
    if len(alpha) != 1 or len(beta) != 1:
        return None
    return (n, degrees.pop(), alpha.pop(), beta.pop())


def pair_invariant(rows) -> tuple:
    """Sorted per-vertex multisets of (adjacent, common neighbours) over all
    other vertices.  Relabelling-invariant, so unequal values prove two
    graphs non-isomorphic."""
    n = len(rows)
    return tuple(sorted(
        tuple(sorted((rows[u] >> v & 1, (rows[u] & rows[v]).bit_count()) for v in range(n) if v != u))
        for u in range(n)))


def relabel(rows, perm) -> tuple[int, ...]:
    """The graph with vertex u renamed perm[u]."""
    out = [0] * len(rows)
    for u, row in enumerate(rows):
        for v in range(len(rows)):
            if row >> v & 1:
                out[perm[u]] |= 1 << perm[v]
    return tuple(out)


def check_relabelling(base, copy, perm) -> None:
    """Edge-by-edge proof that ``copy`` is ``base`` under ``perm``."""
    n = len(base)
    if sorted(perm) != list(range(n)) or len(copy) != n:
        raise FamilyError("relabelling is not a permutation of the vertex set")
    for u, v in itertools.combinations(range(n), 2):
        if (base[u] >> v & 1) != (copy[perm[u]] >> perm[v] & 1):
            raise FamilyError(f"copy disagrees with its base on pair ({u},{v})")


def random_copy(rows, rng: random.Random) -> tuple[int, ...]:
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    copy = relabel(rows, perm)
    check_relabelling(rows, copy, perm)
    return copy


def edge_swaps(rows, swaps: int, rng: random.Random) -> tuple[int, ...]:
    """Apply ``swaps`` successful degree-preserving double-edge swaps:
    a-b, c-d become a-d, c-b when that creates no loop or multi-edge."""
    rows = list(rows)
    edges = edge_list(rows)
    done = 0
    while done < swaps:
        i, j = rng.randrange(len(edges)), rng.randrange(len(edges))
        (a, b), (c, d) = edges[i], edges[j]
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4 or rows[a] >> d & 1 or rows[c] >> b & 1:
            continue
        rows[a] ^= (1 << b) | (1 << d)
        rows[b] ^= (1 << a) | (1 << c)
        rows[c] ^= (1 << d) | (1 << b)
        rows[d] ^= (1 << c) | (1 << a)
        edges[i], edges[j] = (a, d), (c, b)
        done += 1
    return tuple(rows)


def graph6(rows) -> str:
    """graph6 text: size byte, then the upper triangle column by column,
    six bits per printable character."""
    n = len(rows)
    if not 1 <= n <= GRAPH6_MAX_N:
        raise FamilyError(f"n={n} outside the one-byte graph6 header range")
    bits = [rows[i] >> j & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = (chr(63 + int("".join(map(str, bits[k:k + 6])), 2)) for k in range(0, len(bits), 6))
    return chr(63 + n) + "".join(body)


class FamilyBuilder:
    """Collects labelled members and proves the expected partition as it goes."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.members: list[tuple[str, tuple[int, ...]]] = []
        self._invariants: dict[tuple, str] = {}

    def srg_base(self, label: str, rows, srg) -> None:
        """Register a named SRG base after checking its parameters."""
        if srg_parameters(rows) != srg:
            raise FamilyError(f"{label}: expected SRG{srg}, got {srg_parameters(rows)}")
        self._invariants.setdefault(pair_invariant(rows), label)

    def copies(self, label: str, rows, count: int) -> None:
        for _ in range(count):
            self.members.append((label, random_copy(rows, self.rng)))

    def swap_graphs(self, prefix: str, start, count: int, swaps: int) -> None:
        """``count`` graphs, each ``swaps`` edge swaps away from ``start``.
        A draw that is not provably distinct from every graph registered so
        far is dropped and drawn again."""
        degree = start[0].bit_count()
        made = 0
        while made < count:
            rows = edge_swaps(start, swaps, self.rng)
            key = pair_invariant(rows)
            if key in self._invariants:
                continue
            label = f"{prefix}{made}"
            if {row.bit_count() for row in rows} != {degree}:
                raise FamilyError(f"{label}: expected {degree}-regular")
            self._invariants[key] = label
            self.members.append((label, rows))
            made += 1

    def shuffled(self) -> list[tuple[str, tuple[int, ...]]]:
        members = list(self.members)
        self.rng.shuffle(members)
        return members


T8_SRG = (28, 12, 6, 4)
ROOK4_SRG = (16, 6, 2, 2)


def _srg28_bases(fam: FamilyBuilder) -> list[tuple[str, tuple[int, ...]]]:
    bases = [("T8", triangular(8))] + [(f"Chang{i + 1}", g) for i, g in enumerate(chang_graphs())]
    for label, rows in bases:
        fam.srg_base(label, rows, T8_SRG)
    return bases


def lc_refine(rng: random.Random, copies: int) -> list[tuple[str, tuple[int, ...]]]:
    """T(8) and the three Chang graphs, ``copies`` random relabellings each."""
    fam = FamilyBuilder(rng)
    for label, rows in _srg28_bases(fam):
        fam.copies(label, rows, copies)
    return fam.shuffled()


def coarse_split(rng: random.Random, swap_graphs: int) -> list[tuple[str, tuple[int, ...]]]:
    """T(8), the Chang graphs (one relabelled copy each) and ``swap_graphs``
    12-regular graphs on 28 vertices made by edge swaps from T(8)."""
    fam = FamilyBuilder(rng)
    bases = _srg28_bases(fam)
    for label, rows in bases:
        fam.copies(label, rows, 1)
    fam.swap_graphs("swap", bases[0][1], swap_graphs, swaps=2 * len(edge_list(bases[0][1])))
    return fam.shuffled()


def catalog_reuse(rng: random.Random, copies: int, swap_graphs: int) -> list[tuple[str, tuple[int, ...]]]:
    """rook(4) and Shrikhande, ``copies`` relabellings each, plus
    ``swap_graphs`` 6-regular graphs on 16 vertices swapped from rook(4)."""
    fam = FamilyBuilder(rng)
    start = rook(4)
    for label, rows in (("rook4", start), ("Shrikhande", shrikhande())):
        fam.srg_base(label, rows, ROOK4_SRG)
        fam.copies(label, rows, copies)
    fam.swap_graphs("swap", start, swap_graphs, swaps=2 * len(edge_list(start)))
    return fam.shuffled()
