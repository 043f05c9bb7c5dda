"""Constructive graph fixtures.

The strongly regular fixtures cover three parameter sets completely:

* (16,6,2,2): the rook's graph on a 4x4 board and the Shrikhande graph are
  the only two such graphs.
* (28,12,6,4): the triangular graph T(8) and the three Chang graphs, obtained
  from T(8) by Seidel switching on a perfect matching, an 8-cycle, and a
  disjoint triangle-plus-pentagon.
* (36,10,4,2): the rook's graph on a 6x6 board is the unique such graph
  (uniqueness of L2(m) for m != 4).

Latin square graphs give SRG(k^2, 3(k-1), k, 6); for k >= 5 two of them are
isomorphic exactly when their squares share a main class.  So the graphs of
the Cayley tables of non-isotopic groups, such as Z6 and S3, are
non-isomorphic, and the 56 reduced Latin squares of order 5 give two
isomorphism classes, as they fall into two main classes.  The 9408 reduced
squares of order 6 fall into 12 main classes (McKay, Meynert and Myrvold,
Small Latin squares, quasigroups and loops, 2007).  The five groups of order
8 are pairwise non-isotopic, so their Latin square graphs are five
non-isomorphic SRG(64,21,8,6).
"""

import itertools

from walkgi import Graph, build_graph


def empty_graph(n: int) -> Graph:
    return build_graph(n, [])


def complete(n: int) -> Graph:
    return build_graph(n, itertools.combinations(range(n), 2))


def path(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(leaves: int) -> Graph:
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_multipartite(*parts: int) -> Graph:
    """Consecutive parts of the given sizes, adjacent exactly across parts.
    Two vertices of one part have equal rows, so a part of two or more
    makes the adjacency matrix singular."""
    part = [i for i, size in enumerate(parts) for _ in range(size)]
    return build_graph(len(part), [(u, v) for u, v in itertools.combinations(range(len(part)), 2)
                                   if part[u] != part[v]])


def disjoint_union(G: Graph, H: Graph) -> Graph:
    edges = list(G.edges()) + [(u + G.n, v + G.n) for u, v in H.edges()]
    return build_graph(G.n + H.n, edges)


def petersen() -> Graph:
    """Kneser graph K(5,2): 2-subsets of a 5-set, adjacent iff disjoint."""
    pairs = list(itertools.combinations(range(5), 2))
    edges = [
        (i, j)
        for i, p in enumerate(pairs)
        for j, q in enumerate(pairs)
        if i < j and not set(p) & set(q)
    ]
    return build_graph(10, edges)


def rook(m: int) -> Graph:
    """Rook's graph on an m x m board: SRG(m^2, 2(m-1), m-2, 2) for m >= 2."""
    def vid(a: int, b: int) -> int:
        return a * m + b

    edges = []
    for a in range(m):
        for b in range(m):
            for bb in range(b + 1, m):
                edges.append((vid(a, b), vid(a, bb)))
            for aa in range(a + 1, m):
                edges.append((vid(a, b), vid(aa, b)))
    return build_graph(m * m, edges)


def shrikhande() -> Graph:
    """Cayley graph on Z4 x Z4 with connection set {+-(1,0), +-(0,1), +-(1,1)}.

    SRG(16,6,2,2), not isomorphic to rook(4).
    """
    offsets = ((0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3))
    edges = []
    for x in range(4):
        for y in range(4):
            u = x * 4 + y
            for dx, dy in offsets:
                v = ((x + dx) % 4) * 4 + ((y + dy) % 4)
                if u < v:
                    edges.append((u, v))
    return build_graph(16, edges)


def triangular(m: int) -> Graph:
    """T(m): 2-subsets of an m-set, adjacent iff the subsets intersect.

    SRG(m(m-1)/2, 2(m-2), m-2, 4) for m >= 4.
    """
    pairs = list(itertools.combinations(range(m), 2))
    edges = [
        (i, j)
        for i, p in enumerate(pairs)
        for j, q in enumerate(pairs)
        if i < j and set(p) & set(q)
    ]
    return build_graph(len(pairs), edges)


def seidel_switch(G: Graph, switch_set) -> Graph:
    """Complement all adjacencies between switch_set and its complement."""
    inside = set(switch_set)
    edges = []
    for u in range(G.n):
        for v in range(u + 1, G.n):
            crossing = (u in inside) != (v in inside)
            if G.has_edge(u, v) != crossing:
                edges.append((u, v))
    return build_graph(G.n, edges)


def _t8_vertex_index():
    pairs = list(itertools.combinations(range(8), 2))
    return {frozenset(p): i for i, p in enumerate(pairs)}


def chang_graphs() -> tuple[Graph, Graph, Graph]:
    """The three Chang graphs: SRG(28,12,6,4), pairwise non-isomorphic and
    not isomorphic to T(8).

    Each is T(8) Seidel-switched on a set of vertices that forms, viewed as
    edges on the 8 points, a perfect matching, an 8-cycle, and C3 + C5.
    """
    t8 = triangular(8)
    index = _t8_vertex_index()

    def vertex_set(point_pairs):
        return [index[frozenset(p)] for p in point_pairs]

    matching = vertex_set([(0, 1), (2, 3), (4, 5), (6, 7)])
    octagon = vertex_set([(i, (i + 1) % 8) for i in range(8)])
    c3 = [(0, 1), (1, 2), (2, 0)]
    c5 = [(3, 4), (4, 5), (5, 6), (6, 7), (7, 3)]
    triangle_pentagon = vertex_set(c3 + c5)

    return (
        seidel_switch(t8, matching),
        seidel_switch(t8, octagon),
        seidel_switch(t8, triangle_pentagon),
    )


def paley(q: int) -> Graph:
    """Paley graph on a prime q = 1 (mod 4): x ~ y iff x - y is a square.

    SRG(q, (q-1)/2, (q-5)/4, (q-1)/4).
    """
    if q % 4 != 1:
        raise ValueError("q must be 1 mod 4")
    squares = {(x * x) % q for x in range(1, q)}
    edges = [(u, v) for u in range(q) for v in range(u + 1, q) if (v - u) % q in squares]
    return build_graph(q, edges)


def cayley_table(elements, op) -> list[list[int]]:
    """The Cayley table of a group, entries as indices into ``elements``."""
    index = {e: i for i, e in enumerate(elements)}
    return [[index[op(a, b)] for b in elements] for a in elements]


def _quaternion_product(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2, a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2, a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def order_8_group_tables() -> dict[str, list[list[int]]]:
    """The Cayley tables of the five groups of order 8, identity first.  D4
    holds the pairs (r, s) for rotation^r reflection^s, Q8 the units
    +-1, +-i, +-j, +-k as quaternion coordinate tuples."""
    units = [tuple(sign * (i == axis) for i in range(4)) for axis in range(4) for sign in (1, -1)]
    return {
        "Z8": cayley_table(range(8), lambda a, b: (a + b) % 8),
        "Z4xZ2": cayley_table(list(itertools.product(range(4), range(2))),
                              lambda a, b: ((a[0] + b[0]) % 4, (a[1] + b[1]) % 2)),
        "Z2^3": cayley_table(list(itertools.product(range(2), repeat=3)),
                             lambda a, b: tuple(x ^ y for x, y in zip(a, b))),
        "D4": cayley_table(list(itertools.product(range(4), range(2))),
                           lambda a, b: ((a[0] + (-1) ** a[1] * b[0]) % 4, a[1] ^ b[1])),
        "Q8": cayley_table(units, _quaternion_product),
    }


def latin_square_graph(square) -> Graph:
    """The cells of a k x k Latin square, adjacent iff they share a row, a
    column or a symbol: SRG(k^2, 3(k-1), k, 6)."""
    k = len(square)
    cells = [(r, c, square[r][c]) for r in range(k) for c in range(k)]
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(k * k), 2)
        if any(a == b for a, b in zip(cells[i], cells[j]))
    ]
    return build_graph(k * k, edges)


def reduced_latin_squares(k: int) -> list[list[list[int]]]:
    """Every reduced k x k Latin square (first row and first column both
    0..k-1), in lexicographic order, by backtracking over the other cells
    row by row."""
    square = [list(range(k))] + [[r] + [0] * (k - 1) for r in range(1, k)]
    free = [(r, c) for r in range(1, k) for c in range(1, k)]
    squares = []

    def fill(i: int) -> None:
        if i == len(free):
            squares.append([row[:] for row in square])
            return
        r, c = free[i]
        used = set(square[r][:c]).union(square[q][c] for q in range(r))
        for x in range(k):
            if x not in used:
                square[r][c] = x
                fill(i + 1)

    fill(0)
    return squares
