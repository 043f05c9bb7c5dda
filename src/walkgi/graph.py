"""Simple undirected graphs with bit-row adjacency, plus strong-regularity
detection, local complementation, isomorphism checking and search, and
vertex orbits.

Vertices are dense integers 0..n-1.  Each adjacency row is a Python int used
as a bitmask, so neighbourhood operations cost O(n/word) and graphs are cheap
to copy and hash.  Graphs are immutable after construction.

``is_isomorphism`` checks a vertex map by mapping each row's bits through
it and comparing with the other graph's rows: O(n) big-int and string
operations, with no Python step per vertex pair.

One individualisation-refinement search (McKay and Piperno, *Practical
graph isomorphism II*, 2014), with no canonical form, looks for a vertex map
from G onto a target graph H.  Ordered equitable refinement splits cells by
neighbour counts.  The root is the refinement of one cell, or, given an
invariant vertex colouring, of one cell per colour value in ascending
order.  G's first path individualises the first vertex of the first
non-singleton cell until the partition is discrete.  H's tree is then
searched depth first, from given nodes: each node's children individualise,
in turn, every vertex of the cell in the first path's target position, and
a node is pruned when its cell sizes differ from the first path's at the
same depth.  A leaf lambda gives the map lambda0[i] -> lambda[i], lambda0
G's first leaf, which is kept only if ``is_isomorphism`` accepts it.
Refinement commutes with relabelling, so for every isomorphism phi the
branch of H's tree that individualises phi of the first path's vertices has
the first path's cell sizes at every depth and ends at a leaf that gives
phi.  A search that is not cut short is therefore complete.

Each child the search refines takes one token from an iterator its caller
hands it; once the tokens run out, that search and every later one sharing
the iterator return None.  The first path takes no token: it is at most
n - 1 refinements, and every search needs it.  The search has three
callers:

- ``vertex_orbits`` searches G's own tree with n times
  ``ORBIT_SEARCH_NODES_PER_VERTEX`` tokens.  From the deepest level up,
  each vertex w of that level's target cell that is not yet known to share
  the first-path vertex's orbit is individualised instead, and the tree
  below it is searched; the automorphisms found are unioned into orbits.
  So every merge is backed by a verified automorphism.  A search below w
  that finds none, with tokens left, proves that no automorphism fixing the
  path above maps the first-path vertex to w, so with enough tokens the
  automorphisms kept generate Aut(G).  Running out only leaves orbits finer
  than Aut(G)'s.
- ``find_isomorphism`` searches H's whole tree from its root with an
  endless supply of tokens, so it finds an isomorphism G -> H whenever
  there is one.  A found map is checked again, as a permutation whose rows
  ``is_isomorphism`` accepts, before it is returned; a failure raises
  ``CertificateError``.
- ``copy_representatives`` first keys every graph by its sorted
  (degree, triangles at the vertex) pairs.  A graph whose key no other
  graph holds stays a representative unsearched.  The others are bucketed
  by that key and the sorted K4 counts, the triangles inside each vertex's
  neighbourhood, which also colour it.  It searches each graph's tree
  from its root seeded by those colours against the first paths of the
  representatives in its own bucket, with n tokens for all of one graph's
  attempts, and stops searching once the graphs searched and failed
  outnumber the certified ones by more than ``COPY_SEARCH_FAILURES``.  An
  isomorphism preserves the colours, so it maps each colour cell onto the
  cell of the same value, and the seeded search is as complete as the
  plain one.  A found map is checked again as ``find_isomorphism`` checks
  it.  Running out only leaves a copy as a representative of its own, so
  no two graphs are joined without a verified certificate.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import compress, count, repeat
from operator import itemgetter, length_hint
from typing import Iterable, Iterator, NamedTuple, Sequence

MAX_VERTICES = 4096
ORBIT_SEARCH_NODES_PER_VERTEX = 4
# how far the graphs whose copy search failed may outnumber the certified
# ones before ``copy_representatives`` searches no more
COPY_SEARCH_FAILURES = 4

# binary digits "0"/"1" as the byte values 0/1
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


class SrgParams(NamedTuple):
    """Parameters (n, d, alpha, beta) of a strongly regular graph."""

    n: int
    d: int
    alpha: int
    beta: int


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    ``rows[i]`` is the neighbourhood of vertex i as a bitmask.  Construction
    validates the invariants: no loops, symmetric adjacency, no vertex index
    outside 0..n-1.  Graphs are equal, and hash alike, when their rows are.
    """

    __slots__ = ("rows",)
    rows: tuple[int, ...]

    def __init__(self, rows: tuple[int, ...]) -> None:
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
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: a Graph is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: a Graph is immutable")

    def __eq__(self, other) -> bool:
        return self.rows == other.rows if other.__class__ is Graph else NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Graph(rows={self.rows!r})"

    def __reduce__(self):
        return Graph, (self.rows,)

    @property
    def n(self) -> int:
        return len(self.rows)

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Neighbours of u in ascending order, from the binary digits of row
        u, least significant first, with no Python step per vertex."""
        return tuple(compress(count(), f"{self.rows[u]:b}".encode()[::-1].translate(_BIT_VALUES)))

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2


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


def is_isomorphism(G: Graph, H: Graph, f: Sequence[int]) -> bool:
    """Whether the permutation f of 0..n-1, f[u] the image of u, maps G onto
    H: {u, v} is an edge of G exactly when {f[u], f[v]} is an edge of H.

    Each row of G goes through f as one string operation and must equal the
    row of H at f[u].  f must be a permutation; callers that take f from
    outside check that first.
    """
    n = G.n
    if H.n != n or len(f) != n:
        return False
    inverse = [0] * n
    for u, w in enumerate(f):
        inverse[w] = u
    # digit j of a row's n-digit binary text is bit n-1-j; bit w of the
    # image of a row is bit inverse[w] of the row
    image = itemgetter(*[n - 1 - inverse[n - 1 - j] for j in range(n)])
    spec = f"0{n}b"
    target = H.rows
    return all(int("".join(image(format(row, spec))), 2) == target[w] for row, w in zip(G.rows, f))


def vertex_orbits(G: Graph) -> list[tuple[int, ...]]:
    """Orbits of the automorphisms of G that the individualisation-refinement
    search of the module docstring finds within its node bound, each in
    ascending order and ordered by their least vertex.

    Two vertices share an orbit only when a permutation that
    ``is_isomorphism`` accepted as an automorphism joins them.  Once the
    searches have refined ``ORBIT_SEARCH_NODES_PER_VERTEX`` times n nodes,
    every later search returns None, so the orbits are those of the
    automorphisms found so far: finer than Aut(G)'s, never coarser.
    """
    n, rows = G.n, G.rows
    orbit = list(range(n))  # union-find parents
    nodes = repeat(None, ORBIT_SEARCH_NODES_PER_VERTEX * n)

    def find(v: int) -> int:
        while orbit[v] != v:
            orbit[v] = v = orbit[orbit[v]]
        return v

    path = _first_path(rows)
    for level in reversed(range(len(path) - 1)):
        cells, _, t = path[level]
        v = cells[t][0]
        failed: set[int] = set()  # roots of the vertices whose search failed
        for w in cells[t]:
            root = find(w)
            if root == find(v) or root in failed:
                continue
            gamma = _search(G, G, path, level + 1, _children(rows, cells, t, [w], nodes), nodes)
            if gamma is None:
                failed.add(root)
                continue
            for u, image in enumerate(gamma):
                a, b = find(u), find(image)
                if a != b:
                    orbit[max(a, b)] = min(a, b)
            failed = set(map(find, failed))
    orbits: dict[int, list[int]] = {}
    for v in range(n):
        orbits.setdefault(find(v), []).append(v)
    return [tuple(members) for members in orbits.values()]


class CertificateError(RuntimeError):
    """An isomorphism certificate failed re-verification: internal invariant violation."""


def find_isomorphism(G: Graph, H: Graph) -> tuple[int, ...] | None:
    """An isomorphism f from G onto H as a tuple, f[u] the image of u, or
    None when there is none.

    Runs the search of the module docstring from H's root with an endless
    supply of nodes, so None means H's tree holds no leaf that maps G onto
    H, and then no isomorphism exists.  A found map is re-verified, row by
    row by ``is_isomorphism``, before it is returned.
    """
    if G.n != H.n:
        return None
    return _certificate(G, _first_path(G.rows), H, _root(H.rows), repeat(None))


def copy_representatives(graphs: Sequence[Graph]) -> list[int]:
    """For each graph, the index of the graph it is a certified copy of, or
    its own index when it is a representative.

    Every graph is first keyed by its sorted (degree, triangles at the
    vertex) pairs (``_triangle_key``), equal keys sharing one bytes object.
    A graph whose key no other graph holds stays a representative, with no
    K4 count and no search.  The others are taken in order, so a copy's
    representative comes before it, and each is keyed again by its sorted
    K4 counts (``_k4_counts``), which also colour the graph.  It is tried
    against the representatives with both its keys in order, by the search
    of the module docstring from its root seeded with its colours, with n
    tokens shared across its attempts; a graph that gets no certificate
    becomes a representative itself.  A representative with other keys is
    never tried: the keys are invariants, so no certificate exists.  A
    graph's root is refined once, a representative's first path, from its
    seeded root, only when a graph with tokens left is tried against it,
    and no attempt starts once the tokens are spent.  Once the graphs
    searched and failed outnumber the certified ones by more than
    ``COPY_SEARCH_FAILURES``, the rest stay representatives, with no K4
    count and no search.  A map is taken only once ``_verify_certificate``
    has accepted it.  Running out of tokens only leaves copies apart, never
    joins two graphs.  Colours and first paths are kept for
    representatives only.

    Both trees are seeded with cells of one colour each, ordered by value,
    so for equal profiles the cells pair up value by value with equal sizes,
    and every isomorphism maps each of G's cells onto H's cell in the same
    place: the shape check of ``_search`` stays sound.
    """
    first: dict[bytes, bytes] = {}
    keys = [first.setdefault(key, key) for key in (_triangle_key(H.rows) for H in graphs)]
    shared = {key for key, n in Counter(keys).items() if n > 1}
    copies = list(range(len(graphs)))
    # (first key, sorted K4 counts) -> the representatives with them, in
    # order, each with its K4 counts
    buckets: dict[tuple[bytes, tuple[int, ...]], list[tuple[int, list[int]]]] = {}
    paths: dict[int, list[_PathNode]] = {}
    certified = failed = 0
    for i, H in enumerate(graphs):
        if keys[i] not in shared:
            continue
        if failed - certified > COPY_SEARCH_FAILURES:
            break
        colours = _k4_counts(H.rows)
        representatives = buckets.setdefault((keys[i], tuple(sorted(colours))), [])
        if representatives:
            root, nodes = _root(H.rows, colours), repeat(None, H.n)
            for r, r_colours in representatives:
                if not length_hint(nodes):
                    break
                if r not in paths:
                    paths[r] = _first_path(graphs[r].rows, r_colours)
                if _certificate(graphs[r], paths[r], H, root, nodes) is not None:
                    copies[i] = r
                    break
            if copies[i] != i:
                certified += 1
                continue
            failed += 1
        representatives.append((i, colours))
    return copies


def _triangle_key(rows: tuple[int, ...]) -> bytes:
    """The sorted (degree, triangles at the vertex) pairs of a graph, each
    packed as degree << 32 | triangles into 8 bytes: an isomorphism
    invariant, about an eighth the size of a tuple of pairs, as a call keeps
    one per distinct key.  Each triangle u, v, w with v < w counts at u
    once, at v."""
    pairs = []
    for row in rows:
        total = 0
        later = row
        while later:
            low = later & -later
            later ^= low
            total += (rows[low.bit_length() - 1] & later).bit_count()
        pairs.append(row.bit_count() << 32 | total)
    pairs.sort()
    return array("Q", pairs).tobytes()


def _certificate(G: Graph, path: list[_PathNode], H: Graph, root: list[list[int]],
                 nodes: Iterator[None]) -> tuple[int, ...] | None:
    """A map of G onto H found by searching H's tree from ``root``, H's
    root, with ``path`` G's first path, re-verified before it is returned,
    or None."""
    f = _search(G, H, path, 0, [root], nodes)
    if f is None:
        return None
    certificate = tuple(f)
    _verify_certificate(G, H, certificate)
    return certificate


def _verify_certificate(G: Graph, H: Graph, f: tuple[int, ...]) -> None:
    if sorted(f) != list(range(G.n)):
        raise CertificateError(f"certificate is not a permutation: {f}")
    if not is_isomorphism(G, H, f):
        raise CertificateError(f"certificate {f} does not map the edges of G onto those of H")


# a node of the first path: its cells, their sizes, and the index of the cell
# whose vertices its children individualise (None at the leaf)
_PathNode = tuple[list[list[int]], list[int], int | None]


def _root(rows: tuple[int, ...], colours: Sequence[int] | None = None) -> list[list[int]]:
    """The root of the search tree: the equitable refinement of one cell per
    colour value, in ascending order of value, with every cell a splitter;
    without ``colours``, of one cell."""
    if colours is None:
        cells = [list(range(len(rows)))]
    else:
        by_value: dict[int, list[int]] = {}
        for v, c in enumerate(colours):
            by_value.setdefault(c, []).append(v)
        cells = [by_value[c] for c in sorted(by_value)]
    return _refine(rows, cells, [sum(map((1).__lshift__, cell)) for cell in cells])


def _k4_counts(rows: tuple[int, ...]) -> list[int]:
    """For each vertex u, the number of triangles inside N(u), that is of
    the K4s through u: an isomorphism invariant colouring.  Each triangle
    v < w < x of N(u) is counted once, at its least two vertices."""
    counts = []
    for row in rows:
        total = 0
        later = row
        while later:
            low = later & -later
            later ^= low
            common = rows[low.bit_length() - 1] & later  # the w > v of N(u) adjacent to v
            while common:
                low = common & -common
                common ^= low
                total += (rows[low.bit_length() - 1] & common).bit_count()
        counts.append(total)
    return counts


def _child(rows: tuple[int, ...], cells: list[list[int]], t: int, x: int) -> list[list[int]]:
    """The child of the node ``cells`` that individualises x, first in its
    cell t, refined."""
    rest = [v for v in cells[t] if v != x]
    return _refine(rows, cells[:t] + [[x], rest] + cells[t + 1:], [1 << x])


def _children(rows: tuple[int, ...], cells: list[list[int]], t: int, xs: Iterable[int],
              nodes: Iterator[None]) -> Iterator[list[list[int]]]:
    """The children of the node ``cells`` that individualise each vertex x
    of ``xs``, from its cell t, in turn, each refined only when it is
    reached and only while ``nodes`` yields a token for it."""
    return (_child(rows, cells, t, x) for x, _ in zip(xs, nodes))


def _first_path(rows: tuple[int, ...], colours: Sequence[int] | None = None) -> list[_PathNode]:
    """The first path of the search tree, from the root that ``_root`` gives
    for ``colours`` down to a discrete leaf: each node's child
    individualises the first vertex of its first cell with more than one
    vertex."""
    cells = _root(rows, colours)
    path: list[_PathNode] = []
    while len(cells) < len(rows):
        t = next(i for i, cell in enumerate(cells) if len(cell) > 1)
        path.append((cells, list(map(len, cells)), t))
        cells = _child(rows, cells, t, cells[t][0])
    path.append((cells, [1] * len(rows), None))
    return path


def _search(G: Graph, H: Graph, path: list[_PathNode], depth: int,
            starts: Iterable[list[list[int]]], nodes: Iterator[None]) -> list[int] | None:
    """Depth first through H's search tree below the nodes ``starts`` at
    ``depth``, for a leaf whose permutation maps G onto H, or None.

    ``path`` is G's first path.  A node is kept only if its cell sizes equal
    those of the path's node at the same depth; its children individualise,
    in turn, each vertex of the cell in the path's target position, and each
    child refined takes one token of ``nodes``.  A leaf lambda gives the
    permutation lambda0[i] -> lambda[i], lambda0 the path's leaf, returned
    once ``is_isomorphism`` accepts it.
    """
    stack = [(depth, iter(starts))]
    while stack:
        depth, siblings = stack[-1]
        cells = next(siblings, None)
        if cells is None:
            stack.pop()
            continue
        _, shape, t = path[depth]
        if list(map(len, cells)) != shape:
            continue
        if t is not None:
            stack.append((depth + 1, _children(H.rows, cells, t, cells[t], nodes)))
            continue
        gamma = [0] * G.n
        for (u,), (image,) in zip(path[-1][0], cells):
            gamma[u] = image
        if is_isomorphism(G, H, gamma):
            return gamma
    return None


def _refine(rows: tuple[int, ...], cells: list[list[int]], splitters: list[int]) -> list[list[int]]:
    """The equitable refinement of the ordered partition ``cells`` that
    splits cells by neighbour counts in each vertex mask of ``splitters``
    and of the parts split off on the way.

    ``cells`` is refined in place and returned.  The parts of a split cell
    take its place in ascending order of count, so relabelling ``cells`` and
    ``splitters`` relabels the result.  Counts in
    one part of each split follow from the cell's and the other parts', so
    the first largest part is not queued.  The result is equitable when the
    splitters hold every cell of ``cells``, or when ``cells`` is an
    equitable partition with one vertex individualised and the splitters
    hold that vertex.
    """
    n = len(rows)
    queue = list(splitters)
    for mask in queue:  # grows while it is read
        if len(cells) == n:
            break
        split = []
        for i, cell in enumerate(cells):
            if len(cell) > 1:
                counts = [(rows[v] & mask).bit_count() for v in cell]
                if min(counts) != max(counts):
                    parts: dict[int, list[int]] = {}
                    for c, v in zip(counts, cell):
                        parts.setdefault(c, []).append(v)
                    split.append((i, [parts[c] for c in sorted(parts)]))
        if not split:
            continue
        for i, parts in reversed(split):
            cells[i:i + 1] = parts
            largest = max(parts, key=len)
            queue.extend(sum(map((1).__lshift__, part)) for part in parts if part is not largest)
    return cells
