import random
import re
from itertools import permutations, repeat

import pytest

from walkgi import (
    Graph,
    SrgParams,
    build_graph,
    degree_sequence,
    find_isomorphism,
    is_isomorphism,
    local_complement,
    srg_parameters,
    vertex_orbits,
)
import walkgi.graph as graph_module
from walkgi.graph import _certificate, _first_path, _root, copy_representatives
from fixture_graphs import (
    cayley_table,
    chang_graphs,
    clebsch,
    complete,
    cycle,
    empty_graph,
    hoffman_singleton,
    latin_square_graph,
    order_8_group_tables,
    paley,
    path,
    petersen,
    rook,
    shrikhande,
    star,
    triangular,
)
from oracles import (
    automorphism_count,
    automorphism_orbits,
    edge_swapped,
    loop_validate,
    naive_srg,
    random_graph,
    random_permutation,
    relabeled,
)


def test_build_graph_basic():
    G = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert G.n == 4
    assert G.edge_count() == 3
    assert G.has_edge(0, 1) and G.has_edge(1, 0)
    assert not G.has_edge(0, 2)
    assert sorted(G.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_build_graph_symmetrizes_and_dedups():
    G = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert G.edge_count() == 1


def test_build_graph_rejects_loops_and_range():
    with pytest.raises(ValueError):
        build_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        build_graph(3, [(-1, 0)])


def test_graph_vertex_count_bounds():
    with pytest.raises(ValueError):
        Graph(())
    with pytest.raises(ValueError):
        build_graph(0, [])
    with pytest.raises(ValueError):
        build_graph(4097, [])
    assert build_graph(4096, []).n == 4096


def test_graph_rejects_asymmetric_rows():
    # row 0 claims edge to 1, row 1 disagrees
    with pytest.raises(ValueError):
        Graph((0b010, 0b000, 0b000))


def test_graph_rejects_diagonal_bits():
    with pytest.raises(ValueError):
        Graph((0b001,))


def test_graph_rejects_out_of_range_bits():
    with pytest.raises(ValueError):
        Graph((0b100, 0b000))


def validation_error(validate, rows):
    """None if ``validate`` accepts rows, else the numbers its error names."""
    try:
        validate(rows)
    except ValueError as exc:
        return sorted(map(int, re.findall(r"\d+", str(exc))))
    return None


def corruptions(rows):
    """Every single-bit corruption of valid rows: each adjacency bit flipped
    on one side only, each diagonal bit set, each out-of-range bit up to
    n + 1 set, each row made negative."""
    n = len(rows)
    for i in range(n):
        for j in range(n + 2):
            yield rows[:i] + (rows[i] ^ (1 << j),) + rows[i + 1:]
        yield rows[:i] + (-1 - rows[i],) + rows[i + 1:]
        yield rows[:i] + (-(1 << i),) + rows[i + 1:]


def test_validation_matches_loop_oracle_on_corruptions():
    # every corruption breaks one invariant: the string-based checks reject
    # it as the edge loop does, and name the same vertex or pair
    rng = random.Random(41)
    cases = [random_graph(rng, n, p) for n in range(1, 9) for p in (0.2, 0.5, 0.9) for _ in range(3)]
    cases += [complete(8), empty_graph(8), star(7), path(8)]
    for G in cases:
        assert validation_error(Graph, G.rows) is None
        for rows in corruptions(G.rows):
            expected = validation_error(loop_validate, rows)
            assert expected is not None
            assert validation_error(Graph, rows) == expected, rows


def test_validation_matches_loop_oracle_on_random_rows():
    # random graphs, and random rows with several violations at once
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randint(1, 30)
        rows = random_graph(rng, n, rng.random()).rows
        assert validation_error(Graph, rows) is None
        noisy = list(rows)
        for _ in range(rng.randint(1, 3)):
            noisy[rng.randrange(n)] ^= 1 << rng.randrange(n + 1)
        noisy = tuple(noisy)
        assert (validation_error(Graph, noisy) is None) == (validation_error(loop_validate, noisy) is None)


def test_neighbors_and_degree():
    G = star(3)
    assert sorted(G.neighbors(0)) == [1, 2, 3]
    assert list(G.neighbors(1)) == [0]
    assert G.degree(0) == 3
    assert G.degree(2) == 1
    rng = random.Random(12)
    for _ in range(50):
        G = random_graph(rng, rng.randint(1, 70), rng.random())
        for u in range(G.n):
            assert G.neighbors(u) == tuple(v for v in range(G.n) if G.has_edge(u, v))


def test_degree_sequence_sorted():
    assert degree_sequence(star(3)) == (1, 1, 1, 3)
    assert degree_sequence(cycle(5)) == (2, 2, 2, 2, 2)
    assert degree_sequence(empty_graph(3)) == (0, 0, 0)


def test_edges_iteration_matches_has_edge():
    rng = random.Random(11)
    for _ in range(20):
        G = random_graph(rng, rng.randint(1, 12))
        listed = set(G.edges())
        for u in range(G.n):
            for v in range(u + 1, G.n):
                assert ((u, v) in listed) == G.has_edge(u, v)


def identity_holds(p):
    """d(d - alpha - 1) = (n - d - 1) beta, the standard feasibility identity."""
    return p.d * (p.d - p.alpha - 1) == (p.n - p.d - 1) * p.beta


def test_srg_params_identity():
    assert identity_holds(SrgParams(10, 3, 0, 1))
    assert identity_holds(SrgParams(16, 6, 2, 2))
    assert not identity_holds(SrgParams(10, 3, 0, 2))
    for G in (petersen(), cycle(5), rook(4), shrikhande()):
        assert identity_holds(srg_parameters(G))


def test_srg_parameters_known_graphs():
    assert srg_parameters(petersen()) == SrgParams(10, 3, 0, 1)
    assert srg_parameters(cycle(5)) == SrgParams(5, 2, 0, 1)
    assert srg_parameters(cycle(4)) == SrgParams(4, 2, 0, 2)
    assert srg_parameters(rook(4)) == SrgParams(16, 6, 2, 2)
    assert srg_parameters(shrikhande()) == SrgParams(16, 6, 2, 2)


def test_srg_parameters_clebsch_and_hoffman_singleton():
    assert srg_parameters(clebsch()) == SrgParams(16, 5, 0, 2)
    assert srg_parameters(hoffman_singleton()) == SrgParams(50, 7, 0, 1)


def test_srg_parameters_non_srg():
    assert srg_parameters(path(4)) is None  # not regular
    assert srg_parameters(cycle(6)) is None  # beta not constant
    assert srg_parameters(star(3)) is None
    # complete and edgeless are regular but degenerate, not SRGs here
    assert srg_parameters(complete(4)) is None
    assert srg_parameters(empty_graph(4)) is None
    assert srg_parameters(empty_graph(1)) is None


def test_srg_parameters_against_naive_counting():
    rng = random.Random(23)
    cases = [petersen(), cycle(5), cycle(6), rook(4), complete(5), empty_graph(5)]
    cases += [random_graph(rng, rng.randint(2, 10)) for _ in range(40)]
    for G in cases:
        params = srg_parameters(G)
        got = None if params is None else (params.n, params.d, params.alpha, params.beta)
        assert got == naive_srg(G)


def test_local_complement_triangle():
    # complementing among N(0) = {1,2} removes the edge 1-2
    G = complete(3)
    L = local_complement(G, 0)
    assert sorted(L.edges()) == [(0, 1), (0, 2)]


def test_local_complement_leaves_non_neighbours_alone():
    G = build_graph(5, [(0, 1), (0, 2), (3, 4), (1, 2)])
    L = local_complement(G, 0)
    assert L.has_edge(3, 4)
    assert not L.has_edge(1, 2)
    assert L.has_edge(0, 1) and L.has_edge(0, 2)


def test_local_complement_fixed_points():
    G = path(4)
    # degree <= 1 vertices have no neighbour pairs to flip
    assert local_complement(G, 0) == G
    L = local_complement(empty_graph(3), 1)
    assert L == empty_graph(3)


def test_local_complement_involution_random():
    rng = random.Random(37)
    for _ in range(200):
        G = random_graph(rng, rng.randint(1, 12))
        u = rng.randrange(G.n)
        assert local_complement(local_complement(G, u), u) == G


def test_local_complement_vertex_range():
    G = path(3)
    with pytest.raises(ValueError):
        local_complement(G, 3)
    with pytest.raises(ValueError):
        local_complement(G, -1)


def test_is_isomorphism_accepts_automorphisms_and_relabellings():
    G = paley(13)
    assert is_isomorphism(G, G, [(4 * x + 1) % 13 for x in range(13)])  # 4 is a square mod 13
    assert not is_isomorphism(G, G, [(2 * x) % 13 for x in range(13)])  # 2 is not
    rng = random.Random(51)
    for _ in range(100):
        G = random_graph(rng, rng.randint(1, 9))
        perm = random_permutation(rng, G.n)
        H = relabeled(G, perm)
        assert is_isomorphism(G, H, perm)
        assert is_isomorphism(H, G, [perm.index(v) for v in range(G.n)])
    assert not is_isomorphism(path(3), path(4), (0, 1, 2))


def test_is_isomorphism_rejects_one_flipped_edge():
    # an automorphism of G, checked against G with any one pair flipped
    G = paley(13)
    gamma = [(4 * x + 1) % 13 for x in range(13)]
    for u in range(13):
        for v in range(u + 1, 13):
            rows = list(G.rows)
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
            flipped = Graph(tuple(rows))
            assert not is_isomorphism(G, flipped, gamma)
            assert not is_isomorphism(flipped, G, gamma)


def _symmetric_fixtures():
    c0, c1, c2 = chang_graphs()
    return {"T(8)": triangular(8), "Chang[0]": c0, "Chang[1]": c1, "Chang[2]": c2,
            "rook(4)": rook(4), "Shrikhande": shrikhande(), "rook(6)": rook(6),
            "Paley(13)": paley(13), "Paley(17)": paley(17), "Paley(37)": paley(37)}


def test_vertex_orbits_match_networkx_on_srgs():
    pytest.importorskip("networkx")
    rng = random.Random(52)
    sizes = {}
    for name, G in _symmetric_fixtures().items():
        expected = automorphism_orbits(G)
        assert vertex_orbits(G) == expected, name
        for _ in range(2):
            perm = random_permutation(rng, G.n)
            moved = sorted(tuple(sorted(perm[u] for u in orbit)) for orbit in expected)
            assert vertex_orbits(relabeled(G, perm)) == moved, name
        sizes[name] = sorted(map(len, expected))
    assert sizes["T(8)"] == [28] and sizes["Paley(37)"] == [37]
    assert (sizes["Chang[0]"], sizes["Chang[1]"], sizes["Chang[2]"]) == ([4, 24], [4, 24], [10, 18])


def test_vertex_orbits_are_singletons_on_edge_swapped_regular_graphs():
    pytest.importorskip("networkx")
    rng = random.Random(53)
    for _ in range(4):
        G = edge_swapped(triangular(8), 60, rng)
        assert degree_sequence(G) == (12,) * 28
        assert automorphism_count(G) == 1
        assert vertex_orbits(G) == [(v,) for v in range(28)]


def test_vertex_orbits_lie_inside_true_orbits_on_small_graphs():
    pytest.importorskip("networkx")
    rng = random.Random(54)
    for _ in range(150):
        G = random_graph(rng, rng.randint(1, 8), rng.choice((0.2, 0.5, 0.8)))
        orbits = vertex_orbits(G)
        assert sorted(v for orbit in orbits for v in orbit) == list(range(G.n))
        assert all(list(orbit) == sorted(orbit) for orbit in orbits)
        true_orbit = {v: orbit for orbit in automorphism_orbits(G) for v in orbit}
        for orbit in orbits:
            assert set(orbit) <= set(true_orbit[orbit[0]])


def test_vertex_orbits_are_one_orbit_on_latin_square_graphs_of_groups():
    """The Latin square graph of a group's Cayley table is vertex-transitive:
    left and right translations move any cell to any other."""
    rng = random.Random(55)
    tables = {
        "Z6": cayley_table(range(6), lambda a, b: (a + b) % 6),
        "S3": cayley_table(list(permutations(range(3))), lambda a, b: tuple(a[i] for i in b)),
        "Z8": cayley_table(range(8), lambda a, b: (a + b) % 8),
    }
    for name, table in tables.items():
        G = latin_square_graph(table)
        one = [tuple(range(G.n))]
        assert vertex_orbits(G) == one, name
        for _ in range(2):
            assert vertex_orbits(relabeled(G, random_permutation(rng, G.n))) == one, name


def test_vertex_orbits_without_search_nodes_are_singletons(monkeypatch):
    monkeypatch.setattr("walkgi.graph.ORBIT_SEARCH_NODES_PER_VERTEX", 0)
    for G in (triangular(8), paley(13), complete(5), empty_graph(1)):
        assert vertex_orbits(G) == [(v,) for v in range(G.n)]


def test_copy_certificates_take_at_most_n_tokens():
    # a failed attempt spends the whole budget and gives no certificate
    tables = order_8_group_tables()
    z8, q8 = latin_square_graph(tables["Z8"]), latin_square_graph(tables["Q8"])
    nodes = repeat(None, 64)
    assert _certificate(z8, _first_path(z8.rows), q8, _root(q8.rows), nodes) is None
    assert next(nodes, "spent") == "spent"
    assert copy_representatives([z8, q8], 1) == [0, 1]
    # a relabelled T(8) is certified within n tokens, by a verified map
    rng = random.Random(57)
    G = triangular(8)
    H = relabeled(G, random_permutation(rng, 28))
    f = _certificate(G, _first_path(G.rows), H, _root(H.rows), repeat(None, 28))
    assert f is not None and is_isomorphism(G, H, f)
    assert copy_representatives([G, H], 1) == [0, 0]
    assert copy_representatives([G, H], 0) == [0, 0]
    assert copy_representatives([G, H], 2) == [0, 1]


def test_copy_representatives_keep_copies_apart_when_the_budget_runs_out():
    # n tokens do not certify every copy: this relabelled pair of a Chang
    # graph needs more, so both stay representatives, though isomorphic
    rng = random.Random(4)
    A, B = (relabeled(chang_graphs()[0], random_permutation(rng, 28)) for _ in range(2))
    assert find_isomorphism(A, B) is not None
    assert copy_representatives([A, B], 1) == [0, 1]


def _z8_q8_copies():
    rng = random.Random(8)
    tables = order_8_group_tables()
    z8, q8 = latin_square_graph(tables["Z8"]), latin_square_graph(tables["Q8"])
    return z8, relabeled(z8, random_permutation(rng, 64)), q8, relabeled(q8, random_permutation(rng, 64))


def _counting(monkeypatch, name):
    """The calls to the graph module's function ``name`` from here on."""
    calls = []
    function = getattr(graph_module, name)

    def counted(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(graph_module, name, counted)
    return calls


def test_copy_representatives_stop_trying_once_the_tokens_are_spent(monkeypatch):
    # the Q8 copy spends its 64 tokens on Z8, so Q8's first path is never built
    z8, z8_copy, q8, q8_copy = _z8_q8_copies()
    paths = _counting(monkeypatch, "_first_path")
    assert copy_representatives([z8, z8_copy, q8, q8_copy], 0) == [0, 0, 2, 3]
    assert [args[0] for args in paths] == [z8.rows]


def test_copy_representatives_stop_searching_once_failures_outnumber_certificates(monkeypatch):
    z8, z8_copy, q8, q8_copy = _z8_q8_copies()
    searches = _counting(monkeypatch, "_search")
    # Q8 fails against Z8 with nothing certified yet: its copy is not searched
    assert copy_representatives([z8, q8, q8_copy], 0) == [0, 1, 2]
    assert len(searches) == 1
    # one certificate pays for one failure, so a second Q8 copy is searched
    searches.clear()
    q8_again = relabeled(q8, random_permutation(random.Random(9), 64))
    assert copy_representatives([q8, q8_copy, z8, q8_again], 0) == [0, 0, 2, 0]
    assert len(searches) == 3
