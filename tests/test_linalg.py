import random
from math import isqrt, prod

import pytest

from walkgi import (build_graph, determinant, lc_determinants, local_complement, srg_parameters,
                    walk_powers)
from walkgi.linalg import _HankelPivots, _bareiss, _lane, _packed, _scaled_inverse
from fixture_graphs import (
    chang_graphs,
    clebsch,
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    empty_graph,
    hoffman_singleton,
    paley,
    path,
    petersen,
    rook,
    shrikhande,
    star,
    triangular,
)
from oracles import (
    IntMatrix,
    adjacency_matrix,
    bareiss_first_pivot_determinant,
    cofactor_determinant,
    count_walks,
    dense_upper_powers,
    distinct_eigenvalue_count,
    fraction_gauss_determinant,
    fraction_inverse,
    mat_mul,
    mat_pow,
    random_graph,
)


def random_matrix(rng, n, lo=-9, hi=9):
    return IntMatrix(tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(n)))


def ones(n):
    return IntMatrix(((1,) * n,) * n)


def test_intmatrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(())
    with pytest.raises(ValueError):
        IntMatrix(((1, 2), (3,)))
    with pytest.raises(ValueError):
        IntMatrix(((1.5,),))
    assert IntMatrix([[1, 2], [3, 4]]).rows == ((1, 2), (3, 4))


def test_identity_and_ones():
    assert IntMatrix.identity(2).rows == ((1, 0), (0, 1))
    assert ones(2).rows == ((1, 1), (1, 1))


def test_adjacency_matrix():
    G = build_graph(3, [(0, 1), (1, 2)])
    A = adjacency_matrix(G)
    assert A.rows == ((0, 1, 0), (1, 0, 1), (0, 1, 0))
    assert A.is_symmetric()
    assert not IntMatrix(((1, 2), (3, 4))).is_symmetric()
    assert IntMatrix(((2, 5), (5, 8))).is_symmetric()


def test_mat_mul_matches_schoolbook():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 6)
        A = random_matrix(rng, n)
        B = random_matrix(rng, n)
        C = mat_mul(A, B)
        for i in range(n):
            for j in range(n):
                assert C.rows[i][j] == sum(A.rows[i][k] * B.rows[k][j] for k in range(n))
    with pytest.raises(ValueError, match="dimension mismatch"):
        mat_mul(IntMatrix(((1, 2), (3, 4))), IntMatrix.identity(3))


def test_mat_pow():
    A = IntMatrix(((1, 1), (0, 1)))
    assert mat_pow(A, 1) == A
    assert mat_pow(A, 5).rows == ((1, 5), (0, 1))
    with pytest.raises(ValueError):
        mat_pow(A, 0)


def test_mat_pow_counts_walks():
    rng = random.Random(6)
    for _ in range(30):
        G = random_graph(rng, rng.randint(1, 7))
        A = adjacency_matrix(G)
        for k in (1, 2, 3, 4):
            P = mat_pow(A, k)
            for u in range(G.n):
                for v in range(G.n):
                    assert P.rows[u][v] == count_walks(G, u, v, k)


def test_determinant_known_values():
    assert determinant(empty_graph(1)) == 0
    assert determinant(complete(2)) == -1
    assert determinant(complete(3)) == 2
    assert determinant(disjoint_union(complete(2), complete(2))) == 1
    assert determinant(cycle(4)) == 0
    assert determinant(path(3)) == 0
    assert determinant(petersen()) == 48


def test_determinant_row_swap_sign():
    # the diagonal is zero, so the first pivot always comes from a row swap;
    # K_n has the spectrum n-1, -1^(n-1)
    for n in range(2, 9):
        assert determinant(complete(n)) == (-1) ** (n - 1) * (n - 1)


def test_determinant_zero_column_early():
    # an isolated vertex leaves its column without a pivot
    assert determinant(disjoint_union(empty_graph(1), complete(4))) == 0
    assert determinant(disjoint_union(complete(3), empty_graph(2))) == 0


def test_determinant_against_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(150):
        G = random_graph(rng, rng.randint(1, 7), rng.choice((0.2, 0.5, 0.8)))
        assert determinant(G) == cofactor_determinant(adjacency_matrix(G).rows)


def test_determinant_against_independent_eliminations():
    rng = random.Random(8)
    for _ in range(80):
        G = random_graph(rng, rng.randint(1, 12), rng.choice((0.2, 0.5, 0.8)))
        rows = adjacency_matrix(G).rows
        d = determinant(G)
        assert d == bareiss_first_pivot_determinant(rows)
        assert d == fraction_gauss_determinant(rows)


LC_DETERMINANT_GRAPHS = {
    "rook4": rook(4), "shrikhande": shrikhande(), "T8": triangular(8),
    **{f"chang{i}": G for i, G in enumerate(chang_graphs())},
    "C7": cycle(7), "P6": path(6), "star5": star(5),
    "paley37": paley(37), "rook6": rook(6),
}


@pytest.mark.parametrize("name", LC_DETERMINANT_GRAPHS)
def test_determinant_of_local_complements(name):
    # every graph lc_determinant_profile feeds the kernel for this family
    G = LC_DETERMINANT_GRAPHS[name]
    for u in range(G.n):
        L = local_complement(G, u)
        rows = adjacency_matrix(L).rows
        d = determinant(L)
        assert d == bareiss_first_pivot_determinant(rows)
        assert d == fraction_gauss_determinant(rows)
        if L.n <= 7:
            assert d == cofactor_determinant(rows)
    assert lc_determinants(G) == [determinant(local_complement(G, u)) for u in range(G.n)]


def graph_with_isolated_vertices(rng, n, p):
    """A random graph whose vertices outside a random subset have no edges."""
    live = set(rng.sample(range(n), rng.randint(0, n - 1)))
    return build_graph(n, [(u, v) for u in live for v in live if u < v and rng.random() < p])


def test_lc_determinants_match_per_complement_determinants():
    # the lemma path, with one lane width for A, its scaled inverse and every
    # K_u, must agree with each complement's own determinant; a zero row
    # gives all zeros at once, and any other singular A takes the definition
    rng = random.Random(15)
    graphs = [empty_graph(1), *(empty_graph(n) for n in (2, 5, 9)), *(star(k) for k in range(1, 12)),
              *(complete(n) for n in range(2, 21)), path(9), cycle(8), petersen()]
    graphs += [random_graph(rng, rng.randint(1, 24), rng.choice((0.1, 0.3, 0.5, 0.8, 0.95)))
               for _ in range(60)]
    graphs += [graph_with_isolated_vertices(rng, rng.randint(2, 20), rng.choice((0.2, 0.5, 0.9)))
               for _ in range(60)]
    # a singular graph with no zero row, and a nonsingular one with a
    # degree-1 vertex u, whose K_u is 1 x 1
    pendant = build_graph(11, [*petersen().edges(), (0, 10)])
    graphs += [complete_multipartite(3, 3, 3), complete_multipartite(2, 3, 4), pendant]
    assert determinant(complete_multipartite(3, 3, 3)) == 0 and determinant(pendant) != 0
    # both paths run: the shared inverse when det A != 0, the definition
    # when det A = 0
    assert {determinant(G) == 0 for G in graphs} == {True, False}
    checked = 0
    for G in graphs:
        dets = lc_determinants(G)
        assert dets == [determinant(local_complement(G, u)) for u in range(G.n)]
        # the definition is the code under test on a singular A, so there an
        # elimination over Fraction checks it as well
        if all(G.rows) and G.n <= 13 and determinant(G) == 0:
            checked += 1
            assert dets == [fraction_gauss_determinant(adjacency_matrix(local_complement(G, u)).rows)
                            for u in range(G.n)]
    assert checked == 29


def test_lc_determinants_of_a_graph_with_a_zero_row_builds_no_complement(monkeypatch):
    # a zero row stays zero in every G_u, so every entry is 0 at once
    def refuse(G, u):
        raise AssertionError("local_complement called")

    monkeypatch.setattr("walkgi.linalg.local_complement", refuse)
    G = disjoint_union(petersen(), empty_graph(1))
    assert lc_determinants(G) == [0] * 11
    assert lc_determinants(empty_graph(1)) == [0]


def unpacked(row, lane, n):
    """The n signed lanes of a packed row, lowest first."""
    X = 1 << 8 * lane
    entries = []
    for _ in range(n):
        v = row & X - 1
        if v >= X >> 1:
            v -= X
        entries.append(v)
        row = (row - v) >> 8 * lane
    return entries


def check_scaled_inverse(rows, n):
    lane = _lane(n, prod(row.bit_count() for row in rows))
    p, sign, B = _scaled_inverse(_packed(rows, lane), lane)
    dense = tuple(tuple((row >> j) & 1 for j in range(n)) for row in rows)
    inverse = fraction_inverse(dense)
    if inverse is None:
        assert (p, B) == (0, [])
        return 0
    assert sign * p == fraction_gauss_determinant(dense)
    assert [unpacked(row, lane, n) for row in B] == [[p * x for x in row] for row in inverse]
    return sign * p


def test_scaled_inverse_matches_fraction_inverse():
    # not symmetric, and with no zero diagonal: Gauss-Jordan needs neither
    rng = random.Random(16)
    dets = []
    for _ in range(150):
        n, density = rng.randint(1, 14), rng.choice((0.3, 0.5, 0.8))
        rows = [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)]
        dets.append(check_scaled_inverse(rows, n))
    assert 0 in dets and len(set(dets)) > 10


@pytest.mark.parametrize("m", [4, 8, 16])
def test_scaled_inverse_on_extremal_01_matrices(m):
    # det reaches the 0/1 Hadamard bound for order m - 1, and p A^-1 =
    # +- adj(A) holds minors of order m - 2: the lanes hold them at the extreme
    n = m - 1
    assert abs(check_scaled_inverse(sylvester_core(m), n)) == isqrt((n + 1) ** (n + 1)) >> n


def local_traces(G, u):
    """tr A_N^k for k = 1..d, A_N the adjacency matrix of the d neighbours
    of u: by Newton's identities, the spectrum of the local graph."""
    nbrs = G.neighbors(u)
    A = IntMatrix(tuple(tuple(int(G.has_edge(v, w)) for w in nbrs) for v in nbrs))
    traces, P = [], A
    for _ in nbrs:
        traces.append(sum(P.rows[i][i] for i in range(len(nbrs))))
        P = mat_mul(P, A)
    return tuple(traces)


def test_srg_lc_determinants_follow_local_spectra():
    # for an SRG with det A != 0, A^-1 = xI + yA + zJ with x, y, z fixed by
    # the parameters, and the local graph is alpha-regular, so I, A_N and J
    # commute and det(G_u) = det(A) det(I + M_u (A^-1)_NN) depends on the
    # parameters and the spectrum of A_N alone
    values = {}
    for G in (rook(4), shrikhande(), triangular(8), *chang_graphs(), petersen(), rook(6),
              paley(13), paley(17), paley(37)):
        params = srg_parameters(G)
        assert params is not None and determinant(G) != 0
        for u, det in enumerate(lc_determinants(G)):
            values.setdefault((params, local_traces(G, u)), set()).add(det)
    assert all(len(dets) == 1 for dets in values.values())
    # each Chang graph has two local spectra, and two different values
    for G in chang_graphs():
        assert len({local_traces(G, u) for u in range(G.n)}) == 2
        assert len(set(lc_determinants(G))) == 2


def test_popcount_bound_narrows_hoffman_singleton_lanes(monkeypatch):
    # the one SRG fixture whose row popcounts give a smaller bound than n
    # alone: 7^25 for A (9 bytes), and, as two adjacent vertices share no
    # neighbour, rows of 13 ones in each A_u (10 bytes), against 12 bytes
    # for any 0/1 matrix of order 50.  Clebsch's lanes are n-bound either way
    import walkgi.linalg as linalg

    lanes = []

    def recorded(n, product):
        lanes.append(_lane(n, product))
        return lanes[-1]

    monkeypatch.setattr(linalg, "_lane", recorded)
    HS = hoffman_singleton()
    dets = lc_determinants(HS)
    det = determinant(HS)
    assert lanes == [10, 9] and _lane(50, 0) == 12
    assert det == fraction_gauss_determinant(adjacency_matrix(HS).rows)
    for u in (0, 17, 42):
        assert dets[u] == fraction_gauss_determinant(adjacency_matrix(local_complement(HS, u)).rows)
    lanes.clear()
    C = clebsch()  # vertex-transitive: every local complement has one determinant
    assert lc_determinants(C) == [fraction_gauss_determinant(adjacency_matrix(local_complement(C, 0)).rows)] * 16
    assert lanes == [_lane(16, 0)]


def sylvester_core(m):
    """Rows of the (m-1) x (m-1) 0/1 matrix that is 1 where the Sylvester
    Hadamard matrix of order m, with its first row and column removed, is
    -1.  Its |det| is m^(m/2) / 2^(m-1), the 0/1 Hadamard bound for order
    m - 1."""
    return [sum(1 << (j - 1) for j in range(1, m) if (i & j).bit_count() % 2) for i in range(1, m)]


@pytest.mark.parametrize("m, expected", [(4, 2), (8, 32), (16, 131072)])
def test_bareiss_on_extremal_01_matrices(m, expected):
    # these matrices reach the 0/1 Hadamard bound; they are not adjacency
    # matrices, so _bareiss takes them packed directly.  The determinant
    # itself is never read from a lane, so the core is also bordered by a
    # unit row and column: its determinant is then the pivot of the last
    # step but one, decoded from the low lane of a lane sized for order m
    core = sylvester_core(m)
    n = m - 1
    assert isqrt((n + 1) ** (n + 1)) >> n == expected
    bordered = core + [1 << n]
    for rows in (core, bordered):
        lane = _lane(len(rows), prod(row.bit_count() for row in rows))
        det = _bareiss(_packed(rows, lane), lane)
        assert abs(det) == expected
        dense = tuple(tuple((row >> j) & 1 for j in range(len(rows))) for row in rows)
        assert det == fraction_gauss_determinant(dense)


# OEIS A003432: the largest determinant of an n x n 0/1 matrix, n = 1..15
MAX_01_DETERMINANTS = (1, 1, 2, 3, 5, 9, 32, 56, 144, 320, 1458, 3645, 9477, 25515, 131072)


def test_lane_bound_dominates_maximal_01_determinants():
    # with all rows full the popcount bound n^(n/2) is the weaker one, and a
    # 0 product (a zero row) leaves only the 0/1 Hadamard bound: either way
    # the lane must hold the largest determinant of any 0/1 matrix of order n
    for n, largest in enumerate(MAX_01_DETERMINANTS, 1):
        assert largest <= isqrt((n + 1) ** (n + 1)) >> n
        assert largest < 1 << 8 * _lane(n, n ** n) - 1
        assert largest < 1 << 8 * _lane(n, 0) - 1


def test_determinant_of_dense_random_graphs():
    # dense rows have the largest popcounts, and their minors come closest
    # to the Hadamard bound the lanes are sized by
    rng = random.Random(14)
    for _ in range(60):
        G = random_graph(rng, rng.randint(2, 30), rng.choice((0.8, 0.9, 0.95)))
        assert determinant(G) == fraction_gauss_determinant(adjacency_matrix(G).rows)


def test_determinant_of_complete_graphs():
    # J - I: every pivot after the first is negative, so the signed lane
    # decoding is exercised at every step
    for n in range(2, 41):
        assert determinant(complete(n)) == (-1) ** (n - 1) * (n - 1)


def test_determinant_is_relabeling_invariant():
    # P A P^T: same determinant for any vertex permutation
    rng = random.Random(9)
    for _ in range(30):
        G = random_graph(rng, rng.randint(2, 8))
        d = determinant(G)
        perm = list(range(G.n))
        rng.shuffle(perm)
        H = build_graph(G.n, [(perm[u], perm[v]) for u, v in G.edges()])
        assert determinant(H) == d


def test_determinant_large_entries_exact():
    # a value far beyond float precision: Paley(q) has the spectrum
    # (q-1)/2 and (-1 +- sqrt q)/2, each of the last two (q-1)/2 times
    d = determinant(paley(61))
    assert d == 30 * ((1 - 61) // 4) ** 30
    assert d > 2**120


def test_distinct_eigenvalue_count_known():
    assert distinct_eigenvalue_count(adjacency_matrix(empty_graph(4))) == 1
    assert distinct_eigenvalue_count(IntMatrix.identity(3)) == 1
    assert distinct_eigenvalue_count(adjacency_matrix(complete(5))) == 2
    assert distinct_eigenvalue_count(ones(4)) == 2
    assert distinct_eigenvalue_count(adjacency_matrix(petersen())) == 3
    assert distinct_eigenvalue_count(adjacency_matrix(cycle(5))) == 3
    assert distinct_eigenvalue_count(adjacency_matrix(path(3))) == 3
    # path on n vertices has n distinct eigenvalues
    assert distinct_eigenvalue_count(adjacency_matrix(path(6))) == 6


def test_distinct_eigenvalue_count_rejects_asymmetric():
    with pytest.raises(ValueError):
        distinct_eigenvalue_count(IntMatrix(((0, 1), (0, 0))))


def test_distinct_eigenvalue_count_scaling_invariance():
    # scaling by a nonzero constant permutes the spectrum injectively
    rng = random.Random(10)
    for _ in range(20):
        G = random_graph(rng, rng.randint(1, 7))
        A = adjacency_matrix(G)
        triple = IntMatrix(tuple(tuple(3 * v for v in row) for row in A.rows))
        assert distinct_eigenvalue_count(A) == distinct_eigenvalue_count(triple)


EDGE_CASES = [
    empty_graph(1),
    empty_graph(5),
    complete(2),
    complete(6),
    path(6),
    star(5),
    disjoint_union(complete(3), cycle(5)),
    disjoint_union(petersen(), empty_graph(2)),
]
FIXTURES = EDGE_CASES + [cycle(7), petersen(), rook(4), shrikhande(), triangular(8), *chang_graphs()]


@pytest.mark.parametrize("G", EDGE_CASES, ids=lambda G: f"n{G.n}e{G.edge_count()}")
def test_walk_powers_edge_cases_match_dense(G):
    powers = walk_powers(G)
    m = len(powers)
    assert m == distinct_eigenvalue_count(adjacency_matrix(G))
    assert powers == dense_upper_powers(G, m)


def test_walk_powers_horizon_on_fixtures():
    for G in FIXTURES:
        powers = walk_powers(G)
        m = len(powers)
        assert m == distinct_eigenvalue_count(adjacency_matrix(G))
        assert powers[-1] == dense_upper_powers(G, m)[-1]


def test_walk_powers_horizon_on_local_complements():
    # LC graphs are not strongly regular: their horizons run to 7..17
    horizons = set()
    for G in (rook(4), shrikhande(), triangular(8), *chang_graphs()):
        for u in range(G.n):
            L = local_complement(G, u)
            m = len(walk_powers(L))
            assert m == distinct_eigenvalue_count(adjacency_matrix(L))
            horizons.add(m)
    assert max(horizons) >= 17


def test_walk_powers_match_dense_on_local_complements():
    for G in (shrikhande(), chang_graphs()[1]):
        L = local_complement(G, 0)
        powers = walk_powers(L)
        m = len(powers)
        assert powers == dense_upper_powers(L, m)


def test_walk_powers_random_graphs():
    rng = random.Random(11)
    graphs = [random_graph(rng, rng.randint(1, 12), rng.choice((0.1, 0.3, 0.5, 0.8)))
              for _ in range(60)]
    # dense graphs with n distinct eigenvalues run the powers to A^n, whose
    # entries outgrow one 64-bit word: one repack, then multi-word lanes
    dense = []
    while len(dense) < 6:
        G = random_graph(rng, rng.randint(20, 22), 0.75)
        if distinct_eigenvalue_count(adjacency_matrix(G)) == G.n:
            dense.append(G)
    for G in graphs + dense:
        powers = walk_powers(G)
        m = len(powers)
        assert m == distinct_eigenvalue_count(adjacency_matrix(G))
        assert powers == dense_upper_powers(G, m)
    assert all(max(walk_powers(G)[-1]) >= 2**64 for G in dense)


def test_walk_powers_widen_lanes_by_doubling():
    # near-complete graphs with n distinct eigenvalues: A^n has entries past
    # 2**128, so the lanes grow from one word to two and then to four
    rng = random.Random(14)
    checked = 0
    while checked < 2:
        G = random_graph(rng, 30, 0.9)
        powers = walk_powers(G)
        if len(powers) == G.n:
            assert max(powers[-1]) >= 2**128
            assert powers == dense_upper_powers(G, G.n)
            checked += 1


def test_walk_powers_count_walks():
    rng = random.Random(12)
    for _ in range(20):
        G = random_graph(rng, rng.randint(2, 7))
        powers = walk_powers(G)
        m = len(powers)
        for _ in range(5):
            u, v, k = rng.randrange(G.n), rng.randrange(G.n), rng.randint(1, m)
            i, j = min(u, v), max(u, v)
            assert powers[k - 1][i * G.n - i * (i - 1) // 2 + j - i] == count_walks(G, u, v, k)


def test_hankel_pivots_are_leading_minors():
    # each add returns det H[0..k] of the trace Hankel matrix, up to the
    # first zero, where walk_powers stops
    rng = random.Random(13)
    for G in [*(random_graph(rng, rng.randint(1, 9)) for _ in range(30)), petersen(), path(6)]:
        A = adjacency_matrix(G)
        m = distinct_eigenvalue_count(A)
        traces = [G.n, 0]
        traces += [sum(mat_pow(A, k).rows[i][i] for i in range(G.n)) for k in range(2, 2 * m + 1)]
        pivots = _HankelPivots(G.n)
        for k in range(1, m + 1):
            hankel = [traces[i:i + k + 1] for i in range(k + 1)]
            minor = pivots.add(traces[2 * k - 1], traces[2 * k])
            assert minor == fraction_gauss_determinant(hankel)
            assert (minor == 0) == (k == m)

