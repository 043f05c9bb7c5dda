import random

import pytest

from walkgi import (
    IntMatrix,
    adjacency_matrix,
    build_graph,
    determinant,
    distinct_eigenvalue_count,
    local_complement,
    mat_mul,
    mat_pow,
    walk_powers,
)
from walkgi.linalg import _HankelPivots
from fixture_graphs import (
    chang_graphs,
    complete,
    cycle,
    disjoint_union,
    empty_graph,
    path,
    petersen,
    rook,
    shrikhande,
    star,
    triangular,
)
from oracles import (
    bareiss_first_pivot_determinant,
    cofactor_determinant,
    count_walks,
    fraction_gauss_determinant,
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
    assert determinant(IntMatrix(((7,),))) == 7
    assert determinant(IntMatrix.identity(5)) == 1
    assert determinant(ones(3)) == 0
    assert determinant(IntMatrix(((2, 0), (0, 3)))) == 6
    assert determinant(IntMatrix(((0, 1), (1, 0)))) == -1
    assert determinant(adjacency_matrix(complete(3))) == 2
    assert determinant(adjacency_matrix(path(3))) == 0
    assert determinant(adjacency_matrix(petersen())) == 48


def test_determinant_row_swap_sign():
    A = IntMatrix(((0, 0, 1), (0, 2, 0), (3, 0, 0)))
    assert determinant(A) == -6


def test_determinant_zero_column_early():
    A = IntMatrix(((0, 1, 2), (0, 3, 4), (0, 5, 6)))
    assert determinant(A) == 0


def test_determinant_against_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(1, 6)
        A = random_matrix(rng, n)
        assert determinant(A) == cofactor_determinant(A.rows)


def test_determinant_against_independent_eliminations():
    rng = random.Random(8)
    for _ in range(80):
        n = rng.randint(1, 7)
        A = random_matrix(rng, n, -20, 20)
        d = determinant(A)
        assert d == bareiss_first_pivot_determinant(A.rows)
        assert d == fraction_gauss_determinant(A.rows)


def test_determinant_is_relabeling_invariant():
    # P A P^T: same determinant for any vertex permutation
    rng = random.Random(9)
    for _ in range(30):
        G = random_graph(rng, rng.randint(2, 8))
        d = determinant(adjacency_matrix(G))
        perm = list(range(G.n))
        rng.shuffle(perm)
        H = build_graph(G.n, [(perm[u], perm[v]) for u, v in G.edges()])
        assert determinant(adjacency_matrix(H)) == d


def test_determinant_large_entries_exact():
    # entries big enough that float arithmetic would lose the low digits
    big = 10**25
    A = IntMatrix(((big, 1), (1, big)))
    assert determinant(A) == big * big - 1


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


def _upper(P):
    return [list(row[i:]) for i, row in enumerate(P.rows)]


def _dense_powers(G, m):
    A = adjacency_matrix(G)
    return [_upper(mat_pow(A, k)) for k in range(1, m + 1)]


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
    m, powers = walk_powers(G)
    assert m == distinct_eigenvalue_count(adjacency_matrix(G))
    assert len(powers) == m
    assert powers == _dense_powers(G, m)


def test_walk_powers_horizon_on_fixtures():
    for G in FIXTURES:
        m, powers = walk_powers(G)
        assert m == distinct_eigenvalue_count(adjacency_matrix(G))
        assert powers[-1] == _upper(mat_pow(adjacency_matrix(G), m))


def test_walk_powers_horizon_on_local_complements():
    # LC graphs are not strongly regular: their horizons run to 7..17
    horizons = set()
    for G in (rook(4), shrikhande(), triangular(8), *chang_graphs()):
        for u in range(G.n):
            L = local_complement(G, u)
            m, _ = walk_powers(L)
            assert m == distinct_eigenvalue_count(adjacency_matrix(L))
            horizons.add(m)
    assert max(horizons) >= 17


def test_walk_powers_match_dense_on_local_complements():
    for G in (shrikhande(), chang_graphs()[1]):
        L = local_complement(G, 0)
        m, powers = walk_powers(L)
        assert powers == _dense_powers(L, m)


def test_walk_powers_random_graphs():
    rng = random.Random(11)
    for _ in range(60):
        G = random_graph(rng, rng.randint(1, 12), rng.choice((0.1, 0.3, 0.5, 0.8)))
        m, powers = walk_powers(G)
        assert m == distinct_eigenvalue_count(adjacency_matrix(G))
        assert powers == _dense_powers(G, m)


def test_walk_powers_count_walks():
    rng = random.Random(12)
    for _ in range(20):
        G = random_graph(rng, rng.randint(2, 7))
        m, powers = walk_powers(G, 4)
        assert m == 4
        for _ in range(5):
            u, v, k = rng.randrange(G.n), rng.randrange(G.n), rng.randint(1, 4)
            assert powers[k - 1][min(u, v)][abs(u - v)] == count_walks(G, u, v, k)


def test_walk_powers_explicit_m_beyond_horizon():
    # walk_signature(G, m) with a horizon larger than the graph's own; the
    # lanes must hold Delta**m, not Delta**n
    for G in (complete(3), petersen(), empty_graph(3), rook(4)):
        m, powers = walk_powers(G, G.n + 5)
        assert m == G.n + 5
        assert powers == _dense_powers(G, m)
    m, powers = walk_powers(path(3), 1)
    assert (m, powers) == (1, _dense_powers(path(3), 1))


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
            hankel = IntMatrix(tuple(tuple(traces[i:i + k + 1]) for i in range(k + 1)))
            minor = pivots.add(traces[2 * k - 1], traces[2 * k])
            assert minor == determinant(hankel)
            assert (minor == 0) == (k == m)


def test_walk_powers_rejects_bad_m():
    with pytest.raises(ValueError):
        walk_powers(path(3), 0)
