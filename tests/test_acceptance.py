"""End-to-end acceptance checks.

Six numbered criteria.  Each records exactly one
``ACCEPTANCE <n> [...]: PASS|FAIL|SKIP`` line per check; conftest prints the
collected lines as a scoreboard at the end of every pytest run.  Criteria
that need census dataset files which are not present skip with the file path
in the reason; they run automatically once the files are placed under
data/srg/ (or the directory WALKGI_SRG_DATA points at).
"""

import random
import time
from contextlib import contextmanager

import networkx as nx
import pytest

from acceptance_report import announce

from walkgi import (
    SrgParams,
    build_graph,
    catalog_read,
    catalog_write,
    default_m,
    determinant,
    distinguish_pair,
    find_isomorphism,
    lc_determinant_profile,
    lc_walk_signature,
    local_complement,
    make_catalog_record,
    parse_graph6,
    partition_group,
    srg_parameters,
    walk_signature,
    write_graph6,
)
from datasets import load_srg_group, srg_path
from fixture_graphs import (
    chang_graphs,
    complete,
    cycle,
    empty_graph,
    paley,
    path,
    petersen,
    rook,
    shrikhande,
    triangular,
)
from oracles import (
    adjacency_matrix,
    bareiss_first_pivot_determinant,
    cofactor_determinant,
    count_walks,
    edge_pairs,
    exhaustive_isomorphic,
    mat_mul,
    mat_pow,
    random_graph,
    random_permutation,
    relabeled,
)


@contextmanager
def criterion(label: str):
    start = time.perf_counter()
    try:
        yield
    except pytest.skip.Exception as exc:
        announce(f"ACCEPTANCE {label}: SKIP ({exc})")
        raise
    except BaseException:
        announce(f"ACCEPTANCE {label}: FAIL")
        raise
    announce(f"ACCEPTANCE {label}: PASS ({time.perf_counter() - start:.1f}s)")


# --- criterion 1: exact arithmetic where floating point breaks -------------

# regression constant, first computed by this package's elimination and
# cross-checked below against a first-pivot elimination and the closed-form
# spectral product 10 * 4^10 * (-2)^25 of the 6x6 rook's graph
ROOK6_DET = -351843720888320

# the value a float64 pipeline reports for the same matrix
ROOK6_FLOAT_ARTIFACT = -351843720888319.81


def test_criterion_1_exact_power_and_determinant():
    with criterion("1 [36-vertex exact arithmetic]"):
        G = rook(6)
        assert srg_parameters(G) == SrgParams(36, 10, 4, 2)
        A = adjacency_matrix(G)

        P = mat_pow(A, 17)
        assert all(v > 2**31 for row in P.rows for v in row)

        det = determinant(G)
        assert isinstance(det, int)
        assert det == ROOK6_DET
        assert det != ROOK6_FLOAT_ARTIFACT
        assert det == bareiss_first_pivot_determinant(A.rows)
        assert det == 10 * 4**10 * (-2) ** 25


# --- criterion 2: small census groups all separate --------------------------

SMALL_GROUPS = [
    (16, 6, 2, 2, 2),
    (25, 12, 5, 6, 15),
    (26, 10, 3, 4, 10),
    (28, 12, 6, 4, 4),
    (29, 14, 6, 7, 41),
    (35, 18, 9, 9, 227),
    (36, 14, 4, 6, 180),
    (40, 12, 2, 4, 28),
    (45, 12, 3, 3, 78),
    (64, 18, 2, 6, 167),
]

# parameter sets whose complete families we can construct directly
CONSTRUCTED = {
    (16, 6, 2, 2): lambda: [("rook4", rook(4)), ("shrikhande", shrikhande())],
    (28, 12, 6, 4): lambda: [("t8", triangular(8))]
    + [(f"chang{i+1}", C) for i, C in enumerate(chang_graphs())],
}


@pytest.mark.parametrize("n,d,alpha,beta,count", SMALL_GROUPS)
def test_criterion_2_small_group_separation(n, d, alpha, beta, count):
    label = f"2 [({n},{d},{alpha},{beta}) x{count}]"
    with criterion(label):
        entries = load_srg_group(n, d, alpha, beta, count)
        if entries is None:
            key = (n, d, alpha, beta)
            if key in CONSTRUCTED:
                entries = CONSTRUCTED[key]()
                assert len(entries) == count
            else:
                pytest.skip(f"dataset file not found: {srg_path(n, d, alpha, beta)}")

        want = SrgParams(n, d, alpha, beta)
        for _, G in entries:
            assert srg_parameters(G) == want
            assert default_m(G) == 3

        report = partition_group(
            [G for _, G in entries], ids=[i for i, _ in entries], workers=2
        )
        assert report.all_singletons(), report.multi_member_final()


# --- criterion 3: big census groups, coarse class-size histograms -----------

BIG_GROUPS = [
    # (params, dataset size, expected multi-member coarse histogram {size: count})
    ((35, 16, 6, 8), 3854, {2: 42, 4: 2}),
    ((36, 15, 6, 6), 32548, {2: 152, 3: 6, 4: 2}),
    ((37, 18, 8, 9), 6760, {2: 3379}),
]


@pytest.mark.parametrize("params,count,multi_hist", BIG_GROUPS)
def test_criterion_3_big_group_class_counts(params, count, multi_hist):
    n, d, alpha, beta = params
    label = f"3 [({n},{d},{alpha},{beta}) x{count}]"
    with criterion(label):
        entries = load_srg_group(n, d, alpha, beta, count)
        if entries is None:
            pytest.skip(f"dataset file not found: {srg_path(n, d, alpha, beta)}")

        report = partition_group(
            [G for _, G in entries], ids=[i for i, _ in entries], workers=2
        )
        got_hist = {
            size: cnt for size, cnt in report.coarse_size_counts().items() if size > 1
        }
        assert got_hist == multi_hist
        assert report.all_singletons(), len(report.multi_member_final())


# --- criterion 4: the 10-vertex fixture -------------------------------------


def test_criterion_4_petersen_fixture():
    with criterion("4 [Petersen fixture]"):
        G = petersen()
        assert srg_parameters(G) == SrgParams(10, 3, 0, 1)

        det = determinant(G)
        assert det == 48
        assert det == cofactor_determinant(adjacency_matrix(G).rows)
        assert det == 3 * 1**5 * (-2) ** 4  # spectral product

        profile = lc_determinant_profile(G)
        assert profile.n == 10
        assert len(set(profile.values)) == 1

        assert default_m(G) == 3


# --- criterion 5: randomized soundness ---------------------------------------


def test_criterion_5_soundness_suite():
    with criterion("5 [randomized soundness]"):
        rng = random.Random(1789)

        # (a) Distinguished is sound: the oracle always confirms
        # non-isomorphism.  Exhaustive permutation check up to n=6, the
        # individualisation-refinement oracle above that (cross-validated
        # below).
        distinguished = 0
        for _ in range(10000):
            n = rng.randint(2, 8)
            G = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            H = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            if distinguish_pair(G, H) is not None:
                distinguished += 1
                if n <= 6:
                    assert exhaustive_isomorphic(G, H) is None
                else:
                    assert find_isomorphism(G, H) is None
        assert distinguished > 5000
        # oracle cross-validation at n=7, where both searches are feasible
        for _ in range(200):
            G = random_graph(rng, 7)
            H = random_graph(rng, 7) if rng.random() < 0.5 else relabeled(
                G, random_permutation(rng, 7)
            )
            assert (find_isomorphism(G, H) is None) == (
                exhaustive_isomorphic(G, H) is None
            )

        # (b) relabeling never changes any of the three encodings
        for _ in range(1000):
            n = rng.randint(2, 8)
            G = random_graph(rng, n)
            H = relabeled(G, random_permutation(rng, n))
            assert walk_signature(G).encode() == walk_signature(H).encode()
            assert (
                lc_determinant_profile(G).encode() == lc_determinant_profile(H).encode()
            )
            assert lc_walk_signature(G).encode() == lc_walk_signature(H).encode()
            assert distinguish_pair(G, H) is None

        # (c) matrix powers count walks
        for _ in range(50):
            n = rng.randint(2, 7)
            G = random_graph(rng, n)
            A = adjacency_matrix(G)
            for k in (1, 2, 3, 4):
                P = mat_pow(A, k)
                for u in range(n):
                    for v in range(n):
                        assert P.rows[u][v] == count_walks(G, u, v, k)

        # (d) elimination matches cofactor expansion
        for _ in range(200):
            G = random_graph(rng, rng.randint(1, 7), rng.choice([0.2, 0.5, 0.8]))
            assert determinant(G) == cofactor_determinant(adjacency_matrix(G).rows)

        # (e) A^2 = dI + alpha A + beta (J - I - A) for every ingested SRG:
        # entry (i, j) of A^2 is d on the diagonal, alpha on edges, beta otherwise
        srgs = [
            petersen(),
            cycle(4),
            cycle(5),
            rook(4),
            shrikhande(),
            rook(6),
            triangular(8),
            *chang_graphs(),
            paley(13),
            paley(17),
        ]
        for n, d, alpha, beta, count in SMALL_GROUPS:
            entries = load_srg_group(n, d, alpha, beta, count)
            if entries:
                srgs.extend(G for _, G in entries)
        for G in srgs:
            p = srg_parameters(G)
            assert p is not None
            A = adjacency_matrix(G)
            square = mat_mul(A, A).rows
            for i in range(G.n):
                for j in range(G.n):
                    expected = p.d if i == j else p.alpha if A.rows[i][j] else p.beta
                    assert square[i][j] == expected

        # (f) local complementation is an involution
        for _ in range(1000):
            G = random_graph(rng, rng.randint(1, 12))
            u = rng.randrange(G.n)
            assert local_complement(local_complement(G, u), u) == G


# --- criterion 6: format fidelity --------------------------------------------


def test_criterion_6_format_fidelity(tmp_path):
    with criterion("6 [format fidelity]"):
        rng = random.Random(1815)

        # graph6 round-trips, all header sizes that fit the cap's small side
        for _ in range(1000):
            n = rng.randint(1, 64)
            G = random_graph(rng, n, rng.choice([0.1, 0.5, 0.9]))
            assert parse_graph6(write_graph6(G)) == G

        # fixed vectors, verified against an independent reference codec
        fixed = {
            "A_": build_graph(2, [(0, 1)]),
            "A?": empty_graph(2),
            "Bw": complete(3),
        }
        for g6, G in fixed.items():
            assert parse_graph6(g6) == G
            assert write_graph6(G) == g6
            ref = nx.from_graph6_bytes(g6.encode())
            assert ref.number_of_nodes() == G.n
            assert sorted(tuple(sorted(e)) for e in ref.edges()) == sorted(edge_pairs(G))

        # catalog round-trip is lossless
        graphs = {"pete": petersen(), "rook4": rook(4), "path5": path(5), "c4": cycle(4)}
        records = [
            make_catalog_record(name, G, {"lc-det-profile": lc_determinant_profile(G).encode(),
                                          "lc-walk-signature": lc_walk_signature(G).encode()})
            for name, G in graphs.items()
        ]
        cat = tmp_path / "acceptance.catalog"
        catalog_write(records, cat)
        assert catalog_read(cat, graphs) == records
        assert catalog_read(cat, {}) == [
            r._replace(lc_profile_encoding=None, lc_walk_encoding=None) for r in records]
