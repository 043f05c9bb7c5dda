import random
from collections import defaultdict
from itertools import combinations, permutations

import pytest

from walkgi import (
    STAGES,
    CertificateError,
    DetProfile,
    Verdict,
    WalkSignature,
    build_graph,
    default_m,
    determinant,
    distinguish_pair,
    find_isomorphism,
    lc_determinant_profile,
    lc_walk_signature,
    local_complement,
    parse_graph6,
    partition_group,
    walk_signature,
)
from walkgi.graph import _verify_certificate
from walkgi.isotest import GROUP_STAGES, Pool
from fixture_graphs import (
    cayley_table,
    chang_graphs,
    complete,
    cycle,
    disjoint_union,
    latin_square_graph,
    order_8_group_tables,
    path,
    petersen,
    reduced_latin_squares,
    rook,
    shrikhande,
    star,
    triangular,
)
from oracles import (
    dense_upper_powers,
    dense_walk_signature,
    edge_swapped,
    exhaustive_isomorphic,
    networkx_isomorphic,
    random_graph,
    random_permutation,
    relabeled,
)


def test_verdict_validation():
    assert Verdict(True, "determinant").stage == "determinant"
    assert Verdict(False).stage is None
    with pytest.raises(ValueError):
        Verdict(True, "nonsense")
    with pytest.raises(ValueError):
        Verdict(True, None)
    with pytest.raises(ValueError):
        Verdict(False, "determinant")


def test_stage_order():
    assert STAGES == (
        "vertex-count",
        "edge-count",
        "degree-sequence",
        "determinant",
        "walk-signature",
        "lc-det-profile",
        "lc-walk-signature",
    )


def test_distinguish_vertex_count():
    assert distinguish_pair(complete(3), complete(4)) == Verdict(True, "vertex-count")


def test_distinguish_edge_count():
    # K3 and P3 differ already in edge count (3 vs 2)
    assert distinguish_pair(complete(3), path(3)) == Verdict(True, "edge-count")


def test_distinguish_degree_sequence():
    # same n and edge count, different degree sequences
    assert distinguish_pair(star(3), path(4)) == Verdict(True, "degree-sequence")


def test_distinguish_determinant():
    # C6 vs two triangles: both 2-regular on 6 vertices, det -4 vs 4
    a, b = cycle(6), disjoint_union(complete(3), complete(3))
    assert determinant(a) != determinant(b)
    assert distinguish_pair(a, b) == Verdict(True, "determinant")


def test_distinguish_walk_signature():
    # C8 vs C4+C4: 2-regular on 8 vertices, determinants both 0
    a, b = cycle(8), disjoint_union(cycle(4), cycle(4))
    assert determinant(a) == determinant(b) == 0
    assert distinguish_pair(a, b) == Verdict(True, "walk-signature")


def test_distinguish_lc_det_profile():
    # the two SRG(16,6,2,2): equal walk signatures, split by profiles
    a, b = rook(4), shrikhande()
    assert default_m(a) == default_m(b)
    assert walk_signature(a) == walk_signature(b)
    verdict = distinguish_pair(a, b)
    assert verdict.distinguished
    assert verdict.stage == "lc-det-profile"
    # the final stage would separate them as well
    assert lc_walk_signature(a).encode() != lc_walk_signature(b).encode()


def test_distinguish_lc_walk_signature(monkeypatch):
    # no known pair survives the profile, so pin it to reach the final stage
    monkeypatch.setattr("walkgi.isotest.lc_determinant_profile", lambda G: DetProfile((0,)))
    a, b = rook(4), shrikhande()
    assert distinguish_pair(a, b) == Verdict(True, "lc-walk-signature")
    copy = relabeled(a, random_permutation(random.Random(63), a.n))
    assert distinguish_pair(a, copy) == Verdict(False)


def test_distinguish_isomorphic_is_notdistinguished():
    rng = random.Random(61)
    for _ in range(40):
        G = random_graph(rng, rng.randint(1, 8))
        H = relabeled(G, random_permutation(rng, G.n))
        assert distinguish_pair(G, H) == Verdict(False)


def test_distinguished_implies_nonisomorphic():
    rng = random.Random(62)
    checked = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        G = random_graph(rng, n)
        H = random_graph(rng, n)
        if distinguish_pair(G, H).distinguished:
            assert exhaustive_isomorphic(G, H) is None
            checked += 1
    assert checked > 100


def test_determinant_stage_subsumed_by_walk_signature():
    # whenever determinants differ, the walk signature differs too
    rng = random.Random(63)
    hits = 0
    for _ in range(400):
        n = rng.randint(2, 8)
        G = random_graph(rng, n)
        H = random_graph(rng, n)
        if determinant(G) != determinant(H):
            m = max(default_m(G), default_m(H))
            assert dense_walk_signature(G, m) != dense_walk_signature(H, m)
            hits += 1
    assert hits > 50


def test_differing_horizons_imply_differing_walk_signatures():
    # distinguish_pair stops at walk-signature when m_G != m_H; the
    # signatures at the common horizon max(m_G, m_H) must differ as well
    rng = random.Random(64)
    families = [[random_graph(rng, n), random_graph(rng, n)]
                for n in (rng.randint(2, 9) for _ in range(300))]
    families += [[local_complement(G, u) for G in group for u in range(G.n)]
                 for group in ((triangular(8), *chang_graphs()), (rook(4), shrikhande()))]
    hits = 0
    for graphs in families:
        horizons = [default_m(G) for G in graphs]
        # dense powers up to the family's largest horizon, one product each
        powers = [dense_upper_powers(G, max(horizons)) for G in graphs]
        signatures = {}

        def signature(i, m):
            if (i, m) not in signatures:
                signatures[i, m] = WalkSignature.from_powers(powers[i][:m])
            return signatures[i, m]

        for i, j in combinations(range(len(graphs)), 2):
            if horizons[i] != horizons[j]:
                m = max(horizons[i], horizons[j])
                assert signature(i, m) != signature(j, m)
                hits += 1
    assert hits > 4000


def test_partition_single_graph():
    report = partition_group([petersen()], ids=["pete"])
    assert report.coarse_classes == (("pete",),)
    assert report.final_classes == (("pete",),)
    assert report.all_singletons()


def test_partition_srg_16_group():
    report = partition_group([rook(4), shrikhande()], ids=["rook", "shrik"])
    assert report.all_singletons()
    assert len(report.coarse_classes) == 2


def test_partition_groups_isomorphic_copies():
    rng = random.Random(64)
    G = petersen()
    H = relabeled(G, random_permutation(rng, 10))
    K = relabeled(G, random_permutation(rng, 10))
    report = partition_group([G, H, K, cycle(10)], ids=list("abcd"))
    assert set(report.final_classes) == {("a", "b", "c"), ("d",)}
    assert report.multi_member_final() == (("a", "b", "c"),)
    assert not report.all_singletons()
    assert report.final_size_counts() == {3: 1, 1: 1}
    assert report.coarse_size_counts() == {3: 1, 1: 1}
    assert sum(len(c) for c in report.coarse_classes if len(c) > 1) == 3


def test_partition_default_ids():
    report = partition_group([complete(3), path(3)])
    assert set(report.ids) == {"0", "1"}


def test_partition_id_count_mismatch():
    with pytest.raises(ValueError):
        partition_group([complete(3)], ids=["a", "b"])


def test_partition_mixed_n_warns_and_separates():
    with pytest.warns(UserWarning):
        report = partition_group([complete(3), complete(4)], ids=["a", "b"])
    assert report.all_singletons()


def test_partition_worker_count_does_not_change_result():
    rng = random.Random(65)
    graphs = [random_graph(rng, 7) for _ in range(12)]
    graphs += [relabeled(graphs[0], random_permutation(rng, 7))]
    ids = [f"g{i}" for i in range(len(graphs))]
    serial = partition_group(graphs, ids=ids, workers=1)
    parallel = partition_group(graphs, ids=ids, workers=3)
    assert serial.coarse_classes == parallel.coarse_classes
    assert serial.final_classes == parallel.final_classes


def test_partition_starts_one_pool_for_both_stages(monkeypatch):
    import concurrent.futures

    started = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    rng = random.Random(67)
    graphs = [rook(4), shrikhande(), relabeled(rook(4), random_permutation(rng, 16))]
    report = partition_group(graphs, ids=list("abc"), workers=2)
    assert dict((stage, computed) for stage, computed, _, _ in report.stages) == {
        "lc-det-profile": 3, "lc-walk-signature": 2}
    assert report.final_classes == (("b",), ("a", "c"))
    assert started == [2]
    # a serial run, or a run with nothing to hand out, starts none
    partition_group(graphs, ids=list("abc"), workers=1)
    partition_group(graphs[:1], ids=["a"], workers=2)
    assert started == [2]


@pytest.mark.parametrize("workers", [1, 2])
def test_partition_keeps_one_bytes_object_per_distinct_encoding(workers):
    # equal encodings are one object, whichever process computed them, so a
    # family of relabelled copies holds each lc-walk encoding (T(8)'s is
    # 1 MiB) once; the Chang graph is a coarse singleton beside them
    rng = random.Random(69)
    graphs = [relabeled(triangular(8), random_permutation(rng, 28)) for _ in range(2)]
    graphs.append(chang_graphs()[0])
    report = partition_group(graphs, workers=workers)
    assert sorted(report.final_classes) == [("0", "1"), ("2",)]
    for stage in GROUP_STAGES:
        assert report.encodings[0][stage] is report.encodings[1][stage]


def _count_walks(monkeypatch):
    """The graphs ``lc_walk_signature`` runs on in this process, in order."""
    walked = []

    def counting(G):
        walked.append(G)
        return lc_walk_signature(G)

    monkeypatch.setattr("walkgi.isotest.lc_walk_signature", counting)
    return walked


def _copies_of_t8_and_chang():
    # n tokens certify each of these copies onto the first of its class
    rng = random.Random(72)
    return [relabeled(G, random_permutation(rng, 28))
            for G in (triangular(8), chang_graphs()[0]) for _ in range(3)]


def test_partition_walks_each_certified_isomorphism_class_once(monkeypatch):
    walked = _count_walks(monkeypatch)
    graphs = _copies_of_t8_and_chang()
    report = partition_group(graphs, workers=1)
    assert sorted(report.final_classes) == [("0", "1", "2"), ("3", "4", "5")]
    # the first member of each class is its representative
    assert sorted(map(graphs.index, walked)) == [0, 3]
    # the copies take the representative's bytes object, and count as computed
    for first, copies in ((0, (1, 2)), (3, (4, 5))):
        for i in copies:
            assert report.encodings[i]["lc-walk-signature"] is report.encodings[first]["lc-walk-signature"]
    assert [row[:3] for row in report.stages] == [("lc-det-profile", 6, 0), ("lc-walk-signature", 6, 0)]


def test_partition_without_certificates_walks_every_member_to_the_same_report(monkeypatch):
    graphs = _copies_of_t8_and_chang()
    certified = partition_group(graphs, workers=1)
    walked = _count_walks(monkeypatch)
    monkeypatch.setattr("walkgi.graph._certificate", lambda *args: None)
    plain = partition_group(graphs, workers=1)
    assert len(walked) == 6
    assert plain == certified
    assert plain.encodings == certified.encodings
    assert [row[:3] for row in plain.stages] == [row[:3] for row in certified.stages]


def test_partition_uses_invariant_cache():
    graphs = [rook(4), shrikhande(), rook(4)]
    ids = ["a", "b", "c"]
    full = {
        i: {"lc-det-profile": lc_determinant_profile(G).encode(),
            "lc-walk-signature": lc_walk_signature(G).encode()}
        for i, G in zip(ids, graphs)
    }
    # a run with no cache computes no lc-walk key for the singleton b
    computed = (full["a"], {"lc-det-profile": full["b"]["lc-det-profile"]}, full["c"])
    # a holds only its profile, c nothing, and the singleton b an lc-walk
    # encoding the run does not need, which is not counted as cached
    partial = {"a": {"lc-det-profile": full["a"]["lc-det-profile"]}, "b": full["b"]}
    plain = partition_group(graphs, ids=ids)
    assert [row[:3] for row in plain.stages] == [("lc-det-profile", 3, 0), ("lc-walk-signature", 2, 0)]
    assert all(row[3] >= 0 for row in plain.stages)
    assert plain.encodings == computed
    for cache, counts in (
        (full, [("lc-det-profile", 0, 3), ("lc-walk-signature", 0, 2)]),
        (partial, [("lc-det-profile", 1, 2), ("lc-walk-signature", 2, 0)]),
    ):
        cached = partition_group(graphs, ids=ids, invariant_cache=cache)
        assert plain.coarse_classes == cached.coarse_classes
        assert plain.final_classes == cached.final_classes
        assert cached.final_classes == (("b",), ("a", "c"))
        assert [row[:3] for row in cached.stages] == counts
        # each graph's dict is its cache entry plus what the run computed
        assert cached.encodings == (full["a"], full["b"], full["c"])
    # the cache's own dicts are copied, never filled in
    assert partial["a"] == {"lc-det-profile": full["a"]["lc-det-profile"]}


def test_pair_and_group_read_one_stage_table():
    # graphs in different final classes are distinguished pairwise, and each
    # relabelled copy shares its original's final class and pair verdict
    rng = random.Random(68)
    bases = {"rook4": rook(4), "T8": triangular(8)}
    named = dict(bases)
    for name, G in bases.items():
        for k in range(2):
            named[f"{name}-copy{k}"] = relabeled(G, random_permutation(rng, G.n))
    named["shrikhande"] = shrikhande()
    named.update((f"chang{k}", G) for k, G in enumerate(chang_graphs()))
    for name, G in bases.items():
        named.update((f"{name}-swap{k}", edge_swapped(G, 2 * G.n, rng)) for k in range(2))
    ids = list(named)
    with pytest.warns(UserWarning):  # rook(4) and T(8) differ in order
        report = partition_group(named.values(), ids=ids)
    assert len(report.final_classes) == 10  # the copies join their originals, all else splits
    final = {i: members for members in report.final_classes for i in members}
    for a, b in combinations(ids, 2):
        if final[a] != final[b]:
            assert distinguish_pair(named[a], named[b]).distinguished, (a, b)
    for name in ids:
        base = name.split("-copy")[0]
        if base != name:
            assert final[name] == final[base]
            assert distinguish_pair(named[base], named[name]) == Verdict(False)


def _check_oracle(G, H, isomorphic):
    f = find_isomorphism(G, H)
    assert (f is not None) == isomorphic
    if f is not None:
        assert sorted(f) == list(range(G.n))
        assert all(H.has_edge(f[u], f[v]) for u, v in G.edges())


def test_find_isomorphism_agrees_with_exhaustive():
    """``find_isomorphism`` against the permutation-by-permutation oracle."""
    rng = random.Random(66)
    for _ in range(150):
        n = rng.randint(1, 6)
        if rng.random() < 0.5:
            G = random_graph(rng, n)
            H = relabeled(G, random_permutation(rng, n))
        else:
            G = random_graph(rng, n)
            H = random_graph(rng, n)
        _check_oracle(G, H, exhaustive_isomorphic(G, H) is not None)


def test_find_isomorphism_certificate_is_checked_mapping():
    """A certificate of ``find_isomorphism`` maps G's edges onto H's."""
    G = petersen()
    rng = random.Random(67)
    H = relabeled(G, random_permutation(rng, 10))
    cert = find_isomorphism(G, H)
    assert cert is not None
    for u, v in G.edges():
        assert H.has_edge(cert[u], cert[v])
    assert sorted(cert) == list(range(10))


def test_find_isomorphism_vertex_count_mismatch():
    assert find_isomorphism(complete(3), complete(4)) is None


def test_find_isomorphism_respects_cap():
    """The oracle has no vertex cap: n = 13 and the two SRG(16,6,2,2) are
    decided."""
    _check_oracle(complete(13), complete(13), True)
    _check_oracle(rook(4), shrikhande(), False)


def test_find_isomorphism_nonisomorphic_same_degrees():
    a, b = cycle(6), disjoint_union(complete(3), complete(3))
    assert find_isomorphism(a, b) is None


def test_find_isomorphism_matches_networkx_on_random_regular_graphs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(68)
    isomorphic = 0
    for _ in range(60):
        n = rng.randint(9, 28)
        d = rng.choice([k for k in range(3, 8) if n * k % 2 == 0])

        def regular():
            X = nx.random_regular_graph(d, n, seed=rng.randrange(2**32))
            return build_graph(n, X.edges())

        G = regular()
        H = relabeled(G, random_permutation(rng, n)) if rng.random() < 0.5 else regular()
        want = networkx_isomorphic(G, H)
        isomorphic += want
        _check_oracle(G, H, want)
    assert 20 < isomorphic < 40


def test_find_isomorphism_matches_networkx_on_srg_fixtures():
    pytest.importorskip("networkx")
    rng = random.Random(69)
    srgs = [rook(4), shrikhande(), triangular(8), *chang_graphs()]
    for i, G in enumerate(srgs):
        for H in srgs[i:]:
            if G.n == H.n:
                H = relabeled(H, random_permutation(rng, H.n))
                _check_oracle(G, H, networkx_isomorphic(G, H))


def test_find_isomorphism_on_latin_square_graphs_of_z6_and_s3():
    """SRG(36,15,6,6) from two non-isotopic groups of order 6."""
    rng = random.Random(70)
    z6 = latin_square_graph(cayley_table(range(6), lambda a, b: (a + b) % 6))
    s3 = latin_square_graph(cayley_table(
        list(permutations(range(3))), lambda a, b: tuple(a[i] for i in b)))
    _check_oracle(z6, s3, False)
    for G in (z6, s3):
        _check_oracle(G, relabeled(G, random_permutation(rng, 36)), True)


def test_reduced_latin_squares_of_order_5_give_their_two_main_classes():
    """All 56 reduced Latin squares of order 5 fall into 2 main classes, so
    their graphs, SRG(25,12,5,6), form 2 isomorphism classes: the method
    splits exactly those, and the oracle certifies every class."""
    graphs = [latin_square_graph(square) for square in reduced_latin_squares(5)]
    assert len(graphs) == 56
    report = partition_group(graphs)
    assert sorted(map(len, report.final_classes)) == [6, 50]
    for members in report.final_classes:
        first = graphs[int(members[0])]
        for i in members[1:]:
            assert find_isomorphism(first, graphs[int(i)]) is not None, i
    a, b = (graphs[int(members[0])] for members in report.final_classes)
    assert distinguish_pair(a, b) == Verdict(True, "lc-det-profile")


# the first reduced square of order 6, in lexicographic order, of each of the
# 12 main classes, and the class sizes among the 9408 reduced squares
ORDER_6_CLASS_FIRSTS = [0, 1, 4, 5, 33, 34, 38, 40, 51, 52, 237, 1745]
ORDER_6_CLASS_SIZES = [20, 40, 60, 108, 180, 360, 540, 1080, 1080, 1080, 1620, 3240]


def test_one_square_per_main_class_of_order_6_gives_12_classes():
    """SRG(36,15,6,6) from one reduced square per main class, each beside a
    relabelled copy: the method splits the 12 classes and nothing more."""
    rng = random.Random(6)
    squares = reduced_latin_squares(6)
    assert len(squares) == 9408
    graphs, ids = [], []
    for i in ORDER_6_CLASS_FIRSTS:
        G = latin_square_graph(squares[i])
        graphs += [G, relabeled(G, random_permutation(rng, 36))]
        ids += [f"{i}", f"{i}'"]
    report = partition_group(graphs, ids=ids)
    assert sorted(report.final_classes) == sorted((f"{i}", f"{i}'") for i in ORDER_6_CLASS_FIRSTS)


def _profile_encoding(G):
    return lc_determinant_profile(G).encode()


@pytest.mark.slow
def test_reduced_latin_squares_of_order_6_give_their_12_main_classes():
    """The lc-det-profile alone splits all 9408 reduced squares of order 6
    into exactly their 12 main classes."""
    squares = reduced_latin_squares(6)
    classes = defaultdict(list)
    with Pool(2) as pool:
        for i, enc in enumerate(pool.map(_profile_encoding, [latin_square_graph(sq) for sq in squares])):
            classes[enc].append(i)
    assert sorted(members[0] for members in classes.values()) == ORDER_6_CLASS_FIRSTS
    assert sorted(map(len, classes.values())) == ORDER_6_CLASS_SIZES


def test_order_8_group_tables_are_the_five_groups():
    """Each table is associative with identity 0, and the element orders
    tell the five groups apart."""
    orders = {}
    for name, t in order_8_group_tables().items():
        elements = range(8)
        assert all(t[0][x] == t[x][0] == x for x in elements)
        assert all(t[t[a][b]][c] == t[a][t[b][c]] for a in elements for b in elements for c in elements)
        powers = [[x] for x in elements]
        for x in elements:
            while powers[x][-1] != 0:
                powers[x].append(t[powers[x][-1]][x])
        orders[name] = sorted(map(len, powers))
    assert orders == {
        "Z8": [1, 2, 4, 4, 8, 8, 8, 8],
        "Z4xZ2": [1, 2, 2, 2, 4, 4, 4, 4],
        "Z2^3": [1, 2, 2, 2, 2, 2, 2, 2],
        "D4": [1, 2, 2, 2, 2, 2, 4, 4],
        "Q8": [1, 2, 4, 4, 4, 4, 4, 4],
    }


def test_latin_square_graphs_of_the_groups_of_order_8(monkeypatch):
    """SRG(64,21,8,6) from the five groups of order 8, each beside a
    relabelled copy.  The paper's claim holds: five final classes.  Z8 and
    Q8 share their lc-det profile, and only the lc-walk signature splits
    them."""
    rng = random.Random(8)
    graphs, ids = [], []
    for name, table in order_8_group_tables().items():
        G = latin_square_graph(table)
        graphs += [G, relabeled(G, random_permutation(rng, 64))]
        ids += [name, f"{name}'"]
    walked = _count_walks(monkeypatch)
    report = partition_group(graphs, ids=ids)
    pairs = {(name, f"{name}'") for name in order_8_group_tables()}
    assert len(report.coarse_classes) == 4
    assert ("Z8", "Z8'", "Q8", "Q8'") in report.coarse_classes
    assert set(report.final_classes) == pairs
    z8, q8 = graphs[ids.index("Z8")], graphs[ids.index("Q8")]
    # Z8 has no certificate onto Q8, so both are walked
    assert any(G is z8 for G in walked) and any(G is q8 for G in walked)
    assert distinguish_pair(z8, q8) == Verdict(True, "lc-walk-signature")
    assert find_isomorphism(z8, q8) is None


def test_certificate_verification_rejects_bad_maps():
    G = path(3)
    H = path(3)
    with pytest.raises(CertificateError):
        _verify_certificate(G, H, (0, 0, 1))  # not a permutation
    with pytest.raises(CertificateError):
        _verify_certificate(G, H, (1, 0, 2))  # permutation, breaks adjacency
