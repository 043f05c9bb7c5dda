import hashlib
import random

import pytest

from walkgi import (
    DetProfile,
    LcWalkSignature,
    WalkSignature,
    build_graph,
    default_m,
    determinant,
    lc_determinant_profile,
    lc_walk_signature,
    local_complement,
    parse_graph6,
    walk_signature,
)
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
    cofactor_determinant,
    decode_lw2,
    decode_ws2,
    dense_walk_signature,
    edge_swapped,
    lw1,
    mat_pow,
    random_graph,
    random_permutation,
    relabeled,
    ws1,
)


def test_walk_signature_shape_and_sorting():
    sig = walk_signature(path(4))
    assert sig.n == 4 and sig.m == 4
    assert len(sig.rows) == 4
    for row in sig.rows:
        assert len(row) == 4
        assert list(row) == sorted(row)
        for tup in row:
            assert len(tup) == 4
    assert list(sig.rows) == sorted(sig.rows)


def test_walk_signature_entries_match_matrix_powers():
    G = cycle(5)
    sig = walk_signature(G)
    assert sig.m == 3
    A = adjacency_matrix(G)
    powers = [mat_pow(A, k) for k in (1, 2, 3)]
    expected = sorted(
        tuple(sorted(tuple(P.rows[i][j] for P in powers) for j in range(5)))
        for i in range(5)
    )
    assert list(sig.rows) == expected


def test_walk_signature_relabeling_invariant():
    rng = random.Random(41)
    for _ in range(60):
        G = random_graph(rng, rng.randint(1, 9))
        H = relabeled(G, random_permutation(rng, G.n))
        assert walk_signature(G).encode() == walk_signature(H).encode()


def test_walk_signature_detects_different_graphs():
    assert walk_signature(path(4)) != walk_signature(cycle(4))
    assert dense_walk_signature(path(4), 2) != dense_walk_signature(cycle(4), 2)


def test_default_m_known_values():
    assert default_m(empty_graph(3)) == 1
    assert default_m(complete(4)) == 2
    assert default_m(petersen()) == 3
    assert default_m(path(3)) == 3


def test_det_profile_ordering():
    # ascending by absolute value, ties negative first; graph found by
    # randomized search so the profile mixes signs and has an |.| tie
    G = parse_graph6("FRREO")
    prof = lc_determinant_profile(G)
    assert prof.values == (0, 0, 0, 0, 2, -4, 4)
    values = list(prof.values)
    assert values == sorted(values, key=lambda v: (abs(v), v >= 0, v))
    # the multiset itself is confirmed by cofactor expansion
    by_oracle = [
        cofactor_determinant(adjacency_matrix(local_complement(G, u)).rows)
        for u in range(G.n)
    ]
    assert sorted(by_oracle) == sorted(values)


def test_lc_determinant_profile_values():
    G = petersen()
    prof = lc_determinant_profile(G)
    assert prof.n == 10
    assert len(set(prof.values)) == 1
    # each entry is literally the determinant of one local complement
    expected = sorted(
        (determinant(local_complement(G, u)) for u in range(10)),
        key=lambda v: (abs(v), v >= 0, v),
    )
    assert list(prof.values) == expected


def test_lc_profile_relabeling_invariant():
    rng = random.Random(42)
    for _ in range(40):
        G = random_graph(rng, rng.randint(1, 8))
        H = relabeled(G, random_permutation(rng, G.n))
        assert lc_determinant_profile(G).encode() == lc_determinant_profile(H).encode()


def test_lc_walk_signature_relabeling_invariant():
    rng = random.Random(43)
    for _ in range(15):
        G = random_graph(rng, rng.randint(1, 7))
        H = relabeled(G, random_permutation(rng, G.n))
        sig_G, sig_H = lc_walk_signature(G), lc_walk_signature(H)
        assert sig_G.encode() == sig_H.encode()
        assert sig_G == sig_H


def test_lc_walk_signature_parts_sorted():
    sig = lc_walk_signature(cycle(6))
    assert sig.n == 6
    encodings = list(sig.part_encodings)
    assert len(encodings) == 6
    assert encodings == sorted(encodings)


def test_lc_walk_signature_splits_same_parameter_srgs():
    a, b = rook(4), shrikhande()
    assert walk_signature(a).encode() == walk_signature(b).encode()
    assert lc_walk_signature(a).encode() != lc_walk_signature(b).encode()


def test_encodings_are_injective_on_small_sample():
    # distinct structures must yield distinct bytes, not just unequal objects
    rng = random.Random(44)
    seen = {}
    for _ in range(200):
        G = random_graph(rng, rng.randint(1, 6))
        sig = dense_walk_signature(G, 2)
        enc = sig.encode()
        if enc in seen:
            assert seen[enc] == sig
        seen[enc] = sig


def test_encoding_embeds_dimensions():
    # same flattened numbers (all zeros), different shapes, must not collide
    a = walk_signature(empty_graph(4)).encode()
    b = dense_walk_signature(empty_graph(2), 2).encode()
    assert a != b


def test_negative_entries_encode_distinctly():
    assert DetProfile((1,)).encode() != DetProfile((-1,)).encode()
    assert DetProfile((255,)).encode() != DetProfile((-256,)).encode()
    assert DetProfile((0,)).encode() != DetProfile((256,)).encode()


# sha256 of the LW1 and WS1 encodings as first published, of the bytes the
# reference encoders in ``oracles`` make from the decoded LW2 and WS2 bytes:
# they pin the walk kernel, and matching them proves the round trip
LC_WALK_DIGESTS = {
    "T(8)": "e7203fe928cd501d21b4b28f137cb96979e79f90a12604515c226981c2f8049a",
    "Chang[0]": "96a200cd1edb860445ab2a5bb24d7964dc8c9fa6d92297f30d4863105c5e67eb",
    "Chang[1]": "d435969ff234cd570aeced20e1b9e1ca83a063be575227b6221491488bb31c88",
    "Chang[2]": "0563ac23d1acd41d98dfe4be714189d532a0481bb189edf8ed9aeffca2679a52",
    "rook(4)": "e059771238b01179a022fc3fb23205d7c759549c7ea8e781de3c03b4375fe5f7",
    "Shrikhande": "1de3a5e93ecb7c90cbbcef82fa3cb7a0a630ac9c1bb517c11be92d83a15af003",
    # LC horizons 9 and 11
    "Paley(13)": "4c98b212c45657657e1d08d38cad65afb5acafc55e5f59a648870761112382b4",
    "Paley(17)": "773aabe48870f26651a96801f5fad7e897da86131e1f2a516a59a75f973a04c7",
    # max LC degree 19 and LC horizons 19: entries outgrow one 64-bit word
    "Paley(37)": "a9459afd8247558dc1bc74ac816d83a41e5513f3590cede10a9cf0dfd88be55d",
    # LC horizons up to 31, entries up to 149 bits: lanes of 4 words; one
    # orbit, so one local complement stands for all 61 (the digest is of
    # all 61 walked one by one)
    "Paley(61)": "0323376d254043f598400de1feea0a507a3a8f7b764b0ef21ac3568951d225a7",
}
# rook(4) and T(8) have horizon 3
WALK_3_DIGESTS = {
    "rook(4)": "282cdab334eba627489802c8c1f1ef2c9ef41c3384489582962f063bb4491dcc",
    "T(8)": "6c612a0505236c4c33640d31ad09f25036d8fe48954397eba9887b1cc38d0974",
}
# the LW2 and WS2 encodings themselves; catalogs store these bytes, so any
# change to the walk kernel or the encoders must reproduce them exactly
LC_WALK_2_DIGESTS = {
    "T(8)": "28862e40320083140216bf6fe39af8b9c3e9ca4316549583a204b7490638b6d0",
    "Chang[0]": "1895bdd1b3d1cb9a09dbe79c7732a83f37241ecfae09dfe44e38dcdd7cd51916",
    "Chang[1]": "a8180f7cc358e85ad4b7967b0e4fc45e8ed765a004952d179a3e551a6b6007cc",
    "Chang[2]": "e87219ed8714be2c3994eb7158db65ab05c46946c155744381f7677623dab166",
    "rook(4)": "41433be80ffcfe9a8e541f5a0c57c290460dd8fa1b51f5de6e386d83a6fcefd8",
    "Shrikhande": "dfbf40c3f55d2c6c614dd5fd267001654eeae0b6fa0d8bc1f7ee10ef3048a768",
    "Paley(13)": "09a29004044bea769fa88d8944b1b3e21a0ff953c27231e15fbd3c8b645d073b",
    "Paley(17)": "29664eb67cbd22ccf322c6ed12bab62a0d781ad80fa31be22aeb5d4c1a01d636",
    "Paley(37)": "bf53012f3a85e289bd6e1476dbd5060e5fcc16e431219259a89d69c432777186",
    "Paley(61)": "f2a72414462414ff9cd20efa82229cb8588d355aa26d0532c8b6089a103c4218",
}
WALK_3_2_DIGESTS = {
    "rook(4)": "4f2e9c700250a74c188714b7fc0a9872e28b308f8813116e9d970db3356138e9",
    "T(8)": "a6456dca604ae99c6765a50b7baef724c3343e8f0970b27286a2396571e63291",
}
# lc_determinant_profile encodings (DP1)
DET_PROFILE_DIGESTS = {
    "rook(4)": "75a4c85a925c978cefb5382701d63c45fa34f62fb6891fef133417689c36388a",
    "Shrikhande": "7a68a05f0eaec888fc4bf83ca991308bbeb6073aeaf4979745ae1dd275c2fecc",
    "T(8)": "796c712681df346816404c96a049b3707142732cb4f5668baf3455117dfdde0b",
    "Chang[0]": "186c63b55cfc05f6d68bee564f139c0864a58bf5bd0fa193e4a399cdd7bdb628",
    "Chang[1]": "e5f4c9cd737e418e55370b89e6e0e82b9e1715428f1fda7e940ddd64617bc26e",
    "Chang[2]": "ea25b2ca2ddcae127e6e65ab9614c8ae6e7345e285e08b03e4f2125b5dc5f37c",
    "Paley(13)": "f4aa5f3c9c792f1aab265c72471b6709031639ba85b25a242cc1e248d6f7795d",
    "Paley(17)": "8b1ff2ee8ab2714323fd8ce8141ada953e15a985dc81091fdeaa356c138b90a5",
    "Paley(37)": "de1aded48bb153401078b3b7d0db336cb4c2eb5a856d5a11625b601aade22ee2",
    "rook(6)": "c08ea92afc014d94e711758162f82807c4a0fe8d739bfba2cdc7a1795e5217f8",
    # det A != 0 at n = 61: the shared inverse's lanes at 16 bytes
    "Paley(61)": "02029b075387692b1f21fae41315c8567546cc1cda0b1ad7bced93a2f2482676",
    # the encodings of 20 graphs, concatenated: 12-regular but not strongly
    # regular, from ``swapped_t8_graphs``
    "T(8) swapped x20": "eb1d4a093e55fc7edbf90f2b90067eac186c28f87812e73218728233578a4c90",
}


def golden_graphs():
    c0, c1, c2 = chang_graphs()
    return {"T(8)": triangular(8), "Chang[0]": c0, "Chang[1]": c1, "Chang[2]": c2,
            "rook(4)": rook(4), "Shrikhande": shrikhande(), "Paley(13)": paley(13),
            "Paley(17)": paley(17), "Paley(37)": paley(37), "Paley(61)": paley(61),
            "rook(6)": rook(6)}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_encodings_are_byte_identical():
    graphs = golden_graphs()
    for name, digest in LC_WALK_DIGESTS.items():
        enc = lc_walk_signature(graphs[name]).encode()
        assert _sha256(enc) == LC_WALK_2_DIGESTS[name], name
        assert _sha256(lw1(decode_lw2(enc))) == digest, name
    for name, digest in WALK_3_DIGESTS.items():
        sig = walk_signature(graphs[name])
        assert sig.m == 3, name
        enc = sig.encode()
        assert _sha256(enc) == WALK_3_2_DIGESTS[name], name
        assert decode_ws2(enc) == sig, name
        assert _sha256(ws1(decode_ws2(enc))) == digest, name
        assert dense_walk_signature(graphs[name], 3) == sig, name


def swapped_t8_graphs():
    rng = random.Random(1205)
    return [edge_swapped(triangular(8), 60, rng) for _ in range(20)]


def test_golden_det_profile_encodings_are_byte_identical():
    inputs = {name: [G] for name, G in golden_graphs().items()}
    inputs["T(8) swapped x20"] = swapped_t8_graphs()
    for name, digest in DET_PROFILE_DIGESTS.items():
        encoding = b"".join(lc_determinant_profile(G).encode() for G in inputs[name])
        assert hashlib.sha256(encoding).hexdigest() == digest, name


def test_walk_signature_default_horizon():
    G = shrikhande()
    L = local_complement(G, 0)
    assert walk_signature(L) == dense_walk_signature(L, default_m(L))
    assert walk_signature(G).m == 3


def test_lc_walk_part_encodings():
    # one walk per orbit yields each complement's own WS2 bytes, sorted
    for G in (cycle(5), cycle(6), path(4), triangular(8)):
        sig = lc_walk_signature(G)
        assert sig.n == G.n
        fresh = sorted(walk_signature(local_complement(G, u)).encode() for u in range(G.n))
        assert sig.part_encodings == tuple(fresh)
        # encodings given in any order are sorted
        reordered = LcWalkSignature(sig.part_encodings[::-1])
        assert reordered == sig and reordered.encode() == sig.encode()


def test_lc_walk_signature_without_orbit_search_is_unchanged(monkeypatch):
    # with no search nodes every orbit is a singleton and all n local
    # complements are walked; the bytes must not move
    graphs = golden_graphs()
    monkeypatch.setattr("walkgi.graph.ORBIT_SEARCH_NODES_PER_VERTEX", 0)
    for name, digest in LC_WALK_2_DIGESTS.items():
        if name != "Paley(61)":  # 61 complements of ~0.1 s each
            assert _sha256(lc_walk_signature(graphs[name]).encode()) == digest, name


def test_lc_walk_signature_walks_one_complement_per_orbit(monkeypatch):
    import walkgi.invariants

    walked, encoded = [], []
    encode = WalkSignature.encode

    def counting(G, u):
        walked.append(u)
        return local_complement(G, u)

    def counting_encode(sig):
        encoded.append(sig)
        return encode(sig)

    monkeypatch.setattr(walkgi.invariants, "local_complement", counting)
    monkeypatch.setattr(WalkSignature, "encode", counting_encode)
    graphs = golden_graphs()
    counts = {}
    for name in ("T(8)", "Chang[0]", "Chang[1]", "Chang[2]", "Paley(37)"):
        walked.clear()
        encoded.clear()
        lc_walk_signature(graphs[name])
        counts[name] = len(walked)
        assert len(encoded) == len(walked), name  # one encoding per orbit
    assert counts == {"T(8)": 1, "Chang[0]": 2, "Chang[1]": 2, "Chang[2]": 2, "Paley(37)": 1}


def test_walk_encodings_decode_back_to_the_signature():
    rng = random.Random(45)
    for _ in range(60):
        G = random_graph(rng, rng.randint(1, 9))
        sig = walk_signature(G)
        assert decode_ws2(sig.encode()) == sig
        lc = lc_walk_signature(G)
        parts = decode_lw2(lc.encode())
        # each distinct part once, with its multiplicity
        assert [part.encode() for _, part in parts] == sorted(set(lc.part_encodings))
        assert [count for count, _ in parts] == [lc.part_encodings.count(part.encode())
                                                 for _, part in parts]


def test_lc_walk_encoding_holds_each_distinct_part_once():
    graphs = golden_graphs()
    t8 = lc_walk_signature(graphs["T(8)"]).encode()
    ((count, part),) = decode_lw2(t8)
    assert count == 28 and part == walk_signature(local_complement(graphs["T(8)"], 0))
    assert len(t8) < 4096  # 1.03 MiB as LW1
    assert [count for count, _ in decode_lw2(lc_walk_signature(graphs["Chang[0]"]).encode())] in ([4, 24], [24, 4])
    assert len(lc_walk_signature(graphs["Paley(61)"]).encode()) < 64 * 1024  # 92 MiB as LW1


def test_walk_signature_decoder_rejects_what_the_encoder_never_writes():
    enc = walk_signature(cycle(5)).encode()
    for bad in (enc[:-1], enc + b"\0", b"WS1" + enc[3:]):
        with pytest.raises(ValueError):
            decode_ws2(bad)
