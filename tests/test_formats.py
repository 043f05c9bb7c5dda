import hashlib
import random
import shutil
from dataclasses import replace

import networkx as nx
import pytest

from walkgi import (
    CATALOG_HEADER,
    CatalogError,
    CatalogRecord,
    DatasetError,
    Graph6Error,
    SrgParams,
    build_graph,
    catalog_read,
    catalog_write,
    lc_determinant_profile,
    lc_walk_signature,
    make_catalog_record,
    parse_graph6,
    read_dataset,
    write_graph6,
)
from walkgi.formats import catalog_blobs
from fixture_graphs import complete, cycle, empty_graph, path, petersen, rook, shrikhande
from oracles import random_graph


def lc_encodings(G):
    return lc_determinant_profile(G).encode(), lc_walk_signature(G).encode()


def assert_roundtrip(cat, records):
    """``catalog_read`` returns ``records`` without their encodings, and
    ``catalog_blobs`` returns the encodings their digests name."""
    assert catalog_read(cat) == [
        replace(rec, lc_profile_encoding=None, lc_walk_encoding=None) for rec in records]
    blobs = catalog_blobs(cat, [d for rec in records
                                for d in (rec.lc_profile_digest, rec.lc_walk_digest)])
    for rec in records:
        assert blobs[rec.lc_profile_digest] == rec.lc_profile_encoding
        assert blobs[rec.lc_walk_digest] == rec.lc_walk_encoding


def nx_to_graph(nxg):
    return build_graph(nxg.number_of_nodes(), list(nxg.edges()))


def graphs_equal(G, nxg):
    return G.n == nxg.number_of_nodes() and sorted(G.edges()) == sorted(
        tuple(sorted(e)) for e in nxg.edges()
    )


def test_fixed_vectors():
    assert sorted(parse_graph6("A_").edges()) == [(0, 1)]
    assert parse_graph6("A?").edge_count() == 0
    assert parse_graph6("A?").n == 2
    assert parse_graph6("Bw") == complete(3)
    assert write_graph6(complete(3)) == "Bw"
    assert write_graph6(build_graph(2, [(0, 1)])) == "A_"
    assert write_graph6(empty_graph(2)) == "A?"


def test_fixed_vectors_against_reference_encoder():
    for g6 in ("A_", "A?", "Bw"):
        ours = parse_graph6(g6)
        theirs = nx.from_graph6_bytes(g6.encode())
        assert graphs_equal(ours, theirs)


def test_roundtrip_random_graphs():
    rng = random.Random(71)
    for _ in range(300):
        n = rng.randint(1, 40)
        G = random_graph(rng, n, rng.choice([0.1, 0.5, 0.9]))
        assert parse_graph6(write_graph6(G)) == G


def test_agrees_with_reference_both_directions():
    rng = random.Random(72)
    for _ in range(100):
        n = rng.randint(1, 30)
        G = random_graph(rng, n)
        # our encoding, their decoding
        theirs = nx.from_graph6_bytes(write_graph6(G).encode())
        assert graphs_equal(G, theirs)
        # their encoding, our decoding
        enc = nx.to_graph6_bytes(theirs, header=False).strip().decode()
        assert parse_graph6(enc) == G


def test_header_token_and_whitespace():
    assert parse_graph6(">>graph6<<Bw") == complete(3)
    assert parse_graph6("  Bw\n") == complete(3)


def test_long_format_header():
    G = random_graph(random.Random(73), 63)
    enc = write_graph6(G)
    assert enc.startswith("~")
    assert parse_graph6(enc) == G
    # boundary: n = 62 still uses the short header
    small = write_graph6(empty_graph(62))
    assert not small.startswith("~")
    assert parse_graph6(small).n == 62


def test_rejects_huge_header():
    with pytest.raises(Graph6Error, match="8-byte"):
        parse_graph6("~~?????@?")


def test_rejects_vertex_cap():
    # n = 4097 > cap, header-only prefix is enough to fail
    n = 4097
    enc = "~" + chr(63 + (n >> 12)) + chr(63 + (n >> 6 & 63)) + chr(63 + (n & 63))
    with pytest.raises(Graph6Error, match="exceeds cap"):
        parse_graph6(enc)


def test_rejects_empty_and_zero_vertices():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error, match="at least one vertex"):
        parse_graph6("?")


def test_rejects_invalid_bytes():
    with pytest.raises(Graph6Error, match="position 0"):
        parse_graph6("!")  # 33 < 63
    with pytest.raises(Graph6Error, match="position 1"):
        parse_graph6("B" + chr(127))


def test_rejects_wrong_body_length():
    with pytest.raises(Graph6Error, match="truncated/overlong"):
        parse_graph6("B")  # K3-sized header, no body
    with pytest.raises(Graph6Error, match="truncated/overlong"):
        parse_graph6("Bww")  # one body character too many
    with pytest.raises(Graph6Error, match="truncated size header"):
        parse_graph6("~?")


def test_rejects_nonzero_padding():
    # n=2 uses 1 of 6 body bits; set a padding bit: 'A' + chr(63 + 0b000001)
    with pytest.raises(Graph6Error, match="padding"):
        parse_graph6("A" + chr(63 + 1))


def test_read_dataset(tmp_path):
    p = tmp_path / "mixed.g6"
    p.write_text(
        ">>graph6<<\n"
        "# a comment\n"
        "\n"
        "Bw\n"
        "A_\n"
    )
    entries, failures = read_dataset(p)
    assert [e[0] for e in entries] == ["mixed.g6:4", "mixed.g6:5"]
    assert entries[0][1] == complete(3)
    assert failures == []


def test_read_dataset_header_token_inline(tmp_path):
    p = tmp_path / "inline.g6"
    p.write_text(">>graph6<<Bw\n")
    entries, failures = read_dataset(p)
    assert len(entries) == 1 and not failures
    assert entries[0][1] == complete(3)


def test_read_dataset_collects_failures(tmp_path):
    p = tmp_path / "bad.g6"
    p.write_text("Bw\n!!\nA_\n")
    entries, failures = read_dataset(p)
    assert len(entries) == 2
    assert len(failures) == 1
    assert failures[0].lineno == 2
    assert "bad.g6:2" in str(failures[0])


def test_read_dataset_strict_raises(tmp_path):
    p = tmp_path / "bad.g6"
    p.write_text("Bw\n!!\n")
    with pytest.raises(DatasetError, match="bad.g6:2"):
        read_dataset(p, strict=True)


def test_make_catalog_record():
    rec = make_catalog_record("pete", petersen(), *lc_encodings(petersen()))
    assert rec.id == "pete"
    assert parse_graph6(rec.g6) == petersen()
    assert rec.params == SrgParams(10, 3, 0, 1)
    assert rec.det == 48
    assert rec.lc_profile_encoding is not None
    assert hashlib.sha256(rec.lc_profile_encoding).hexdigest() == rec.lc_profile_digest
    assert hashlib.sha256(rec.lc_walk_encoding).hexdigest() == rec.lc_walk_digest


def test_catalog_roundtrip(tmp_path):
    records = [
        make_catalog_record("pete", petersen(), *lc_encodings(petersen())),
        make_catalog_record("c5", cycle(5), *lc_encodings(cycle(5))),
        make_catalog_record("p4", path(4), *lc_encodings(path(4))),
    ]
    cat = tmp_path / "test.catalog"
    catalog_write(records, cat)
    assert cat.read_text().splitlines()[0] == CATALOG_HEADER
    assert_roundtrip(cat, records)


def test_catalog_read_without_blobs(tmp_path):
    cat = tmp_path / "test.catalog"
    catalog_write([make_catalog_record("c4", cycle(4), *lc_encodings(cycle(4)))], cat)
    shutil.rmtree(tmp_path / "test.catalog.blobs")  # the TSV alone is read
    (rec,) = catalog_read(cat)
    assert rec.lc_profile_encoding is None
    assert rec.lc_walk_encoding is None
    assert rec.det == 0
    assert rec.params == SrgParams(4, 2, 0, 2)


def test_catalog_missing_blobs_read_as_none(tmp_path):
    cat = tmp_path / "test.catalog"
    catalog_write([make_catalog_record("c4", cycle(4), *lc_encodings(cycle(4)))], cat)
    for blob in (tmp_path / "test.catalog.blobs").iterdir():
        blob.unlink()
    (rec,) = catalog_read(cat)
    blobs = catalog_blobs(cat, [rec.lc_profile_digest, rec.lc_walk_digest])
    assert blobs[rec.lc_profile_digest] is None and blobs[rec.lc_walk_digest] is None


def test_catalog_detects_tampered_blob(tmp_path):
    cat = tmp_path / "test.catalog"
    catalog_write([make_catalog_record("c4", cycle(4), *lc_encodings(cycle(4)))], cat)
    blobs = sorted((tmp_path / "test.catalog.blobs").iterdir())
    blobs[0].write_bytes(b"garbage")
    (rec,) = catalog_read(cat)
    with pytest.raises(CatalogError, match=f"sidecar blob {blobs[0].name} fails digest check"):
        catalog_blobs(cat, [rec.lc_profile_digest, rec.lc_walk_digest])


def test_catalog_write_removes_unnamed_blobs(tmp_path):
    cat = tmp_path / "test.catalog"
    blobs = tmp_path / "test.catalog.blobs"
    rook_enc, shrikhande_enc = lc_encodings(rook(4)), lc_encodings(shrikhande())
    catalog_write([make_catalog_record(i, rook(4), *rook_enc) for i in "ab"], cat)
    rook_blobs = {p.name for p in blobs.iterdir()}
    others = [blobs / ".0123.4567.tmp", blobs / "notes.txt", blobs / ("f" * 63)]
    for other in others:
        other.write_bytes(b"not a blob")
    # both stale rook(4) records replaced by Shrikhande
    catalog_write([make_catalog_record(i, shrikhande(), *shrikhande_enc) for i in "ab"], cat)
    named = {d for line in cat.read_text().splitlines()[1:] for d in line.split("\t")[4:]}
    assert len(named) == 2 and not named & rook_blobs
    assert {p.name for p in blobs.iterdir()} == named | {p.name for p in others}
    assert_roundtrip(cat, [make_catalog_record(i, shrikhande(), *shrikhande_enc) for i in "ab"])


def test_catalog_rejects_unknown_version(tmp_path):
    cat = tmp_path / "test.catalog"
    cat.write_text("walkgi-catalog v999\n")
    with pytest.raises(CatalogError, match="unsupported catalog version"):
        catalog_read(cat)
    cat.write_text("")
    with pytest.raises(CatalogError, match="unsupported catalog version"):
        catalog_read(cat)


def test_catalog_rejects_malformed_lines(tmp_path):
    cat = tmp_path / "test.catalog"
    cat.write_text(CATALOG_HEADER + "\nonly\tthree\tfields\n")
    with pytest.raises(CatalogError, match="expected 6 fields"):
        catalog_read(cat)
    cat.write_text(CATALOG_HEADER + "\nid\tBw\t-\tnotanumber\taa\tbb\n")
    with pytest.raises(CatalogError, match="determinant"):
        catalog_read(cat)
    cat.write_text(CATALOG_HEADER + "\nid\tBw\t1,2\t0\taa\tbb\n")
    with pytest.raises(CatalogError, match="params"):
        catalog_read(cat)


def test_catalog_rejects_tab_in_id(tmp_path):
    rec = make_catalog_record("bad\tid", cycle(4), *lc_encodings(cycle(4)))
    with pytest.raises(CatalogError, match="tab"):
        catalog_write([rec], tmp_path / "test.catalog")


def test_catalog_params_roundtrip_non_srg(tmp_path):
    cat = tmp_path / "test.catalog"
    catalog_write([make_catalog_record("p4", path(4), *lc_encodings(path(4)))], cat)
    (rec,) = catalog_read(cat)
    assert rec.params is None


def test_catalog_record_without_lc_walk_roundtrip(tmp_path):
    profile_enc, _ = lc_encodings(petersen())
    rec = make_catalog_record("pete", petersen(), profile_enc, None)
    assert rec.lc_walk_digest == "-"
    cat = tmp_path / "test.catalog"
    catalog_write([rec], cat)
    assert cat.read_text().splitlines()[1].endswith("\t-")
    assert [p.name for p in (tmp_path / "test.catalog.blobs").iterdir()] == [rec.lc_profile_digest]
    assert_roundtrip(cat, [rec])


@pytest.mark.parametrize(
    "profile_digest, walk_digest, field",
    [
        ("../../../etc/hostname", "-", "lc-profile"),
        ("a" * 63, "-", "lc-profile"),
        ("-", "-", "lc-profile"),
        ("a" * 64, "../../../etc/hostname", "lc-walk"),
        ("a" * 64, "a" * 63, "lc-walk"),
        ("a" * 64, "A" * 64, "lc-walk"),
    ],
)
def test_catalog_rejects_bad_digest(tmp_path, profile_digest, walk_digest, field):
    cat = tmp_path / "test.catalog"
    cat.write_text(f"{CATALOG_HEADER}\nid\tBw\t-\t2\t{profile_digest}\t{walk_digest}\n")
    with pytest.raises(CatalogError, match=f"test.catalog:2: bad {field} digest"):
        catalog_read(cat)


class _CrashingWrite:
    """A file whose first write stores half its bytes, runs ``at_crash`` on
    what is then on disk, and fails."""

    def __init__(self, fh, at_crash):
        self.fh = fh
        self.at_crash = at_crash

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        self.at_crash()
        raise OSError("no space left on device")


# the new record adds two blobs, then the TSV is written: three files
@pytest.mark.parametrize("fail_at", [1, 2, 3])
def test_catalog_write_failure_keeps_previous_catalog(tmp_path, monkeypatch, fail_at):
    import walkgi.formats

    cat = tmp_path / "test.catalog"
    blobs = tmp_path / "test.catalog.blobs"
    old = [make_catalog_record("c4", cycle(4), *lc_encodings(cycle(4)))]
    catalog_write(old, cat)
    new = old + [make_catalog_record("pete", petersen(), *lc_encodings(petersen()))]

    def previous_catalog_intact():
        assert_roundtrip(cat, old)
        for blob in blobs.iterdir():
            if len(blob.name) == 64:  # named by a digest
                assert hashlib.sha256(blob.read_bytes()).hexdigest() == blob.name

    opened = []

    def failing_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        opened.append(file)
        return _CrashingWrite(fh, previous_catalog_intact) if len(opened) == fail_at else fh

    with monkeypatch.context() as patch:
        patch.setattr(walkgi.formats, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="no space"):
            catalog_write(new, cat)

    previous_catalog_intact()
    # the failed write leaves no temp file behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["test.catalog", "test.catalog.blobs"]
    assert all(len(p.name) == 64 for p in blobs.iterdir())
    catalog_write(new, cat)
    assert_roundtrip(cat, new)
