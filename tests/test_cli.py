import argparse
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from walkgi import (
    CATALOG_HEADER,
    CertificateError,
    build_graph,
    catalog_write,
    lc_determinant_profile,
    lc_walk_signature,
    make_catalog_record,
    write_graph6,
)
from walkgi import linalg
from walkgi.cli import build_parser, main
from walkgi.isotest import GROUP_STAGES, STAGE_KEYS
from fixture_graphs import (
    complete,
    cycle,
    empty_graph,
    latin_square_graph,
    path,
    petersen,
    reduced_latin_squares,
    rook,
    shrikhande,
    star,
)
from oracles import count_walks, edge_pairs, has_edge, random_graph, random_permutation, relabeled


def write_g6(dirpath, name, *graphs):
    p = dirpath / name
    p.write_text("".join(write_graph6(G) + "\n" for G in graphs))
    return str(p)


def test_info_text(tmp_path, capsys):
    f = write_g6(tmp_path, "pete.g6", petersen())
    assert main(["info", f]) == 0
    out = capsys.readouterr().out
    assert "SRG(10,3,0,1), det=48, m=3" in out
    assert "n=10" in out and "edges=15" in out and "degrees=3^10" in out
    assert out.startswith("pete.g6:1:")


def test_info_gives_each_run_of_equal_degrees_in_ascending_order(tmp_path, capsys):
    # K4 minus an edge: the edge's ends have degree 2, the other two degree 3
    f = write_g6(tmp_path, "k4e.g6", build_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
    assert main(["info", f, "--format", "records"]) == 0
    assert " degrees=2^2,3^2 " in capsys.readouterr().out


def test_info_text_non_srg(tmp_path, capsys):
    f = write_g6(tmp_path, "two.g6", empty_graph(2), path(3))
    assert main(["info", f]) == 0
    out_lines = capsys.readouterr().out.splitlines()
    assert "not SRG, det=0, m=1" in out_lines[0]  # edgeless pair
    assert "not SRG, det=0, m=3" in out_lines[1]  # path on three vertices


def test_importing_the_cli_loads_neither_dataclasses_nor_hashlib():
    # -S: no site hooks, so the modules loaded are those the import needs
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, walkgi.cli; print(*sorted({'dataclasses', 'hashlib', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "\n"


def test_info_records(tmp_path, capsys):
    f = write_g6(tmp_path, "pete.g6", petersen())
    assert main(["info", f, "--format", "records"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "record=info id=pete.g6:1 n=10 edges=15 degrees=3^10 srg=10,3,0,1 det=48 m=3\n"
    )


@pytest.mark.usefixtures("forking")
def test_info_records_identical_with_one_and_two_workers(tmp_path, capsys, monkeypatch):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    f = write_g6(tmp_path, "mixed.g6", petersen(), cycle(5), path(4), complete(5), rook(3))
    outputs = []
    for workers in ("1", "2"):
        assert main(["info", f, "--format", "records", "--workers", workers]) == 0
        outputs.append(capsys.readouterr().out)
        # one worker maps serially, two fork two worker processes
        assert len(forks) == {"1": 0, "2": 2}[workers]
    assert outputs[0].count("\n") == 5
    assert outputs[0] == outputs[1]


def test_pair_distinguished(tmp_path, capsys):
    a = write_g6(tmp_path, "a.g6", complete(3))
    b = write_g6(tmp_path, "b.g6", path(3))
    assert main(["pair", a, b]) == 0
    assert capsys.readouterr().out == "Distinguished: edge-count\n"
    assert main(["pair", a, b, "--format", "records"]) == 0
    assert capsys.readouterr().out == "record=pair distinguished=true stage=edge-count\n"


def test_pair_records(tmp_path, capsys):
    a = write_g6(tmp_path, "a.g6", cycle(6))
    b = write_g6(tmp_path, "b.g6", cycle(6))
    assert main(["pair", a, b, "--format", "records"]) == 0
    assert capsys.readouterr().out == "record=pair distinguished=false\n"
    assert main(["pair", a, b]) == 0
    assert capsys.readouterr().out == "NotDistinguished\n"


def test_pair_oracle_skipped_above_cap(tmp_path, capsys):
    """pair screens a relabelled rook(4) and leaves it undistinguished; the
    oracle, which has no vertex cap, certifies it at n = 16."""
    G = rook(4)
    H = relabeled(G, random_permutation(random.Random(82), 16))
    a = write_g6(tmp_path, "a.g6", G)
    b = write_g6(tmp_path, "b.g6", H)
    assert main(["pair", a, b, "--format", "records"]) == 0
    assert capsys.readouterr().out == "record=pair distinguished=false\n"
    assert main(["oracle", a, b, "--format", "records"]) == 0
    captured = capsys.readouterr()
    prefix = "record=oracle isomorphic=true certificate="
    assert captured.out.startswith(prefix) and captured.out.count("\n") == 1
    f = [int(w) for w in captured.out.strip()[len(prefix):].split(",")]
    assert sorted(f) == list(range(16))
    assert all(has_edge(H, f[u], f[v]) for u, v in edge_pairs(G))
    assert captured.err == ""


def test_pair_reports_a_malformed_input_with_its_line(tmp_path, capsys):
    bad = tmp_path / "bad.g6"
    bad.write_text("!!\n")
    b = write_g6(tmp_path, "b.g6", complete(3))
    # the line every command prints for a malformed line, and no verdict
    for command in (["pair", str(bad), b], ["oracle", b, str(bad)]):
        assert main(command) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: {bad}:1: invalid graph6 byte at position 0\n"


def test_pair_requires_single_graph_per_file(tmp_path, capsys):
    a = write_g6(tmp_path, "a.g6", complete(3), complete(3))
    b = write_g6(tmp_path, "b.g6", complete(3))
    assert main(["pair", a, b]) == 1
    assert "exactly one graph" in capsys.readouterr().err


def test_group_text(tmp_path, capsys):
    rng = random.Random(82)
    G = petersen()
    f = write_g6(tmp_path, "g.g6", G, relabeled(G, random_permutation(rng, 10)), cycle(10))
    assert main(["group", f, "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "graphs: 3" in out
    assert "coarse: 2 classes" in out
    assert "final: 2 classes" in out
    assert "unresolved: g.g6:1, g.g6:2" in out
    assert "timing:" in out


@pytest.mark.usefixtures("forking")
def test_group_records_deterministic_across_workers(tmp_path, capsys):
    rng = random.Random(83)
    graphs = [random_graph(rng, 7) for _ in range(8)]
    graphs.append(relabeled(graphs[0], random_permutation(rng, 7)))
    f = write_g6(tmp_path, "batch.g6", *graphs)

    assert main(["group", f, "--format", "records", "--workers", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(["group", f, "--format", "records", "--workers", "2"]) == 0
    parallel = capsys.readouterr().out

    assert serial == parallel
    assert serial.startswith("record=group graphs=9 ")
    assert "record=class kind=final" in serial


def test_group_timing_names_group_stages(tmp_path, capsys):
    # the benchmark reads its per-stage seconds from these names
    f = write_g6(tmp_path, "srg16.g6", rook(4), shrikhande(), rook(4))
    assert main(["group", f, "--format", "records", "--workers", "1"]) == 0
    (line,) = [line for line in capsys.readouterr().err.splitlines() if line.startswith("timing: ")]
    names = [part.split()[0] for part in line.removeprefix("timing: ").split(", ")]
    assert names == [*GROUP_STAGES, "total"]


def test_group_all_singletons_line(tmp_path, capsys):
    f = write_g6(tmp_path, "srg16.g6", rook(4), shrikhande())
    assert main(["group", f]) == 0
    out = capsys.readouterr().out
    assert "all singletons" in out


def test_group_catalog_reuse(tmp_path, capsys):
    f = write_g6(tmp_path, "srg16.g6", rook(4), shrikhande())
    cat = tmp_path / "inv.catalog"

    assert main(["group", f, "--catalog", str(cat), "--workers", "1"]) == 0
    first = capsys.readouterr()
    assert "computing 2 new records" in first.err
    assert cat.is_file()

    assert main(["group", f, "--catalog", str(cat), "--workers", "1"]) == 0
    second = capsys.readouterr()
    assert "2 cached records" in second.err
    assert "computing" not in second.err
    assert _without_timing(first.out) == _without_timing(second.out)


def test_group_catalog_partial_reuse(tmp_path, capsys):
    f1 = write_g6(tmp_path, "one.g6", rook(4))
    cat = tmp_path / "inv.catalog"
    assert main(["group", f1, "--catalog", str(cat)]) == 0
    capsys.readouterr()

    f2 = write_g6(tmp_path, "two.g6", shrikhande())
    assert main(["group", f1, f2, "--catalog", str(cat)]) == 0
    err = capsys.readouterr().err
    assert "1 cached records" in err
    assert "computing 1 new records" in err


def test_group_catalog_recomputes_changed_graph(tmp_path, capsys):
    # records are keyed by file:line; a line whose graph changed must not
    # reuse the old record, or two isomorphic graphs come out "distinguished"
    f = write_g6(tmp_path, "d.g6", rook(4), shrikhande())
    cat = tmp_path / "c.tsv"
    assert main(["group", f, "--catalog", str(cat), "--workers", "1"]) == 0
    capsys.readouterr()

    write_g6(tmp_path, "d.g6", rook(4), rook(4))
    assert main(["group", f, "--workers", "1"]) == 0
    fresh = capsys.readouterr().out
    assert main(["group", f, "--catalog", str(cat), "--workers", "1"]) == 0
    cached = capsys.readouterr()
    assert "unresolved: d.g6:1, d.g6:2" in cached.out
    assert "all singletons" not in cached.out
    assert "1 stale records" in cached.err
    assert _without_timing(cached.out) == _without_timing(fresh)


def test_group_catalog_recomputes_records_whose_blobs_are_missing(tmp_path, capsys):
    G = rook(4)
    f = write_g6(tmp_path, "d.g6", G, shrikhande(),
                 relabeled(G, random_permutation(random.Random(83), 16)))
    cat = tmp_path / "c.tsv"
    blobs = tmp_path / "c.tsv.blobs"
    assert main(["group", f, "--format", "records", "--workers", "1"]) == 0
    fresh = capsys.readouterr().out
    assert main(["group", f, "--format", "records", "--catalog", str(cat), "--workers", "1"]) == 0
    capsys.readouterr()
    tsv = cat.read_bytes()
    blob_bytes = {p.name: p.read_bytes() for p in blobs.iterdir()}

    # the graphs still match their records, but no blob is left to reuse
    for p in blobs.iterdir():
        p.unlink()
    assert main(["group", f, "--format", "records", "--catalog", str(cat), "--workers", "1"]) == 0
    rerun = capsys.readouterr()
    assert "catalog: 3 stale records (graph changed or blobs missing)" in rerun.err
    assert "computing 3 new records" in rerun.err
    assert rerun.out == fresh
    assert cat.read_bytes() == tsv
    assert {p.name: p.read_bytes() for p in blobs.iterdir()} == blob_bytes


def test_group_catalog_rebuilt_beside_a_damaged_blob_is_readable(tmp_path, capsys):
    f = write_g6(tmp_path, "d.g6", rook(4), shrikhande())
    cat = tmp_path / "c.tsv"
    blobs = tmp_path / "c.tsv.blobs"
    assert main(["group", f, "--format", "records", "--catalog", str(cat), "--workers", "1"]) == 0
    fresh = capsys.readouterr().out
    blob_bytes = {p.name: p.read_bytes() for p in blobs.iterdir()}
    (blobs / min(blob_bytes)).write_bytes(b"garbage")
    # a cold run, with the TSV gone, writes the blob it computed over the
    # damaged one, so the warm run after it reads a sound catalog
    cat.unlink()
    assert main(["group", f, "--format", "records", "--catalog", str(cat), "--workers", "1"]) == 0
    assert capsys.readouterr().out == fresh
    assert {p.name: p.read_bytes() for p in blobs.iterdir()} == blob_bytes
    assert main(["group", f, "--format", "records", "--catalog", str(cat), "--workers", "1"]) == 0
    warm = capsys.readouterr()
    assert warm.out == fresh
    assert "error" not in warm.err


def test_group_catalog_is_rewritten_only_when_a_record_grows(tmp_path, capsys):
    G = rook(4)
    a = write_g6(tmp_path, "a.g6", G)
    b = write_g6(tmp_path, "b.g6", relabeled(G, random_permutation(random.Random(87), 16)))
    cat = tmp_path / "inv.catalog"

    def group(*files):
        assert main(["group", *files, "--catalog", str(cat), "--workers", "1"]) == 0
        return capsys.readouterr().err

    def stamp():
        st = cat.stat()
        return st.st_ino, st.st_mtime_ns

    group(a)
    assert _catalog_fields(cat)["a.g6:1"][3] == "-"
    before = stamp()
    # a rerun that computes nothing leaves the file in place
    assert _stages(group(a)) == (
        "stages: lc-det-profile computed=0 certified=0 cached=1,"
        " lc-walk-signature computed=0 certified=0 cached=0"
    )
    assert stamp() == before

    # b's record is new, so the catalog is rewritten; b is a's certified
    # copy, so their class settles and neither gains an lc-walk digest
    group(a, b)
    assert [_catalog_fields(cat)[i][3] for i in ("a.g6:1", "b.g6:1")] == ["-", "-"]
    settled = stamp()
    assert settled[0] != before[0]
    # the class settles again on a rerun, and no record grows
    assert _stages(group(a, b)) == (
        "stages: lc-det-profile computed=0 certified=0 cached=2,"
        " lc-walk-signature computed=0 certified=2 cached=0"
    )
    assert stamp() == settled

    # without certificates both are walked: their lc-walk digests are added
    # and the catalog rewritten, and a rerun with the digests cached leaves
    # it in place
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("walkgi.graph._certificate", lambda *args: None)
        group(a, b)
    walk_digest = hashlib.sha256(lc_walk_signature(G).encode()).hexdigest()
    assert [_catalog_fields(cat)[i][3] for i in ("a.g6:1", "b.g6:1")] == [walk_digest] * 2
    after = stamp()
    assert after[0] != settled[0]
    assert _stages(group(a, b)) == (
        "stages: lc-det-profile computed=0 certified=0 cached=2,"
        " lc-walk-signature computed=0 certified=0 cached=2"
    )
    assert stamp() == after


def _without_timing(out: str) -> list[str]:
    return [line for line in out.splitlines() if not line.startswith("timing:")]


def _catalog_fields(cat) -> dict[str, list[str]]:
    rows = [line.split("\t") for line in cat.read_text().splitlines()[1:]]
    return {row[0]: row for row in rows}


def _stages(err: str) -> str:
    (line,) = [line for line in err.splitlines() if line.startswith("stages: ")]
    return line


def test_group_cold_catalog_skips_lc_walk_for_singletons(tmp_path, capsys):
    # rook(4) and Shrikhande differ in their lc-det profiles
    f = write_g6(tmp_path, "srg16.g6", rook(4), shrikhande())
    cat = tmp_path / "inv.catalog"
    assert main(["group", f, "--catalog", str(cat), "--workers", "1"]) == 0
    err = capsys.readouterr().err
    assert _stages(err) == (
        "stages: lc-det-profile computed=2 certified=0 cached=0,"
        " lc-walk-signature computed=0 certified=0 cached=0"
    )
    fields = _catalog_fields(cat)
    assert [fields[i][3] for i in ("srg16.g6:1", "srg16.g6:2")] == ["-", "-"]
    blobs = {p.name for p in (tmp_path / "inv.catalog.blobs").iterdir()}
    assert blobs == {fields[i][2] for i in ("srg16.g6:1", "srg16.g6:2")}


def test_group_catalog_singleton_gains_lc_walk(tmp_path, capsys, monkeypatch):
    G = rook(4)
    a = write_g6(tmp_path, "a.g6", G)
    b = write_g6(tmp_path, "b.g6", relabeled(G, random_permutation(random.Random(84), 16)))
    cat = tmp_path / "inv.catalog"
    assert main(["group", a, "--catalog", str(cat), "--workers", "1"]) == 0
    capsys.readouterr()
    assert _catalog_fields(cat)["a.g6:1"][3] == "-"

    assert main(["group", a, b, "--workers", "1"]) == 0
    fresh = capsys.readouterr().out
    # b is a's certified copy: it takes a's profile, their class settles,
    # and a gains no lc-walk
    assert main(["group", a, b, "--catalog", str(cat), "--workers", "1"]) == 0
    settled = capsys.readouterr()
    assert _without_timing(settled.out) == _without_timing(fresh)
    assert _stages(settled.err) == (
        "stages: lc-det-profile computed=0 certified=1 cached=1,"
        " lc-walk-signature computed=0 certified=2 cached=0"
    )
    assert [_catalog_fields(cat)[i][3] for i in ("a.g6:1", "b.g6:1")] == ["-", "-"]
    # a class that does not settle walks the singleton's graph
    monkeypatch.setattr("walkgi.graph._certificate", lambda *args: None)
    assert main(["group", a, b, "--catalog", str(cat), "--workers", "1"]) == 0
    cached = capsys.readouterr()
    assert _without_timing(cached.out) == _without_timing(fresh)
    assert "unresolved: a.g6:1, b.g6:1" in cached.out
    assert _stages(cached.err) == (
        "stages: lc-det-profile computed=0 certified=0 cached=2,"
        " lc-walk-signature computed=2 certified=0 cached=0"
    )
    walk_digest = hashlib.sha256(lc_walk_signature(G).encode()).hexdigest()
    fields = _catalog_fields(cat)
    assert fields["a.g6:1"][3] == fields["b.g6:1"][3] == walk_digest
    assert (tmp_path / "inv.catalog.blobs" / walk_digest).is_file()


def _blob_digests(cat) -> dict[str, str]:
    blobs = cat.parent / f"{cat.name}.blobs"
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in blobs.iterdir()}


def test_group_catalog_copy_takes_a_cached_representatives_lc_walk(tmp_path, capsys, monkeypatch):
    walked = []

    def counting(G):
        walked.append(G)
        return lc_walk_signature(G)

    monkeypatch.setattr("walkgi.isotest.lc_walk_signature", counting)
    rng = random.Random(85)
    G = rook(4)
    copies = [relabeled(G, random_permutation(rng, 16)) for _ in range(2)]
    files = [write_g6(tmp_path, name, H) for name, H in zip(("a.g6", "b.g6", "c.g6"), [G, *copies])]
    cat = tmp_path / "inv.catalog"
    # a catalog whose record of a holds its lc-walk encoding
    walk = lc_walk_signature(G).encode()
    catalog_write([make_catalog_record("a.g6:1", G, dict(zip(GROUP_STAGES, (
        lc_determinant_profile(G).encode(), walk))))], cat)
    walk_digest = hashlib.sha256(walk).hexdigest()
    # a's class gains b: it holds a key, so it does not settle, and b takes
    # a's bytes, its profile and its lc-walk, with nothing computed
    assert main(["group", *files[:2], "--catalog", str(cat), "--workers", "1"]) == 0
    assert _stages(capsys.readouterr().err) == (
        "stages: lc-det-profile computed=0 certified=1 cached=1,"
        " lc-walk-signature computed=0 certified=1 cached=1"
    )
    assert _catalog_fields(cat)["b.g6:1"][3] == walk_digest
    # c joins a class whose members both hold cached bytes, and is not walked
    assert main(["group", *files, "--format", "records", "--catalog", str(cat), "--workers", "1"]) == 0
    cached = capsys.readouterr()
    assert walked == []
    assert _stages(cached.err) == (
        "stages: lc-det-profile computed=0 certified=1 cached=2,"
        " lc-walk-signature computed=0 certified=1 cached=2"
    )
    assert [_catalog_fields(cat)[f"{name}.g6:1"][3] for name in "abc"] == [walk_digest] * 3

    # a fresh catalog gets the same records but for the lc-walk digests: its
    # class settles, so none is walked or stored
    fresh = tmp_path / "fresh.catalog"
    assert main(["group", *files, "--format", "records", "--catalog", str(fresh), "--workers", "1"]) == 0
    assert capsys.readouterr().out == cached.out
    assert walked == []
    fresh_fields, fields = _catalog_fields(fresh), _catalog_fields(cat)
    assert {i: row[:3] + ["-"] for i, row in fields.items()} == fresh_fields
    assert set(_blob_digests(fresh)) == set(_blob_digests(cat)) - {walk_digest}


def test_group_catalog_reads_only_reused_blobs(tmp_path, capsys):
    files = [write_g6(tmp_path, f"{name}.g6", G)
             for name, G in (("a", cycle(6)), ("b", path(6)), ("c", complete(6)))]
    cat = tmp_path / "inv.catalog"
    assert main(["group", *files, "--catalog", str(cat), "--workers", "1"]) == 0
    capsys.readouterr()
    before = _catalog_fields(cat)
    blobs = tmp_path / "inv.catalog.blobs"
    profile_digests = [before[f"{name}.g6:1"][2] for name in "abc"]
    assert len(set(profile_digests)) == 3

    # a corrupt blob of a record outside the run is never read
    (blobs / profile_digests[2]).write_bytes(b"garbage")
    assert main(["group", *files[:2], "--catalog", str(cat), "--workers", "1"]) == 0
    capsys.readouterr()
    # nor rewritten or dropped when the run adds a record
    d = write_g6(tmp_path, "d.g6", star(5))
    assert main(["group", *files[:2], d, "--catalog", str(cat), "--workers", "1"]) == 0
    capsys.readouterr()
    after = _catalog_fields(cat)
    assert set(after) == set(before) | {"d.g6:1"}
    assert after["c.g6:1"] == before["c.g6:1"]
    assert (blobs / profile_digests[2]).read_bytes() == b"garbage"

    # a corrupt blob of a reused record still fails the run, naming the digest
    (blobs / profile_digests[0]).write_bytes(b"garbage")
    assert main(["group", *files[:2], "--catalog", str(cat), "--workers", "1"]) == 1
    err = capsys.readouterr().err
    assert profile_digests[0] in err and "fails digest check" in err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_group_records_identical_with_and_without_catalog(tmp_path, capsys, workers):
    G = rook(4)
    f = write_g6(tmp_path, "mix.g6", G, shrikhande(),
                 relabeled(G, random_permutation(random.Random(85), 16)))
    cat = tmp_path / "inv.catalog"
    outputs = []
    for catalog in ([], ["--catalog", str(cat)], ["--catalog", str(cat)]):
        assert main(["group", f, "--format", "records", "--workers", workers, *catalog]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0].out == outputs[1].out == outputs[2].out
    assert "record=class kind=final size=2 members=mix.g6:1,mix.g6:3" in outputs[0].out
    assert _stages(outputs[2].err) == (
        "stages: lc-det-profile computed=0 certified=0 cached=3,"
        " lc-walk-signature computed=0 certified=2 cached=0"
    )


def test_group_reuses_full_records(tmp_path, capsys):
    # records holding both encodings for every graph, singletons included
    graphs = [rook(4), shrikhande(), relabeled(rook(4), random_permutation(random.Random(86), 16))]
    f = write_g6(tmp_path, "srg16.g6", *graphs)
    cat = tmp_path / "inv.catalog"
    catalog_write([
        make_catalog_record(f"srg16.g6:{i}", G, dict(zip(GROUP_STAGES, (
            lc_determinant_profile(G).encode(), lc_walk_signature(G).encode()))))
        for i, G in enumerate(graphs, start=1)
    ], cat)
    before = cat.read_bytes()
    assert main(["group", f, "--workers", "1"]) == 0
    fresh = capsys.readouterr().out
    assert main(["group", f, "--catalog", str(cat), "--workers", "1"]) == 0
    cached = capsys.readouterr()
    assert _without_timing(cached.out) == _without_timing(fresh)
    assert _stages(cached.err) == (
        "stages: lc-det-profile computed=0 certified=0 cached=3,"
        " lc-walk-signature computed=0 certified=0 cached=2"
    )
    assert cat.read_bytes() == before


@pytest.mark.parametrize("version", ["v1", "v2"])
def test_group_rejects_an_older_catalog_and_leaves_it_alone(tmp_path, capsys, version):
    # a catalog as v1 and v2 wrote it, with SRG parameters and determinant
    # before the two digests: group stops with one error line naming the
    # TSV and its blob directory, and writes nothing
    f = write_g6(tmp_path, "srg16.g6", rook(4), shrikhande())
    cat = tmp_path / "inv.catalog"
    blobs = tmp_path / "inv.catalog.blobs"
    assert main(["group", f, "--catalog", str(cat), "--workers", "1"]) == 0
    capsys.readouterr()
    assert cat.read_text().splitlines()[0] == CATALOG_HEADER
    old = [f"walkgi-catalog {version}"] + [
        "\t".join([record_id, g6, "16,6,2,2", "-196608", *digests])
        for record_id, g6, *digests in _catalog_fields(cat).values()]
    cat.write_text("\n".join(old) + "\n")
    tsv = cat.read_bytes()
    blob_bytes = {p.name: p.read_bytes() for p in blobs.iterdir()}

    assert main(["group", f, "--catalog", str(cat), "--workers", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"error: {cat}: unsupported catalog version 'walkgi-catalog {version}'")
    assert line.endswith(f"remove {cat} and {blobs}/ to rebuild both")
    assert cat.read_bytes() == tsv
    assert {p.name: p.read_bytes() for p in blobs.iterdir()} == blob_bytes


def test_group_catalog_computes_no_determinant(tmp_path, capsys, monkeypatch):
    # the catalog stores no determinant, and on nonsingular graphs no stage
    # needs one, so a cold catalog run calls determinant nowhere
    real = linalg.determinant
    calls = []

    def counting(G):
        calls.append(G)
        return real(G)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "walkgi" and getattr(module, "determinant", None) is real:
            monkeypatch.setattr(module, "determinant", counting)
    graphs = [rook(4), relabeled(rook(4), random_permutation(random.Random(89), 16)), shrikhande(),
              complete(16)]
    assert all(real(G) != 0 for G in graphs)
    f = write_g6(tmp_path, "nonsingular.g6", *graphs)
    cat = tmp_path / "inv.catalog"
    assert main(["group", f, "--catalog", str(cat), "--workers", "1"]) == 0
    assert "computing 4 new records" in capsys.readouterr().err
    assert len(_catalog_fields(cat)) == 4
    assert calls == []


# `group --format records` on rook(4), a relabelled copy, Shrikhande and
# another copy, as the release before settled classes printed it
_ROOK_COPIES_RECORDS = """\
record=group graphs=4 coarse_classes=2 final_classes=2 all_singletons=false
record=coarse-hist size=1 count=1
record=coarse-hist size=3 count=1
record=final-hist size=1 count=1
record=final-hist size=3 count=1
record=class kind=final size=3 members=d.g6:1,d.g6:2,d.g6:4
"""


@pytest.mark.parametrize("certify", [True, False])
def test_group_adds_a_copy_to_a_catalog_that_holds_lc_walk_keys_for_copies(tmp_path, capsys, monkeypatch,
                                                                           certify):
    # a catalog as the release before settled classes wrote it: a and its
    # certified copy b both hold the lc-walk key, the singleton Shrikhande
    # none.  A new copy joins the class of a and b, which holds keys and so
    # does not settle: the copy takes a's bytes, or is walked when no
    # certificate is found, and nothing splits the class
    if not certify:
        monkeypatch.setattr("walkgi.graph._certificate", lambda *args: None)
    rng = random.Random(88)
    G = rook(4)
    graphs = [G, relabeled(G, random_permutation(rng, 16)), shrikhande(), relabeled(G, random_permutation(rng, 16))]
    f = write_g6(tmp_path, "d.g6", *graphs)
    walk = lc_walk_signature(G).encode()
    cat = tmp_path / "inv.catalog"
    records = []
    for i, H in enumerate(graphs[:3], start=1):
        encodings = {"lc-det-profile": lc_determinant_profile(H).encode()}
        if H is not graphs[2]:
            encodings["lc-walk-signature"] = walk
        records.append(make_catalog_record(f"d.g6:{i}", H, encodings))
    catalog_write(records, cat)
    assert main(["group", f, "--format", "records", "--catalog", str(cat), "--workers", "1"]) == 0
    out, err = capsys.readouterr()
    assert out == _ROOK_COPIES_RECORDS
    profiles, walks = ((0, 1, 3), (0, 1, 2)) if certify else ((1, 0, 3), (1, 0, 2))
    assert _stages(err) == (
        "stages: lc-det-profile computed={} certified={} cached={},".format(*profiles)
        + " lc-walk-signature computed={} certified={} cached={}".format(*walks)
    )
    fields = _catalog_fields(cat)
    walk_digest = hashlib.sha256(walk).hexdigest()
    assert [fields[f"d.g6:{i}"][3] for i in range(1, 5)] == [walk_digest, walk_digest, "-", walk_digest]
    assert main(["group", f, "--format", "records", "--workers", "1"]) == 0
    assert capsys.readouterr().out == out


def _die(G):
    os._exit(3)


@pytest.mark.usefixtures("forking")  # the patched stage key must run only in workers
def test_group_reports_a_dead_worker_without_a_traceback(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(STAGE_KEYS, "lc-det-profile", _die)
    f = write_g6(tmp_path, "four.g6", cycle(5), path(5), star(4), complete(5))
    assert main(["group", f, "--workers", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: a worker process died (exit status 3)\n"
    # the other worker is killed and reaped too
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ru_maxrss of a child counts the RSS its spawner had before exec, so a small
# launcher spawns the run and prints the run's peak after the run's own output
_PEAK_RSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(proc.pid, 0)
print(f"exit={os.waitstatus_to_exitcode(status)} maxrss_kb={usage.ru_maxrss}")
"""


@pytest.mark.slow
def test_group_on_1000_order_6_squares_fits_in_memory(tmp_path):
    """``group --workers 2`` on the first 1000 reduced Latin squares of
    order 6, 11 main classes, within 256 MiB: every lc-walk result a worker
    hands back is an LW2 encoding of a few KiB.  As LW1 each weighed about
    4.2 MiB, and the run peaked near 1 GiB."""
    f = write_g6(tmp_path, "ls6.g6", *map(latin_square_graph, reduced_latin_squares(6)[:1000]))
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_LAUNCHER,
         sys.executable, "-m", "walkgi.cli", "group", f, "--workers", "2", "--format", "records"],
        capture_output=True, text=True, timeout=900, env=dict(os.environ, PYTHONPATH=str(src)))
    *records, last = done.stdout.splitlines()
    peak = dict(field.split("=") for field in last.split())
    assert peak["exit"] == "0", done.stderr
    assert "final_classes=11 " in records[0]
    assert int(peak["maxrss_kb"]) < 256 * 1024


def test_group_rejects_one_id_from_two_inputs(tmp_path, capsys):
    # ids are "filename:lineno", so equal file names in two directories clash
    (tmp_path / "d1").mkdir()
    (tmp_path / "d2").mkdir()
    a = write_g6(tmp_path / "d1", "x.g6", cycle(5))
    b = write_g6(tmp_path / "d2", "x.g6", petersen())
    assert main(["group", a, b]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: duplicate graph ids across inputs\n"


def test_group_rejects_an_id_the_catalog_cannot_store_before_the_first_stage(tmp_path, capsys, monkeypatch):
    # a line break in a file name reaches the id, which a catalog line
    # cannot hold: the run stops before any key is computed
    f = write_g6(tmp_path, "pe\rt.g6", cycle(5), petersen())
    monkeypatch.setattr("walkgi.cli.partition_group", lambda *args, **kwargs: pytest.fail("partitioned"))
    catalog = tmp_path / "c.tsv"
    assert main(["group", f, "--catalog", str(catalog), "--workers", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: field 'pe\\rt.g6:1' contains a tab or a line break\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pe\rt.g6"]


def test_group_rejects_a_catalog_in_a_missing_directory_before_the_first_stage(tmp_path, capsys, monkeypatch):
    # the catalog's directory is never created: a missing one is a usage
    # error, found before any key is computed, and nothing is written
    f = write_g6(tmp_path, "fam.g6", cycle(5), petersen())
    monkeypatch.setattr("walkgi.cli.partition_group", lambda *args, **kwargs: pytest.fail("partitioned"))
    catalog = tmp_path / "nodir" / "sub" / "c.tsv"
    assert main(["group", f, "--catalog", str(catalog), "--workers", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: catalog directory {str(catalog.parent)!r} does not exist\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fam.g6"]


def test_group_rejects_an_empty_catalog_path_before_reading_a_graph(tmp_path, capsys, monkeypatch):
    # `--catalog "$CAT"` with CAT unset must not run without the catalog
    f = write_g6(tmp_path, "fam.g6", cycle(5), petersen())
    monkeypatch.setattr("walkgi.cli.read_dataset", lambda path: pytest.fail("read"))
    monkeypatch.chdir(tmp_path)
    assert main(["group", f, "--catalog", "", "--workers", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: argument --catalog: must name a file, got an empty path\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fam.g6"]


def test_group_catalog_keeps_the_graphs_beside_a_malformed_line(tmp_path, capsys):
    p = tmp_path / "srg16.g6"
    good = [write_graph6(rook(4)), write_graph6(shrikhande())]
    p.write_text(f"{good[0]}\n!!\n{good[1]}\n")
    cat = tmp_path / "inv.catalog"
    assert main(["group", str(p), "--catalog", str(cat), "--workers", "1"]) == 1
    first = capsys.readouterr()
    errors = [line for line in first.err.splitlines() if line.startswith("parse error: ")]
    assert len(errors) == 1 and errors[0].startswith(f"parse error: {p}:2: ")
    assert _without_timing(first.out) == ["graphs: 2", "coarse: 2 classes (2 x1)",
                                          "final: 2 classes (2 x1); all singletons"]
    assert [line.split("\t")[0] for line in cat.read_text().splitlines()[1:]] == ["srg16.g6:1", "srg16.g6:3"]

    p.write_text(f"{good[0]}\n\n{good[1]}\n")  # the same ids, no malformed line
    assert main(["group", str(p), "--catalog", str(cat), "--workers", "1"]) == 0
    second = capsys.readouterr()
    assert "catalog: 2 cached records\n" in second.err
    assert "computing" not in second.err
    assert _without_timing(second.out) == _without_timing(first.out)


def test_each_subcommand_takes_exactly_its_options(tmp_path, capsys):
    # a new option is a visible edit here; -h/--help comes with every parser
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {name: sorted(o for action in p._actions for o in action.option_strings if o not in ("-h", "--help"))
               for name, p in subparsers.choices.items()}
    assert options == {
        "info": ["--format", "--workers"],
        "pair": ["--format"],
        "group": ["--catalog", "--format", "--workers"],
        "lc": ["--format"],
        "det": ["--format"],
        "walks": ["--format"],
        "oracle": ["--format"],
    }
    # every dataset is read one way: there is no --strict
    f = write_g6(tmp_path, "k3.g6", complete(3))
    positional = {"info": [f], "pair": [f, f], "group": [f], "lc": [f, "0"], "det": [f],
                  "walks": [f, "0", "1"], "oracle": [f, f]}
    for command in options:
        assert main([command, *positional[command], "--strict"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unrecognized arguments: --strict\n"


@pytest.mark.parametrize("name", ["x y.g6", "a,b.g6"])
@pytest.mark.parametrize("command", ["info", "group"])
def test_records_reject_an_id_with_whitespace_or_a_comma(tmp_path, capsys, monkeypatch, command, name):
    # records separate fields by spaces and members= entries by commas
    f = write_g6(tmp_path, name, cycle(5), relabeled(cycle(5), [1, 2, 3, 4, 0]))
    monkeypatch.setattr("walkgi.cli.partition_group", lambda *args, **kwargs: pytest.fail("partitioned"))
    monkeypatch.setattr("walkgi.cli.determinant", lambda G: pytest.fail("computed"))
    assert main([command, f, "--format", "records", "--workers", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: id '{name}:1' holds whitespace or a comma, which --format records cannot show\n"
    monkeypatch.undo()
    assert main([command, f, "--workers", "1"]) == 0
    assert f"{name}:1" in capsys.readouterr().out


def test_group_no_graphs(tmp_path, capsys):
    p = tmp_path / "empty.g6"
    p.write_text("# nothing here\n")
    assert main(["group", str(p)]) == 1
    assert "no graphs" in capsys.readouterr().err


def test_lc_command(tmp_path, capsys):
    f = write_g6(tmp_path, "k3.g6", complete(3))
    assert main(["lc", f, "0"]) == 0
    out = capsys.readouterr().out
    # complementing K3 at vertex 0 removes the 1-2 edge
    g6 = write_graph6(build_graph(3, [(0, 1), (0, 2)]))
    assert out == f"k3.g6:1: {g6}\n"
    assert main(["lc", f, "0", "--format", "records"]) == 0
    assert capsys.readouterr().out == f"record=lc id=k3.g6:1 u=0 g6={g6}\n"


def test_lc_vertex_out_of_range(tmp_path, capsys):
    f = write_g6(tmp_path, "k3.g6", complete(3))
    assert main(["lc", f, "5"]) == 1
    assert "out of range" in capsys.readouterr().err


def test_det_command(tmp_path, capsys):
    f = write_g6(tmp_path, "pete.g6", petersen())
    assert main(["det", f]) == 0
    assert capsys.readouterr().out == "pete.g6:1: det=48\n"
    assert main(["det", f, "--format", "records"]) == 0
    assert capsys.readouterr().out == "record=det id=pete.g6:1 det=48\n"


def test_walks_command(tmp_path, capsys):
    f = write_g6(tmp_path, "pete.g6", petersen())
    assert main(["walks", f, "0", "1"]) == 0
    out = capsys.readouterr().out
    assert "m=3" in out and "s(0,1)=" in out
    assert main(["walks", f, "0", "99"]) == 1


def _walks_record(capsys, f, u, v):
    assert main(["walks", f, str(u), str(v), "--format", "records"]) == 0
    fields = dict(kv.split("=") for kv in capsys.readouterr().out.split()[1:])
    return int(fields["m"]), [int(c) for c in fields["s"].split(",")]


def test_walks_command_pair_order_and_diagonal(tmp_path, capsys):
    # the kernel keeps only the upper triangle of each power: U > V must read
    # the same counts as V U, and U == V the closed-walk counts
    G = random_graph(random.Random(31), 7, 0.5)
    f = write_g6(tmp_path, "g.g6", G)
    for u in range(G.n):
        m, closed = _walks_record(capsys, f, u, u)
        assert closed == [count_walks(G, u, u, k) for k in range(1, m + 1)]
        for v in range(u):
            m_uv, counts = _walks_record(capsys, f, u, v)
            assert (m_uv, counts) == _walks_record(capsys, f, v, u)
            assert counts == [count_walks(G, u, v, k) for k in range(1, m + 1)]


def test_oracle_command(tmp_path, capsys):
    G, H = cycle(6), relabeled(cycle(6), (3, 1, 4, 0, 5, 2))
    a = write_g6(tmp_path, "a.g6", G)
    b = write_g6(tmp_path, "b.g6", H)
    assert main(["oracle", a, b]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "isomorphic"

    c = write_g6(tmp_path, "c.g6", path(6))
    assert main(["oracle", a, c]) == 0
    assert capsys.readouterr().out == "non-isomorphic\n"

    assert main(["oracle", a, b, "--format", "records"]) == 0
    out = capsys.readouterr().out
    prefix = "record=oracle isomorphic=true certificate="
    assert out.startswith(prefix) and out.count("\n") == 1
    f = [int(w) for w in out.strip()[len(prefix):].split(",")]
    assert sorted(f) == list(range(6))
    assert all(has_edge(H, f[u], f[v]) for u, v in edge_pairs(G))
    assert main(["oracle", a, c, "--format", "records"]) == 0
    assert capsys.readouterr().out == "record=oracle isomorphic=false\n"


@pytest.mark.parametrize("command", [["oracle"]])
def test_a_certificate_that_fails_re_verification_exits_2(tmp_path, capsys, monkeypatch, command):
    def fail(G, H):
        raise CertificateError("certificate fails re-verification")

    monkeypatch.setattr("walkgi.cli.find_isomorphism", fail)
    a = write_g6(tmp_path, "a.g6", cycle(6))
    assert main([*command, a, a]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: certificate fails re-verification\n"


def test_oracle_command_cap(tmp_path, capsys):
    """The oracle has no vertex cap: the two SRG(16,6,2,2) are decided."""
    a = write_g6(tmp_path, "a.g6", rook(4))
    b = write_g6(tmp_path, "b.g6", shrikhande())
    assert main(["oracle", a, b]) == 0
    assert capsys.readouterr().out == "non-isomorphic\n"


def test_parse_errors_reported_and_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.g6"
    p.write_text("Bw\n!!\n")
    assert main(["det", str(p)]) == 1
    captured = capsys.readouterr()
    assert "det=2" in captured.out  # the good line is still processed
    assert "parse error" in captured.err


def test_missing_file(capsys):
    assert main(["info", "/nonexistent/file.g6"]) == 1
    assert "error" in capsys.readouterr().err


def test_usage_errors_exit_1(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    assert main(["pair", "only-one-arg"]) == 1
    capsys.readouterr()


def test_invalid_worker_count(tmp_path, capsys):
    f = write_g6(tmp_path, "k3.g6", complete(3))
    assert main(["info", f, "--workers", "0"]) == 1
    assert "--workers" in capsys.readouterr().err
    assert main(["group", f, "--workers", "abc"]) == 1
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("command, option", [
    pytest.param("pair", ["--oracle-cap", "0"], id="pair"),
    pytest.param("oracle", ["--oracle-cap", "0"], id="oracle"),
    pytest.param("pair", ["--oracle"], id="pair-oracle"),
])
def test_invalid_oracle_cap(tmp_path, capsys, command, option):
    """There is no ``--oracle-cap`` and no ``pair --oracle``: each is a usage
    error (``--strict`` is checked with every subcommand's options)."""
    f = write_g6(tmp_path, "c6.g6", cycle(6))
    assert main([command, f, f, *option]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert option[0] in captured.err


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "walkgi" in capsys.readouterr().out


def test_workers_default_follows_cpu_affinity(monkeypatch):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    assert build_parser().parse_args(["group", "x.g6"]).workers == 1
    assert build_parser().parse_args(["info", "x.g6"]).workers == 1
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {1, 3, 5}, raising=False)
    assert build_parser().parse_args(["group", "x.g6"]).workers == 3
    # platforms without an affinity call fall back to the CPU count
    monkeypatch.delattr("os.sched_getaffinity", raising=False)
    assert build_parser().parse_args(["group", "x.g6"]).workers == 8
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert build_parser().parse_args(["group", "x.g6"]).workers == 1
