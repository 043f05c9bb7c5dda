"""README's examples, run as shown: the CLI session, the library block and
the opening claims about rook(6)."""

import re
from pathlib import Path

from walkgi import determinant, write_graph6
from walkgi.cli import main
from fixture_graphs import petersen, rook, shrikhande
from oracles import adjacency_matrix, mat_pow

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(language):
    return [text for lang, text in re.findall(r"^```(\w*)\n(.*?)^```$", README, re.S | re.M) if lang == language]


def test_cli_session(tmp_path, capsys, monkeypatch):
    files = {"petersen.g6": [petersen()], "rook4.g6": [rook(4)], "shrikhande.g6": [shrikhande()],
             "srg16.g6": [rook(4), shrikhande()]}
    for name, graphs in files.items():
        (tmp_path / name).write_text("".join(write_graph6(G) + "\n" for G in graphs))
    monkeypatch.chdir(tmp_path)
    (session,) = [block for block in _blocks("") if block.startswith("$ walkgi ")]
    runs = session.strip().split("\n\n")
    assert len(runs) == 3
    number = re.compile(r"\d+\.\d{3}s")  # timings differ from run to run
    for run in runs:
        command, *shown = run.splitlines()
        assert main(command.split()[2:]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [number.sub("Ts", line) for line in out] == [number.sub("Ts", line) for line in shown]


def test_library_block():
    (block,) = _blocks("python")
    scope = {}
    exec(block, scope)
    # each commented line: the expression, then the value the README shows
    shown = dict(re.findall(r"^(\S.*?)\s+# (.*)$", block, re.M))
    value = {expr: eval(expr, scope) for expr in shown}
    assert shown.keys() == {"srg_parameters(petersen)", "determinant(petersen)",
                            "lc_determinant_profile(petersen).values", "distinguish_pair(C6, two_K3)"}
    assert shown["srg_parameters(petersen)"] == repr(value["srg_parameters(petersen)"])
    assert shown["determinant(petersen)"].startswith(f"{value['determinant(petersen)']}, exact")
    assert value["lc_determinant_profile(petersen).values"] == (12,) * 10
    assert shown["lc_determinant_profile(petersen).values"].startswith("(12,) * 10 ")
    assert shown["distinguish_pair(C6, two_K3)"] == repr(value["distinguish_pair(C6, two_K3)"])
    dets = determinant(scope["C6"]), determinant(scope["two_K3"])
    assert dets == (-4, 4) and "(-4 vs 4)" in README


def test_rook6_claims():
    # the first power of rook(6)'s adjacency matrix with an entry beyond
    # 2^31, and its exact determinant
    A = adjacency_matrix(rook(6))
    first = next(k for k in range(1, 20) if max(map(max, mat_pow(A, k).rows)) > 2**31)
    assert first == 11
    assert determinant(rook(6)) == -351843720888320
    text = " ".join(README.split())
    assert "graph SRG(36,10,4,2) the 11th adjacency power already has entries beyond 2^31" in text
    assert "the determinant is -351843720888320" in text
