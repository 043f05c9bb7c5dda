"""Quick self-test of the benchmark itself (well under a minute).

    python3 bench/selftest.py

Checks that BENCHMARK.json, predictions.json and run.py name the same
metrics, that the generators build the families they promise, that the
correctness gate rejects wrong partitions, that a tiny traced run yields
every span-derived per-layer metric, and that the benchmark refuses to run
without the program's source.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import families
import run
import trace_group

HERE = Path(__file__).resolve().parent

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def check_manifest() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    rows = json.loads((HERE / "predictions.json").read_text())["rows"]
    predicted = [n for row in rows for n in row["layer_metrics"]]
    assert sorted(predicted) == sorted(run.PER_LAYER), set(predicted) ^ set(run.PER_LAYER)
    for row in rows:
        assert set(row["moves"]) <= set(run.END_TO_END)
        assert set(row["on"]) | set(row["no_change_on"]) <= set(run.WORKLOADS)


def check_families() -> None:
    assert families.graph6(families.build(3, [(0, 1), (0, 2), (1, 2)])) == "Bw"
    assert families.srg_parameters(families.triangular(8)) == families.T8_SRG
    assert families.srg_parameters(families.shrikhande()) == families.ROOK4_SRG
    rng = random.Random("selftest")
    base = families.rook(4)
    perm = list(range(16))
    rng.shuffle(perm)
    copy = families.relabel(base, perm)
    families.check_relabelling(base, copy, perm)
    try:
        families.check_relabelling(base, families.shrikhande(), perm)
    except families.FamilyError:
        pass
    else:
        raise AssertionError("Shrikhande accepted as a relabelling of rook(4)")
    refine = families.lc_refine(random.Random("lc-refine:1"), copies=3)
    assert len(refine) == 12 and len({label for label, _ in refine}) == 4
    swaps = families.coarse_split(random.Random("coarse-split:1"), swap_graphs=20)
    assert len(swaps) == 24 and all(row.bit_count() == 12 for _, rows in swaps for row in rows)
    assert families.coarse_split(random.Random("x:1"), 5) == families.coarse_split(random.Random("x:1"), 5)


def check_gate() -> None:
    family = run.Family([("a", families.rook(3))] * 2 + [("b", families.rook(3))])
    expected = family.expected()

    def outcome(code: int, stdout: str):
        return run.check(run.Invocation(code, 1.0, 1.0, 1.0, stdout, ""), expected)

    group = "record=group graphs=3 coarse_classes=2 final_classes={}\n"
    good = group.format(2) + "record=class kind=final size=2 members=family.g6:1,family.g6:2\n"
    assert outcome(0, good) is None
    assert outcome(1, good) is not None
    assert outcome(0, group.format(3)) is not None  # copies split apart
    merged = group.format(1) + "record=class kind=final size=3 members=family.g6:1,family.g6:2,family.g6:3\n"
    assert outcome(0, merged) is not None
    assert outcome(0, "") is not None


def check_trace(workdir: Path) -> None:
    rng = random.Random("trace")
    cycle = families.build(9, [(i, (i + 1) % 9) for i in range(9)])
    family = run.Family([(label, families.random_copy(rows, rng)) for label, rows in
                         (("rook3", families.rook(3)), ("rook3", families.rook(3)), ("C9", cycle))])
    family.write(workdir)
    spans = workdir / "spans.json"
    result = run.invoke(workdir, [family.filename], workers=1, spans=spans)
    assert run.check(result, family.expected()) is None, result.stderr
    metrics = trace_group.summarize(json.loads(spans.read_text()))
    missing = {n for n in run.PER_LAYER if not n.startswith(("stage.", "isotest.pool", "trace.",
                                                            "catalog_mb", "workload."))} - set(metrics)
    assert not missing, missing
    assert metrics["invariants.lc_walk_signature.calls"] == 2
    assert metrics["invariants.encode_per_part"] > 0
    assert 0 <= metrics["cli.main.self_s"] < metrics["cli.main.s"]
    assert run.stage_seconds(result.stderr).keys() == {"stage.lc-det-profile.s", "stage.lc-walk-signature.s"}


def check_refuses_without_source(workdir: Path) -> None:
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "lc-refine",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and not done.stdout, (done.returncode, done.stdout)


def main() -> int:
    workdir = run.WORK / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for name, test in (("manifest", check_manifest), ("families", check_families),
                           ("gate", check_gate), ("trace", lambda: check_trace(workdir)),
                           ("no source", lambda: check_refuses_without_source(workdir))):
            test()
            print(f"ok  {name}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
