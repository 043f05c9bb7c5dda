"""walkgi benchmark: time `walkgi group` on seeded SRG-screening families.

    python3 bench/run.py --workload lc-refine --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
Every input is generated from ``--seed`` (see ``families.py``); the program
receives only graph6 files.  Each `group` invocation is a fresh process, and
its records output is checked against the partition known by construction.

``--trace 0`` repeats the timed invocation (``--workers 2``) until
``--seconds`` have passed and reports the end-to-end metrics as medians.
``--trace 1`` repeats a trio until ``--seconds`` have passed -- an untraced
``--workers 1`` run, the same run traced layer by layer (``trace_group.py``)
and an untraced ``--workers 2`` run -- and reports the per-layer metrics.

The last stdout line is the result JSON; the lines before it print every
metric by name with its unit, median and quartiles.  The full record, with
run metadata and every raw sample, is written under ``.bench_run/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import families
import trace_group

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
WORKERS = 2
SETUP_SPAWNS = 11
MIN_SAMPLES = 3
INVOCATION_TIMEOUT_S = 150
# What the `walkgi` console script runs.
ENTRY = "import sys; from walkgi.cli import main; sys.exit(main())"
READY = ("import sys, time; from walkgi.cli import build_parser; build_parser(); "
         "sys.stdout.write(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))")

END_TO_END = {"wall_s": "s", "graphs_per_s": "1/s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "linalg.mat_mul.calls": "count", "linalg.mat_mul.s": "s",
    "linalg.mat_mul.calls_in_default_m": "count", "linalg.mat_mul.calls_in_walk_signature": "count",
    "linalg.distinct_eigenvalue_count.calls": "count", "linalg.distinct_eigenvalue_count.self_s": "s",
    "invariants.default_m.s": "s",
    "invariants.walk_signature.calls": "count", "invariants.walk_signature.self_s": "s",
    "invariants.WalkSignature.encode.calls": "count", "invariants.WalkSignature.encode.s": "s",
    "invariants.encode_per_part": "ratio",
    "invariants.lc_walk_signature.calls": "count", "invariants.lc_walk_signature.s": "s",
    "invariants.lc_walk_signature.self_s": "s", "invariants.lc_walk.mb": "MiB",
    "invariants.lc_m.mean": "count", "invariants.lc_m.max": "count",
    "invariants.lc_determinant_profile.calls": "count", "invariants.lc_determinant_profile.s": "s",
    "linalg.determinant.calls": "count", "linalg.determinant.s": "s",
    "graph.local_complement.calls": "count", "graph.local_complement.s": "s",
    "linalg.adjacency_matrix.calls": "count", "linalg.adjacency_matrix.s": "s",
    "formats.read_dataset.s": "s", "formats.parse_graph6.calls": "count",
    "formats.catalog_read.s": "s", "formats.catalog_read.mb": "MiB",
    "formats.catalog_write.s": "s", "formats.catalog_write.mb": "MiB",
    "formats.make_catalog_record.calls": "count", "formats.make_catalog_record.s": "s",
    "formats.catalog.lc_walk_useful_share": "ratio", "catalog_mb": "MiB",
    "isotest.partition_group.s": "s", "isotest.refined_share": "ratio",
    "isotest.lc_walk.computed": "count", "isotest.lc_walk.cached": "count",
    "isotest.pool.speedup": "ratio", "isotest.pool.utilization": "ratio",
    "stage.lc-det-profile.s": "s", "stage.lc-walk-signature.s": "s",
    "cli.main.s": "s", "cli.main.self_s": "s", "trace.overhead_share": "ratio",
    "workload.n": "count", "workload.graphs": "count",
}


# ------------------------------------------------------------------ workloads


@dataclass
class Family:
    """One graph6 file of labelled members; ``skip`` lines become comments."""

    members: list[tuple[str, tuple[int, ...]]]
    filename = "family.g6"

    def write(self, directory: Path, skip=frozenset()) -> None:
        lines = ("#" if i in skip else families.graph6(rows) for i, (_, rows) in enumerate(self.members))
        directory.mkdir(parents=True, exist_ok=True)
        (directory / self.filename).write_text("".join(line + "\n" for line in lines))

    def expected(self, skip=frozenset()) -> frozenset[frozenset[str]]:
        classes: dict[str, set[str]] = {}
        for i, (label, _) in enumerate(self.members):
            if i not in skip:
                classes.setdefault(label, set()).add(f"{self.filename}:{i + 1}")
        return frozenset(frozenset(c) for c in classes.values())


@dataclass
class Workload:
    """Inputs for one run: a family file and, for catalog-reuse, a catalog
    state that ``restore`` puts back before every timed invocation."""

    family: Family
    workdir: Path
    catalog: Path | None = None
    saved_tsv: bytes = b""
    saved_blobs: frozenset[str] = field(default_factory=frozenset)

    def blobs(self) -> list[Path]:
        blobs = Path(f"{self.catalog}.blobs")
        return list(blobs.iterdir()) if blobs.is_dir() else []

    def restore(self) -> None:
        if self.catalog is None:
            return
        self.catalog.write_bytes(self.saved_tsv)
        for blob in self.blobs():
            if blob.name not in self.saved_blobs:
                blob.unlink()

    def catalog_mib(self) -> float:
        if self.catalog is None:
            return 0.0
        return (self.catalog.stat().st_size + sum(p.stat().st_size for p in self.blobs())) / 2**20


def lc_refine(rng: random.Random, workdir: Path, failures: list) -> Workload:
    family = Family(families.lc_refine(rng, copies=2))
    family.write(workdir)
    return Workload(family, workdir)


def coarse_split(rng: random.Random, workdir: Path, failures: list) -> Workload:
    family = Family(families.coarse_split(rng, swap_graphs=400))
    family.write(workdir)
    return Workload(family, workdir)


FAMILY_COPIES, FAMILY_SWAPS = 10, 64
NEW_COPIES_PER_BASE, NEW_SWAPS = 1, 2


def catalog_reuse(rng: random.Random, workdir: Path, failures: list) -> Workload:
    """Build the catalog, untimed, from every member but a few new ones:
    NEW_COPIES_PER_BASE copies of each base and NEW_SWAPS swap graphs.  The
    set-up file keeps every line number, so graph ids stay stable."""
    members = families.catalog_reuse(rng, copies=FAMILY_COPIES, swap_graphs=FAMILY_SWAPS)
    family = Family(members)
    by_label: dict[str, list[int]] = {}
    for i, (label, _) in enumerate(members):
        by_label.setdefault(label, []).append(i)
    new = [i for label in ("rook4", "Shrikhande") for i in by_label[label][:NEW_COPIES_PER_BASE]]
    new += [i for label, idx in by_label.items() if label.startswith("swap") for i in idx][:NEW_SWAPS]
    skip = frozenset(new)
    catalog = workdir / "catalog.tsv"
    family.write(workdir / "setup", skip)
    setup = invoke(workdir, ["setup/" + family.filename], catalog=catalog)
    error = check(setup, family.expected(skip))
    if error:
        failures.append(f"catalog set-up: {error}")
    family.write(workdir)
    workload = Workload(family, workdir, catalog)
    if catalog.is_file():
        workload.saved_tsv = catalog.read_bytes()
        workload.saved_blobs = frozenset(p.name for p in workload.blobs())
    return workload


WORKLOADS = {"lc-refine": lc_refine, "coarse-split": coarse_split, "catalog-reuse": catalog_reuse}


# ---------------------------------------------------------------- invocation


@dataclass
class Invocation:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _kill_group(pid: int) -> None:
    """Kill an invocation together with its pool workers."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def invoke(cwd: Path, files: list[str], workers: int = WORKERS, catalog: Path | None = None,
           spans: Path | None = None) -> Invocation:
    """One `walkgi group` process, timed from spawn to exit.

    CPU time and peak RSS come from wait4's getrusage record of the process
    and the pool workers it reaped: ru_maxrss there is the larger of the
    process's own and its children's.
    """
    args = ["group", *files, "--workers", str(workers), "--format", "records"]
    if catalog is not None:
        args += ["--catalog", str(catalog)]
    head = [sys.executable, str(HERE / "trace_group.py"), str(spans)] if spans else [sys.executable, "-c", ENTRY]
    with open(cwd / "stdout.txt", "w+") as out, open(cwd / "stderr.txt", "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(head + args, stdout=out, stderr=err, env=_env(), cwd=cwd,
                                start_new_session=True)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Invocation(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss / 1024, out.read(), err.read())


def check(run: Invocation, expected: frozenset[frozenset[str]]) -> str | None:
    """None when the run exited 0 and its records output gives exactly the
    expected partition, else what was wrong."""
    if run.code != 0:
        return f"exit code {run.code}: {run.stderr.strip()[-300:]}"
    ids = {i for c in expected for i in c}
    found: list[frozenset[str]] = []
    graphs = final = None
    for line in run.stdout.splitlines():
        fields = dict(f.split("=", 1) for f in line.split(" ") if "=" in f)
        if fields.get("record") == "group":
            graphs, final = int(fields["graphs"]), int(fields["final_classes"])
        elif fields.get("record") == "class" and fields.get("kind") == "final":
            found.append(frozenset(fields["members"].split(",")))
    if graphs is None:
        return "no record=group line"
    listed = set().union(*found) if found else set()
    partition = frozenset(found) | {frozenset([i]) for i in ids - listed}
    if graphs != len(ids) or final != len(partition) or partition != expected:
        merged = sum(1 for c in partition if c not in expected)
        return f"partition differs from construction ({merged} wrong classes, {final} final classes)"
    return None


def setup_seconds() -> float:
    """Time from spawning the CLI's interpreter until `walkgi.cli` is imported
    and its parser built, read on the shared monotonic clock."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", READY], env=_env(), cwd=WORK,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout) - start


STAGE = re.compile(r"([a-z-]+) ([0-9.]+)s")


def stage_seconds(stderr: str) -> dict[str, float]:
    """The CLI's own `timing:` line, by stage name."""
    for line in stderr.splitlines():
        if line.startswith("timing: "):
            return {f"stage.{name}.s": float(s) for name, s in STAGE.findall(line) if name != "total"}
    return {}


# ------------------------------------------------------------------- results


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "count": len(values)}


def metadata(args, workload: Workload) -> dict:
    sha = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "walkgi").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": sha, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "workers": WORKERS, "family_n": len(workload.family.members[0][1]),
        "family_graphs": len(workload.family.members),
        "family_bases": len(workload.family.expected()),
    }


def end_to_end(workload: Workload, deadline: float, record: dict, failures: list) -> dict:
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
    record["warmup_setup_s"] = setup_seconds()  # discarded: compiles the program's bytecode
    graphs = len(workload.family.members)
    expected = workload.family.expected()
    while len(samples["wall_s"]) < MIN_SAMPLES or time.perf_counter() < deadline:
        # set-up spawns are spread over the run, so their median sees the same machine as the runs
        if len(samples["setup_s"]) < SETUP_SPAWNS:
            samples["setup_s"].append(setup_seconds())
        workload.restore()
        run = invoke(workload.workdir, [workload.family.filename], catalog=workload.catalog)
        record["attempted"] += 1
        error = check(run, expected)
        if error:
            failures.append(error)
            if len(failures) >= MIN_SAMPLES:
                break
            continue
        samples["wall_s"].append(run.wall_s)
        samples["graphs_per_s"].append(graphs / run.wall_s)
        samples["cpu_s"].append(run.cpu_s)
        samples["peak_rss_mb"].append(run.peak_rss_mb)
    while len(samples["setup_s"]) < SETUP_SPAWNS:
        samples["setup_s"].append(setup_seconds())
    record["samples"] = samples
    return samples


def per_layer(workload: Workload, deadline: float, record: dict, failures: list) -> dict:
    samples: dict[str, list[float]] = {}
    expected = workload.family.expected()
    spans_file = workload.workdir / "spans.json"
    trios = 0
    while trios < 1 or time.perf_counter() < deadline:
        trio = {}
        runs = []
        for workers, spans in ((1, None), (1, spans_file), (WORKERS, None)):
            workload.restore()
            run = invoke(workload.workdir, [workload.family.filename], workers=workers,
                         catalog=workload.catalog, spans=spans)
            record["attempted"] += 1
            error = check(run, expected)
            if error:
                failures.append(error)
            runs.append(run)
        trios += 1
        if failures:
            break
        serial, traced, pooled = runs
        trio.update(trace_group.summarize(json.loads(spans_file.read_text())))
        trio.update(stage_seconds(serial.stderr))
        trio["isotest.pool.speedup"] = serial.wall_s / pooled.wall_s
        trio["isotest.pool.utilization"] = pooled.cpu_s / (WORKERS * pooled.wall_s)
        trio["trace.overhead_share"] = (traced.wall_s - serial.wall_s) / serial.wall_s
        trio["catalog_mb"] = workload.catalog_mib()
        trio["workload.n"] = len(workload.family.members[0][1])
        trio["workload.graphs"] = len(workload.family.members)
        for name, value in trio.items():
            samples.setdefault(name, []).append(value)
    record["samples"] = samples
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so children are killed and work files removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "walkgi" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'walkgi'}; run from a full checkout",
              file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    failures: list[str] = []
    try:
        started = time.perf_counter()
        workload = WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}"), workdir, failures)
        record = {"meta": metadata(args, workload), "attempted": 1 if workload.catalog else 0,
                  "setup_wall_s": time.perf_counter() - started}
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            samples = per_layer(workload, deadline, record, failures)
        else:
            samples = end_to_end(workload, deadline, record, failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["failed"] = len(failures)
    record["failures"] = failures
    record["failed_share"] = len(failures) / max(1, record["attempted"])
    record["summary"] = {name: summary(values) for name, values in samples.items() if values}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit in units.items():
        stats = record["summary"].get(name)
        if stats is None:
            continue
        print(f"{args.workload:14s} {name:44s} {stats['median']:14.6g} {unit:6s} "
              f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} n={stats['count']}")
        metrics[name] = {"value": stats["median"], "unit": unit}
    print(f"{args.workload:14s} failed_share {record['failed_share']:.6g} "
          f"({record['failed']} of {record['attempted']} runs)")
    print(json.dumps({"correct": not failures and len(metrics) == len(units),
                      "attempted": max(1, record["attempted"]), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
