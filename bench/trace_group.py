"""Traced `walkgi` run: every public function of the program's modules is
wrapped in a timing span from outside the program, then the CLI runs once in
this process and the spans are written as JSON when it returns.

    PYTHONPATH=src python3 bench/trace_group.py SPANS.json group FILE... --workers 1

Wrapping rebinds module attributes, including names another module bound
with ``from ... import`` (``mat_mul`` lives in ``linalg`` and is also bound in
``invariants`` and ``cli``), and public methods on the modules' classes.
Generator functions are left alone: a span around one would time only the
creation of the generator.  Spans are kept in memory while the command runs.
Use ``--workers 1``: worker processes would run unwrapped code.

``summarize`` (imported by ``run.py``) turns a span file into per-layer
metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

MODULES = ("formats", "graph", "linalg", "invariants", "isotest", "cli")


def _blob_sizes(catalog) -> dict[str, int]:
    blobs = Path(f"{os.fspath(catalog)}.blobs")
    return {p.name: p.stat().st_size for p in blobs.iterdir()} if blobs.is_dir() else {}


def _catalog_read_bytes(args, records, before):
    enc = sum(len(e) for r in records for e in (r.lc_profile_encoding, r.lc_walk_encoding) if e)
    return os.path.getsize(args[0]) + enc


def _catalog_write_bytes(args, result, before):
    after = _blob_sizes(args[1])
    return os.path.getsize(args[1]) + sum(size for name, size in after.items() if name not in before)


def _partition_note(args, report, before):
    ambiguous = [i for members in report.coarse_classes if len(members) > 1 for i in members]
    return {"graphs": len(report.ids), "ambiguous": ambiguous}


# span name -> (before(args) or None, note(args, result, before)); the note is
# stored with the span and read by summarize().
NOTES = {
    "invariants.default_m": (None, lambda args, m, before: m),
    "invariants.LcWalkSignature.encode": (None, lambda args, enc, before: len(enc)),
    "formats.make_catalog_record": (None, lambda args, rec, before: rec.id),
    "formats.catalog_read": (None, _catalog_read_bytes),
    "formats.catalog_write": (lambda args: _blob_sizes(args[1]), _catalog_write_bytes),
    "isotest.partition_group": (None, _partition_note),
}


class Tracer:
    """Span recorder for one thread: (name index, start ns, end ns, parent index)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.notes: dict[int, object] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, notes = self.spans, self._stack, self.notes
        before, note = NOTES.get(name, (None, None))
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            state = before(args) if before else None
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[slot] = (index, start, clock(), parent)
                stack.pop()
            if note:
                notes[slot] = note(args, result, state)
            return result

        return functools.wraps(fn)(span)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "notes": {str(k): v for k, v in self.notes.items()}}, fh)


def _traceable(obj) -> bool:
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods of MODULES and rebind every
    module-level reference to them across the ``walkgi`` package."""
    wrapped = {}
    for short in MODULES:
        module = importlib.import_module(f"walkgi.{short}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if _traceable(obj):
                wrapped[obj] = tracer.wrap(f"{short}.{attr}", obj)
            elif inspect.isclass(obj):
                for meth, member in list(vars(obj).items()):
                    if meth.startswith("_"):
                        continue
                    name = f"{short}.{attr}.{meth}"
                    if isinstance(member, classmethod):
                        setattr(obj, meth, classmethod(tracer.wrap(name, member.__func__)))
                    elif _traceable(member):
                        setattr(obj, meth, tracer.wrap(name, member))
    for name, module in list(sys.modules.items()):
        if name == "walkgi" or name.startswith("walkgi."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    import walkgi.cli

    tracer = Tracer()
    install(tracer)
    code = walkgi.cli.main(cli_args)
    tracer.dump(out)
    return code


# ---------------------------------------------------------------- analysis


class SpanTree:
    def __init__(self, data: dict) -> None:
        self.names = data["names"]
        self.spans = data["spans"]
        self.notes = {int(k): v for k, v in data["notes"].items()}

    def name(self, i: int) -> str:
        return self.names[self.spans[i][0]]

    def duration(self, i: int) -> float:
        return (self.spans[i][2] - self.spans[i][1]) / 1e9

    def ancestors(self, i: int):
        parent = self.spans[i][3]
        while parent >= 0:
            yield self.name(parent)
            parent = self.spans[parent][3]

    def of(self, name: str) -> list[int]:
        return [i for i in range(len(self.spans)) if self.name(i) == name]

    def within(self, name: str, *outer: str) -> list[int]:
        return [i for i in self.of(name) if any(a in outer for a in self.ancestors(i))]


def summarize(data: dict) -> dict[str, float]:
    """Per-layer metrics from one span file (see BENCHMARK.json ``per_layer``).

    ``X.s`` is the summed span time of X, ``X.self_s`` that time less the time
    of X's child spans.  ``cli.main.self_s`` is cli.main's time less the time
    of the outermost spans of the non-cli modules under it: the time spent in
    no named layer.
    """
    tree = SpanTree(data)
    calls = Counter()
    total = defaultdict(float)
    child = defaultdict(float)
    for i, (idx, start, end, parent) in enumerate(tree.spans):
        name = tree.names[idx]
        calls[name] += 1
        total[name] += (end - start) / 1e9
        if parent >= 0:
            child[tree.name(parent)] += (end - start) / 1e9

    def self_s(name: str) -> float:
        return total[name] - child[name]

    cli_layer_children = sum(
        tree.duration(i) for i in range(len(tree.spans))
        if not tree.name(i).startswith("cli.") and tree.spans[i][3] >= 0
        and tree.name(tree.spans[i][3]).startswith("cli."))

    lc_parts = len(tree.within("invariants.walk_signature", "invariants.lc_walk_signature"))
    encodes = len(tree.within("invariants.WalkSignature.encode",
                              "invariants.lc_walk_signature", "invariants.LcWalkSignature.encode"))
    lc_m = [tree.notes[i] for i in tree.within("invariants.default_m", "invariants.lc_walk_signature")]
    partitions = [tree.notes[i] for i in tree.of("isotest.partition_group")]
    graphs = sum(p["graphs"] for p in partitions)
    ambiguous = {g for p in partitions for g in p["ambiguous"]}
    records = [tree.notes[i] for i in tree.of("formats.make_catalog_record")]
    computed = len(tree.within("invariants.lc_walk_signature", "isotest.partition_group"))

    def note_mib(name: str) -> float:
        return sum(tree.notes[i] for i in tree.of(name)) / 2**20

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics = {}
    for name in ("linalg.mat_mul", "linalg.determinant", "linalg.adjacency_matrix",
                 "graph.local_complement", "invariants.lc_walk_signature",
                 "invariants.lc_determinant_profile", "invariants.WalkSignature.encode",
                 "formats.make_catalog_record"):
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.s"] = total[name]
    metrics.update({
        "linalg.mat_mul.calls_in_default_m": len(tree.within("linalg.mat_mul", "invariants.default_m")),
        "linalg.mat_mul.calls_in_walk_signature":
            len(tree.within("linalg.mat_mul", "invariants.walk_signature")),
        "linalg.distinct_eigenvalue_count.calls": calls["linalg.distinct_eigenvalue_count"],
        "linalg.distinct_eigenvalue_count.self_s": self_s("linalg.distinct_eigenvalue_count"),
        "invariants.default_m.s": total["invariants.default_m"],
        "invariants.walk_signature.calls": calls["invariants.walk_signature"],
        "invariants.walk_signature.self_s": self_s("invariants.walk_signature"),
        "invariants.encode_per_part": share(encodes, lc_parts),
        "invariants.lc_walk_signature.self_s": self_s("invariants.lc_walk_signature"),
        "invariants.lc_walk.mb": note_mib("invariants.LcWalkSignature.encode"),
        "invariants.lc_m.mean": share(sum(lc_m), len(lc_m)),
        "invariants.lc_m.max": max(lc_m, default=0),
        "formats.read_dataset.s": total["formats.read_dataset"],
        "formats.parse_graph6.calls": calls["formats.parse_graph6"],
        "formats.catalog_read.s": total["formats.catalog_read"],
        "formats.catalog_read.mb": note_mib("formats.catalog_read"),
        "formats.catalog_write.s": total["formats.catalog_write"],
        "formats.catalog_write.mb": note_mib("formats.catalog_write"),
        "formats.catalog.lc_walk_useful_share":
            share(sum(1 for r in records if r in ambiguous), len(records)),
        "isotest.partition_group.s": total["isotest.partition_group"],
        "isotest.refined_share": share(len(ambiguous), graphs),
        "isotest.lc_walk.computed": computed,
        "isotest.lc_walk.cached": len(ambiguous) - computed,
        "cli.main.s": total["cli.main"],
        "cli.main.self_s": total["cli.main"] - cli_layer_children,
    })
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
