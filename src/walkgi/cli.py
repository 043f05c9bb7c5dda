"""Command-line front end.

Commands: info, pair, group, lc, det, walks, oracle.  Results go to stdout;
progress, warnings, and timings for the records format go to stderr.  The
records format is line-oriented ``record=... key=value ...`` and is
byte-identical across worker counts for the same inputs and flags.

Exit codes: 0 success, 1 usage, parse or catalog error or a worker process
that died, 2 internal invariant violation (a certificate that fails
re-verification is never reported as success).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__
from .formats import (
    CatalogError,
    CatalogRecord,
    DatasetError,
    Graph6Error,
    catalog_read,
    catalog_write,
    make_catalog_record,
    read_dataset,
    write_graph6,
)
from .graph import (
    CertificateError,
    Graph,
    degree_sequence,
    find_isomorphism,
    local_complement,
    srg_parameters,
)
from .invariants import default_m
from .isotest import Pool, distinguish_pair, partition_group
from .linalg import _row_starts, determinant, walk_powers


class _UsageError(Exception):
    """Bad invocation or bad input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; our contract reserves 2
    # for internal invariant violations, so route usage errors to exit 1.
    def error(self, message: str) -> None:
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _read_graphs(paths, strict: bool) -> tuple[list[tuple[str, Graph]], bool]:
    entries: list[tuple[str, Graph]] = []
    failed = False
    for path in paths:
        part, failures = read_dataset(path, strict=strict)
        for failure in failures:
            print(f"parse error: {failure}", file=sys.stderr)
            failed = True
        entries.extend(part)
    return entries, failed


def _single_graph(path: str, strict: bool) -> Graph:
    entries, failures = read_dataset(path, strict=strict)
    if failures:
        raise _UsageError(f"{path}: {failures[0].message} (line {failures[0].lineno})")
    if len(entries) != 1:
        raise _UsageError(f"{path}: expected exactly one graph, found {len(entries)}")
    return entries[0][1]


def _degree_text(G: Graph) -> str:
    # run-length form, ascending: K4 minus an edge -> "2^2,3^2"
    seq = degree_sequence(G)
    runs = []
    i = 0
    while i < len(seq):
        j = i
        while j < len(seq) and seq[j] == seq[i]:
            j += 1
        runs.append(f"{seq[i]}^{j - i}")
        i = j
    return ",".join(runs)


def _info_worker(G: Graph) -> tuple[int, int]:
    return determinant(G), default_m(G)


def cmd_info(args: argparse.Namespace) -> int:
    entries, failed = _read_graphs(args.files, args.strict)
    with Pool(args.workers) as pool:
        for (record_id, G), (det, m) in zip(entries, pool.map(_info_worker, [G for _, G in entries])):
            degrees = _degree_text(G)
            params = srg_parameters(G)
            srg = None if params is None else f"{params.n},{params.d},{params.alpha},{params.beta}"
            if args.format == "text":
                srg_text = "not SRG" if srg is None else f"SRG({srg})"
                print(
                    f"{record_id}: n={G.n}, edges={G.edge_count()}, degrees={degrees}, "
                    f"{srg_text}, det={det}, m={m}"
                )
            else:
                print(
                    f"record=info id={record_id} n={G.n} edges={G.edge_count()} "
                    f"degrees={degrees} srg={srg or '-'} det={det} m={m}"
                )
    return 1 if failed else 0


def cmd_pair(args: argparse.Namespace) -> int:
    G = _single_graph(args.file_a, args.strict)
    H = _single_graph(args.file_b, args.strict)
    verdict = distinguish_pair(G, H)

    if verdict.distinguished:
        if args.format == "text":
            print(f"Distinguished: {verdict.stage}")
        else:
            print(f"record=pair distinguished=true stage={verdict.stage}")
        return 0

    certificate = find_isomorphism(G, H) if args.oracle else None
    if args.format == "text":
        if not args.oracle:
            print("NotDistinguished")
        elif certificate is not None:
            print("NotDistinguished; oracle: isomorphic, certificate printed")
            print("certificate: " + _certificate_text(certificate))
        else:
            print("NotDistinguished; oracle: non-isomorphic")
    else:
        line = "record=pair distinguished=false"
        if args.oracle:
            line += f" oracle={'isomorphic' if certificate is not None else 'non-isomorphic'}"
            if certificate is not None:
                line += " certificate=" + ",".join(str(w) for w in certificate)
        print(line)
    return 0


def _certificate_text(certificate: tuple[int, ...]) -> str:
    return " ".join(f"{u}->{w}" for u, w in enumerate(certificate))


def cmd_group(args: argparse.Namespace) -> int:
    entries, failed = _read_graphs(args.files, args.strict)
    if not entries:
        raise _UsageError("no graphs to partition")
    ids = [record_id for record_id, _ in entries]
    if len(set(ids)) != len(ids):
        raise _UsageError("duplicate graph ids across inputs")
    graphs = [G for _, G in entries]

    cache: dict[str, dict[str, bytes]] = {}
    known: dict[str, CatalogRecord] = {}
    if args.catalog:
        if os.path.exists(args.catalog):
            known = {rec.id: rec for rec in catalog_read(args.catalog, dict(entries))}
            print(f"catalog: {len(known)} cached records", file=sys.stderr)
        cache = {rec.id: enc for rec in known.values() if (enc := rec.encodings())}
        stale = sum(1 for record_id in ids if record_id in known and record_id not in cache)
        if stale:
            print(f"catalog: {stale} stale records (graph changed or blobs missing)", file=sys.stderr)
        if len(cache) < len(ids):
            print(f"catalog: computing {len(ids) - len(cache)} new records", file=sys.stderr)

    t0 = time.perf_counter()
    report = partition_group(graphs, ids=ids, workers=args.workers, invariant_cache=cache)
    elapsed = time.perf_counter() - t0

    if args.catalog:
        grown = {record_id: make_catalog_record(record_id, G, enc)
                 for (record_id, G), enc in zip(entries, report.encodings)
                 if len(enc) > len(cache.get(record_id, ()))}
        if grown:  # a rerun that computed nothing leaves the catalog alone
            known.update(grown)
            catalog_write([known[k] for k in sorted(known)], args.catalog)

    if args.format == "text":
        print(f"graphs: {len(report.ids)}")
        print(f"coarse: {len(report.coarse_classes)} classes ({_hist_text(report.coarse_size_counts())})")
        final_line = f"final: {len(report.final_classes)} classes ({_hist_text(report.final_size_counts())})"
        if report.all_singletons():
            final_line += "; all singletons"
        print(final_line)
        for members in report.multi_member_final():
            print("unresolved: " + ", ".join(members))
        print(f"timing: {_timing_text(report.stages)}, total {elapsed:.3f}s")
    else:
        print(
            f"record=group graphs={len(report.ids)} "
            f"coarse_classes={len(report.coarse_classes)} "
            f"final_classes={len(report.final_classes)} "
            f"all_singletons={'true' if report.all_singletons() else 'false'}"
        )
        for kind, counts in (("coarse", report.coarse_size_counts()), ("final", report.final_size_counts())):
            for size in sorted(counts):
                print(f"record={kind}-hist size={size} count={counts[size]}")
        for members in report.multi_member_final():
            print(f"record=class kind=final size={len(members)} members=" + ",".join(members))
        print(f"timing: {_timing_text(report.stages)}, total {elapsed:.3f}s", file=sys.stderr)
    print("stages: " + ", ".join(f"{name} computed={computed} cached={cached}"
                                 for name, computed, cached, _ in report.stages), file=sys.stderr)
    return 1 if failed else 0


def _hist_text(counts: dict[int, int]) -> str:
    return ", ".join(f"{counts[size]} x{size}" for size in sorted(counts))


def _timing_text(stages) -> str:
    return ", ".join(f"{name} {seconds:.3f}s" for name, _, _, seconds in stages)


def cmd_lc(args: argparse.Namespace) -> int:
    entries, failed = _read_graphs(args.files, args.strict)
    u = args.vertex
    for record_id, G in entries:
        if not 0 <= u < G.n:
            raise _UsageError(f"{record_id}: vertex {u} out of range for n={G.n}")
        g6 = write_graph6(local_complement(G, u))
        if args.format == "text":
            print(f"{record_id}: {g6}")
        else:
            print(f"record=lc id={record_id} u={u} g6={g6}")
    return 1 if failed else 0


def cmd_det(args: argparse.Namespace) -> int:
    entries, failed = _read_graphs(args.files, args.strict)
    for record_id, G in entries:
        det = determinant(G)
        if args.format == "text":
            print(f"{record_id}: det={det}")
        else:
            print(f"record=det id={record_id} det={det}")
    return 1 if failed else 0


def cmd_walks(args: argparse.Namespace) -> int:
    entries, failed = _read_graphs(args.files, args.strict)
    u, v = args.u, args.v
    for record_id, G in entries:
        if not (0 <= u < G.n and 0 <= v < G.n):
            raise _UsageError(f"{record_id}: pair ({u},{v}) out of range for n={G.n}")
        powers = walk_powers(G)
        m = len(powers)
        i, j = min(u, v), max(u, v)
        index = _row_starts(G.n)[i] + j - i
        counts = [P[index] for P in powers]
        if args.format == "text":
            print(f"{record_id}: m={m}, s({u},{v})=({', '.join(str(c) for c in counts)})")
        else:
            print(
                f"record=walks id={record_id} u={u} v={v} m={m} "
                f"s={','.join(str(c) for c in counts)}"
            )
    return 1 if failed else 0


def cmd_oracle(args: argparse.Namespace) -> int:
    G = _single_graph(args.file_a, args.strict)
    H = _single_graph(args.file_b, args.strict)
    certificate = find_isomorphism(G, H)
    if args.format == "text":
        if certificate is None:
            print("non-isomorphic")
        else:
            print("isomorphic")
            print("certificate: " + _certificate_text(certificate))
    else:
        line = f"record=oracle isomorphic={'true' if certificate is not None else 'false'}"
        if certificate is not None:
            line += " certificate=" + ",".join(str(w) for w in certificate)
        print(line)
    return 0


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has
    one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _add_common(p: argparse.ArgumentParser, workers: bool = False) -> None:
    p.add_argument("--format", choices=("text", "records"), default="text",
                   help="output style (default: text)")
    p.add_argument("--strict", action="store_true",
                   help="abort on the first dataset parse error")
    if workers:
        p.add_argument("--workers", type=_positive_int, default=_usable_cpus(), metavar="N",
                       help="worker processes (default: CPUs this process may run on)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="walkgi",
                     description="Walk-count and local-complement graph invariants.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("info", help="per-graph summary: n, edges, degrees, SRG, det, m")
    p.add_argument("files", nargs="+", metavar="FILE")
    _add_common(p, workers=True)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("pair", help="staged distinguishing of two graphs")
    p.add_argument("file_a", metavar="FILE_A")
    p.add_argument("file_b", metavar="FILE_B")
    p.add_argument("--oracle", action="store_true",
                   help="on NotDistinguished, decide isomorphism with the oracle")
    _add_common(p)
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("group", help="partition a dataset into invariant classes")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.add_argument("--catalog", metavar="PATH",
                   help="reuse and update a catalog of per-graph invariants")
    _add_common(p, workers=True)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("lc", help="print local complements at a vertex as graph6")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.add_argument("vertex", type=int, metavar="VERTEX")
    _add_common(p)
    p.set_defaults(func=cmd_lc)

    p = sub.add_parser("det", help="exact adjacency determinant per graph")
    p.add_argument("files", nargs="+", metavar="FILE")
    _add_common(p)
    p.set_defaults(func=cmd_det)

    p = sub.add_parser("walks", help="walk-count tuple s(u,v) for lengths 1..m")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.add_argument("u", type=int)
    p.add_argument("v", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_walks)

    p = sub.add_parser("oracle", help="exact isomorphism test of two graphs, with a certificate")
    p.add_argument("file_a", metavar="FILE_A")
    p.add_argument("file_b", metavar="FILE_B")
    _add_common(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, Graph6Error, DatasetError, CatalogError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CertificateError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # a worker that died (killed for memory, say) breaks the whole pool;
        # the pool machinery is imported only by runs that started one
        process = sys.modules.get("concurrent.futures.process")
        if process is None or not isinstance(exc, process.BrokenProcessPool):
            raise
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
