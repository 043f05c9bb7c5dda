"""Staged pairwise distinguishing, group partitioning, and a brute-force
isomorphism oracle.

The pairwise pipeline runs cheap invariants first and stops at the first
difference.  A Distinguished verdict is sound (the graphs are certainly
non-isomorphic); NotDistinguished makes no claim either way.

Group partitioning follows the same staging at dataset scale: graphs are
first split by their local-complement determinant profiles, and only classes
that remain ambiguous are refined with the far more expensive
local-complement walk signatures.  Classes are keyed by exact encoding
bytes; hashes are never trusted to merge anything.
"""

from __future__ import annotations

import time
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .graph import Graph, degree_sequence, is_isomorphism
from .invariants import lc_determinant_profile, lc_walk_signature, walk_signature
from .linalg import determinant

STAGES = (
    "vertex-count",
    "edge-count",
    "degree-sequence",
    "determinant",
    "walk-signature",
    "lc-det-profile",
    "lc-walk-signature",
)

DEFAULT_ORACLE_CAP = 12


class OracleLimitError(ValueError):
    """Raised when the brute-force oracle is asked to exceed its vertex cap."""


class CertificateError(RuntimeError):
    """An isomorphism certificate failed re-verification: internal invariant violation."""


@dataclass(frozen=True, slots=True)
class Verdict:
    """Outcome of a staged distinguishing run."""

    distinguished: bool
    stage: str | None = None

    def __post_init__(self) -> None:
        if self.distinguished:
            if self.stage not in STAGES:
                raise ValueError(f"unknown stage {self.stage!r}")
        elif self.stage is not None:
            raise ValueError("NotDistinguished verdicts carry no stage")


def distinguish_pair(G: Graph, H: Graph) -> Verdict:
    """Run the invariant stages in fixed cheap-to-expensive order.

    Returns Distinguished at the first stage whose value differs, else
    NotDistinguished.  NotDistinguished never asserts isomorphism.

    Differing horizons m_G != m_H count as a walk-signature difference, as
    each signature carries its m: equal signatures at max(m_G, m_H) would
    give equal traces tr A^0..tr A^(2m), hence equal Hankel leading minors
    and equal horizons.
    """
    if G.n != H.n:
        return Verdict(True, "vertex-count")
    if G.edge_count() != H.edge_count():
        return Verdict(True, "edge-count")
    if degree_sequence(G) != degree_sequence(H):
        return Verdict(True, "degree-sequence")
    if determinant(G) != determinant(H):
        return Verdict(True, "determinant")
    if walk_signature(G) != walk_signature(H):
        return Verdict(True, "walk-signature")
    if lc_determinant_profile(G) != lc_determinant_profile(H):
        return Verdict(True, "lc-det-profile")
    if lc_walk_signature(G) != lc_walk_signature(H):
        return Verdict(True, "lc-walk-signature")
    return Verdict(False)


@dataclass(frozen=True)
class PartitionReport:
    """Equivalence classes of a group partition run.

    ``coarse_classes`` groups by determinant profile alone; ``final_classes``
    additionally refines every multi-member coarse class by local-complement
    walk signature.  Graphs sharing a final class are not distinguished by
    this method.  Class member ids keep dataset order; classes are ordered by
    their sorted invariant encodings, so reports are deterministic.

    ``encodings`` holds, in ``ids`` order, the (profile, lc-walk) encodings the
    run used; lc-walk is None for a graph whose coarse class is a singleton.
    ``counts`` holds (stage, computed, cached) graph counts per stage, and
    ``timings`` (stage, seconds).
    """

    ids: tuple[str, ...]
    coarse_classes: tuple[tuple[str, ...], ...]
    final_classes: tuple[tuple[str, ...], ...]
    encodings: tuple[tuple[bytes, bytes | None], ...] = field(compare=False)
    counts: tuple[tuple[str, int, int], ...] = field(compare=False)
    timings: tuple[tuple[str, float], ...] = field(compare=False)

    def coarse_size_counts(self) -> dict[int, int]:
        return dict(Counter(len(c) for c in self.coarse_classes))

    def final_size_counts(self) -> dict[int, int]:
        return dict(Counter(len(c) for c in self.final_classes))

    def multi_member_coarse(self) -> tuple[tuple[str, ...], ...]:
        return tuple(c for c in self.coarse_classes if len(c) > 1)

    def multi_member_final(self) -> tuple[tuple[str, ...], ...]:
        return tuple(c for c in self.final_classes if len(c) > 1)

    def all_singletons(self) -> bool:
        return all(len(c) == 1 for c in self.final_classes)

    def stats(self) -> dict[str, int]:
        multi_coarse = self.multi_member_coarse()
        return {
            "graphs": len(self.ids),
            "coarse_classes": len(self.coarse_classes),
            "coarse_multi_classes": len(multi_coarse),
            "graphs_refined": sum(len(c) for c in multi_coarse),
            "final_classes": len(self.final_classes),
            "final_multi_classes": len(self.multi_member_final()),
        }


def _profile_key(G: Graph) -> bytes:
    return lc_determinant_profile(G).encode()


def _lc_walk_key(G: Graph) -> bytes:
    return lc_walk_signature(G).encode()


class _Pool:
    """``map`` in one process pool of ``workers`` processes, started on the
    first call that has more than one item, and shut down on exit."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.executor = None

    def __enter__(self) -> _Pool:
        return self

    def __exit__(self, *exc) -> None:
        if self.executor is not None:
            self.executor.shutdown()

    def map(self, fn, items: Sequence) -> list:
        if self.workers <= 1 or len(items) <= 1:
            return [fn(x) for x in items]
        if self.executor is None:
            # imported here: the pool machinery is the costliest import of
            # the package, and serial runs and the single-graph commands
            # never need it
            from concurrent.futures import ProcessPoolExecutor

            self.executor = ProcessPoolExecutor(max_workers=self.workers)
        chunk = max(1, len(items) // (self.workers * 8))
        return list(self.executor.map(fn, items, chunksize=chunk))


def map_pool(fn, items: Sequence, workers: int) -> list:
    """``[fn(x) for x in items]``, in a process pool when ``workers`` > 1."""
    with _Pool(workers) as pool:
        return pool.map(fn, items)


def partition_group(
    graphs: Iterable[Graph],
    ids: Sequence[str] | None = None,
    workers: int = 1,
    invariant_cache: Mapping[str, tuple[bytes | None, bytes | None]] | None = None,
) -> PartitionReport:
    """Partition a group of graphs into not-yet-distinguished classes.

    ``invariant_cache`` optionally maps a graph id to precomputed
    (profile encoding, lc-walk encoding) bytes, e.g. loaded from a catalog;
    either entry may be None.  Only what the cache lacks is computed, and the
    lc-walk encoding only for members of ambiguous coarse classes.  The report
    gives back the encodings the run used and how many of each stage were
    computed or cached, so a caller can store exactly what was computed.
    Per-graph invariants are computed in one worker pool, shared by both
    stages, when ``workers`` > 1; assembly is a deterministic reduce over
    sorted encodings, so the result does not depend on the worker count.
    """
    graphs = list(graphs)
    if ids is None:
        ids = tuple(str(i) for i in range(len(graphs)))
    else:
        ids = tuple(ids)
        if len(ids) != len(graphs):
            raise ValueError(f"{len(ids)} ids for {len(graphs)} graphs")
    cache = invariant_cache or {}

    if len({g.n for g in graphs}) > 1:
        warnings.warn("graphs have mixed vertex counts; they separate trivially", stacklevel=2)

    with _Pool(workers) as pool:
        t0 = time.perf_counter()
        profile_keys: list[bytes | None] = [cache.get(i, (None, None))[0] for i in ids]
        missing = [idx for idx, key in enumerate(profile_keys) if key is None]
        for idx, key in zip(missing, pool.map(_profile_key, [graphs[i] for i in missing])):
            profile_keys[idx] = key
        t1 = time.perf_counter()

        coarse: dict[bytes, list[int]] = defaultdict(list)
        for idx, key in enumerate(profile_keys):
            coarse[key].append(idx)
        coarse_sorted = sorted(coarse.items())

        ambiguous = [i for _, members in coarse_sorted if len(members) > 1 for i in members]
        lc_keys: dict[int, bytes] = {}
        to_compute = []
        for i in ambiguous:
            cached = cache.get(ids[i], (None, None))[1]
            if cached is not None:
                lc_keys[i] = cached
            else:
                to_compute.append(i)
        for i, key in zip(to_compute, pool.map(_lc_walk_key, [graphs[i] for i in to_compute])):
            lc_keys[i] = key
        t2 = time.perf_counter()

    final_entries: list[tuple[tuple[bytes, bytes], list[int]]] = []
    for key, members in coarse_sorted:
        if len(members) == 1:
            final_entries.append(((key, b""), members))
        else:
            sub: dict[bytes, list[int]] = defaultdict(list)
            for i in members:
                sub[lc_keys[i]].append(i)
            for lc_key, sub_members in sorted(sub.items()):
                final_entries.append(((key, lc_key), sub_members))
    final_entries.sort(key=lambda entry: entry[0])

    return PartitionReport(
        ids=ids,
        coarse_classes=tuple(tuple(ids[i] for i in members) for _, members in coarse_sorted),
        final_classes=tuple(tuple(ids[i] for i in members) for _, members in final_entries),
        timings=(("lc-det-profile", t1 - t0), ("lc-walk-signature", t2 - t1)),
        encodings=tuple((key, lc_keys.get(i)) for i, key in enumerate(profile_keys)),
        counts=(("lc-det-profile", len(missing), len(graphs) - len(missing)),
                ("lc-walk-signature", len(to_compute), len(ambiguous) - len(to_compute))),
    )


def brute_force_isomorphic(
    G: Graph, H: Graph, limit: int = DEFAULT_ORACLE_CAP
) -> tuple[int, ...] | None:
    """Exhaustive isomorphism search with degree-class pruning.

    Returns a certificate permutation f (as a tuple, f[u] is the image of u)
    with {u,v} in E(G) iff {f(u),f(v)} in E(H), or None when no bijection
    exists.  Certificates are re-verified, row by row by ``is_isomorphism``,
    before being returned.
    Differing vertex counts are immediately non-isomorphic; n beyond
    ``limit`` is rejected, since the search is factorial in the worst case.
    """
    if G.n != H.n:
        return None
    n = G.n
    if n > limit:
        raise OracleLimitError(f"oracle limit: n={n} exceeds cap {limit}")
    if G.edge_count() != H.edge_count() or degree_sequence(G) != degree_sequence(H):
        return None

    deg_g = [G.degree(u) for u in range(n)]
    deg_h = [H.degree(u) for u in range(n)]
    degree_freq = Counter(deg_g)
    # rare degree classes first, then high degree: fail early
    order = sorted(range(n), key=lambda u: (degree_freq[deg_g[u]], -deg_g[u], u))
    candidates = defaultdict(list)
    for w in range(n):
        candidates[deg_h[w]].append(w)

    mapping = [-1] * n
    used = [False] * n

    def extend(pos: int) -> bool:
        if pos == n:
            return True
        v = order[pos]
        row_v = G.rows[v]
        for w in candidates[deg_g[v]]:
            if used[w]:
                continue
            row_w = H.rows[w]
            ok = True
            for prev in range(pos):
                u = order[prev]
                if ((row_v >> u) & 1) != ((row_w >> mapping[u]) & 1):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = w
            used[w] = True
            if extend(pos + 1):
                return True
            used[w] = False
            mapping[v] = -1
        return False

    if not extend(0):
        return None
    certificate = tuple(mapping)
    _verify_certificate(G, H, certificate)
    return certificate


def _verify_certificate(G: Graph, H: Graph, f: tuple[int, ...]) -> None:
    if sorted(f) != list(range(G.n)):
        raise CertificateError(f"certificate is not a permutation: {f}")
    if not is_isomorphism(G, H, f):
        raise CertificateError(f"certificate {f} does not map the edges of G onto those of H")
