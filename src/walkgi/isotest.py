"""Staged pairwise distinguishing and group partitioning.

One ordered table, ``STAGE_KEYS``, maps each stage name to its per-graph
key, cheapest first.  ``distinguish_pair`` stops at the first key that
differs: a Distinguished verdict is sound (the graphs are certainly
non-isomorphic); NotDistinguished makes no claim either way.

``partition_group`` runs the table's refining tail, ``GROUP_STAGES``, at
dataset scale: the lc-det-profile on every graph, the far more expensive
lc-walk signature only on classes that remain ambiguous.  Per-graph
encodings are {stage name: bytes} dicts, and classes are keyed by exact
encoding bytes; hashes are never trusted to merge anything.  With more
than one worker, one process pool, started by the first stage that has more
than one graph to compute, serves every stage of a run.  ``Pool.map``
yields each result as it arrives, and graphs whose computed encodings are
equal, such as relabelled copies, share one bytes object.

Every stage after the first splits each class into certified copies before
it computes anything (``graph.copy_representatives``, serially in this
process): an encoding is an isomorphism invariant, so a member with a
verified isomorphism from a representative takes the representative's
bytes object and only representatives are computed.  Bytes are shared only
on a certificate that passed re-verification, never on a hash match.
"""

from __future__ import annotations

import time
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .graph import Graph, copy_representatives, degree_sequence
from .invariants import lc_determinant_profile, lc_walk_signature, walk_signature
from .linalg import determinant


# stage name -> per-graph key, cheapest first; graphs whose keys differ at any
# stage are non-isomorphic.  Keys look their invariant up at call time.
STAGE_KEYS = {
    "vertex-count": lambda G: G.n,
    "edge-count": lambda G: G.edge_count(),
    "degree-sequence": lambda G: degree_sequence(G),
    "determinant": lambda G: determinant(G),
    "walk-signature": lambda G: walk_signature(G),
    "lc-det-profile": lambda G: lc_determinant_profile(G),
    "lc-walk-signature": lambda G: lc_walk_signature(G),
}
STAGES = tuple(STAGE_KEYS)
# the stages that refine a group partition, by their keys' exact encodings
GROUP_STAGES = ("lc-det-profile", "lc-walk-signature")


def _stage_encoding(job: tuple[str, Graph]) -> bytes:
    """The encoding of a graph's key at a stage: a module-level function of
    one argument, so that a process pool can pickle it.  An lc-walk encoding
    holds each distinct part once, so it weighs about what the signature
    does (Paley(61): 49 KiB as LW2, 92 MiB as LW1, with one part per
    vertex)."""
    stage, G = job
    return STAGE_KEYS[stage](G).encode()


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
    """Run the stages of ``STAGE_KEYS`` in their cheap-to-expensive order.

    Returns Distinguished at the first stage whose key differs, else
    NotDistinguished.  NotDistinguished never asserts isomorphism.

    Differing horizons m_G != m_H count as a walk-signature difference, as
    each signature carries its m: equal signatures at max(m_G, m_H) would
    give equal traces tr A^0..tr A^(2m), hence equal Hankel leading minors
    and equal horizons.
    """
    for stage, key in STAGE_KEYS.items():
        if key(G) != key(H):
            return Verdict(True, stage)
    return Verdict(False)


@dataclass(frozen=True)
class PartitionReport:
    """Equivalence classes of a group partition run.

    ``coarse_classes`` is the partition after the first of ``GROUP_STAGES``,
    ``final_classes`` the partition after the last.  Graphs sharing a final
    class are not distinguished by this method.  Class member ids keep
    dataset order; each stage splits a class into subclasses ordered by their
    encodings, in the class's place, so reports are deterministic.

    ``encodings`` holds, in ``ids`` order, a {stage name: encoding} dict per
    graph: its cached encodings plus those the run computed.  A graph that
    is a singleton after one stage gets no later key computed.  ``stages``
    holds one (stage, computed, cached, seconds) row per stage, in
    ``GROUP_STAGES`` order; the counts are over the graphs that stage ran on,
    and ``computed`` counts the encodings the run added to them, whether
    computed or taken from a certified copy's representative.
    """

    ids: tuple[str, ...]
    coarse_classes: tuple[tuple[str, ...], ...]
    final_classes: tuple[tuple[str, ...], ...]
    encodings: tuple[dict[str, bytes], ...] = field(compare=False)
    stages: tuple[tuple[str, int, int, float], ...] = field(compare=False)

    def coarse_size_counts(self) -> dict[int, int]:
        return dict(Counter(len(c) for c in self.coarse_classes))

    def final_size_counts(self) -> dict[int, int]:
        return dict(Counter(len(c) for c in self.final_classes))

    def multi_member_final(self) -> tuple[tuple[str, ...], ...]:
        return tuple(c for c in self.final_classes if len(c) > 1)

    def all_singletons(self) -> bool:
        return all(len(c) == 1 for c in self.final_classes)


class Pool:
    """``map`` in one process pool of ``workers`` processes, started on the
    first call that has more than one item, and shut down on exit.  ``map``
    returns an iterator that yields results in item order as they arrive;
    consume it inside the ``with`` block."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.executor = None

    def __enter__(self) -> Pool:
        return self

    def __exit__(self, *exc) -> None:
        if self.executor is not None:
            self.executor.shutdown()

    def map(self, fn, items: Sequence) -> Iterator:
        if self.workers <= 1 or len(items) <= 1:
            return map(fn, items)
        if self.executor is None:
            # imported here: the pool machinery is the costliest import of
            # the package, and serial runs and the single-graph commands
            # never need it
            from concurrent.futures import ProcessPoolExecutor

            self.executor = ProcessPoolExecutor(max_workers=self.workers)
        chunk = max(1, len(items) // (self.workers * 8))
        return self.executor.map(fn, items, chunksize=chunk)


def partition_group(
    graphs: Iterable[Graph],
    ids: Sequence[str] | None = None,
    workers: int = 1,
    invariant_cache: Mapping[str, Mapping[str, bytes]] | None = None,
) -> PartitionReport:
    """Partition a group of graphs into not-yet-distinguished classes.

    Each of ``GROUP_STAGES`` in turn splits every class by exact encoding
    bytes.  The first stage runs on every graph, as every catalog record
    needs its key; each later one only on classes still holding more than
    one graph.  ``invariant_cache`` optionally maps a graph id to precomputed
    {stage name: encoding} bytes, e.g. from a catalog; each graph's dict
    starts as a copy of its entry, and only what it lacks is computed.

    Each later stage first splits every class into certified copies with
    ``copy_representatives``: the members holding the stage's encoding
    are representatives first, and every other member is tried against the
    representatives in order, with n search tokens for all its attempts.  A
    certified member takes its representative's bytes object; the others
    become representatives and are computed in the pool.

    The report gives back each graph's whole dict and a (stage, computed,
    cached, seconds) row per stage, ``computed`` counting the encodings
    added, walked or certified alike, so a caller can store exactly the
    dicts that grew.  One worker pool serves all stages when ``workers`` >
    1; classes are split over sorted encodings, so the result does not
    depend on the worker count.
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

    encodings = [dict(cache.get(i, ())) for i in ids]
    distinct: dict[bytes, bytes] = {}  # one object per computed encoding
    classes: list[list[int]] = [list(range(len(graphs)))]
    partitions, rows = [], []
    run: Sequence[int] = range(len(graphs))
    with Pool(workers) as pool:
        for stage in GROUP_STAGES:
            start = time.perf_counter()
            missing = [i for i in run if stage not in encodings[i]]
            copies = {}  # member -> the representative whose bytes it takes
            if stage != GROUP_STAGES[0]:
                for members in classes:
                    if len(members) > 1:
                        held = [i for i in members if stage in encodings[i]]
                        order = held + [i for i in members if stage not in encodings[i]]
                        reps = copy_representatives([graphs[i] for i in order], len(held))
                        copies.update((i, order[r]) for i, r in zip(order, reps) if order[r] != i)
            pending = [i for i in missing if i not in copies]
            for i, key in zip(pending, pool.map(_stage_encoding, [(stage, graphs[i]) for i in pending])):
                encodings[i][stage] = distinct.setdefault(key, key)
            for i, r in copies.items():
                encodings[i][stage] = encodings[r][stage]
            split = []
            for members in classes:
                sub = defaultdict(list)  # a singleton class may have no key at this stage
                for i in members:
                    sub[encodings[i].get(stage)].append(i)
                split += (sub[key] for key in sorted(sub))
            classes = split
            partitions.append(tuple(tuple(ids[i] for i in members) for members in classes))
            rows.append((stage, len(missing), len(run) - len(missing), time.perf_counter() - start))
            run = [i for members in classes if len(members) > 1 for i in members]

    return PartitionReport(
        ids=ids,
        coarse_classes=partitions[0],
        final_classes=partitions[-1],
        encodings=tuple(encodings),
        stages=tuple(rows),
    )
