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
than one graph to compute, serves every stage of a run.
"""

from __future__ import annotations

import time
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .graph import Graph, degree_sequence
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
    one argument, so that a process pool can pickle it.  ``distinguish_pair``
    compares the keys themselves: an lc-walk signature holds one part per
    vertex orbit, its encoding one per vertex (Paley(61): 1.5 vs 92 MiB)."""
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

    ``encodings`` holds, in ``ids`` order, a {stage name: encoding} dict of
    the stages the run used for that graph; a graph that is a singleton after
    one stage has no key for the later ones.  ``counts`` holds (stage,
    computed, cached) graph counts per stage, and ``timings`` (stage,
    seconds), both in ``GROUP_STAGES`` order.
    """

    ids: tuple[str, ...]
    coarse_classes: tuple[tuple[str, ...], ...]
    final_classes: tuple[tuple[str, ...], ...]
    encodings: tuple[dict[str, bytes], ...] = field(compare=False)
    counts: tuple[tuple[str, int, int], ...] = field(compare=False)
    timings: tuple[tuple[str, float], ...] = field(compare=False)

    def coarse_size_counts(self) -> dict[int, int]:
        return dict(Counter(len(c) for c in self.coarse_classes))

    def final_size_counts(self) -> dict[int, int]:
        return dict(Counter(len(c) for c in self.final_classes))

    def multi_member_final(self) -> tuple[tuple[str, ...], ...]:
        return tuple(c for c in self.final_classes if len(c) > 1)

    def all_singletons(self) -> bool:
        return all(len(c) == 1 for c in self.final_classes)


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
    invariant_cache: Mapping[str, Mapping[str, bytes]] | None = None,
) -> PartitionReport:
    """Partition a group of graphs into not-yet-distinguished classes.

    Each of ``GROUP_STAGES`` in turn splits every class by exact encoding
    bytes.  The first stage runs on every graph, as every catalog record
    needs its key; each later one only on classes still holding more than
    one graph.  ``invariant_cache`` optionally maps a graph id to precomputed
    {stage name: encoding} bytes, e.g. from a catalog; only what it lacks is
    computed.  The report gives back the encodings the run used and the
    computed and cached counts per stage, so a caller can store exactly what
    was computed.  One worker pool serves all stages when ``workers`` > 1;
    classes are split over sorted encodings, so the result does not depend
    on the worker count.
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

    encodings: list[dict[str, bytes]] = [{} for _ in graphs]
    classes: list[list[int]] = [list(range(len(graphs)))]
    partitions, counts, timings = [], [], []
    run: Sequence[int] = range(len(graphs))
    with _Pool(workers) as pool:
        for stage in GROUP_STAGES:
            start = time.perf_counter()
            for i in run:
                if stage in cache.get(ids[i], {}):
                    encodings[i][stage] = cache[ids[i]][stage]
            missing = [i for i in run if stage not in encodings[i]]
            for i, key in zip(missing, pool.map(_stage_encoding, [(stage, graphs[i]) for i in missing])):
                encodings[i][stage] = key
            split = []
            for members in classes:
                sub = defaultdict(list)  # a singleton class may have no key at this stage
                for i in members:
                    sub[encodings[i].get(stage)].append(i)
                split += (sub[key] for key in sorted(sub))
            classes = split
            partitions.append(tuple(tuple(ids[i] for i in members) for members in classes))
            counts.append((stage, len(missing), len(run) - len(missing)))
            timings.append((stage, time.perf_counter() - start))
            run = [i for members in classes if len(members) > 1 for i in members]

    return PartitionReport(
        ids=ids,
        coarse_classes=partitions[0],
        final_classes=partitions[-1],
        encodings=tuple(encodings),
        counts=tuple(counts),
        timings=tuple(timings),
    )
