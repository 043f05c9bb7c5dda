"""Staged pairwise distinguishing and group partitioning.

One ordered table, ``STAGE_KEYS``, maps each stage name to its per-graph
key, cheapest first.  ``distinguish_pair`` returns the name of the first
stage whose key differs, which is sound (the graphs are certainly
non-isomorphic), or None, which makes no claim either way.

``partition_group`` runs the table's refining tail, ``GROUP_STAGES``, at
dataset scale: the lc-det-profile on every graph, the far more expensive
lc-walk signature only on classes that remain ambiguous.  Per-graph
encodings are {stage name: bytes} dicts, and classes are keyed by exact
encoding bytes; hashes are never trusted to merge anything.  With more
than one worker, each stage maps its graphs through ``Pool``: the map
starts in this process, and only once it has run for ``FORK_AFTER_S``, the
cost of forking, and the workers would save as long on the graphs left, at
the mean time per graph so far, does it fork worker processes for them.
They inherit the graphs through the fork and take graph indices one at a
time, as each finishes the last, from one pipe they all read; only the
encodings come back, each tagged with its index, through a pipe per child.
``Pool.map`` yields the results in graph order, and graphs whose computed
encodings are equal, such as relabelled copies, share one bytes object.

Before the first stage computes anything, the whole input is split into
certified copies (``graph.copy_representatives``, serially in this
process), and the stages partition the representatives, each standing for
the group of graphs certified onto it.  An encoding is an isomorphism
invariant, so a group's key at a stage is any member's cached key, or else
the representative's, computed at the first stage always and later only
when its class holds another representative; every member takes that
bytes object.  A class that certification proves to be one isomorphism
class is a class of one representative, which no later stage computes
anything for.  Bytes are shared only on certificates that passed
re-verification, never on a hash match.
"""

from __future__ import annotations

import gc
import os
import time
import warnings
from collections import Counter, defaultdict
from typing import Generator, Iterable, Iterator, Mapping, NamedTuple, NoReturn, Sequence

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
# Seconds a map runs in this process before it forks workers for the rest:
# the measured cost of forking.  A two-worker map of four trivial items makes
# a whole `walkgi` process about 10 ms slower than the same map in process
# (importing pickle and selectors, the forks, the join, and the parent's page
# faults after the fork; medians of 40 runs each, Python 3.11, 2-vCPU VM).
FORK_AFTER_S = 0.01


def _stage_encoding(job: tuple[str, Graph]) -> bytes:
    """The encoding of a graph's key at a stage, the one-argument function
    that ``partition_group`` maps over its workers.  An lc-walk encoding
    holds each distinct part once, so it weighs about what the signature
    does (Paley(61): 49 KiB as LW2, 92 MiB as LW1, with one part per
    vertex)."""
    stage, G = job
    return STAGE_KEYS[stage](G).encode()


def distinguish_pair(G: Graph, H: Graph) -> str | None:
    """Run the stages of ``STAGE_KEYS`` in their cheap-to-expensive order.

    Returns the name of the first stage whose key differs, which proves the
    graphs non-isomorphic, else None, which never asserts isomorphism.

    Differing horizons m_G != m_H count as a walk-signature difference, as
    each signature carries its m: equal signatures at max(m_G, m_H) would
    give equal traces tr A^0..tr A^(2m), hence equal Hankel leading minors
    and equal horizons.
    """
    for stage, key in STAGE_KEYS.items():
        if key(G) != key(H):
            return stage
    return None


class PartitionReport(NamedTuple):
    """Equivalence classes of a group partition run.

    ``coarse_classes`` is the partition after the first of ``GROUP_STAGES``,
    ``final_classes`` the partition after the last.  Graphs sharing a final
    class are not distinguished by this method.  Class member ids keep
    dataset order; each stage splits a class into subclasses ordered by their
    encodings, in the class's place, so reports are deterministic.

    ``encodings`` holds, in ``ids`` order, a {stage name: encoding} dict per
    graph: its cached encodings plus those the run added.  A graph that is
    a singleton after one stage, or whose class holds one representative
    of certified copies and no member with the key, gets no later key.
    ``stages`` holds one (stage, computed, certified, cached, seconds) row
    per stage, in ``GROUP_STAGES`` order.  The counts split the graphs that
    stage ran on: ``computed`` the representatives computed, ``cached`` the
    graphs that already held the stage's key, and ``certified`` the rest.
    """

    ids: tuple[str, ...]
    coarse_classes: tuple[tuple[str, ...], ...]
    final_classes: tuple[tuple[str, ...], ...]
    encodings: tuple[dict[str, bytes], ...]
    stages: tuple[tuple[str, int, int, int, float], ...]

    def coarse_size_counts(self) -> dict[int, int]:
        return dict(Counter(len(c) for c in self.coarse_classes))

    def final_size_counts(self) -> dict[int, int]:
        return dict(Counter(len(c) for c in self.final_classes))

    def multi_member_final(self) -> tuple[tuple[str, ...], ...]:
        return tuple(c for c in self.final_classes if len(c) > 1)

    def all_singletons(self) -> bool:
        return all(len(c) == 1 for c in self.final_classes)


class Pool:
    """``map`` that starts in this process and forks worker processes only
    for a long map.  ``map`` returns an iterator that computes items here,
    in order, from its first ``next``.  Once the map has run for
    ``FORK_AFTER_S``, more than one item is left, and the items left, at
    the mean time per item so far, would take at least ``FORK_AFTER_S``
    less on W = min(workers, items left) workers, it forks W children,
    which inherit the items through the fork.  So a map that finishes
    within ``FORK_AFTER_S`` never forks, nor does a tail too short to pay
    for the fork.

    The parent writes the indices of the items left, in order, to one task
    pipe that every child reads, keeps at most 2W of them unanswered, and
    writes the next as each result arrives.  A child takes one index at a
    time, so a fast child takes more items than a slow one, and writes each
    result, tagged with its index, to its own pipe as a length-prefixed
    pickle.  The iterator yields results in item order and has reaped every
    child by its last result; consume it inside the ``with`` block.

    An exception ``fn`` raises, here or in a child, is raised here, with its
    type, at its item's place; the child that sent it exits with status 0.
    A child that exits with a nonzero status, or by a signal, whether or
    not it held an index, makes the map raise ``ChildProcessError`` naming
    that status or signal.  Closing a map early, or leaving the
    ``with`` block, which closes every map, kills and reaps the children
    still running.  One worker, one item, or a platform without ``os.fork``
    maps serially in this process.

    Map only from a process with one thread: a child inherits no other
    thread, so a lock another thread held at the fork stays held in it.
    walkgi's commands start no thread."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._maps: list[Generator] = []

    def __enter__(self) -> Pool:
        return self

    def __exit__(self, *exc) -> None:
        for results in self._maps:
            results.close()

    def map(self, fn, items: Sequence) -> Iterator:
        if self.workers <= 1 or len(items) <= 1 or not hasattr(os, "fork"):
            return map(fn, items)
        results = self._map(fn, items)
        self._maps.append(results)
        return results

    def _map(self, fn, items: Sequence) -> Generator:
        """Map in this process until the map has run for ``FORK_AFTER_S``
        and W workers would save as long on the items left, at the mean
        time per item so far, then fork for them."""
        start = time.perf_counter()
        for i, item in enumerate(items):
            left = len(items) - i
            workers = min(self.workers, left)
            elapsed = time.perf_counter() - start
            # left * (elapsed / i) * (workers - 1) / workers >= FORK_AFTER_S, as a
            # product, so that FORK_AFTER_S = 0 forks before the first item
            if (left > 1 and elapsed >= FORK_AFTER_S
                    and left * elapsed * (workers - 1) >= FORK_AFTER_S * i * workers):
                yield from _forked_map(fn, items[i:], workers)
                return
            yield fn(item)


def _forked_map(fn, items: Sequence, workers: int) -> Generator:
    # imported here, as only forking runs need them
    import pickle
    import selectors

    count = len(items)
    children: dict[int, int] = {}  # read end of a running child's results -> its pid
    done: dict[int, tuple] = {}  # index -> (ok, result or exception), until yielded
    handed = 0
    selector = selectors.DefaultSelector()
    task_r, tasks = os.pipe()

    def hand_out() -> None:
        nonlocal handed
        try:  # at most 16 bytes per child are ever pending in the pipe, so this never blocks
            os.write(tasks, handed.to_bytes(8, "little"))
        except BrokenPipeError:  # every child is gone; the ends of their results tell how
            pass
        handed += 1
        if handed == count:  # each child exits once it reads the end of the pipe
            os.close(tasks)

    def reap(r: int) -> int:
        os.close(r)
        return os.waitpid(children.pop(r), 0)[1]

    try:
        # what exists at the fork stays out of the children's collections,
        # which would otherwise copy every page they traverse (unfrozen when
        # the map ends)
        gc.freeze()
        try:
            for _ in range(workers):
                r, w = os.pipe()
                try:
                    pid = os.fork()
                except BaseException:
                    os.close(r)
                    os.close(w)
                    raise
                if pid == 0:  # never returns
                    _serve(fn, items, task_r, w, [r, tasks, *children])
                os.close(w)
                children[r] = pid
                selector.register(r, selectors.EVENT_READ, bytearray())
        finally:
            os.close(task_r)
        while handed < min(count, 2 * workers):
            hand_out()
        for i in range(count):
            # before the last result, every child has sent all it will:
            # wait for each to exit, so that a finished map leaves none
            while i not in done or (i == count - 1 and children):
                for key, _ in selector.select():
                    data = os.read(key.fd, 1 << 16)
                    if not data:  # the child has closed its pipe to exit
                        selector.unregister(key.fd)
                        if status := reap(key.fd):
                            raise ChildProcessError(f"a worker process died ({_exit_text(status)})")
                        continue
                    buf = key.data
                    buf += data
                    pos = 0
                    while len(buf) - pos >= 8:
                        end = pos + 8 + int.from_bytes(buf[pos:pos + 8], "little")
                        if len(buf) < end:
                            break
                        index, ok, value = pickle.loads(buf[pos + 8:end])
                        done[index] = ok, value
                        if handed < count:
                            hand_out()
                        pos = end
                    del buf[:pos]
            ok, value = done.pop(i)
            if not ok:
                raise value
            yield value
    finally:
        gc.unfreeze()
        selector.close()
        if handed < count:
            os.close(tasks)
        if children:  # the map was closed, or failed, before its end
            import signal

            for r, pid in list(children.items()):
                os.kill(pid, signal.SIGKILL)
                reap(r)


def _serve(fn, items: Sequence, tasks: int, fd: int, unused: list[int]) -> NoReturn:
    """A forked worker's whole life: close the ``unused`` pipe ends it
    inherited, then take item indices one at a time from ``tasks``, the
    pipe that every child reads, until the parent closes it, and write the
    result of ``fn`` on each indexed item, or the exception that stopped
    it, to ``fd`` as an 8-byte length and a pickle of (index, ok, value).

    Every read returns one whole index: the parent writes each index as
    8 bytes, less than ``PIPE_BUF``, so each write lands whole and the pipe
    always holds a multiple of 8 bytes, and each read here asks for exactly
    8, unbuffered, so that a child holds no index beyond the one it works
    on.  A read of 1-7 bytes would break that, and the child then exits
    with status 1, which fails the map.  It leaves through ``os._exit``, so
    that nothing of the parent, such as its buffered output or its cleanup,
    runs here after the work."""
    import pickle

    status = 1
    try:
        for r in unused:
            os.close(r)
        with open(fd, "wb") as out:
            while len(index := os.read(tasks, 8)) == 8:
                i = int.from_bytes(index, "little")
                try:
                    ok, message = True, pickle.dumps((i, True, fn(items[i])), pickle.HIGHEST_PROTOCOL)
                except Exception as exc:
                    ok, message = False, pickle.dumps((i, False, exc), pickle.HIGHEST_PROTOCOL)
                out.write(len(message).to_bytes(8, "little"))
                out.write(message)
                out.flush()
                if not ok:
                    break
        status = 1 if 0 < len(index) < 8 else 0
    finally:
        os._exit(status)


def _exit_text(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    return f"killed by signal {-code}" if code < 0 else f"exit status {code}"


def partition_group(
    graphs: Iterable[Graph],
    ids: Sequence[str] | None = None,
    workers: int = 1,
    invariant_cache: Mapping[str, Mapping[str, bytes]] | None = None,
) -> PartitionReport:
    """Partition a group of graphs into not-yet-distinguished classes.

    Each of ``GROUP_STAGES`` in turn splits every class by exact encoding
    bytes.  The first stage runs on every graph, as every catalog record
    needs its key; each later one only on the classes still holding more
    than one graph.  ``invariant_cache`` optionally maps a graph id to
    precomputed {stage name: encoding} bytes, e.g. from a catalog; each
    graph's dict starts as a copy of its entry, and only what it lacks is
    computed.

    Before the first stage, ``copy_representatives`` splits the whole input,
    in dataset order, into groups of certified copies, and its time counts
    in the first stage's seconds.  The stages then partition the
    representatives.  At each stage a group's key is any member's cached
    key; otherwise it is computed for the representative, at the first
    stage always and later only when its class holds another
    representative.  Every member of the group then takes that bytes
    object.  A class of one representative and no member with the key gets
    no key at that stage and stays one class: every member holds a
    verified certificate onto the representative.  Neither the coarse
    partition nor the final one depends on certification: encodings are
    isomorphism invariants.

    The report gives back each graph's whole dict and a (stage, computed,
    certified, cached, seconds) row per stage, so a caller can store exactly
    the dicts that grew.  When ``workers`` > 1, each stage maps its graphs
    through ``Pool.map``, which forks workers only once the stage's map has
    run for ``FORK_AFTER_S``; classes are split over sorted encodings, so
    the result does not depend on the worker count or on where an encoding
    was computed.
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
    partitions, rows = [], []
    with Pool(workers) as pool:
        start = time.perf_counter()
        groups: dict[int, list[int]] = {}  # representative -> the graphs certified onto it
        for i, r in enumerate(copy_representatives(graphs)):
            groups.setdefault(r, []).append(i)
        classes = [list(groups)]  # classes of representatives, each in dataset order
        for stage in GROUP_STAGES:
            first = stage == GROUP_STAGES[0]
            keys: dict[int, bytes] = {}  # representative -> its group's key
            pending: list[int] = []
            ran = cached = 0
            for members in classes:
                size = sum(len(groups[r]) for r in members)
                if size == 1 and not first:
                    continue
                ran += size
                for r in members:
                    held = [encodings[i][stage] for i in groups[r] if stage in encodings[i]]
                    cached += len(held)
                    if held:
                        keys[r] = held[0]
                    elif first or len(members) > 1:
                        pending.append(r)
            for r, key in zip(pending, pool.map(_stage_encoding, [(stage, graphs[r]) for r in pending])):
                keys[r] = distinct.setdefault(key, key)
            for r, key in keys.items():
                for i in groups[r]:
                    encodings[i].setdefault(stage, key)
            split = []
            for members in classes:
                sub = defaultdict(list)  # a class of one representative may have no key
                for r in members:
                    sub[keys.get(r)].append(r)
                split += (sub[key] for key in sorted(sub))
            classes = split
            partitions.append(tuple(tuple(ids[i] for i in sorted(i for r in members for i in groups[r]))
                                    for members in classes))
            rows.append((stage, len(pending), ran - len(pending) - cached, cached, time.perf_counter() - start))
            start = time.perf_counter()

    return PartitionReport(
        ids=ids,
        coarse_classes=partitions[0],
        final_classes=partitions[-1],
        encodings=tuple(encodings),
        stages=tuple(rows),
    )
