import copy
import errno
import os
import pickle
import random
import signal
import time
from collections import defaultdict
from itertools import combinations, permutations

import pytest

from walkgi import (
    STAGES,
    CertificateError,
    DetProfile,
    WalkSignature,
    build_graph,
    default_m,
    determinant,
    distinguish_pair,
    find_isomorphism,
    is_isomorphism,
    lc_determinant_profile,
    lc_walk_signature,
    local_complement,
    parse_graph6,
    partition_group,
    walk_signature,
)
import walkgi.graph as graph_module
from walkgi.graph import COPY_SEARCH_FAILURES, _verify_certificate, copy_representatives
from walkgi.isotest import GROUP_STAGES, Pool, _serve, _stage_encoding
from fixture_graphs import (
    cayley_table,
    chang_graphs,
    complete,
    cycle,
    disjoint_union,
    latin_square_graph,
    order_8_group_tables,
    path,
    petersen,
    reduced_latin_squares,
    rook,
    shrikhande,
    star,
    triangular,
)
from oracles import (
    dense_upper_powers,
    dense_walk_signature,
    edge_pairs,
    edge_swapped,
    exhaustive_isomorphic,
    has_edge,
    networkx_isomorphic,
    random_graph,
    random_permutation,
    relabeled,
)


def test_stage_order():
    assert STAGES == (
        "vertex-count",
        "edge-count",
        "degree-sequence",
        "determinant",
        "walk-signature",
        "lc-det-profile",
        "lc-walk-signature",
    )


def test_distinguish_vertex_count():
    assert distinguish_pair(complete(3), complete(4)) == "vertex-count"


def test_distinguish_edge_count():
    # K3 and P3 differ already in edge count (3 vs 2)
    assert distinguish_pair(complete(3), path(3)) == "edge-count"


def test_distinguish_degree_sequence():
    # same n and edge count, different degree sequences
    assert distinguish_pair(star(3), path(4)) == "degree-sequence"


def test_distinguish_determinant():
    # C6 vs two triangles: both 2-regular on 6 vertices, det -4 vs 4
    a, b = cycle(6), disjoint_union(complete(3), complete(3))
    assert determinant(a) != determinant(b)
    assert distinguish_pair(a, b) == "determinant"


def test_distinguish_walk_signature():
    # C8 vs C4+C4: 2-regular on 8 vertices, determinants both 0
    a, b = cycle(8), disjoint_union(cycle(4), cycle(4))
    assert determinant(a) == determinant(b) == 0
    assert distinguish_pair(a, b) == "walk-signature"


def test_distinguish_lc_det_profile():
    # the two SRG(16,6,2,2): equal walk signatures, split by profiles
    a, b = rook(4), shrikhande()
    assert default_m(a) == default_m(b)
    assert walk_signature(a) == walk_signature(b)
    assert distinguish_pair(a, b) == "lc-det-profile"
    # the final stage would separate them as well
    assert lc_walk_signature(a).encode() != lc_walk_signature(b).encode()


def test_distinguish_lc_walk_signature(monkeypatch):
    # no known pair survives the profile, so pin it to reach the final stage
    monkeypatch.setattr("walkgi.isotest.lc_determinant_profile", lambda G: DetProfile((0,)))
    a, b = rook(4), shrikhande()
    assert distinguish_pair(a, b) == "lc-walk-signature"
    copy = relabeled(a, random_permutation(random.Random(63), a.n))
    assert distinguish_pair(a, copy) is None


def test_distinguish_isomorphic_is_notdistinguished():
    rng = random.Random(61)
    for _ in range(40):
        G = random_graph(rng, rng.randint(1, 8))
        H = relabeled(G, random_permutation(rng, G.n))
        assert distinguish_pair(G, H) is None


def test_distinguished_implies_nonisomorphic():
    # every verdict is None or the name of a stage, and a name is sound
    rng = random.Random(62)
    checked = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        G = random_graph(rng, n)
        H = random_graph(rng, n)
        stage = distinguish_pair(G, H)
        assert stage is None or stage in STAGES
        if stage is not None:
            assert exhaustive_isomorphic(G, H) is None
            checked += 1
    assert checked > 100


def test_determinant_stage_subsumed_by_walk_signature():
    # whenever determinants differ, the walk signature differs too
    rng = random.Random(63)
    hits = 0
    for _ in range(400):
        n = rng.randint(2, 8)
        G = random_graph(rng, n)
        H = random_graph(rng, n)
        if determinant(G) != determinant(H):
            m = max(default_m(G), default_m(H))
            assert dense_walk_signature(G, m) != dense_walk_signature(H, m)
            hits += 1
    assert hits > 50


def test_differing_horizons_imply_differing_walk_signatures():
    # distinguish_pair stops at walk-signature when m_G != m_H; the
    # signatures at the common horizon max(m_G, m_H) must differ as well
    rng = random.Random(64)
    families = [[random_graph(rng, n), random_graph(rng, n)]
                for n in (rng.randint(2, 9) for _ in range(300))]
    families += [[local_complement(G, u) for G in group for u in range(G.n)]
                 for group in ((triangular(8), *chang_graphs()), (rook(4), shrikhande()))]
    hits = 0
    for graphs in families:
        horizons = [default_m(G) for G in graphs]
        # dense powers up to the family's largest horizon, one product each
        powers = [dense_upper_powers(G, max(horizons)) for G in graphs]
        signatures = {}

        def signature(i, m):
            if (i, m) not in signatures:
                signatures[i, m] = WalkSignature.from_powers(powers[i][:m])
            return signatures[i, m]

        for i, j in combinations(range(len(graphs)), 2):
            if horizons[i] != horizons[j]:
                m = max(horizons[i], horizons[j])
                assert signature(i, m) != signature(j, m)
                hits += 1
    assert hits > 4000


def test_partition_single_graph():
    report = partition_group([petersen()], ids=["pete"])
    assert report.coarse_classes == (("pete",),)
    assert report.final_classes == (("pete",),)
    assert report.all_singletons()


def test_partition_srg_16_group():
    report = partition_group([rook(4), shrikhande()], ids=["rook", "shrik"])
    assert report.all_singletons()
    assert len(report.coarse_classes) == 2


def test_partition_groups_isomorphic_copies():
    rng = random.Random(64)
    G = petersen()
    H = relabeled(G, random_permutation(rng, 10))
    K = relabeled(G, random_permutation(rng, 10))
    report = partition_group([G, H, K, cycle(10)], ids=list("abcd"))
    assert set(report.final_classes) == {("a", "b", "c"), ("d",)}
    assert report.multi_member_final() == (("a", "b", "c"),)
    assert not report.all_singletons()
    assert report.final_size_counts() == {3: 1, 1: 1}
    assert report.coarse_size_counts() == {3: 1, 1: 1}
    assert sum(len(c) for c in report.coarse_classes if len(c) > 1) == 3


def test_partition_default_ids():
    report = partition_group([complete(3), path(3)])
    assert set(report.ids) == {"0", "1"}


def test_records_copy_and_pickle_by_value_and_refuse_assignment():
    report = partition_group([rook(4), shrikhande(), rook(4)], ids=list("abc"))
    values = [petersen(), lc_walk_signature(cycle(5)), report]
    for value in values:
        for twin in (copy.copy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and repr(twin) == repr(value)
            # a report's encodings are dicts, so it has no hash
            assert value is report or hash(twin) == hash(value)
        field = value._fields[0] if isinstance(value, tuple) else type(value).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert petersen() != petersen().rows


def test_partition_id_count_mismatch():
    with pytest.raises(ValueError):
        partition_group([complete(3)], ids=["a", "b"])


def test_partition_mixed_n_warns_and_separates():
    with pytest.warns(UserWarning):
        report = partition_group([complete(3), complete(4)], ids=["a", "b"])
    assert report.all_singletons()


@pytest.mark.usefixtures("forking")
def test_partition_worker_count_does_not_change_result():
    rng = random.Random(65)
    graphs = [random_graph(rng, 7) for _ in range(12)]
    graphs += [relabeled(graphs[0], random_permutation(rng, 7))]
    ids = [f"g{i}" for i in range(len(graphs))]
    serial = partition_group(graphs, ids=ids, workers=1)
    parallel = partition_group(graphs, ids=ids, workers=3)
    assert serial.coarse_classes == parallel.coarse_classes
    assert serial.final_classes == parallel.final_classes


def _count_forks(monkeypatch):
    """The ``os.fork`` calls of this process from now on, one entry each."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


@pytest.mark.usefixtures("forking")
def test_partition_forks_workers_for_each_stage_with_items_to_hand_out(monkeypatch):
    forks = _count_forks(monkeypatch)
    rng = random.Random(67)
    graphs = [rook(4), shrikhande(), relabeled(rook(4), random_permutation(rng, 16))]
    report = partition_group(graphs, ids=list("abc"), workers=2)
    assert [row[:4] for row in report.stages] == [("lc-det-profile", 2, 1, 0), ("lc-walk-signature", 0, 2, 0)]
    assert report.final_classes == (("b",), ("a", "c"))
    # c is a's certified copy, so it takes a's profile, two workers compute
    # the other 2, and their class settles: nothing is walked
    assert len(forks) == 2
    # a serial run, or a run with nothing to hand out, forks none
    partition_group(graphs, ids=list("abc"), workers=1)
    partition_group(graphs[:1], ids=["a"], workers=2)
    assert len(forks) == 2
    # with a copy of b and no certificates, the walks of all four fork two
    # workers of their own
    graphs.append(relabeled(shrikhande(), random_permutation(rng, 16)))
    monkeypatch.setattr("walkgi.graph._certificate", lambda *args: None)
    report = partition_group(graphs, ids=list("abcd"), workers=2)
    assert [row[:4] for row in report.stages] == [("lc-det-profile", 4, 0, 0), ("lc-walk-signature", 4, 0, 0)]
    assert report.final_classes == (("b", "d"), ("a", "c"))
    assert len(forks) == 6


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _square(x):
    return x * x


def _fail_at_5(x):
    if x == 5:
        raise KeyError(f"item {x}")
    return x


@pytest.mark.usefixtures("forking")
@pytest.mark.parametrize("workers, count", [(2, 7), (3, 10), (3, 2), (5, 4)])
def test_pool_yields_results_in_item_order(monkeypatch, workers, count):
    forks = _count_forks(monkeypatch)
    with Pool(workers) as pool:
        results = pool.map(_square, list(range(count)))
        assert [next(results) for _ in range(count)] == [x * x for x in range(count)]
        # more workers than items fork one child per item
        assert len(forks) == min(workers, count)
        # every child is reaped by the last result, as callers that zip the
        # results with their items never ask for more
        assert _no_child_left()


@pytest.mark.usefixtures("forking")
def test_pool_raises_a_childs_exception_in_the_parent():
    with Pool(3) as pool:
        results = pool.map(_fail_at_5, list(range(10)))
        assert [next(results) for _ in range(5)] == [0, 1, 2, 3, 4]
        with pytest.raises(KeyError, match="item 5"):
            next(results)
        assert _no_child_left()


@pytest.mark.usefixtures("forking")
def test_pool_leaves_no_child_when_a_map_is_closed_early_or_left_open():
    with Pool(2) as pool:
        results = pool.map(_square, list(range(10)))
        assert next(results) == 0
        results.close()
        assert _no_child_left()
    with Pool(2) as pool:
        results = pool.map(_square, list(range(10)))
        assert next(results) == 0
        unstarted = pool.map(_square, list(range(10)))
    assert _no_child_left()
    assert list(results) == [] and list(unstarted) == []


def _kill_at_3(x):
    if x == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


@pytest.mark.usefixtures("forking")
def test_pool_names_the_signal_that_killed_a_worker():
    with Pool(2) as pool:
        with pytest.raises(ChildProcessError, match=r"a worker process died \(killed by signal 9\)"):
            list(pool.map(_kill_at_3, list(range(6))))
    assert _no_child_left()


def _kill_at_2_and_3(x):
    if x in (2, 3):
        os.kill(os.getpid(), signal.SIGKILL)
    return x


@pytest.mark.usefixtures("forking")
def test_pool_names_the_signal_when_every_worker_died_before_the_next_index(monkeypatch):
    # items 2 and 3 each kill the child that takes them; index 4, handed out
    # on the first result, is written only once both children are dead, so it
    # meets a task pipe with no reader, and that must not hide how they died
    if not (os.path.isdir("/proc/self/fd") and hasattr(os, "waitid")):
        pytest.skip("no /proc/self/fd to list open descriptors, or no os.waitid")
    pids = []
    fork, write = os.fork, os.write

    def fork_and_note():
        pid = fork()
        pids.append(pid)
        return pid

    def write_once_both_died(fd, data):
        if data == (4).to_bytes(8, "little"):
            for pid in pids:  # wait for each to exit, and leave it to be reaped
                os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        return write(fd, data)

    monkeypatch.setattr(os, "fork", fork_and_note)
    monkeypatch.setattr(os, "write", write_once_both_died)
    before = _open_fds()
    with Pool(2) as pool:
        with pytest.raises(ChildProcessError, match="killed by signal 9"):
            list(pool.map(_kill_at_2_and_3, list(range(6))))
    assert len(pids) == 2
    assert _no_child_left()
    assert _open_fds() == before


def _pid(x):
    return x, os.getpid()


@pytest.mark.usefixtures("forking")
def test_pool_names_the_signal_that_killed_a_worker_holding_no_index():
    # while the map waits for its next call, both children answer every
    # index they took and wait on the task pipe; one killed there held no
    # index, and the map still fails, naming the signal
    with Pool(2) as pool:
        results = pool.map(_pid, list(range(100)))
        x, pid = next(results)
        assert x == 0 and pid != os.getpid()
        time.sleep(0.2)
        os.kill(pid, signal.SIGKILL)
        with pytest.raises(ChildProcessError, match=r"a worker process died \(killed by signal 9\)"):
            list(results)
    assert _no_child_left()


@pytest.mark.usefixtures("forking")
def test_pool_worker_exits_with_status_1_on_a_torn_index():
    tasks, write_end = os.pipe()
    r, w = os.pipe()
    os.write(write_end, bytes(3))
    os.close(write_end)
    pid = os.fork()
    if pid == 0:  # never returns
        _serve(_square, [0], tasks, w, [r])
    os.close(tasks)
    os.close(w)
    try:
        assert os.read(r, 1) == b""
    finally:
        os.close(r)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 1


def _large(x):
    return bytes(range(256)) * (1024 * x)  # x * 256 KiB, beyond a 64 KiB pipe buffer


@pytest.mark.usefixtures("forking")
def test_pool_round_trips_a_result_larger_than_a_pipe_buffer():
    with Pool(2) as pool:
        assert list(pool.map(_large, [1, 2, 3])) == [_large(1), _large(2), _large(3)]


def _pid_after_slow_0(x):
    if x == 0:
        time.sleep(0.5)
    return x, os.getpid()


@pytest.mark.usefixtures("forking")
def test_pool_hands_a_slow_childs_share_to_the_others():
    # a child takes one index at a time from the shared task pipe: item 0's
    # child holds only index 0, and the other child takes everything after it
    with Pool(2) as pool:
        results = list(pool.map(_pid_after_slow_0, list(range(12))))
    assert [x for x, _ in results] == list(range(12))
    slow = results[0][1]
    assert sum(pid == slow for _, pid in results) <= 2


def _open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.usefixtures("forking")
def test_pool_leaves_no_pipe_end_open_however_a_map_ends():
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to list open descriptors")
    before = _open_fds()
    with Pool(3) as pool:
        assert list(pool.map(_square, list(range(10)))) == [x * x for x in range(10)]
    assert _open_fds() == before
    with Pool(3) as pool:
        results = pool.map(_square, list(range(10)))
        assert next(results) == 0
        results.close()
    assert _open_fds() == before
    with Pool(3) as pool:
        with pytest.raises(KeyError, match="item 5"):
            list(pool.map(_fail_at_5, list(range(10))))
    assert _open_fds() == before
    with Pool(3) as pool:
        with pytest.raises(ChildProcessError, match="killed by signal 9"):
            list(pool.map(_kill_at_3, list(range(10))))
    assert _open_fds() == before
    assert _no_child_left()


@pytest.mark.usefixtures("forking")
def test_pool_raises_a_failed_fork_and_leaves_nothing_behind(monkeypatch):
    # the second fork fails, as when the system runs out of processes: the
    # error reaches the caller, and the child forked first is killed and reaped
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to list open descriptors")
    forks = []
    fork = os.fork

    def fork_once():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    before = _open_fds()
    with Pool(2) as pool:
        with pytest.raises(BlockingIOError):
            list(pool.map(_square, list(range(10))))
    assert len(forks) == 2
    assert _no_child_left()
    assert _open_fds() == before


def test_pool_maps_cheap_items_in_process(monkeypatch):
    # the whole map takes far less than FORK_AFTER_S, so nothing forks
    forks = _count_forks(monkeypatch)
    with Pool(2) as pool:
        assert list(pool.map(_square, list(range(10)))) == [x * x for x in range(10)]
    assert forks == []


def test_pool_raises_an_exception_before_the_fork_at_its_index(monkeypatch):
    forks = _count_forks(monkeypatch)
    with Pool(3) as pool:
        results = pool.map(_fail_at_5, list(range(10)))
        assert [next(results) for _ in range(5)] == [0, 1, 2, 3, 4]
        with pytest.raises(KeyError, match="item 5"):
            next(results)
    assert forks == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool maps serially without os.fork")
@pytest.mark.parametrize("workers, count", [(2, 6), (3, 3), (2, 2)])
def test_pool_forks_for_the_items_left_once_a_map_runs_past_fork_after_s(monkeypatch, workers, count):
    # item 0 sleeps 0.5 s in this process, past FORK_AFTER_S, so the items
    # after it go to min(workers, count - 1) children; one item left is
    # computed here
    monkeypatch.setattr("walkgi.isotest.FORK_AFTER_S", 0.25)
    forks = _count_forks(monkeypatch)
    with Pool(workers) as pool:
        results = list(pool.map(_pid_after_slow_0, list(range(count))))
    assert [x for x, _ in results] == list(range(count))
    left = count - 1
    assert len(forks) == (min(workers, left) if left > 1 else 0)
    here = [x for x, pid in results if pid == os.getpid()]
    assert here == ([0] if forks else list(range(count)))
    assert _no_child_left()


class _FakeClock:
    """A ``time`` module whose ``perf_counter`` moves only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool maps serially without os.fork")
def test_pool_forks_no_tail_too_short_to_pay_for_the_fork(monkeypatch):
    # four 5 ms items run past FORK_AFTER_S; the two left would save one
    # mean item time, 5 ms, on two workers, less than FORK_AFTER_S, so
    # they are computed here too.  Each item advances a fake clock by
    # exactly 5 ms, so the decision does not hang on this machine's load.
    clock = _FakeClock()
    monkeypatch.setattr("walkgi.isotest.time", clock)
    monkeypatch.setattr("walkgi.isotest.FORK_AFTER_S", 0.018)
    forks = _count_forks(monkeypatch)

    def pid_after_5_ms(x):
        clock.now += 0.005
        return x, os.getpid()

    with Pool(2) as pool:
        results = list(pool.map(pid_after_5_ms, list(range(6))))
    assert results == [(x, os.getpid()) for x in range(6)]
    assert forks == []


def _classes(report):
    """A report's ids and its coarse and final classes."""
    return report.ids, report.coarse_classes, report.final_classes


@pytest.mark.usefixtures("forking")
def test_partition_of_singular_graphs_is_the_same_forked():
    # rook(4), Shrikhande and 6-regular graphs swapped from rook(4), as in
    # the catalog-reuse benchmark family: some are singular, so their
    # lc-det profiles take lc_determinants' singular branch in the children
    rng = random.Random(3)
    graphs = [relabeled(G, random_permutation(rng, 16)) for G in (rook(4), shrikhande()) for _ in range(2)]
    graphs += [edge_swapped(rook(4), 96, rng) for _ in range(16)]
    assert sum(determinant(G) == 0 for G in graphs) >= 2
    serial = partition_group(graphs, workers=1)
    forked = partition_group(graphs, workers=2)
    assert _classes(forked) == _classes(serial)
    assert forked.encodings == serial.encodings
    assert [row[:3] for row in forked.stages] == [row[:3] for row in serial.stages]


@pytest.mark.usefixtures("forking")
@pytest.mark.parametrize("workers", [1, 2])
def test_partition_keeps_one_bytes_object_per_distinct_encoding(monkeypatch, workers):
    # equal encodings are one object, whichever process computed them, so a
    # family of relabelled copies walked apart holds each lc-walk encoding
    # (T(8)'s is 1 MiB) once; the Chang graph is a coarse singleton beside
    # them.  With no certificates, the copies' class does not settle.
    monkeypatch.setattr("walkgi.graph._certificate", lambda *args: None)
    rng = random.Random(69)
    graphs = [relabeled(triangular(8), random_permutation(rng, 28)) for _ in range(2)]
    graphs.append(chang_graphs()[0])
    report = partition_group(graphs, workers=workers)
    assert sorted(report.final_classes) == [("0", "1"), ("2",)]
    for stage in GROUP_STAGES:
        assert report.encodings[0][stage] is report.encodings[1][stage]


def _count_walks(monkeypatch):
    """The graphs ``lc_walk_signature`` runs on in this process, in order."""
    walked = []

    def counting(G):
        walked.append(G)
        return lc_walk_signature(G)

    monkeypatch.setattr("walkgi.isotest.lc_walk_signature", counting)
    return walked


def _copies_of_t8_and_chang():
    # n tokens certify each of these copies onto the first of its class
    rng = random.Random(72)
    return [relabeled(G, random_permutation(rng, 28))
            for G in (triangular(8), chang_graphs()[0]) for _ in range(3)]


def test_partition_walks_no_class_that_certification_settles(monkeypatch):
    walked = _count_walks(monkeypatch)
    graphs = _copies_of_t8_and_chang()
    report = partition_group(graphs, workers=1)
    assert sorted(report.final_classes) == [("0", "1", "2"), ("3", "4", "5")]
    # every copy is certified onto the first member of its class before the
    # first stage, so only those two get a profile computed; both classes
    # settle: nothing is walked, no member gains an lc-walk encoding, and
    # all six count as certified
    assert walked == []
    assert all(set(enc) == {"lc-det-profile"} for enc in report.encodings)
    assert [row[:4] for row in report.stages] == [("lc-det-profile", 2, 4, 0), ("lc-walk-signature", 0, 6, 0)]


def test_partition_without_certificates_walks_every_member_to_the_same_report(monkeypatch):
    graphs = _copies_of_t8_and_chang()
    certified = partition_group(graphs, workers=1)
    walked = _count_walks(monkeypatch)
    monkeypatch.setattr("walkgi.graph._certificate", lambda *args: None)
    plain = partition_group(graphs, workers=1)
    assert len(walked) == 6
    assert _classes(plain) == _classes(certified)
    # the settled run holds no lc-walk keys; every key held in both is equal
    for walked_keys, certified_keys in zip(plain.encodings, certified.encodings):
        assert walked_keys.keys() >= certified_keys.keys()
        assert all(walked_keys[stage] == certified_keys[stage] for stage in certified_keys)
    assert [row[:4] for row in plain.stages] == [("lc-det-profile", 6, 0, 0), ("lc-walk-signature", 6, 0, 0)]


def test_partition_uses_invariant_cache():
    graphs = [rook(4), shrikhande(), rook(4)]
    ids = ["a", "b", "c"]
    full = {
        i: {"lc-det-profile": lc_determinant_profile(G).encode(),
            "lc-walk-signature": lc_walk_signature(G).encode()}
        for i, G in zip(ids, graphs)
    }
    profiles = tuple({"lc-det-profile": full[i]["lc-det-profile"]} for i in ids)
    # a run with no cache computes no lc-walk key: b is a singleton, and c
    # is a's certified copy, which takes a's profile, so their class settles
    plain = partition_group(graphs, ids=ids)
    assert [row[:4] for row in plain.stages] == [("lc-det-profile", 2, 1, 0), ("lc-walk-signature", 0, 2, 0)]
    assert all(row[4] >= 0 for row in plain.stages)
    assert plain.encodings == profiles
    # a holds only its profile, c nothing, and the singleton b an lc-walk
    # encoding the run does not need, which is not counted as cached; c
    # takes a's profile, and the class of a and c holds no lc-walk key, so
    # it settles
    partial = {"a": profiles[0], "b": full["b"]}
    # c, a's certified copy before the first stage, holds only an lc-walk
    # key: it is tried again as a holder, so the class does not settle, and
    # a takes c's bytes
    walk_only = {"c": {"lc-walk-signature": full["c"]["lc-walk-signature"]}}
    # a holds both keys: the class does not settle, and c takes a's bytes
    held = {"a": full["a"]}
    for cache, counts, encodings in (
        (full, [("lc-det-profile", 0, 0, 3), ("lc-walk-signature", 0, 0, 2)], (full["a"], full["b"], full["c"])),
        (partial, [("lc-det-profile", 0, 1, 2), ("lc-walk-signature", 0, 2, 0)], (profiles[0], full["b"], profiles[2])),
        (walk_only, [("lc-det-profile", 2, 1, 0), ("lc-walk-signature", 0, 1, 1)], (full["a"], profiles[1], full["c"])),
        (held, [("lc-det-profile", 1, 1, 1), ("lc-walk-signature", 0, 1, 1)], (full["a"], profiles[1], full["c"])),
    ):
        cached = partition_group(graphs, ids=ids, invariant_cache=cache)
        assert plain.coarse_classes == cached.coarse_classes
        assert plain.final_classes == cached.final_classes
        assert cached.final_classes == (("b",), ("a", "c"))
        assert [row[:4] for row in cached.stages] == counts
        # each graph's dict is its cache entry plus what the run added
        assert cached.encodings == encodings
    assert cached.encodings[2]["lc-walk-signature"] is full["a"]["lc-walk-signature"]
    # the cache's own dicts are copied, never filled in
    assert partial["a"] == {"lc-det-profile": full["a"]["lc-det-profile"]}


@pytest.mark.parametrize("bases", [(triangular(8), *chang_graphs()), (rook(4), shrikhande())])
def test_partition_takes_a_group_key_from_any_member_that_holds_it(monkeypatch, bases):
    # relabelled copies, each with a cache entry of one of four shapes drawn
    # from its true encodings.  Every fourth graph gets no certificate, so
    # some classes hold two representatives.  A key that any member of a
    # group of certified copies holds goes to the whole group, so no group
    # in which a member holds an lc-walk key is walked
    rng = random.Random(74)
    graphs = [relabeled(G, random_permutation(rng, G.n)) for G in bases for _ in range(3)]
    rng.shuffle(graphs)
    true = [{stage: _stage_encoding((stage, G)) for stage in GROUP_STAGES} for G in graphs]
    apart = set(map(id, graphs[::4]))
    certificate = graph_module._certificate
    monkeypatch.setattr(graph_module, "_certificate",
                        lambda G, path, H, *args: None if id(H) in apart else certificate(G, path, H, *args))
    plain = partition_group(graphs, workers=1)
    representative = copy_representatives(graphs)
    assert len(set(representative)) > len(bases)
    walked = _count_walks(monkeypatch)
    walks = 0
    for _ in range(6):
        shapes = [rng.choice([(), ("lc-det-profile",), ("lc-walk-signature",), GROUP_STAGES]) for _ in graphs]
        cache = {str(i): {stage: true[i][stage] for stage in shape} for i, shape in enumerate(shapes)}
        walked.clear()
        cached = partition_group(graphs, workers=1, invariant_cache=cache)
        assert _classes(cached) == _classes(plain)
        for i, enc in enumerate(cached.encodings):
            assert enc.items() >= cache[str(i)].items()
            assert all(enc[stage] == true[i][stage] for stage in enc)
        holders = {representative[i] for i, shape in enumerate(shapes) if "lc-walk-signature" in shape}
        assert all("lc-walk-signature" in enc for i, enc in enumerate(cached.encodings) if representative[i] in holders)
        indices = [next(i for i, G in enumerate(graphs) if G is H) for H in walked]
        assert not holders & set(indices)
        assert cached.stages[1][1] == len(walked)
        walks += len(walked)
    assert walks > 0


def test_partition_rerun_on_its_own_encodings_computes_nothing():
    # certification runs in dataset order, so a rerun finds the same groups,
    # and each holds the keys the first run gave it
    graphs = [latin_square_graph(square) for square in reduced_latin_squares(6)[:200]]
    cold = partition_group(graphs, workers=1)
    warm = partition_group(graphs, workers=1, invariant_cache=dict(zip(cold.ids, cold.encodings)))
    assert [row[1] for row in warm.stages] == [0, 0]
    assert _classes(warm) == _classes(cold)
    assert warm.encodings == cold.encodings


def _z8_q8_copies():
    rng = random.Random(8)
    tables = order_8_group_tables()
    z8, q8 = latin_square_graph(tables["Z8"]), latin_square_graph(tables["Q8"])
    return [z8, relabeled(z8, random_permutation(rng, 64)), q8, relabeled(q8, random_permutation(rng, 64))]


def test_partition_settles_no_class_with_two_representatives(monkeypatch):
    # Z8 and Q8 share their lc-det profile but are not isomorphic: no search
    # certifies Q8 onto Z8, so their class keeps two representatives or
    # more, does not settle, and splits at lc-walk-signature
    walked = _count_walks(monkeypatch)
    graphs = _z8_q8_copies()
    report = partition_group(graphs, ids=["Z8", "Z8'", "Q8", "Q8'"])
    assert report.coarse_classes == (("Z8", "Z8'", "Q8", "Q8'"),)
    assert sorted(report.final_classes) == [("Q8", "Q8'"), ("Z8", "Z8'")]
    assert any(G is graphs[0] for G in walked) and any(G is graphs[2] for G in walked)
    (stage, computed, certified, cached, _), = report.stages[1:]
    assert (stage, computed + certified, cached) == ("lc-walk-signature", 4, 0)
    assert computed == len(walked) >= 2
    assert all("lc-walk-signature" in enc for enc in report.encodings)


def _count_profiles(monkeypatch):
    """The graphs ``lc_determinant_profile`` runs on in this process, in order."""
    profiled = []

    def counting(G):
        profiled.append(G)
        return lc_determinant_profile(G)

    monkeypatch.setattr("walkgi.isotest.lc_determinant_profile", counting)
    return profiled


def test_partition_profiles_only_the_representatives_of_the_lc_refine_family(monkeypatch):
    # T(8) and the three Chang graphs, two relabellings each, as in the
    # lc-refine benchmark family: one copy of each pair is certified before
    # the first stage and takes the other's profile
    rng = random.Random(1)
    graphs = [relabeled(G, random_permutation(rng, 28)) for G in (triangular(8), *chang_graphs()) for _ in range(2)]
    rng.shuffle(graphs)
    profiled = _count_profiles(monkeypatch)
    report = partition_group(graphs, workers=1)
    assert len(profiled) == 4
    assert [row[:4] for row in report.stages] == [("lc-det-profile", 4, 4, 0), ("lc-walk-signature", 0, 8, 0)]
    profiled.clear()
    monkeypatch.setattr("walkgi.graph._certificate", lambda *args: None)
    plain = partition_group(graphs, workers=1)
    assert len(profiled) == 8
    assert _classes(plain) == _classes(report)
    assert [enc["lc-det-profile"] for enc in plain.encodings] == [enc["lc-det-profile"] for enc in report.encodings]


def test_partition_certifies_most_reduced_order_6_squares_before_the_first_stage(monkeypatch):
    # the first reduced squares 1 and 2 are one class that n tokens do not
    # certify: stopping at the first failure, as a rule of one failure per
    # certificate did, certifies nothing; the allowance certifies most
    squares = reduced_latin_squares(6)[:60]
    graphs = [latin_square_graph(square) for square in squares]
    report = partition_group(graphs, workers=1)
    (_, computed, certified, cached, _), _ = report.stages
    assert computed + certified == 60 and cached == 0
    assert certified > 30
    monkeypatch.setattr("walkgi.graph.COPY_SEARCH_FAILURES", 0)
    stopped = partition_group(graphs, workers=1)
    assert stopped.stages[0][:4] == ("lc-det-profile", 60, 0, 0)
    assert _classes(stopped) == _classes(report)


def test_partition_settles_only_on_verified_certificates(monkeypatch):
    # a search that returns a map which is no isomorphism raises
    # CertificateError instead of settling the class
    rng = random.Random(73)
    graphs = [rook(4), relabeled(rook(4), random_permutation(rng, 16))]
    assert not is_isomorphism(graphs[0], graphs[1], list(range(16)))
    monkeypatch.setattr("walkgi.graph._search", lambda G, *args: list(range(G.n)))
    with pytest.raises(CertificateError):
        partition_group(graphs)


def test_pair_and_group_read_one_stage_table():
    # graphs in different final classes are distinguished pairwise, and each
    # relabelled copy shares its original's final class and pair verdict
    rng = random.Random(68)
    bases = {"rook4": rook(4), "T8": triangular(8)}
    named = dict(bases)
    for name, G in bases.items():
        for k in range(2):
            named[f"{name}-copy{k}"] = relabeled(G, random_permutation(rng, G.n))
    named["shrikhande"] = shrikhande()
    named.update((f"chang{k}", G) for k, G in enumerate(chang_graphs()))
    for name, G in bases.items():
        named.update((f"{name}-swap{k}", edge_swapped(G, 2 * G.n, rng)) for k in range(2))
    ids = list(named)
    with pytest.warns(UserWarning):  # rook(4) and T(8) differ in order
        report = partition_group(named.values(), ids=ids)
    assert len(report.final_classes) == 10  # the copies join their originals, all else splits
    final = {i: members for members in report.final_classes for i in members}
    for a, b in combinations(ids, 2):
        if final[a] != final[b]:
            assert distinguish_pair(named[a], named[b]) is not None, (a, b)
    for name in ids:
        base = name.split("-copy")[0]
        if base != name:
            assert final[name] == final[base]
            assert distinguish_pair(named[base], named[name]) is None


def _check_oracle(G, H, isomorphic):
    f = find_isomorphism(G, H)
    assert (f is not None) == isomorphic
    if f is not None:
        assert sorted(f) == list(range(G.n))
        assert all(has_edge(H, f[u], f[v]) for u, v in edge_pairs(G))


def test_find_isomorphism_agrees_with_exhaustive():
    """``find_isomorphism`` against the permutation-by-permutation oracle."""
    rng = random.Random(66)
    for _ in range(150):
        n = rng.randint(1, 6)
        if rng.random() < 0.5:
            G = random_graph(rng, n)
            H = relabeled(G, random_permutation(rng, n))
        else:
            G = random_graph(rng, n)
            H = random_graph(rng, n)
        _check_oracle(G, H, exhaustive_isomorphic(G, H) is not None)


def test_find_isomorphism_certificate_is_checked_mapping():
    """A certificate of ``find_isomorphism`` maps G's edges onto H's."""
    G = petersen()
    rng = random.Random(67)
    H = relabeled(G, random_permutation(rng, 10))
    cert = find_isomorphism(G, H)
    assert cert is not None
    for u, v in edge_pairs(G):
        assert has_edge(H, cert[u], cert[v])
    assert sorted(cert) == list(range(10))


def test_find_isomorphism_vertex_count_mismatch():
    assert find_isomorphism(complete(3), complete(4)) is None


def test_find_isomorphism_respects_cap():
    """The oracle has no vertex cap: n = 13 and the two SRG(16,6,2,2) are
    decided."""
    _check_oracle(complete(13), complete(13), True)
    _check_oracle(rook(4), shrikhande(), False)


def test_find_isomorphism_nonisomorphic_same_degrees():
    a, b = cycle(6), disjoint_union(complete(3), complete(3))
    assert find_isomorphism(a, b) is None


def test_find_isomorphism_matches_networkx_on_random_regular_graphs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(68)
    isomorphic = 0
    for _ in range(60):
        n = rng.randint(9, 28)
        d = rng.choice([k for k in range(3, 8) if n * k % 2 == 0])

        def regular():
            X = nx.random_regular_graph(d, n, seed=rng.randrange(2**32))
            return build_graph(n, X.edges())

        G = regular()
        H = relabeled(G, random_permutation(rng, n)) if rng.random() < 0.5 else regular()
        want = networkx_isomorphic(G, H)
        isomorphic += want
        _check_oracle(G, H, want)
    assert 20 < isomorphic < 40


def test_find_isomorphism_matches_networkx_on_srg_fixtures():
    pytest.importorskip("networkx")
    rng = random.Random(69)
    srgs = [rook(4), shrikhande(), triangular(8), *chang_graphs()]
    for i, G in enumerate(srgs):
        for H in srgs[i:]:
            if G.n == H.n:
                H = relabeled(H, random_permutation(rng, H.n))
                _check_oracle(G, H, networkx_isomorphic(G, H))


def test_find_isomorphism_on_latin_square_graphs_of_z6_and_s3():
    """SRG(36,15,6,6) from two non-isotopic groups of order 6."""
    rng = random.Random(70)
    z6 = latin_square_graph(cayley_table(range(6), lambda a, b: (a + b) % 6))
    s3 = latin_square_graph(cayley_table(
        list(permutations(range(3))), lambda a, b: tuple(a[i] for i in b)))
    _check_oracle(z6, s3, False)
    for G in (z6, s3):
        _check_oracle(G, relabeled(G, random_permutation(rng, 36)), True)


def test_reduced_latin_squares_of_order_5_give_their_two_main_classes():
    """All 56 reduced Latin squares of order 5 fall into 2 main classes, so
    their graphs, SRG(25,12,5,6), form 2 isomorphism classes: the method
    splits exactly those, and the oracle certifies every class."""
    graphs = [latin_square_graph(square) for square in reduced_latin_squares(5)]
    assert len(graphs) == 56
    report = partition_group(graphs)
    assert sorted(map(len, report.final_classes)) == [6, 50]
    for members in report.final_classes:
        first = graphs[int(members[0])]
        for i in members[1:]:
            assert find_isomorphism(first, graphs[int(i)]) is not None, i
    a, b = (graphs[int(members[0])] for members in report.final_classes)
    assert distinguish_pair(a, b) == "lc-det-profile"


# the first reduced square of order 6, in lexicographic order, of each of the
# 12 main classes, and the class sizes among the 9408 reduced squares
ORDER_6_CLASS_FIRSTS = [0, 1, 4, 5, 33, 34, 38, 40, 51, 52, 237, 1745]
ORDER_6_CLASS_SIZES = [20, 40, 60, 108, 180, 360, 540, 1080, 1080, 1080, 1620, 3240]


def test_one_square_per_main_class_of_order_6_gives_12_classes():
    """SRG(36,15,6,6) from one reduced square per main class, each beside a
    relabelled copy: the method splits the 12 classes and nothing more."""
    rng = random.Random(6)
    squares = reduced_latin_squares(6)
    assert len(squares) == 9408
    graphs, ids = [], []
    for i in ORDER_6_CLASS_FIRSTS:
        G = latin_square_graph(squares[i])
        graphs += [G, relabeled(G, random_permutation(rng, 36))]
        ids += [f"{i}", f"{i}'"]
    report = partition_group(graphs, ids=ids)
    assert sorted(report.final_classes) == sorted((f"{i}", f"{i}'") for i in ORDER_6_CLASS_FIRSTS)


def test_partition_searches_one_square_per_order_6_main_class_within_the_allowance(monkeypatch):
    # a census-like input, one graph per isomorphism class: K4 profiles keep
    # most of them apart, and the failed searches stay within the allowance
    squares = reduced_latin_squares(6)
    graphs = [latin_square_graph(squares[i]) for i in ORDER_6_CLASS_FIRSTS]
    certificate = graph_module._certificate
    searches = []
    monkeypatch.setattr(graph_module, "_certificate", lambda *args: searches.append(args) or certificate(*args))
    report = partition_group(graphs, workers=1)
    assert report.all_singletons()
    assert 0 < len(searches) <= COPY_SEARCH_FAILURES


def _profile_encoding(G):
    return lc_determinant_profile(G).encode()


@pytest.mark.slow
def test_reduced_latin_squares_of_order_6_give_their_12_main_classes():
    """The lc-det-profile alone splits all 9408 reduced squares of order 6
    into exactly their 12 main classes."""
    squares = reduced_latin_squares(6)
    classes = defaultdict(list)
    with Pool(2) as pool:
        for i, enc in enumerate(pool.map(_profile_encoding, [latin_square_graph(sq) for sq in squares])):
            classes[enc].append(i)
    assert sorted(members[0] for members in classes.values()) == ORDER_6_CLASS_FIRSTS
    assert sorted(map(len, classes.values())) == ORDER_6_CLASS_SIZES


def test_order_8_group_tables_are_the_five_groups():
    """Each table is associative with identity 0, and the element orders
    tell the five groups apart."""
    orders = {}
    for name, t in order_8_group_tables().items():
        elements = range(8)
        assert all(t[0][x] == t[x][0] == x for x in elements)
        assert all(t[t[a][b]][c] == t[a][t[b][c]] for a in elements for b in elements for c in elements)
        powers = [[x] for x in elements]
        for x in elements:
            while powers[x][-1] != 0:
                powers[x].append(t[powers[x][-1]][x])
        orders[name] = sorted(map(len, powers))
    assert orders == {
        "Z8": [1, 2, 4, 4, 8, 8, 8, 8],
        "Z4xZ2": [1, 2, 2, 2, 4, 4, 4, 4],
        "Z2^3": [1, 2, 2, 2, 2, 2, 2, 2],
        "D4": [1, 2, 2, 2, 2, 2, 4, 4],
        "Q8": [1, 2, 4, 4, 4, 4, 4, 4],
    }


def test_latin_square_graphs_of_the_groups_of_order_8(monkeypatch):
    """SRG(64,21,8,6) from the five groups of order 8, each beside a
    relabelled copy.  The paper's claim holds: five final classes.  Z8 and
    Q8 share their lc-det profile, and only the lc-walk signature splits
    them."""
    rng = random.Random(8)
    graphs, ids = [], []
    for name, table in order_8_group_tables().items():
        G = latin_square_graph(table)
        graphs += [G, relabeled(G, random_permutation(rng, 64))]
        ids += [name, f"{name}'"]
    walked = _count_walks(monkeypatch)
    report = partition_group(graphs, ids=ids)
    pairs = {(name, f"{name}'") for name in order_8_group_tables()}
    assert len(report.coarse_classes) == 4
    assert ("Z8", "Z8'", "Q8", "Q8'") in report.coarse_classes
    assert set(report.final_classes) == pairs
    z8, q8 = graphs[ids.index("Z8")], graphs[ids.index("Q8")]
    # Z8 has no certificate onto Q8, so both are walked
    assert any(G is z8 for G in walked) and any(G is q8 for G in walked)
    assert distinguish_pair(z8, q8) == "lc-walk-signature"
    assert find_isomorphism(z8, q8) is None


def test_certificate_verification_rejects_bad_maps():
    G = path(3)
    H = path(3)
    with pytest.raises(CertificateError):
        _verify_certificate(G, H, (0, 0, 1))  # not a permutation
    with pytest.raises(CertificateError):
        _verify_certificate(G, H, (1, 0, 2))  # permutation, breaks adjacency
