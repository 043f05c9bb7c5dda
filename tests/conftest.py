import os
import signal
import threading

import pytest

import acceptance_report


@pytest.fixture
def forking(monkeypatch):
    """Make every ``Pool`` map of two or more items fork before its first
    item, with ``FORK_AFTER_S`` at 0; skip without ``os.fork``; fail a fork
    from a process with more than one thread, which ``Pool`` must never
    make; fail, rather than hang, a map that never ends."""
    if not hasattr(os, "fork"):
        pytest.skip("the pool maps serially without os.fork")
    monkeypatch.setattr("walkgi.isotest.FORK_AFTER_S", 0)
    fork = os.fork

    def single_threaded_fork():
        assert threading.active_count() == 1, f"fork with {threading.active_count()} threads"
        return fork()

    monkeypatch.setattr(os, "fork", single_threaded_fork)

    def expire(signum, frame):
        raise TimeoutError("the map did not end within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def pytest_terminal_summary(terminalreporter):
    if acceptance_report.lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in acceptance_report.lines:
            terminalreporter.write_line(line)
