"""Shared fixtures: golden files, direct-I/O availability, fault scripts, deadlines."""
import itertools
import os
import signal
from pathlib import Path

import pytest

import seqbench as sb

GOLDEN = Path(__file__).parent / "golden"


def golden_text(name: str) -> str:
    return (GOLDEN / name).read_text()


def golden_bytes(name: str) -> bytes:
    return (GOLDEN / name).read_bytes()


@pytest.fixture(scope="session")
def direct_ok(tmp_path_factory) -> bool:
    """Whether the pytest temp filesystem accepts cache-bypass opens."""
    probe_dir = tmp_path_factory.mktemp("direct_probe")
    return sb.supports_direct_io(probe_dir)


@pytest.fixture
def need_direct(direct_ok):
    if not direct_ok:
        pytest.skip("temp filesystem does not support direct I/O")


#: Seconds a test using the ``deadline`` fixture may run before it fails.
DEADLINE_SECONDS = 30


@pytest.fixture
def deadline():
    """Fail the test instead of stalling the suite when it hangs.

    SIGALRM interrupts the main thread even while it waits in a join;
    worker threads left hanging are daemons and cannot block exit.
    """

    def expired(signum, frame):
        pytest.fail(f"test still running after {DEADLINE_SECONDS} s; it probably hangs")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(DEADLINE_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def short_then_zero(monkeypatch):
    """Script ``os.preadv`` or ``os.pwritev`` to move ``step`` bytes three times, then 0.

    ``short_then_zero("pwritev")`` patches that call for the rest of the
    test; the first three calls perform a real ``step``-byte transfer (a
    direct handle needs a whole sector), every later call returns 0
    without touching the file.
    """

    def install(name: str, step: int = 1) -> None:
        real = getattr(os, name)
        calls = itertools.count()

        def scripted(fd, buffers, offset):
            if next(calls) < 3:
                return real(fd, [memoryview(buffers[0])[:step]], offset)
            return 0

        monkeypatch.setattr(os, name, scripted)

    return install
