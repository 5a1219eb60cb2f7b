"""Shared fixtures: golden files, direct-I/O availability, fault scripts, deadlines, threads."""
import _thread
import errno
import io
import itertools
import os
import signal
import time
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

    SIGALRM interrupts the main thread even while it waits on a slot's
    lock in ``run_slots``; slot threads left hanging are bare ``_thread``
    threads, which the interpreter does not wait for at exit.
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


class Interrupt(BaseException):
    """What the ``interrupt_after`` alarm raises: like KeyboardInterrupt, not an Exception."""


@pytest.fixture
def interrupt_after(deadline):
    """``interrupt_after(seconds)`` raises Interrupt in the main thread once ``seconds`` pass.

    It shares the real-time timer and SIGALRM with ``deadline``, whose
    handler and timer are put back afterwards.
    """

    def expired(signum, frame):
        raise Interrupt("interrupted by interrupt_after")

    def arm(seconds: float) -> None:
        signal.setitimer(signal.ITIMER_REAL, seconds)

    previous = signal.signal(signal.SIGALRM, expired)
    remaining, _ = signal.getitimer(signal.ITIMER_REAL)
    try:
        yield arm
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if remaining:
            signal.setitimer(signal.ITIMER_REAL, remaining)


@pytest.fixture
def enospc_at(monkeypatch):
    """Script ``os.pwritev`` to fail with ENOSPC from its ``n``-th call on (1-based).

    ``enospc_at(n)`` patches the call for the rest of the test; the
    first ``n - 1`` calls are real writes.
    """

    def install(n: int) -> None:
        real = os.pwritev
        calls = itertools.count(1)

        def scripted(fd, buffers, offset):
            if next(calls) >= n:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real(fd, buffers, offset)

        monkeypatch.setattr(os, "pwritev", scripted)

    return install


@pytest.fixture
def stream_enospc_at(monkeypatch):
    """Script the raw file under buffered handles to fail with ENOSPC from its ``n``-th write on.

    A buffered handle writes through the stream ``io.open`` builds on its
    file descriptor, and that stream's raw file calls write(2) from C, so
    ``enospc_at`` cannot reach it.  ``stream_enospc_at(n)`` patches
    ``io.open`` for the rest of the test: opening a file descriptor, which
    only ``open_file`` does, puts the same buffer over a raw file whose
    first ``n - 1`` writes (1-based, counted over every such stream) are
    real.  Opening a path goes to the real ``io.open``.
    """

    def install(n: int) -> None:
        real = io.open
        calls = itertools.count(1)

        class ScriptedRaw(io.FileIO):
            def write(self, data):
                if next(calls) >= n:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return super().write(data)

        def scripted(file, mode="r", buffering=-1, *args, **kwargs):
            if not isinstance(file, int):
                return real(file, mode, buffering, *args, **kwargs)
            stream = io.BufferedReader if mode == "rb" else io.BufferedRandom
            return stream(ScriptedRaw(file, mode.replace("b", "")), buffering)

        monkeypatch.setattr(io, "open", scripted)

    return install


def open_fds() -> list[str]:
    """This process's open file descriptors."""
    return sorted(os.listdir("/proc/self/fd"))


def proc_io() -> dict[str, int]:
    """This process's I/O counters from /proc/self/io (rchar, syscr, ...)."""
    with open("/proc/self/io") as stream:
        return {name: int(value) for name, value in (line.split(":") for line in stream)}


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


def os_threads() -> set[str]:
    """The ids of this process's OS threads, from /proc/self/task: every thread, however started."""
    return set(os.listdir("/proc/self/task"))


def lingering_threads(before: set[str], timeout: float = 1.0) -> set[str]:
    """The OS threads not in ``before`` that still run ``timeout`` seconds on, or none.

    A slot thread ends a few microseconds after it releases the lock that
    ``run_slots`` waits on, so the threads are read until none is new or
    ``timeout`` has passed.  Threads are told apart by id, not counted:
    one that an earlier test started may still be ending when ``before``
    is read, and its end must not hide a thread this test left behind.
    """
    give_up = time.monotonic() + timeout
    while (new := os_threads() - before) and time.monotonic() < give_up:
        time.sleep(0.001)
    return new


@pytest.fixture
def thread_starts(monkeypatch):
    """The slot index of every thread ``run_slots`` starts from now on, in order.

    run_slots starts slot ``index`` with
    ``_thread.start_new_thread(guarded, (index, finished))``; the spy
    records ``index`` and starts the thread.
    """
    started = []
    real = _thread.start_new_thread

    def counted(function, args, *rest):
        started.append(args[0])
        return real(function, args, *rest)

    monkeypatch.setattr(_thread, "start_new_thread", counted)
    return started


@pytest.fixture
def thread_start_fails_for(monkeypatch):
    """``thread_start_fails_for(index)``: starting slot ``index``'s thread raises
    RuntimeError, as ``_thread`` does when the system has no thread to give;
    every other start is real."""

    def install(index: int) -> None:
        real = _thread.start_new_thread

        def refusing(function, args, *rest):
            if args[0] == index:
                raise RuntimeError("can't start new thread")
            return real(function, args, *rest)

        monkeypatch.setattr(_thread, "start_new_thread", refusing)

    return install
