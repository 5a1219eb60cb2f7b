"""Shared fixtures: golden files, direct-I/O availability, faults, deadlines, threads.

``faults`` is the one way a test makes a system call fail, come back
short or with 0, or refuse a thread: it scripts one fault at the n-th
call of one target.  A new fault cell for an I/O loop goes in the table
of tests/test_faults.py, which runs every loop under every fault it can
meet; a test outside it uses ``faults`` for a call the table does not
reach, or for checks of its own that no cell makes the same way.
"""
import _thread
import builtins
import contextlib
import fcntl
import io
import itertools
import os
import signal
import time
from pathlib import Path

import pytest

import seqbench as sb
from seqbench import cli

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
    """What ``interrupt_after`` and ``faults`` raise: like KeyboardInterrupt, not an
    Exception, yet one that escapes fails its test instead of ending the session."""


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


#: The faults besides an errno (which raises that OSError) and Interrupt:
#: a transfer that moves half its bytes, one that moves none, and a thread
#: the system cannot start (RuntimeError, as ``_thread`` raises).
SHORT, ZERO, REFUSED = "short", "zero", "refused"

#: Scripted zero-progress returns a loop may take before it counts as spinning.
SPIN_LIMIT = 1000


class Spin(BaseException):
    """What a scripted 0 raises once a loop has taken SPIN_LIMIT of them: it would never end."""


class _Script:
    """One armed fault.  ``fired`` lists the calls it changed, one entry each."""

    def __init__(self, fault, at: int, when):
        self.fault, self.at, self.when = fault, at, when
        self.calls = itertools.count(1)
        self.fired: list[None] = []  # list.append counts calls from slot threads safely

    def due(self, *args) -> bool:
        """Whether this call transfers short or nothing; raises when its fault is an exception.

        A fault lands on the ``at``-th call (of those ``when`` accepts) and on
        every later one, as a full disk stays full, except Interrupt, which
        lands once, as Ctrl-C does.
        """
        if self.when is not None and not self.when(*args):
            return False
        call = next(self.calls)
        if call < self.at or (call > self.at and self.fault is Interrupt):
            return False
        self.fired.append(None)
        if self.fault is Interrupt:
            raise Interrupt(f"interrupted by faults at call {call}")
        if self.fault == REFUSED:
            raise RuntimeError("can't start new thread")
        if isinstance(self.fault, int):
            raise OSError(self.fault, os.strerror(self.fault))
        if self.fault == ZERO and len(self.fired) > SPIN_LIMIT:
            raise Spin(f"the loop retried {SPIN_LIMIT} transfers that moved nothing")
        return True


def _cut(buffer, unit: int = 1) -> memoryview:
    """The first half of ``buffer``, in whole ``unit``s and at least one unit."""
    view = memoryview(buffer).cast("B")
    return view[: max(unit, len(view) // 2 // unit * unit)]


def _scripted(real, script: _Script):
    """``real`` under ``script``; a short preadv or pwritev on a direct descriptor is
    cut in 4 KiB units."""

    def call(*args, **kwargs):
        if not script.due(*args):
            return real(*args, **kwargs)
        if script.fault == ZERO:
            return 0
        fd, buffers, offset = args
        unit = 4096 if fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_DIRECT else 1
        return real(fd, [_cut(buffers[0], unit)], offset)

    return call


class _Raw(io.FileIO):
    """The raw file under the buffered streams ``faults`` opens: ``script`` faults ``method``.

    One class for every arming, so that arming makes no garbage cycle.
    """

    script: _Script | None = None
    method = ""

    def _scripted(self, method: str, buffer):
        done = getattr(super(), method)
        if method != self.method or not self.script.due(buffer):
            return done(buffer)
        return 0 if self.script.fault == ZERO else done(_cut(buffer))

    def readinto(self, buffer):
        return self._scripted("readinto", buffer)

    def write(self, data):
        return self._scripted("write", data)


_REAL_OPEN = io.open


def _raw_open(file, mode="r", buffering=-1, *args, **kwargs):
    """io.open, with every binary buffered stream over a _Raw file: a buffered
    stream calls its raw file's readinto and write from C, so the way in is
    ``open``.  Text streams and unbuffered opens are the real ones."""
    if "b" not in mode or buffering == 0 or args or kwargs:
        return _REAL_OPEN(file, mode, buffering, *args, **kwargs)
    raw = _Raw(file, mode.replace("b", ""))
    size = buffering if buffering > 0 else io.DEFAULT_BUFFER_SIZE
    if "+" in mode:
        return io.BufferedRandom(raw, size)
    return (io.BufferedReader if "r" in mode else io.BufferedWriter)(raw, size)


_TRANSFERS = ("preadv", "pwritev", "raw.readinto", "raw.write")
#: The targets that are functions, each of the module it is looked up in.
_CALLS = {
    **dict.fromkeys(["preadv", "pwritev", "fsync", "posix_fallocate", "posix_fadvise", "open"], os),
    "ioctl": fcntl,
    "start_new_thread": _thread,
}


@contextlib.contextmanager
def _arm(target: str, fault, at: int = 1, *, when=None):
    thread = target == "start_new_thread"
    kinds = {SHORT, ZERO} if target in _TRANSFERS else {REFUSED} if thread else set()
    if target not in _TRANSFERS and target not in _CALLS or not (
        fault is Interrupt or fault in kinds or isinstance(fault, int) and not thread
    ):
        raise ValueError(f"{target!r} cannot be scripted to fault with {fault!r}")
    script = _Script(fault, at, when)
    with pytest.MonkeyPatch.context() as patch:
        if target.startswith("raw."):
            patch.setattr(_Raw, "script", script)
            patch.setattr(_Raw, "method", target[4:])
            patch.setattr(io, "open", _raw_open)
            patch.setattr(builtins, "open", _raw_open)  # the same function, by its other name
        else:
            owner = _CALLS[target]
            patch.setattr(owner, target, _scripted(getattr(owner, target), script))
        yield script


@pytest.fixture
def faults():
    """``with faults(target, fault, at=n) as script:`` scripts ``fault`` at call n of ``target``.

    ``target`` is a function named in _CALLS, such as "pwritev", "fsync"
    or "start_new_thread", or "raw.readinto" or "raw.write", the calls a
    buffered stream makes of the raw file under it (counted over every
    binary stream opened while armed).  ``fault`` is an errno
    (that OSError is raised), SHORT or ZERO (a transfer moves half its
    bytes, in 4 KiB units on a direct descriptor, or none), REFUSED (a
    thread start raises RuntimeError) or Interrupt.  ``when``, a predicate
    of the call's arguments, limits the count to the calls it accepts.  A
    ZERO that a loop retries SPIN_LIMIT times raises Spin.  ``script.fired``
    lists the calls the fault changed; the calls are real again once the
    block ends.
    """
    return _arm


def run_cli(argv) -> tuple[int, str, str]:
    """Invoke the command line entry and capture (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def offset_chain(cfg, stream: int, count: int) -> list[int]:
    """The first ``count`` offsets of trial ``stream``, built with ``next_offset`` alone."""
    rng, offsets = sb.make_rng(cfg.seed, stream), [0]
    while len(offsets) < count:
        offsets.append(sb.next_offset(offsets[-1], cfg, cfg.file_size, rng))
    return offsets


def rng_state(rng) -> dict:
    """A generator's bit-generator state, its arrays as lists so that states compare with ==."""
    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        return value.tolist() if hasattr(value, "tolist") else value
    return plain(rng.bit_generator.state)


def files_on_disk(root) -> dict[str, int]:
    """Every file under ``root``, by its relative path, with its size."""
    return {str(path.relative_to(root)): path.stat().st_size
            for path in Path(root).rglob("*") if path.is_file()}


def replay(events) -> dict[str, int]:
    """The files a fragger event log leaves: each created file's size, less the deleted."""
    live = {}
    for event in events:
        op, rel, size = event.split(" ")
        if op == "C":
            live[rel] = int(size)
        else:
            assert live.pop(rel) == int(size)
    return live


def open_fds() -> list[str]:
    """This process's open file descriptors."""
    return sorted(os.listdir("/proc/self/fd"))


def proc_io() -> dict[str, int]:
    """This process's I/O counters from /proc/self/io (rchar, syscr, ...)."""
    with open("/proc/self/io") as stream:
        return {name: int(value) for name, value in (line.split(":") for line in stream)}


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
