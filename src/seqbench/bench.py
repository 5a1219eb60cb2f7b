"""Throughput and CPU-cost measurement for sequential and seeking file I/O.

One measurement is a timed loop of fixed-size requests against one file:
read or write, buffered or direct, optionally overlapped (async_depth) and
optionally seeking between requests.  Each trial reports bytes moved, wall
seconds and CPU seconds; medians across trials give the headline numbers
and the population standard deviation of the per-trial rates gives the
noise bar.

Costs are reported two ways: nanoseconds of CPU per byte, and processor
cycles per byte for comparison across machines (cycles = ns * clock GHz).
The clock rate comes from the SEQBENCH_CLOCK_GHZ environment variable, or
/proc/cpuinfo, or stays unknown (cycles become NaN).

The offset sequence for every trial is derived only from (seed, trial
index), never from timing, so two runs with pinned request counts issue
identical request streams.
"""
from __future__ import annotations

import contextlib
import enum
import itertools
import math
import mmap
import os
import re
import statistics
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .core import DEFAULT_SEED, Direction, OpenDisposition, make_rng
from .engine import (
    AccessHint,
    AlignedBuffer,
    FlushLevel,
    IoMode,
    open_file,
    preallocate,
    run_slots,
    transfer_full,
    validate_direct_request,
    write_chunks,
)
from .errors import ConfigError, DirectRequestError

__all__ = [
    "DEFAULT_DURATION",
    "DEFAULT_BLOCK",
    "DEFAULT_FILE_SIZE",
    "DEFAULT_ASYNC_DEPTH",
    "DEFAULT_TRIALS",
    "CLOCK_ENV_VAR",
    "ExtensionMode",
    "IoConfig",
    "ThroughputSample",
    "Stopwatch",
    "BenchmarkResult",
    "detect_clock_ghz",
    "next_offset",
    "run_measurement",
    "measure_extension",
]

DEFAULT_DURATION = 30.0  # seconds per trial
DEFAULT_BLOCK = 64 * 1024
DEFAULT_FILE_SIZE = 1 << 30
DEFAULT_ASYNC_DEPTH = 4
DEFAULT_TRIALS = 5
CLOCK_ENV_VAR = "SEQBENCH_CLOCK_GHZ"

#: Stream index offset for warm-up trials, so measured trials keep streams
#: 0..trials-1 no matter how many warm-ups run.
_WARMUP_STREAM_BASE = 1_000_000

#: Seek deltas drawn per ``rng.integers`` call by ``_seek_chain``.
_CHAIN_BATCH = 4096

#: Requests an overlapped slot takes per ticket-lock acquisition: about
#: _RUN_BYTES of them, at least one and at most _RUN_REQUESTS.  Longer runs
#: mean fewer hand-offs between slot threads (each a futex wake plus an
#: interpreter-lock transfer); the deadline and a stop are seen once per
#: run, so the request cap keeps tiny requests from making runs of seconds.
_RUN_BYTES = 1 << 20
_RUN_REQUESTS = 256

_FILL_CHUNK = 4 << 20
_FILL_BYTE = 0xA5


class ExtensionMode(enum.Enum):
    """How a file comes into being during an extension measurement."""

    INCREMENTAL = "incremental"  # appended block by block, allocated as it grows
    PREALLOCATED = "preallocated"  # length set up front, then the same writes


@dataclass(frozen=True)
class IoConfig:
    """Everything one measurement needs to know.

    ``seek_pct`` None means pure sequential access (0 is stored as None:
    one pattern, one config, one row); otherwise each request lands a
    bounded random distance from the last.  Every trial runs one loop at
    depth ``async_depth`` or 1, reading the clock once per ticket run.  A
    buffered sequential trial without ``async_depth`` reads or writes
    through the handle's stream buffer; every other trial issues
    positional requests, one preadv/pwritev of the request size each,
    through the OS cache (past it when ``direct``, with the request
    checked once per trial).  ``max_requests`` caps the request count per
    trial regardless of the clock, which pins the request stream for
    determinism tests.  ``offset_log`` names a file that receives every
    issued offset of the measured trials, one decimal per line, when set.
    """

    path: Path
    direction: Direction = Direction.READ
    file_size: int = DEFAULT_FILE_SIZE
    duration: float = DEFAULT_DURATION
    block: int = DEFAULT_BLOCK
    async_depth: int | None = None
    direct: bool = False
    seek_pct: int | None = None
    touch: bool = False
    seed: int = DEFAULT_SEED
    max_requests: int | None = None
    offset_log: Path | None = None

    def __post_init__(self):
        object.__setattr__(self, "path", Path(self.path))
        if self.offset_log is not None:
            object.__setattr__(self, "offset_log", Path(self.offset_log))
        if self.direction is not Direction.READ and self.direction is not Direction.WRITE:
            raise ConfigError(f"direction must be a Direction, got {self.direction!r}")
        if self.block < 1:
            raise ConfigError(f"block must be at least 1 byte, got {self.block}")
        if self.file_size < self.block:
            raise ConfigError(
                f"file size {self.file_size} is smaller than one {self.block} byte block"
            )
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ConfigError(f"duration must be finite and positive, got {self.duration}")
        if self.async_depth is not None and self.async_depth < 1:
            raise ConfigError(f"async depth must be at least 1, got {self.async_depth}")
        if self.seek_pct is not None and not 0 <= self.seek_pct <= 100:
            raise ConfigError(f"seek percentage must be in 0..100, got {self.seek_pct}")
        object.__setattr__(self, "seek_pct", self.seek_pct or None)  # 0 spells sequential too
        if self.max_requests is not None and self.max_requests < 1:
            raise ConfigError(f"max_requests must be at least 1, got {self.max_requests}")


@dataclass(frozen=True)
class ThroughputSample:
    """One trial's raw accounting."""

    bytes_moved: int
    wall_seconds: float
    cpu_seconds: float
    request_count: int


class Stopwatch:
    """The one trial timer: wall and process CPU seconds since it started."""

    def __init__(self):
        self._cpu_start = time.process_time()
        self._wall_start = time.perf_counter()

    def sample(self, bytes_moved: int, requests: int) -> ThroughputSample:
        wall = time.perf_counter() - self._wall_start
        cpu = time.process_time() - self._cpu_start
        return ThroughputSample(bytes_moved, wall, cpu, requests)


@dataclass(frozen=True)
class BenchmarkResult:
    """A measurement's trials, and the summaries computed from them when read.

    A trial that moved no bytes counts as 0 MB/s with a NaN per-byte cost.
    ``per_byte_cycles`` is NaN when no clock rate was available.  The
    warm-up trial is not included in ``samples``.
    """

    samples: tuple[ThroughputSample, ...]
    clock_ghz: float | None
    config: IoConfig | None = None

    @classmethod
    def from_samples(cls, samples, clock_ghz, config=None) -> "BenchmarkResult":
        samples = tuple(samples)
        if not samples:
            raise ValueError("cannot summarize zero samples")
        return cls(samples, clock_ghz, config)

    def _rates(self) -> list[float]:
        return [s.bytes_moved / 1e6 / s.wall_seconds if s.bytes_moved else 0.0
                for s in self.samples]

    @property
    def mb_per_sec(self) -> float:
        return statistics.median(self._rates())

    @property
    def stddev_mb_per_sec(self) -> float:
        # The population deviation, summed in floats rather than statistics.pstdev's
        # exact fractions: it agrees with pstdev to a few ulp, costs a small fraction
        # of its time, and is exactly 0.0 for a single trial.
        rates = self._rates()
        mean = statistics.fmean(rates)
        return math.sqrt(statistics.fmean([(rate - mean) ** 2 for rate in rates]))

    @property
    def per_byte_ns(self) -> float:
        return statistics.median([
            s.cpu_seconds * 1e9 / s.bytes_moved if s.bytes_moved else math.nan for s in self.samples
        ])

    @property
    def per_byte_cycles(self) -> float:
        return math.nan if self.clock_ghz is None else self.per_byte_ns * self.clock_ghz

    @property
    def bytes_moved(self) -> int:
        return sum(s.bytes_moved for s in self.samples)

    @property
    def wall_seconds(self) -> float:
        return sum(s.wall_seconds for s in self.samples)

    @property
    def cpu_seconds(self) -> float:
        return sum(s.cpu_seconds for s in self.samples)


def detect_clock_ghz() -> float | None:
    """Processor clock in GHz, or None when it cannot be determined.

    SEQBENCH_CLOCK_GHZ wins when set (and must parse to a value in 0.1 to
    10.0); otherwise the CPU model string is consulted, then the running
    MHz, both via /proc.
    """
    env = os.environ.get(CLOCK_ENV_VAR)
    if env is not None:
        try:
            value = float(env)
        except ValueError:
            raise ConfigError(f"{CLOCK_ENV_VAR}={env!r} is not a number") from None
        if not 0.1 <= value <= 10.0:  # also refuses nan and inf
            raise ConfigError(f"{CLOCK_ENV_VAR} must be within 0.1 to 10.0 GHz, got {env!r}")
        return value
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        return None
    named = re.search(r"model name\s*:.*?@\s*([0-9.]+)\s*GHz", cpuinfo)
    if named:
        return float(named.group(1))
    mhz = re.search(r"cpu MHz\s*:\s*([0-9.]+)", cpuinfo)
    if mhz:
        return float(mhz.group(1)) / 1000.0
    return None


def next_offset(current: int, cfg: IoConfig, file_size: int, rng: np.random.Generator) -> int:
    """Offset of the request after one at ``current``.

    Sequential (seek_pct None): the next block, wrapping to 0 when
    another full block would not fit.  Seeking: a uniform random delta in
    [-d, +d] with d = seek_pct percent of the file size is added past the
    sequential position, wrapped into [0, file_size - block] and rounded
    down to a block boundary, so every request stays whole-block and
    block-aligned (which also keeps direct transfers sector-aligned for
    sector-multiple blocks).

    This is the reference definition.  Trials take their offsets from
    ``_offset_chain``, its batched twin, which yields the chain this
    function builds from 0 with the same rng.
    """
    block = cfg.block
    if file_size < block:
        raise ValueError(f"file size {file_size} is smaller than one {block} byte block")
    if not cfg.seek_pct:
        following = current + block
        if following + block > file_size:
            return 0
        return following
    d = cfg.seek_pct * file_size // 100
    delta = int(rng.integers(-d, d + 1))
    span = file_size - block + 1
    landed = (current + block + delta) % span
    return (landed // block) * block


def _offset_chain(cfg: IoConfig, rng: np.random.Generator) -> Iterator[int]:
    """0, then every ``next_offset`` after it: the offsets of one trial.

    Sequential configs step through the whole blocks and wrap to 0; that
    chain is built from C iterators, so taking an offset runs no Python
    frame.  Seeking configs draw their deltas ``_CHAIN_BATCH`` at a time;
    one ``rng.integers(-d, d + 1, size=n)`` call returns the values of n
    scalar draws, so the chain is the one ``next_offset`` builds, draw for
    draw.
    """
    block = cfg.block
    span = cfg.file_size - block + 1
    if not cfg.seek_pct:
        return itertools.chain.from_iterable(itertools.repeat(range(0, span, block)))
    return _seek_chain(block, span, cfg.seek_pct * cfg.file_size // 100, rng)


def _seek_chain(block: int, span: int, d: int, rng: np.random.Generator) -> Iterator[int]:
    offset = 0
    yield offset
    while True:
        for delta in rng.integers(-d, d + 1, size=_CHAIN_BATCH).tolist():
            offset = (offset + block + delta) % span // block * block
            yield offset


def _prepare_target(cfg: IoConfig) -> None:
    """Make sure the target file exists with at least ``file_size`` bytes.

    Both directions get a fully written file: reads need real data, and
    the write measurement overwrites in place rather than timing first
    allocation.  A target already that long is only stat'ed, so a read
    measurement never opens it for writing.  Otherwise the target is
    created or extended with the fill pattern, and the fill is flushed
    through the OS cache so trial one does not inherit someone else's
    dirty pages.  A direct config first opens the target uncached and
    checks its block with ``_direct_slot``, so a volume that refuses
    uncached opens, or a block that breaks its sector rules, is refused
    before any fill is written, and a target it created is removed again.
    A directory is refused by the open that finds it, by name
    (``open_file`` raises IsADirectoryError naming the path).
    """
    try:
        current = os.stat(cfg.path).st_size
    except FileNotFoundError:
        current = None
    missing = cfg.file_size - (current or 0)
    if missing <= 0:
        return
    if cfg.direct:
        try:
            with open_file(cfg.path, OpenDisposition.OPEN_OR_CREATE, Direction.WRITE,
                           IoMode.DIRECT) as handle:
                _direct_slot(cfg, handle.geometry)
        except BaseException:
            if current is None:
                with contextlib.suppress(OSError):
                    os.unlink(cfg.path)
            raise
    with open_file(cfg.path, OpenDisposition.OPEN_OR_CREATE, Direction.WRITE) as handle:
        chunk = bytes([_FILL_BYTE]) * min(_FILL_CHUNK, missing)
        write_chunks(handle.fileno(), itertools.repeat(chunk), current or 0, missing)
        handle.flush(FlushLevel.OPERATING_SYSTEM_CACHE)


def _direct_slot(cfg: IoConfig, geometry) -> AlignedBuffer:
    """A direct slot's one-block buffer, at the volume's recommended alignment.

    It is checked against the volume's rules here, once: every request
    uses it whole, at a block multiple, so a block the volume refuses
    raises DirectRequestError naming every violation before any request.
    """
    buffer = AlignedBuffer(cfg.block, geometry.recommended_alignment)
    violations = validate_direct_request(geometry, buffer, cfg.block, 0)
    if violations:
        raise DirectRequestError(violations)
    return buffer


def _slot_view(cfg: IoConfig, geometry) -> memoryview:
    """The view of one slot's one-block transfer buffer, filled with the pattern.

    Every slot is page-aligned AlignedBuffer memory (a ``_direct_slot``
    when direct), and the fill maps its pages before any request.
    """
    buffer = _direct_slot(cfg, geometry) if cfg.direct else AlignedBuffer(cfg.block, mmap.PAGESIZE)
    buffer.view[:] = bytes([_FILL_BYTE]) * cfg.block
    return buffer.view


def _trial(cfg: IoConfig, rng, log: TextIO | None = None) -> ThroughputSample:
    """One timed trial at depth ``async_depth``, or 1 when it is unset.

    Each slot owns one ``_slot_view``, page-aligned ``AlignedBuffer``
    memory filled before the clock starts, and loops: under a ticket lock it
    takes a run of the next tickets (about ``_RUN_BYTES`` of requests, at
    least one and at most ``_RUN_REQUESTS``) with their offsets from
    ``_offset_chain(cfg, rng)``, transfers them, and comes back.  ``rng``
    is None for sequential configs, whose chain draws nothing.  Tickets
    go out in order, so every depth issues the same offsets.  None goes
    out past ``max_requests``; the first ``depth`` below it always do, and
    no later one once the duration has run out.  The clock
    is read once per run, so a slot overshoots the duration by at most
    one run.  Each run's offsets are written to ``log``, one decimal per
    line and under the ticket lock, when it is given.

    A buffered sequential trial (no ``seek_pct``, ``async_depth`` or
    ``direct``) drives the handle's stream itself: one ``readinto`` or
    ``write`` of the slot's whole view per request, made from the run's
    loop with no Python frame of its own.  It seeks the stream only to
    offset 0, where the chain starts and wraps, and a write trial drains
    the stream before the clock stops.  Every other request is one
    preadv/pwritev of the request size at its offset, through the OS
    cache (past it when ``direct``), a short transfer continued by
    ``transfer_full``; a direct slot's buffer is checked once, as its view
    is made, before any request or thread.  With ``touch``, an adler32
    pass whose sum is dropped reads every byte of each transfer.

    Slot 0 runs on the calling thread (depth 1 starts no thread);
    preadv/pwritev release the interpreter lock, so up to ``depth``
    requests overlap.  The first failure in any slot stops the others
    after their current runs, and run_slots raises it once every slot has
    finished.
    """
    depth = cfg.async_depth or 1
    block = cfg.block
    touch = cfg.touch
    write = cfg.direction is Direction.WRITE
    run = min(_RUN_REQUESTS, max(1, _RUN_BYTES // block))
    limit = cfg.max_requests
    chain = _offset_chain(cfg, rng)
    issued = 0
    stopped: list[bool] = []  # non-empty once a slot has failed; holds no exception
    lock = threading.Lock()
    hint = AccessHint.RANDOM if cfg.seek_pct else AccessHint.SEQUENTIAL
    mode = IoMode.DIRECT if cfg.direct else IoMode.BUFFERED
    with open_file(cfg.path, OpenDisposition.OPEN, cfg.direction, mode, hint) as handle:
        views = [_slot_view(cfg, handle.geometry) for _ in range(depth)]
        fd = handle.fileno()
        call = os.pwritev if write else os.preadv

        def positional(taken, view):
            iov = [view]
            for offset in taken:
                got = call(fd, iov, offset)
                if got != block:
                    got += transfer_full(fd, view[got:], offset + got, block - got, write=write)
                    if got != block:
                        return offset, got
                if touch:
                    zlib.adler32(view)

        def streamed(taken, view):
            for offset in taken:
                if not offset:
                    seek(0)
                got = transfer(view)
                if got != block:
                    return offset, got
                if touch:
                    zlib.adler32(view)

        if cfg.seek_pct or cfg.async_depth or cfg.direct:
            requests = positional
        else:
            stream = handle.stream
            seek = stream.seek
            transfer = stream.write if write else stream.readinto
            requests = streamed
        deadline = time.perf_counter() + cfg.duration

        def slot(index: int) -> None:
            nonlocal issued
            while True:
                with lock:
                    start = issued
                    if stopped or start == limit or (
                        start >= depth and time.perf_counter() >= deadline
                    ):
                        return
                    taken = list(itertools.islice(
                        chain, run if limit is None else min(run, limit - start)
                    ))
                    issued = start + len(taken)
                    if log is not None:
                        log.write("%d\n" * len(taken) % tuple(taken))
                short = requests(taken, views[index])
                if short:
                    offset, got = short
                    raise OSError(
                        f"short read: {got} of {block} bytes at offset {offset} in {cfg.path}"
                    )

        stopwatch = Stopwatch()
        run_slots(depth, slot, lambda exc: stopped.append(True))
        if write:
            handle.flush(FlushLevel.APPLICATION_BUFFERS)
        return stopwatch.sample(issued * block, issued)


def run_measurement(
    cfg: IoConfig,
    trials: int = DEFAULT_TRIALS,
    *,
    warmup: int = 1,
    clock_ghz: float | None = None,
) -> BenchmarkResult:
    """Run one configuration for ``trials`` timed trials plus a warm-up.

    The target file is created and filled to ``cfg.file_size`` first when
    needed; a target already at least ``file_size`` long is only stat'ed.
    Trial t of a seeking config draws its offsets from stream t of
    ``cfg.seed``, so results are reproducible request-for-request; the
    warm-up trials use distant streams and are discarded.  Sequential
    trials draw nothing, so no generator is built for them.  With
    ``cfg.offset_log`` set, the log is opened first, so an unwritable one
    fails before any I/O; each ticket run of the measured trials (not the
    warm-up) writes its offsets to it as they are issued, so a failed
    measurement leaves the offsets it issued.  Returns a BenchmarkResult.
    """
    if trials < 1:
        raise ConfigError(f"need at least one trial, got {trials}")
    if warmup < 0:
        raise ConfigError(f"warm-up count may not be negative, got {warmup}")
    if clock_ghz is None:
        clock_ghz = detect_clock_ghz()
    log = open(cfg.offset_log, "w") if cfg.offset_log else None
    try:
        _prepare_target(cfg)
        for index in range(warmup):
            _trial(cfg, make_rng(cfg.seed, _WARMUP_STREAM_BASE + index) if cfg.seek_pct else None)
        samples = [
            _trial(cfg, make_rng(cfg.seed, index) if cfg.seek_pct else None, log)
            for index in range(trials)
        ]
    finally:
        if log is not None:
            log.close()
    return BenchmarkResult.from_samples(samples, clock_ghz, cfg)


def measure_extension(
    path: str | os.PathLike,
    final_size: int,
    block: int,
    mode: ExtensionMode,
    trials: int = DEFAULT_TRIALS,
    *,
    clock_ghz: float | None = None,
) -> BenchmarkResult:
    """Time creating a ``final_size`` file with synchronous block writes.

    INCREMENTAL appends block after block, so the filesystem allocates
    space piecemeal as the file grows.  PREALLOCATED sets the final length
    first and then performs the identical writes into the reserved space.
    The file is a bare descriptor, opened with ``open(path, "xb",
    buffering=0)``; a preallocated trial sets its length with
    ``engine.preallocate``.  Each block is one pwritev of the pattern at
    its offset, a short write continued by ``transfer_full``, and then an
    fsync, so each write is pushed through the OS cache before the next
    one is issued; that is what makes allocation cost visible at all,
    since a purely cached run would defer it.  One more fsync ends the
    trial.  Each trial starts from scratch: any existing file at ``path``
    is deleted first.
    """
    if final_size < 1:
        raise ConfigError(f"final size must be at least 1 byte, got {final_size}")
    if block < 1:
        raise ConfigError(f"block must be at least 1 byte, got {block}")
    if trials < 1:
        raise ConfigError(f"need at least one trial, got {trials}")
    if not isinstance(mode, ExtensionMode):
        raise ConfigError(f"mode must be an ExtensionMode, got {mode!r}")
    if clock_ghz is None:
        clock_ghz = detect_clock_ghz()
    path = Path(path)
    pattern = memoryview(bytes([_FILL_BYTE]) * block)
    requests = -(-final_size // block)
    samples = []
    for _ in range(trials):
        if path.exists():
            path.unlink()
        stopwatch = Stopwatch()
        with open(path, "xb", buffering=0) as file:
            fd = file.fileno()
            if mode is ExtensionMode.PREALLOCATED:
                preallocate(fd, final_size)
            iov = [pattern]
            for written in range(0, final_size, block):
                step = min(block, final_size - written)
                if step != block:
                    iov = [pattern[:step]]
                got = os.pwritev(fd, iov, written)
                if got != step:
                    transfer_full(fd, pattern[got:], written + got, step - got, write=True)
                os.fsync(fd)
            os.fsync(fd)
        samples.append(stopwatch.sample(final_size, requests))
    return BenchmarkResult.from_samples(samples, clock_ghz)
