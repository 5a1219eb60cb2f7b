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

import enum
import os
import re
import statistics
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import DEFAULT_SEED, Direction, OpenDisposition, make_rng
from .engine import (
    AccessHint,
    AlignedBuffer,
    FileHandle,
    FlushLevel,
    IoMode,
    allocate_aligned,
    detect_sector_geometry,
    open_file,
    run_slots,
    transfer_full,
    validate_direct_request,
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
    "BenchmarkResult",
    "detect_clock_ghz",
    "next_offset",
    "per_byte_cost",
    "summarize",
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

_FILL_CHUNK = 4 << 20
_FILL_BYTE = 0xA5


class ExtensionMode(enum.Enum):
    """How a file comes into being during an extension measurement."""

    INCREMENTAL = "incremental"  # appended block by block, allocated as it grows
    PREALLOCATED = "preallocated"  # length set up front, then the same writes


@dataclass(frozen=True)
class IoConfig:
    """Everything one measurement needs to know.

    ``seek_pct`` of None or 0 means pure sequential access; otherwise each
    request lands a bounded random distance from the last.  ``max_requests``
    caps the request count per trial regardless of the clock, which pins
    the request stream for determinism tests.  ``offset_log`` names a file
    that receives every issued offset of the measured trials, one decimal
    per line, when set.
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
    quiet: bool = False
    seed: int = DEFAULT_SEED
    max_requests: int | None = None
    offset_log: Path | None = None

    def __post_init__(self):
        object.__setattr__(self, "path", Path(self.path))
        if self.offset_log is not None:
            object.__setattr__(self, "offset_log", Path(self.offset_log))
        if self.block < 1:
            raise ConfigError(f"block must be at least 1 byte, got {self.block}")
        if self.file_size < self.block:
            raise ConfigError(
                f"file size {self.file_size} is smaller than one {self.block} byte block"
            )
        if not (self.duration > 0):
            raise ConfigError(f"duration must be positive, got {self.duration}")
        if self.async_depth is not None and self.async_depth < 1:
            raise ConfigError(f"async depth must be at least 1, got {self.async_depth}")
        if self.seek_pct is not None and not 0 <= self.seek_pct <= 100:
            raise ConfigError(f"seek percentage must be in 0..100, got {self.seek_pct}")
        if self.max_requests is not None and self.max_requests < 1:
            raise ConfigError(f"max_requests must be at least 1, got {self.max_requests}")


@dataclass(frozen=True)
class ThroughputSample:
    """One trial's raw accounting."""

    bytes_moved: int
    wall_seconds: float
    cpu_seconds: float
    request_count: int


@dataclass(frozen=True)
class BenchmarkResult:
    """Median summary of a measurement's trials.

    ``per_byte_cycles`` is NaN when no clock rate was available.  The
    warm-up trial is not included in ``samples``.
    """

    samples: tuple[ThroughputSample, ...]
    clock_ghz: float | None
    mb_per_sec: float
    stddev_mb_per_sec: float
    per_byte_ns: float
    per_byte_cycles: float
    config: IoConfig | None = None

    @classmethod
    def from_samples(cls, samples, clock_ghz, config=None) -> "BenchmarkResult":
        samples = tuple(samples)
        if not samples:
            raise ValueError("cannot summarize zero samples")
        rates = [s.bytes_moved / 1e6 / s.wall_seconds for s in samples]
        mb_per_sec, stddev = summarize(rates)
        ns_values = [per_byte_cost(s, clock_ghz)[0] for s in samples]
        per_byte_ns = statistics.median(ns_values)
        cycles = float("nan") if clock_ghz is None else per_byte_ns * clock_ghz
        return cls(samples, clock_ghz, mb_per_sec, stddev, per_byte_ns, cycles, config)

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

    SEQBENCH_CLOCK_GHZ wins when set (and must parse); otherwise the CPU
    model string is consulted, then the running MHz, both via /proc.
    """
    env = os.environ.get(CLOCK_ENV_VAR)
    if env is not None:
        try:
            value = float(env)
        except ValueError:
            raise ConfigError(f"{CLOCK_ENV_VAR}={env!r} is not a number") from None
        if not value > 0:
            raise ConfigError(f"{CLOCK_ENV_VAR} must be positive, got {env!r}")
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


def per_byte_cost(sample: ThroughputSample, clock_ghz: float | None) -> tuple[float, float]:
    """CPU cost of one trial as (nanoseconds per byte, cycles per byte)."""
    if sample.bytes_moved <= 0:
        raise ValueError("per-byte cost undefined for a trial that moved no bytes")
    ns = sample.cpu_seconds * 1e9 / sample.bytes_moved
    cycles = float("nan") if clock_ghz is None else ns * clock_ghz
    return ns, cycles


def summarize(rates) -> tuple[float, float]:
    """Median and population standard deviation of per-trial rates."""
    rates = list(rates)
    if not rates:
        raise ValueError("cannot summarize zero trials")
    return statistics.median(rates), statistics.pstdev(rates)


def next_offset(current: int, cfg: IoConfig, file_size: int, rng: np.random.Generator) -> int:
    """Offset of the request after one at ``current``.

    Sequential (seek_pct falsy): the next block, wrapping to 0 when
    another full block would not fit.  Seeking: a uniform random delta in
    [-d, +d] with d = seek_pct percent of the file size is added past the
    sequential position, wrapped into [0, file_size - block] and rounded
    down to a block boundary, so every request stays whole-block and
    block-aligned (which also keeps direct transfers sector-aligned for
    sector-multiple blocks).
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


def _fill_pattern(handle: FileHandle, start: int, end: int) -> None:
    chunk = bytes([_FILL_BYTE]) * min(_FILL_CHUNK, max(end - start, 1))
    handle.seek(start)
    position = start
    while position < end:
        step = min(len(chunk), end - position)
        handle.write_block(chunk, step)
        position += step


def _prepare_target(cfg: IoConfig) -> None:
    """Make sure the target file exists with at least ``file_size`` bytes.

    Both directions get a fully written file: reads need real data, and
    the write measurement overwrites in place rather than timing first
    allocation.  The fill is flushed through the OS cache so trial one
    does not inherit someone else's dirty pages.
    """
    with open_file(cfg.path, OpenDisposition.OPEN_OR_CREATE, Direction.WRITE) as handle:
        current = handle.length
        if current < cfg.file_size:
            _fill_pattern(handle, current, cfg.file_size)
            handle.flush(FlushLevel.OPERATING_SYSTEM_CACHE)


def _make_buffer(cfg: IoConfig, geometry):
    if cfg.direct:
        return allocate_aligned(cfg.block, geometry.recommended_alignment)
    return bytearray(cfg.block)


def _buffer_view(buffer) -> memoryview:
    if isinstance(buffer, AlignedBuffer):
        return buffer.view
    return memoryview(buffer)


def _open_for_trial(cfg: IoConfig) -> FileHandle:
    hint = AccessHint.RANDOM if cfg.seek_pct else AccessHint.SEQUENTIAL
    mode = IoMode.DIRECT if cfg.direct else IoMode.BUFFERED
    return open_file(cfg.path, OpenDisposition.OPEN, cfg.direction, mode, hint)


def _trial_sync(cfg: IoConfig, rng) -> tuple[ThroughputSample, list[int]]:
    reading = cfg.direction is Direction.READ
    offsets: list[int] = []
    with _open_for_trial(cfg) as handle:
        buffer = _make_buffer(cfg, handle.geometry)
        view = _buffer_view(buffer)
        if not reading:
            view[:] = bytes([_FILL_BYTE]) * cfg.block
        deadline = time.perf_counter() + cfg.duration
        offset = 0
        requests = 0
        moved = 0
        checksum = 1
        cpu_start = time.process_time()
        wall_start = time.perf_counter()
        while True:
            if handle.position != offset:
                handle.seek(offset)
            if reading:
                got = handle.read_block(buffer, cfg.block)
                if got != cfg.block:
                    raise OSError(
                        f"short read: {got} of {cfg.block} bytes at offset {offset} in {cfg.path}"
                    )
            else:
                handle.write_block(buffer, cfg.block)
            if cfg.touch:
                checksum = zlib.adler32(view[: cfg.block], checksum)
            offsets.append(offset)
            moved += cfg.block
            requests += 1
            if cfg.max_requests is not None and requests >= cfg.max_requests:
                break
            if time.perf_counter() >= deadline:
                break
            offset = next_offset(offset, cfg, cfg.file_size, rng)
        if not reading:
            handle.flush(FlushLevel.APPLICATION_BUFFERS)
        wall = time.perf_counter() - wall_start
        cpu = time.process_time() - cpu_start
    return ThroughputSample(moved, wall, cpu, requests), offsets


def _trial_async(cfg: IoConfig, rng) -> tuple[ThroughputSample, list[int]]:
    """Overlapped trial: ``async_depth`` slot threads issuing positional requests.

    Each slot thread owns one buffer and loops: under a ticket lock it
    takes the next ticket and the next offset of the ``next_offset``
    chain, then checks a direct request, transfers the block and comes
    back for another ticket.  Offsets are handed out in ticket order, so
    the issued sequence is identical to what a synchronous trial with the
    same rng would issue.  The first ``async_depth`` tickets are always
    issued; after that a ticket is refused once ``max_requests`` have been
    issued or the duration has run out.  preadv/pwritev release the
    interpreter lock, so up to ``async_depth`` requests really overlap.
    The first failure in any slot stops the others, and it is raised once
    every slot thread has finished.
    """
    depth = cfg.async_depth or DEFAULT_ASYNC_DEPTH
    write = cfg.direction is Direction.WRITE
    limit = max(depth, cfg.max_requests) if cfg.max_requests is not None else None
    offsets: list[int] = []
    errors: list[BaseException] = []
    lock = threading.Lock()
    with _open_for_trial(cfg) as handle:
        fd = handle.fileno()
        buffers = [_make_buffer(cfg, handle.geometry) for _ in range(depth)]
        if write:
            for buffer in buffers:
                _buffer_view(buffer)[:] = bytes([_FILL_BYTE]) * cfg.block
        following = 0
        deadline = time.perf_counter() + cfg.duration

        def slot(index: int) -> None:
            nonlocal following
            buffer = buffers[index]
            view = _buffer_view(buffer)
            checksum = 1
            while True:
                with lock:
                    ticket = len(offsets)
                    if errors or ticket == limit or (
                        ticket >= depth and time.perf_counter() >= deadline
                    ):
                        return
                    offset = following
                    offsets.append(offset)
                    following = next_offset(offset, cfg, cfg.file_size, rng)
                if cfg.direct:
                    violations = validate_direct_request(handle.geometry, buffer, cfg.block, offset)
                    if violations:
                        raise DirectRequestError(violations)
                got = transfer_full(fd, view, offset, cfg.block, write=write)
                if got != cfg.block:
                    raise OSError(
                        f"short read: {got} of {cfg.block} bytes at offset {offset} in {cfg.path}"
                    )
                if cfg.touch:
                    checksum = zlib.adler32(view[: cfg.block], checksum)

        def fail(exc: BaseException) -> None:
            with lock:
                errors.append(exc)

        cpu_start = time.process_time()
        wall_start = time.perf_counter()
        run_slots(depth, slot, fail)
        wall = time.perf_counter() - wall_start
        cpu = time.process_time() - cpu_start
    if errors:
        raise errors[0]
    requests = len(offsets)
    return ThroughputSample(requests * cfg.block, wall, cpu, requests), offsets


def run_measurement(
    cfg: IoConfig,
    trials: int = DEFAULT_TRIALS,
    *,
    warmup: int = 1,
    clock_ghz: float | None = None,
) -> BenchmarkResult:
    """Run one configuration for ``trials`` timed trials plus a warm-up.

    The target file is created and filled to ``cfg.file_size`` first when
    needed.  Trial t draws its offsets from stream t of ``cfg.seed``, so
    results are reproducible request-for-request; the warm-up trials use
    distant streams and are discarded.  Returns the median summary.
    """
    if trials < 1:
        raise ConfigError(f"need at least one trial, got {trials}")
    if warmup < 0:
        raise ConfigError(f"warm-up count may not be negative, got {warmup}")
    if clock_ghz is None:
        clock_ghz = detect_clock_ghz()
    _prepare_target(cfg)
    trial_fn = _trial_async if cfg.async_depth else _trial_sync
    samples = []
    logged: list[int] = []
    for index in range(warmup):
        trial_fn(cfg, make_rng(cfg.seed, _WARMUP_STREAM_BASE + index))
    for index in range(trials):
        sample, offsets = trial_fn(cfg, make_rng(cfg.seed, index))
        samples.append(sample)
        if cfg.offset_log is not None:
            logged.extend(offsets)
    if cfg.offset_log is not None:
        cfg.offset_log.write_text("".join(f"{o}\n" for o in logged))
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
    Every write is pushed through the OS cache before the next one is
    issued, which is what makes allocation cost visible at all; a purely
    cached run would defer it.  Each trial starts from scratch: any
    existing file at ``path`` is deleted first.
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
    pattern = bytes([_FILL_BYTE]) * block
    samples = []
    for _ in range(trials):
        if path.exists():
            path.unlink()
        requests = 0
        cpu_start = time.process_time()
        wall_start = time.perf_counter()
        with open_file(path, OpenDisposition.CREATE_NEW, Direction.WRITE) as handle:
            if mode is ExtensionMode.PREALLOCATED:
                handle.preallocate(final_size)
            written = 0
            while written < final_size:
                step = min(block, final_size - written)
                handle.write_block(pattern, step)
                handle.flush(FlushLevel.OPERATING_SYSTEM_CACHE)
                written += step
                requests += 1
            handle.flush(FlushLevel.OPERATING_SYSTEM_CACHE)
        wall = time.perf_counter() - wall_start
        cpu = time.process_time() - cpu_start
        samples.append(ThroughputSample(final_size, wall, cpu, requests))
    return BenchmarkResult.from_samples(samples, clock_ghz)
