"""Free-space fragmentation generator: create/delete churn over a volume.

Fresh filesystems hand out beautifully contiguous files, which makes
allocation-sensitive measurements look better than any aged machine would.
This module manufactures age: it fills a directory tree with random-size
files until the volume reaches a fill percentage, deletes a random subset
down to a keep percentage, and repeats.  The surviving files pin scattered
regions of the disk so the free space between them is shredded into small
holes.

Everything is driven by one seeded generator, so a (seed, config) pair
replays the exact same create/delete history, file for file and byte for
byte.  Event logs are therefore byte-identical across runs.

Two sizing modes:

* volume mode (default): percentages refer to the real capacity of the
  volume holding ``root``.  Occupancy is the space used when the run
  started plus the bytes this run is holding live.
* quota mode (``capacity_limit``): percentages refer to a stated byte
  budget, so the same churn can run inside a small corner of a big disk.
  Exceeding the quota behaves like a full device.
"""
from __future__ import annotations

import contextlib
import errno
import itertools
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path, PurePosixPath

from .core import DEFAULT_SEED, make_rng
from .engine import write_chunks

__all__ = [
    "FragConfig",
    "PhaseBoundary",
    "FragReport",
    "run_cycles",
]

_WRITE_CHUNK = 1 << 20
_FILL_BYTE = 0x66


@dataclass(frozen=True)
class FragConfig:
    """Knobs for one aging run; defaults match the companion CLI tool.

    ``max_cycles`` of 0 means run until interrupted.  ``event_log`` names
    a file that receives one ``C|D <relative-path> <bytes>`` line per
    create/delete as it happens.  A bounded run also keeps those lines
    in its report's ``events``; an unbounded one keeps none, so its
    memory does not grow with the cycles it runs.
    """

    root: Path
    max_files: int = 100_000
    min_file: int = 1 << 20
    max_file: int = 256 << 20
    files_per_cycle: int = 1000
    max_files_per_dir: int = 100
    max_subdirs: int = 10
    max_cycles: int = 0
    keep_pct: int = 5
    fill_pct: int = 70
    seed: int = DEFAULT_SEED
    capacity_limit: int | None = None
    event_log: Path | None = None

    def __post_init__(self):
        object.__setattr__(self, "root", Path(self.root))
        if self.event_log is not None:
            object.__setattr__(self, "event_log", Path(self.event_log))
        if not 1 <= self.keep_pct < self.fill_pct <= 99:
            raise ValueError(
                "percentages must satisfy 1 <= keep < fill <= 99, "
                f"got keep={self.keep_pct} fill={self.fill_pct}"
            )
        if self.min_file < 1:
            raise ValueError(f"minimum file size must be at least 1, got {self.min_file}")
        if self.min_file > self.max_file:
            raise ValueError(
                f"minimum file size {self.min_file} exceeds maximum {self.max_file}"
            )
        for name in ("max_files", "files_per_cycle", "max_files_per_dir"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.max_subdirs < 2:  # a fan-out of 1 holds only the root leaf
            raise ValueError(f"max_subdirs must be at least 2, got {self.max_subdirs}")
        if self.max_cycles < 0:
            raise ValueError(f"max_cycles may not be negative, got {self.max_cycles}")
        if self.seed < 0:
            raise ValueError(f"seed may not be negative, got {self.seed}")
        if self.capacity_limit is not None and self.capacity_limit < 1:
            raise ValueError(f"capacity limit must be positive, got {self.capacity_limit}")

    @classmethod
    def scaled(cls, root: Path, capacity_limit: int, **overrides) -> "FragConfig":
        """Desk-scale preset: file sizes shrunk in proportion to a quota.

        Keeps the default shape (hundreds of files of mixed sizes) inside
        ``capacity_limit`` bytes, and bounds the run at two cycles so a
        smoke run terminates on its own.
        """
        max_file = min(max(capacity_limit // 64, 64 * 1024), 256 << 20)
        min_file = max(max_file // 16, 4096)
        settings = dict(
            max_file=max_file,
            min_file=min(min_file, max_file),
            max_cycles=2,
            capacity_limit=capacity_limit,
        )
        settings.update(overrides)
        return cls(root=root, **settings)


@dataclass(frozen=True)
class PhaseBoundary:
    """Occupancy snapshot when a fill or purge phase ended."""

    cycle: int
    phase: str  # "fill" or "purge"
    occupancy: int
    target: int


@dataclass(frozen=True)
class FragReport:
    capacity: int
    base_used: int
    created_files: int
    deleted_files: int
    bytes_written: int
    bytes_deleted: int
    cycles_run: int
    boundaries: tuple[PhaseBoundary, ...]
    events: tuple[str, ...]
    survivors: tuple[tuple[str, int], ...]
    notes: tuple[str, ...] = ()

    @property
    def live_bytes(self) -> int:
        return self.bytes_written - self.bytes_deleted

    @property
    def final_fill_pct(self) -> float:
        return 100.0 * (self.base_used + self.live_bytes) / self.capacity


def _plan_directory_tree(cfg: FragConfig, volume_capacity: int) -> tuple[PurePosixPath, ...]:
    """The leaf directories a run places its files in, as paths under its root.

    There are enough leaves of ``max_files_per_dir`` files for
    min(ceil(fill target / min_file), max_files) files, where the fill
    target is ``fill_pct`` of ``volume_capacity`` bytes.  A run never holds
    that many live when it creates one: every file is at least
    ``min_file`` bytes, and creation stops at the fill target or at
    ``max_files`` live files.  So the least-loaded leaf always has room.
    Interior levels fan out ``max_subdirs`` wide, as many levels as needed;
    a single leaf is the root itself.
    """
    slots = math.ceil(volume_capacity * cfg.fill_pct / 100 / cfg.min_file)
    slots = min(max(slots, 1), cfg.max_files)
    leaf_count = math.ceil(slots / cfg.max_files_per_dir)
    if leaf_count == 1:
        return (PurePosixPath("."),)
    levels = 1
    while cfg.max_subdirs**levels < leaf_count:
        levels += 1
    width = len(str(cfg.max_subdirs - 1))
    leaves = []
    for index in range(leaf_count):
        parts = []
        remainder = index
        for _ in range(levels):
            remainder, digit = divmod(remainder, cfg.max_subdirs)
            parts.append(f"d{digit:0{width}d}")
        leaves.append(PurePosixPath(*reversed(parts)))
    return tuple(leaves)


def _write_file(path: str, size: int, chunk: bytes) -> None:
    """Create ``path`` and write ``size`` bytes of it from ``chunk``, repeated.

    The writes are the chunk's length each, the last one cut where
    ``size`` ends.  On a failure or an interrupt, nothing is left behind.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        write_chunks(fd, itertools.repeat(chunk), 0, size)
    except BaseException:
        os.close(fd)
        with contextlib.suppress(OSError):
            os.unlink(path)
        raise
    os.close(fd)


def run_cycles(cfg: FragConfig) -> FragReport:
    """Run fill/purge cycles under ``cfg.root`` and report what happened.

    Each cycle creates files of uniform random size in [min_file,
    max_file] until the fill target, the per-cycle file budget or the
    total file cap binds, placing each file in the currently least-loaded
    leaf.  After a sync (files must reach the allocator before deletions
    can carve holes), a uniform random subset is deleted until occupancy
    drops to the keep target.  A full disk is absorbed by moving to the
    purge phase early; anything else (such as a permission error) aborts
    with the original exception.

    The per-file work is a string join and the system calls: the fill
    chunk is built once per call, and each file's path is its leaf's
    prefix (``""`` for the root leaf, ``"d0/d3/"`` otherwise) plus its
    name, made absolute by a prefix string for ``cfg.root``.
    """
    root = cfg.root
    root.mkdir(parents=True, exist_ok=True)
    if cfg.capacity_limit is not None:
        capacity, base_used = cfg.capacity_limit, 0
    else:
        usage = shutil.disk_usage(root)
        capacity, base_used = usage.total, usage.used
    fill_target = capacity * cfg.fill_pct // 100
    keep_target = capacity * cfg.keep_pct // 100

    leaves = _plan_directory_tree(cfg, capacity)
    for leaf in leaves:
        (root / leaf).mkdir(parents=True, exist_ok=True)
    prefixes = [f"{leaf}/" if leaf.parts else "" for leaf in leaves]
    base = os.path.join(root, "")
    chunk = bytes([_FILL_BYTE]) * min(_WRITE_CHUNK, cfg.max_file)

    rng = make_rng(cfg.seed)
    live: list[tuple[str, int, int]] = []  # (relative path, size, leaf index) per live file
    leaf_loads = [0] * len(leaves)

    events: list[str] = []
    notes: list[str] = []
    boundaries: list[PhaseBoundary] = []
    created = deleted = 0
    bytes_written = bytes_deleted = 0
    occupancy = base_used  # base_used + bytes_written - bytes_deleted
    serial = 0
    in_flight = None  # ("C", path) or ("D", index into live) until that change is recorded
    log_stream = open(cfg.event_log, "w") if cfg.event_log is not None else None

    def record(event: str) -> None:
        if cfg.max_cycles:
            events.append(event)
        if log_stream is not None:
            log_stream.write(event + "\n")

    def drop(index: int) -> None:
        """Record the delete of ``live[index]``, whose file is gone."""
        nonlocal deleted, bytes_deleted, occupancy
        live[index], live[-1] = live[-1], live[index]
        rel, size, leaf = live.pop()
        leaf_loads[leaf] -= 1
        deleted += 1
        bytes_deleted += size
        occupancy -= size
        record(f"D {rel} {size}")

    try:
        cycles = range(1, cfg.max_cycles + 1) if cfg.max_cycles else itertools.count(1)
        cycles_run = 0
        for cycle in cycles:
            cycles_run = cycle
            created_this_cycle = 0
            while (
                occupancy < fill_target
                and created_this_cycle < cfg.files_per_cycle
                and len(live) < cfg.max_files
            ):
                size = int(rng.integers(cfg.min_file, cfg.max_file, endpoint=True))
                if cfg.capacity_limit is not None and occupancy + size > capacity:
                    notes.append(f"cycle {cycle}: quota full, purging early")
                    break
                leaf_index = leaf_loads.index(min(leaf_loads))
                rel = f"{prefixes[leaf_index]}f{serial:08d}.dat"
                serial += 1
                in_flight = "C", rel
                try:
                    _write_file(base + rel, size, chunk)
                except OSError as exc:
                    if exc.errno == errno.ENOSPC:
                        notes.append(f"cycle {cycle}: volume full, purging early")
                        break
                    raise
                live.append((rel, size, leaf_index))
                leaf_loads[leaf_index] += 1
                created += 1
                created_this_cycle += 1
                bytes_written += size
                occupancy += size
                record(f"C {rel} {size}")
                in_flight = None
            boundaries.append(PhaseBoundary(cycle, "fill", occupancy, fill_target))
            os.sync()
            while occupancy > keep_target and live:
                pick = int(rng.integers(0, len(live)))
                in_flight = "D", pick
                os.unlink(base + live[pick][0])
                drop(pick)
                in_flight = None
            boundaries.append(PhaseBoundary(cycle, "purge", occupancy, keep_target))
    except KeyboardInterrupt:
        # An unbounded run (max_cycles 0) ends by interrupt; report what
        # was done rather than explode, and leave the disk as reported.
        notes.append("interrupted, stopping after partial cycle")
        op, target = in_flight or (None, None)
        if op == "C" and os.path.lexists(base + target):
            os.unlink(base + target)
        elif op == "D" and not os.path.lexists(base + live[target][0]):
            drop(target)
    finally:
        if log_stream is not None:
            log_stream.close()

    survivors = tuple(sorted((rel, size) for rel, size, _ in live))
    return FragReport(
        capacity=capacity,
        base_used=base_used,
        created_files=created,
        deleted_files=deleted,
        bytes_written=bytes_written,
        bytes_deleted=bytes_deleted,
        cycles_run=cycles_run,
        boundaries=tuple(boundaries),
        events=tuple(events),
        survivors=survivors,
        notes=tuple(notes),
    )
