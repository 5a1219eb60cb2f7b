"""Overlapped file copy driven by one long-lived thread per slot.

Each of ``depth`` slot threads owns one block buffer and the block offsets
i*B, (i+depth)*B, ...; for each block it reads, waits for the block's
turn, runs the per-buffer hook, passes the turn on and writes.  The turn
is a turnstile of one semaphore per slot handed on in file order, so hooks
see blocks in file order and each write follows its own hook call, while
transfers of different slots overlap (preadv/pwritev release the
interpreter lock).  The final block moves at its exact length.  The first
failure in any slot, a hook exception or a source that shrank included,
releases every turn so that all slots finish, and the copy is aborted.
"""
from __future__ import annotations

import contextlib
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable

from .engine import run_slots, transfer_full
from .errors import CopyAbortedError

__all__ = [
    "DEFAULT_BLOCK", "DEFAULT_DEPTH", "CopyReport", "plan_schedule", "process_hook", "copy_file",
]

DEFAULT_BLOCK = 1 << 20  # bytes per request
DEFAULT_DEPTH = 4  # slot threads, so at most this many requests in flight


@dataclass(frozen=True)
class CopyReport:
    """Accounting for one copy: request counts, bytes, wall time, overlap.

    ``peak_outstanding`` is the most requests, reads and writes together,
    that were inside their system calls at the same moment.
    """

    bytes_copied: int
    read_requests: int
    write_requests: int
    wall_time: float
    peak_outstanding: int


def plan_schedule(file_size: int, block: int, depth: int) -> list[tuple[int, int, int]]:
    """Lay out the copy as (slot, offset, length) triples in offset order.

    The triples tile [0, file_size) exactly: offsets rise by ``block``,
    every length is ``block`` except a possibly shorter final one, and the
    slot for a request is (offset // block) mod depth.  A zero-size file
    yields an empty schedule.
    """
    if block < 1:
        raise ValueError(f"block must be at least 1 byte, got {block}")
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    if file_size < 0:
        raise ValueError(f"file size may not be negative, got {file_size}")
    return [
        (index % depth, offset, min(block, file_size - offset))
        for index, offset in enumerate(range(0, file_size, block))
    ]


def process_hook(block: memoryview) -> None:
    """Default per-buffer processing step: look at nothing, change nothing."""


def copy_file(
    src: str | os.PathLike,
    dst: str | os.PathLike,
    block: int = DEFAULT_BLOCK,
    depth: int = DEFAULT_DEPTH,
    hook: Callable[[memoryview], None] = process_hook,
) -> CopyReport:
    """Copy ``src`` to a brand new ``dst`` with overlapped transfers.

    The destination must not exist (FileExistsError if it does, and the
    existing file is left alone); a missing source raises
    FileNotFoundError.  ``hook`` sees each block read-only, between its
    read completing and its write being issued, in file order.  Any
    failure mid-copy, including a hook exception, aborts the copy, deletes
    the partial destination, and raises CopyAbortedError carrying a
    CopyReport of the progress made.
    """
    started = time.perf_counter()
    with open(src, "rb", buffering=0) as source, open(dst, "xb", buffering=0) as target:
        try:
            schedule = plan_schedule(os.fstat(source.fileno()).st_size, block, depth)
            return _copy_blocks(source.fileno(), target.fileno(), schedule, depth, hook, started)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(dst)
            raise


def _copy_blocks(src_fd, dst_fd, schedule, depth, hook, started) -> CopyReport:
    depth = min(depth, len(schedule))  # a slot without blocks starts no thread
    turns = [threading.Semaphore(int(i == 0)) for i in range(depth)]  # block 0 starts
    lock = threading.Lock()
    errors: list[BaseException] = []
    reads = writes = copied = busy = peak = 0

    def transfer(fd, view, offset, length, *, write) -> int:
        nonlocal busy, peak
        with lock:
            busy += 1
            peak = max(peak, busy)
        try:
            return transfer_full(fd, view, offset, length, write=write)
        finally:
            with lock:
                busy -= 1

    def slot(index: int) -> None:
        nonlocal reads, writes, copied
        view = memoryview(bytearray(schedule[0][2]))
        for _, offset, length in schedule[index::depth]:
            got = transfer(src_fd, view, offset, length, write=False)
            if got != length:
                raise OSError(
                    f"source shrank mid-copy: wanted {length} bytes at offset {offset}, got {got}"
                )
            turns[index].acquire()
            if errors:
                return
            reads += 1  # only the turn holder counts reads
            hook(view[:length].toreadonly())
            turns[(index + 1) % depth].release()
            transfer(dst_fd, view, offset, length, write=True)
            with lock:
                writes += 1
                copied += length

    def fail(exc: BaseException) -> None:
        with lock:
            errors.append(exc)
        for turn in turns:
            turn.release()

    run_slots(depth, slot, fail)
    report = CopyReport(copied, reads, writes, time.perf_counter() - started, peak)
    if errors:
        raise CopyAbortedError(f"copy aborted: {errors[0]}", report) from errors[0]
    return report
