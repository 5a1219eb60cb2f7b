"""Overlapped file copy driven by one long-lived slot per in-flight request.

Each of ``depth`` slots owns one block buffer and walks its own offsets,
range(i*B, size, depth*B), as ``plan_schedule`` lays them out; slot 0
runs on the calling thread and every other slot on a thread of its own.
For each block a slot reads, waits for the block's turn, runs the
per-buffer hook, passes the turn on and writes.  The turns are one plain
lock per slot, held while it is not that slot's turn and released by the
slot before it, so hooks see blocks in file order and each write follows
its own hook call, while transfers of different slots overlap
(preadv/pwritev release the interpreter lock).  Each slot keeps its own
counts, summed once every slot has finished, and a busy flag set while
it is in a transfer; the in-flight high-water mark counts the set flags
as each transfer enters.  So the ring's state does not grow with the
file.  Only the final block is short, and it moves at its exact length.
The first failure in any slot, a hook exception or a shrunk source
included, releases every turn so that all slots finish, and aborts the copy.

Before the first read, the destination is preallocated to the source's
length (engine.preallocate), so the slots' concurrent writes fill blocks
that already exist instead of allocating them under the file's lock,
where the other slot's write waits.  A disk too full for the copy fails
there, before any block moves, with a report of no progress.
"""
from __future__ import annotations

import contextlib
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable

from .engine import preallocate, run_slots, transfer_full
from .errors import CopyAbortedError

__all__ = [
    "DEFAULT_BLOCK", "DEFAULT_DEPTH", "CopyReport", "plan_schedule", "copy_file",
]

DEFAULT_BLOCK = 1 << 20  # bytes per request
DEFAULT_DEPTH = 4  # slot threads, so at most this many requests in flight


@dataclass(frozen=True)
class CopyReport:
    """Accounting for one copy: request counts, bytes, wall time, overlap.

    ``wall_time`` runs from the start of the call until every slot has
    finished, so it includes opening both files and preallocating the
    destination.
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
    yields an empty schedule.  This is the reference layout: copy_file's
    slots walk it without building it.
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


def _process_hook(block: memoryview) -> None:
    """Default per-buffer processing step: look at nothing, change nothing."""


def copy_file(
    src: str | os.PathLike,
    dst: str | os.PathLike,
    block: int = DEFAULT_BLOCK,
    depth: int = DEFAULT_DEPTH,
    hook: Callable[[memoryview], None] = _process_hook,
) -> CopyReport:
    """Copy ``src`` to a brand new ``dst`` with overlapped transfers.

    The destination must not exist (FileExistsError if it does, and the
    existing file is left alone); a missing source raises
    FileNotFoundError.  Before the first read, ``dst`` is preallocated
    to the source's length, so a disk too full for the copy fails there,
    with a report of no reads and no writes.  ``hook`` sees each block
    read-only, between its read completing and its write being issued,
    in file order.  Any failure, including a hook exception, aborts the
    copy, deletes the partial destination, and raises CopyAbortedError
    carrying a CopyReport of the progress made; an interrupt such as
    KeyboardInterrupt deletes it too and stays itself.
    """
    if block < 1 or depth < 1:
        raise ValueError(f"block and depth must be at least 1, got {block} and {depth}")
    started = time.perf_counter()
    with open(src, "rb", buffering=0) as source, open(dst, "xb", buffering=0) as target:
        try:
            size = os.fstat(source.fileno()).st_size
            return _copy_blocks(source.fileno(), target.fileno(), size, block, depth, hook, started)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(dst)
            raise


def _copy_blocks(src_fd, dst_fd, size, block, depth, hook, started) -> CopyReport:
    depth = min(depth, -(-size // block))  # a slot without blocks starts no thread
    turns = [threading.Lock() for _ in range(depth)]
    for turn in turns[1:]:
        turn.acquire()  # a held turn is not yet that slot's; block 0 starts
    stopped: list[bool] = []  # non-empty once a slot has failed; holds no exception
    tallies: list[tuple[int, int, int, int]] = []  # (reads, writes, bytes, peak) per slot
    busy = bytearray(depth)  # 1 while that slot is inside a transfer
    preadv, pwritev = os.preadv, os.pwritev

    def slot(index: int) -> None:
        reads = writes = copied = peak = 0
        full = min(block, size)
        view = memoryview(bytearray(full))
        iov, shown = [view], view.toreadonly()
        turn, following = turns[index], turns[(index + 1) % depth]
        try:
            for offset in range(index * block, size, depth * block):
                length = min(block, size - offset)
                if length != full:  # the final block, shorter than the rest
                    iov, shown = [view[:length]], view[:length].toreadonly()
                busy[index] = 1
                peak = max(peak, sum(busy))
                got = preadv(src_fd, iov, offset)
                if got != length:
                    got += transfer_full(src_fd, view[got:], offset + got, length - got,
                                         write=False)
                    if got != length:
                        raise OSError(
                            f"source shrank mid-copy: wanted {length} bytes at offset "
                            f"{offset}, got {got}"
                        )
                busy[index] = 0
                turn.acquire()
                if stopped:
                    return
                reads += 1  # only the turn holder counts reads
                hook(shown)
                following.release()
                busy[index] = 1
                peak = max(peak, sum(busy))
                got = pwritev(dst_fd, iov, offset)
                if got != length:
                    transfer_full(dst_fd, view[got:], offset + got, length - got, write=True)
                busy[index] = 0
                writes += 1
                copied += length
        finally:
            tallies.append((reads, writes, copied, peak))

    def fail(exc: BaseException) -> None:
        stopped.append(True)
        for turn in turns:  # every waiting slot wakes, sees the stop and returns
            with contextlib.suppress(RuntimeError):  # that turn was not held
                turn.release()

    def progress() -> CopyReport:
        reads, writes, copied, peaks = zip((0, 0, 0, 0), *tallies)
        return CopyReport(
            sum(copied), sum(reads), sum(writes), time.perf_counter() - started, max(peaks)
        )

    try:
        preallocate(dst_fd, size)
        run_slots(depth, slot, fail)
    except Exception as exc:  # an interrupt such as KeyboardInterrupt stays itself
        raise CopyAbortedError(f"copy aborted: {exc}", progress()) from exc
    return progress()
