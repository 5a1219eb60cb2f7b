"""File I/O engine: open dispositions, aligned buffers, two buffering tiers.

This is the package's one home of OS file services, for Linux only:
direct opens, access hints, preallocation, sector geometry and extent
counts.  The only transfers made outside it are the inline preadv/pwritev
of the trial and copy loops.

The benchmarks in this package need to know exactly which software layer a
transfer passes through.  FileHandle therefore comes in two flavours:

* buffered: a user-space stream buffer in front of the OS file cache, the
  ordinary way programs read and write files.
* direct: no user-space buffering and the OS cache bypassed, so every
  read_block/write_block is a real device-sized request.  The filesystem
  enforces sector alignment for these; validate_direct_request mirrors the
  rules so violations are rejected up front with a full diagnosis instead
  of a bare EINVAL mid-run.

Positions are explicit.  A handle tracks one position, read_block and
write_block advance it, seek moves it.  A handle must be driven by one
thread at a time.

transfer_full is the one full-transfer loop in the package: every
positional request that must move all of its bytes goes through it, and
write_chunks feeds it every file fill that no timer measures.
run_slots is the one place that starts threads: the overlapped trial and
the copy run their slots on it, slot 0 on the calling thread and one
long-lived thread for each of the others.  It is also the one place that
raises a slot's failure.
"""
from __future__ import annotations

import contextlib
import enum
import errno
import fcntl
import functools
import io
import os
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .core import Direction, OpenDisposition
from .errors import (
    DirectIoUnsupportedError,
    DirectRequestError,
    ExtentQueryError,
    GeometryProbeError,
)

__all__ = [
    "IoMode",
    "AccessHint",
    "FlushLevel",
    "SectorGeometry",
    "FALLBACK_GEOMETRY",
    "DEFAULT_STREAM_BUFFER",
    "detect_sector_geometry",
    "AlignedBuffer",
    "validate_direct_request",
    "transfer_full",
    "write_chunks",
    "run_slots",
    "FileHandle",
    "open_file",
    "count_extents",
    "supports_direct_io",
]

#: Stream buffer size for buffered handles.  64 KiB keeps user-space call
#: overhead negligible without hiding the OS cache behaviour being measured.
DEFAULT_STREAM_BUFFER = 64 * 1024

#: Sector sizes below this are not plausible on anything this package targets.
_MIN_SECTOR = 512

#: Alignment that is safe for direct transfers on every supported target,
#: regardless of what the logical sector size turns out to be.
_SAFE_ALIGNMENT = 64 * 1024

# FIEMAP ioctl pieces, from linux/fiemap.h.  The request header is
# fm_start, fm_length (u64); fm_flags, fm_mapped_extents, fm_extent_count,
# fm_reserved (u32).  With fm_extent_count == 0 the kernel only counts.
_FS_IOC_FIEMAP = 0xC020660B
_FIEMAP_FLAG_SYNC = 0x0001
_FIEMAP_HEADER = struct.Struct("=QQIIII")


class IoMode(enum.Enum):
    BUFFERED = "buffered"
    DIRECT = "direct"


class AccessHint(enum.Enum):
    SEQUENTIAL = "sequential"
    RANDOM = "random"


class FlushLevel(enum.Enum):
    """How far a flush should push dirty data.

    APPLICATION_BUFFERS drains the user-space stream buffer into the OS
    cache.  OPERATING_SYSTEM_CACHE additionally asks the OS to push its
    cached dirty pages to the device; that is also the strongest
    durability request this package makes (whether the device then empties
    its own volatile cache is between the OS and the hardware).
    """

    APPLICATION_BUFFERS = "application_buffers"
    OPERATING_SYSTEM_CACHE = "operating_system_cache"


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class SectorGeometry:
    """Alignment rules for direct transfers on one volume.

    ``logical_sector`` is the unit the filesystem actually enforces;
    ``recommended_alignment`` is the conservative unit callers should
    allocate with, never smaller than the sector and never smaller than
    64 KiB so one buffer works across volumes.
    """

    logical_sector: int
    recommended_alignment: int

    def __post_init__(self):
        if not _is_power_of_two(self.logical_sector) or self.logical_sector < _MIN_SECTOR:
            raise ValueError(
                f"logical sector must be a power of two >= {_MIN_SECTOR}, got {self.logical_sector}"
            )
        if not _is_power_of_two(self.recommended_alignment):
            raise ValueError(
                f"recommended alignment must be a power of two, got {self.recommended_alignment}"
            )
        if self.recommended_alignment < max(self.logical_sector, _SAFE_ALIGNMENT):
            raise ValueError(
                "recommended alignment must be at least "
                f"max(sector, {_SAFE_ALIGNMENT}), got {self.recommended_alignment}"
            )


#: What detect_sector_geometry offers when the probe fails.  Callers must
#: adopt it explicitly (it rides along on GeometryProbeError); nothing in
#: this package assumes it silently.
FALLBACK_GEOMETRY = SectorGeometry(4096, _SAFE_ALIGNMENT)


def detect_sector_geometry(path: str | os.PathLike) -> SectorGeometry:
    """Probe the volume holding ``path`` for its direct-transfer alignment.

    Reads the logical sector size from the device's sysfs queue, or from
    its parent disk's when a partition has no queue of its own.  Raises
    GeometryProbeError, carrying FALLBACK_GEOMETRY, when the device
    cannot be resolved or reports something implausible.
    """
    try:
        st = os.stat(path)
        node = Path(f"/sys/dev/block/{os.major(st.st_dev)}:{os.minor(st.st_dev)}")
        queues = [node / "queue"]
        with contextlib.suppress(OSError):
            queues.append(node.resolve(strict=True).parent / "queue")
        for queue in queues:
            with contextlib.suppress(OSError, ValueError):
                sector = int((queue / "logical_block_size").read_text())
                break
        else:
            raise OSError(f"no block device queue information at {node}")
    except OSError as exc:
        raise GeometryProbeError(
            f"cannot determine sector size for {os.fspath(path)!r}: {exc}", FALLBACK_GEOMETRY
        ) from exc
    if sector < _MIN_SECTOR or not _is_power_of_two(sector):
        raise GeometryProbeError(
            f"implausible sector size {sector} reported for {os.fspath(path)!r}", FALLBACK_GEOMETRY
        )
    return SectorGeometry(sector, max(sector, _SAFE_ALIGNMENT))


class AlignedBuffer:
    """Zero-filled transfer buffer whose base address is alignment-aligned.

    The allocation over-provisions by one alignment unit and slices at the
    first aligned byte, so no platform allocator support is needed.  The
    numpy view keeps the parent allocation alive.
    """

    __slots__ = ("capacity", "alignment", "_array")

    def __init__(self, capacity: int, alignment: int):
        if capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
        if not _is_power_of_two(alignment):
            raise ValueError(f"alignment must be a power of two, got {alignment}")
        raw = np.zeros(capacity + alignment, dtype=np.uint8)
        start = (-raw.ctypes.data) % alignment
        self.capacity = capacity
        self.alignment = alignment
        self._array = raw[start : start + capacity]

    @property
    def address(self) -> int:
        """Base address of the usable region."""
        return self._array.ctypes.data

    @property
    def array(self) -> np.ndarray:
        """The usable region as a uint8 numpy array."""
        return self._array

    @property
    def view(self) -> memoryview:
        """Writable memoryview of the usable region."""
        return memoryview(self._array)

    def __len__(self) -> int:
        return self.capacity

    def __repr__(self) -> str:
        return f"AlignedBuffer(capacity={self.capacity}, alignment={self.alignment})"


def validate_direct_request(geometry, buffer, length: int, file_offset: int) -> list[str]:
    """Check one prospective direct transfer against the volume's rules.

    Returns every violated rule (empty list means the request is legal).
    ``buffer`` may be anything exposing ``address`` and ``capacity``.
    """
    violations = []
    sector = geometry.logical_sector
    address = buffer.address
    capacity = buffer.capacity
    if length < 0:
        violations.append(f"negative length {length}")
    if file_offset < 0:
        violations.append(f"negative file offset {file_offset}")
    if address % sector:
        violations.append(f"misaligned base address {address:#x} (sector {sector})")
    if length >= 0 and length % sector:
        violations.append(f"ragged length {length} (sector {sector})")
    if file_offset >= 0 and file_offset % sector:
        violations.append(f"ragged file offset {file_offset} (sector {sector})")
    if length > capacity:
        violations.append(f"capacity exceeded: length {length} > buffer capacity {capacity}")
    return violations


def transfer_full(fd: int, view: memoryview, offset: int, length: int, *, write: bool) -> int:
    """Move ``length`` bytes between ``view`` and ``fd`` at ``offset``.

    Short transfers are continued where they stopped.  A read that
    returns 0 has hit the end of the file: the loop ends and the short
    count is returned for the caller to judge.  A write that returns 0
    cannot make progress by retrying, so it raises OSError.  Returns the
    byte count moved.
    """
    call = os.pwritev if write else os.preadv
    done = 0
    while done < length:
        moved = call(fd, [view[done:length]], offset + done)
        if moved == 0:
            if write:
                raise OSError(
                    f"write made no progress: {done} of {length} bytes at offset {offset}"
                )
            break
        done += moved
    return done


def write_chunks(fd: int, chunks: Iterable, offset: int, length: int) -> None:
    """Write ``length`` bytes at ``offset``, taken in order from ``chunks``.

    Each chunk goes through transfer_full; the last one used is cut where
    ``length`` ends, and no chunk past it is taken.  This fills files with
    content that no timer measures.  Raises ValueError when ``chunks``
    ends, or yields an empty chunk, before ``length`` bytes are written.
    """
    chunks = iter(chunks)
    end = offset + length
    while offset < end:
        view = memoryview(next(chunks, b""))
        step = min(len(view), end - offset)
        if step == 0:
            raise ValueError(f"chunks gave out {end - offset} bytes short of {length}")
        transfer_full(fd, view, offset, step, write=True)
        offset += step


def run_slots(
    depth: int, slot: Callable[[int], None], fail: Callable[[BaseException], None]
) -> None:
    """Run ``slot(0)`` .. ``slot(depth - 1)``, wait for all of them, raise any failure.

    Slot 0 runs on the calling thread and the others on daemon threads,
    so depth 1 starts none.  An exception escaping a slot, or raised while
    starting the threads, is recorded and handed to ``fail``, which must
    make the other slots finish and keep no exception.  An interrupt (a
    signal handler's exception, Ctrl-C) that reaches the calling thread
    while it runs slot 0 is that slot's exception; one that reaches the
    wait for the others goes to ``fail`` too, and the wait goes on.  Once
    every started thread is joined, this raises the first interrupt that
    reached the wait, or else the first failure, and empties its record
    so that no traceback is left in a reference cycle.
    """
    failures: list[BaseException] = []  # interrupts that reached the wait come first
    waited = 0  # how many of those there are

    def failed(exc: BaseException) -> None:
        failures.append(exc)
        fail(exc)

    def guarded(index: int, finished=None) -> None:
        try:
            slot(index)
        except BaseException as exc:  # recorded: raised once every slot has finished
            failed(exc)
        finally:
            if finished is not None:
                finished.release()

    started = []
    try:
        for index in range(1, depth):
            # Held until the slot ends.  An interrupted acquire takes nothing and can
            # be retried; an interrupted Thread.join may give up on a live thread.
            finished = threading.Lock()
            finished.acquire()
            thread = threading.Thread(target=guarded, args=(index, finished), daemon=True)
            thread.start()
            started.append((thread, finished))
        if depth > 0:
            guarded(0)
    except BaseException as exc:  # recorded: raised once every slot has finished
        failed(exc)
    for thread, finished in started:
        while True:
            try:
                with finished:
                    pass
                thread.join()
                break
            except BaseException as exc:  # an interrupt: stop every slot, wait, re-raise
                failures.insert(waited, exc)
                waited += 1
                fail(exc)
    try:
        if failures:
            raise failures[0]
    finally:
        failures.clear()


# os.open flag bits per disposition; read/write access bits are added later.
_DISPOSITION_FLAGS = {
    OpenDisposition.OPEN: 0,
    OpenDisposition.CREATE: os.O_CREAT | os.O_TRUNC,
    OpenDisposition.CREATE_NEW: os.O_CREAT | os.O_EXCL,
    OpenDisposition.OPEN_OR_CREATE: os.O_CREAT,
    OpenDisposition.APPEND: os.O_CREAT,
    OpenDisposition.TRUNCATE: os.O_TRUNC,
}

_ADVICE = {
    AccessHint.SEQUENTIAL: os.POSIX_FADV_SEQUENTIAL,
    AccessHint.RANDOM: os.POSIX_FADV_RANDOM,
}


class FileHandle:
    """An open file with an explicit position and a fixed buffering tier.

    Create these with open_file.  Handles are context managers; closing is
    idempotent.  Every handle is readable; writability follows from the
    (disposition, direction) pair it was opened with.
    """

    def __init__(self, fd, *, path, mode, geometry, writable, stream):
        self.path = Path(path)
        self.mode = mode
        self.geometry = geometry
        self.writable = writable
        self._fd = fd
        self._stream = stream  # None for direct handles
        self._pos = 0  # authoritative only for direct handles
        self._closed = False

    # -- introspection -------------------------------------------------

    def fileno(self) -> int:
        return self._fd

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def position(self) -> int:
        if self._stream is not None:
            return self._stream.tell()
        return self._pos

    @property
    def length(self) -> int:
        """Current file length in bytes, counting un-flushed stream data."""
        if self._stream is not None and self.writable:
            self._stream.flush()
        return os.fstat(self._fd).st_size

    # -- positioning ---------------------------------------------------

    def seek(self, offset: int) -> None:
        """Move the position to an absolute byte offset."""
        if offset < 0:
            raise ValueError(f"cannot seek to negative offset {offset}")
        if self._stream is not None:
            self._stream.seek(offset)
        else:
            self._pos = offset

    # -- transfers -----------------------------------------------------

    def read_block(self, buffer, length: int | None = None) -> int:
        """Read up to ``length`` bytes at the current position.

        Returns the byte count actually read; 0 means end of file.  The
        position advances by the returned count.  On a buffered handle a
        whole ``bytearray`` (``length`` None or its size) goes straight to
        the stream; any other buffer, or a shorter length, is made a flat
        byte view first.  On a direct handle the request is validated
        against the volume geometry first and a DirectRequestError names
        every violation before anything is read.
        """
        stream = self._stream
        if stream is None:
            return self._direct_transfer(buffer, length, write=False)
        if type(buffer) is not bytearray or (length is not None and length != len(buffer)):
            buffer = _stream_view(buffer, length, target=True)
        return (stream.readinto(buffer) or 0) if buffer else 0

    def write_block(self, buffer, length: int | None = None) -> int:
        """Write ``length`` bytes at the current position; returns that count.

        Unlike reads, writes are all-or-nothing: the full count is written
        (the file grows as needed) or an exception is raised.  On a
        buffered handle a whole ``bytes`` or ``bytearray`` (``length`` None
        or its size) goes straight to the stream; any other buffer, or a
        shorter length, is made a flat byte view first.
        """
        if not self.writable:
            raise io.UnsupportedOperation(f"{self.path} is open read-only")
        stream = self._stream
        if stream is None:
            return self._direct_transfer(buffer, length, write=True)
        kind = type(buffer)
        if (kind is not bytes and kind is not bytearray) or (
            length is not None and length != len(buffer)
        ):
            buffer = _stream_view(buffer, length, target=False)
        if buffer:
            stream.write(buffer)
        return len(buffer)

    def lines(self) -> Iterator[bytes]:
        """The lines from the current position to end of file, terminators kept.

        They are split out of the stream buffer, so line reads issue the
        same read calls as any other buffered read of the file.  A direct
        handle has no stream buffer and raises io.UnsupportedOperation.
        """
        if self._stream is None:
            raise self._needs_a_stream("lines")
        return iter(self._stream)

    def reads(self, size: int) -> Iterator[bytes]:
        """Reads of ``size`` bytes from the current position until end of file.

        Each item is one stream read call, made from C, so taking it runs no
        Python frame; the last may be short.  A read of at most the stream
        buffer, or of a multiple of it, issues the read calls ``read_block``
        would; a longer read takes the whole stream buffers straight from
        the file and the rest through the buffer.  A direct handle raises
        io.UnsupportedOperation.
        """
        if self._stream is None:
            raise self._needs_a_stream("reads")
        if size < 1:
            raise ValueError(f"read size must be at least 1 byte, got {size}")
        return iter(functools.partial(self._stream.read, size), b"")

    def write_each(self, pieces: Iterable) -> None:
        """Write every piece of ``pieces`` at the current position, in order.

        Each piece is one stream write call, made from C, so no Python
        frame runs per piece; the stream batches them into the system
        calls any buffered write makes.  A read-only handle refuses, as
        write_block does, and a direct handle raises io.UnsupportedOperation.
        """
        if not self.writable:
            raise io.UnsupportedOperation(f"{self.path} is open read-only")
        if self._stream is None:
            raise self._needs_a_stream("write_each")
        self._stream.writelines(pieces)

    def _needs_a_stream(self, method: str) -> io.UnsupportedOperation:
        return io.UnsupportedOperation(f"{self.path} is direct; {method}() needs a buffered handle")

    def _direct_transfer(self, buffer, length, *, write: bool) -> int:
        if not (hasattr(buffer, "address") and hasattr(buffer, "capacity")):
            raise TypeError(
                "direct transfers need an aligned buffer exposing .address and "
                f".capacity (see AlignedBuffer), got {type(buffer).__name__}"
            )
        if length is None:
            length = buffer.capacity
        violations = validate_direct_request(self.geometry, buffer, length, self._pos)
        if violations:
            raise DirectRequestError(violations)
        if length == 0:
            return 0
        view = buffer.view
        if write:
            transfer_full(self._fd, view, self._pos, length, write=True)
            self._pos += length
            return length
        got = os.preadv(self._fd, [view[:length]], self._pos)
        self._pos += got
        return got

    # -- durability and allocation --------------------------------------

    def flush(self, level: FlushLevel = FlushLevel.APPLICATION_BUFFERS) -> None:
        """Drain buffered data down to the requested tier."""
        if not self.writable:
            raise io.UnsupportedOperation(f"{self.path} is open read-only; nothing to flush")
        if self._stream is not None:
            self._stream.flush()
        if level is FlushLevel.OPERATING_SYSTEM_CACHE:
            os.fsync(self._fd)

    def preallocate(self, size: int) -> None:
        """Set the file length to exactly ``size`` without writing data.

        Growing reserves backing extents eagerly where the filesystem
        supports that (so later writes into the region do not pay for
        allocation); shrinking truncates.  The position is clamped to the
        new end when it would otherwise point past it.
        """
        if size < 0:
            raise ValueError(f"cannot preallocate a negative size {size}")
        if not self.writable:
            raise io.UnsupportedOperation(f"{self.path} is open read-only")
        if self._stream is not None:
            self._stream.flush()
        current = os.fstat(self._fd).st_size
        if size > current:
            try:
                os.posix_fallocate(self._fd, 0, size)
            except OSError:
                os.ftruncate(self._fd, size)
        else:
            os.ftruncate(self._fd, size)
        if self.position > size:
            self.seek(size)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._stream is not None:
            self._stream.close()  # owns and closes the fd
        else:
            os.close(self._fd)

    def __enter__(self) -> "FileHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"pos={self.position}"
        return f"<FileHandle {self.path} {self.mode.value} {state}>"


def _stream_view(buffer, length: int | None, *, target: bool) -> memoryview:
    """``buffer`` as a flat byte view of ``length`` bytes for a buffered transfer.

    ``target`` marks a read's destination, which must be writable.  The
    view is cast only when it is not already flat bytes and sliced only
    when ``length`` is short of the buffer.
    """
    if isinstance(buffer, AlignedBuffer):
        view = buffer.view
    else:
        view = memoryview(buffer)
        if target and view.readonly:
            raise TypeError("read target buffer is read-only")
        if view.ndim != 1 or view.format != "B" or not view.c_contiguous:
            view = view.cast("B")
    size = len(view)
    if length is None or length == size:
        return view
    if length < 0:
        raise ValueError(f"negative transfer length {length}")
    if length > size:
        raise ValueError(f"transfer length {length} exceeds buffer capacity {size}")
    return view[:length]


def open_file(
    path: str | os.PathLike,
    disposition: OpenDisposition,
    direction: Direction,
    io_mode: IoMode = IoMode.BUFFERED,
    access_hint: AccessHint = AccessHint.SEQUENTIAL,
) -> FileHandle:
    """Open ``path`` for benchmarking-grade I/O.

    ``direction`` states the caller's primary intent; handles opened for
    WRITE (or with any disposition that can mutate the file) are opened
    read-write, so a writer may read back what it wrote.  Only the
    (OPEN, READ) pair yields a read-only handle.  APPEND positions at the
    current end of file; it does not pin later writes there.

    Buffered handles get a DEFAULT_STREAM_BUFFER stream buffer.  Direct
    handles probe the volume's SectorGeometry after opening, and a probe
    failure surfaces as GeometryProbeError rather than being papered over.

    Missing files, existing files under CREATE_NEW, and permission
    problems raise the standard FileNotFoundError, FileExistsError and
    PermissionError.  Filesystems that refuse uncached access raise
    DirectIoUnsupportedError.
    """
    if not isinstance(disposition, OpenDisposition):
        raise TypeError(f"disposition must be an OpenDisposition, got {disposition!r}")
    if not isinstance(direction, Direction):
        raise TypeError(f"direction must be a Direction, got {direction!r}")

    read_only = disposition is OpenDisposition.OPEN and direction is Direction.READ
    flags = _DISPOSITION_FLAGS[disposition]
    flags |= os.O_RDONLY if read_only else os.O_RDWR

    fd = _open_raw(path, flags, direct=io_mode is IoMode.DIRECT)
    try:
        with contextlib.suppress(OSError):  # only a hint, which a filesystem may refuse
            os.posix_fadvise(fd, 0, 0, _ADVICE[access_hint])
        geometry = None
        stream = None
        if io_mode is IoMode.DIRECT:
            geometry = detect_sector_geometry(path)
        else:
            stream = io.open(fd, "rb" if read_only else "r+b", buffering=DEFAULT_STREAM_BUFFER)
    except BaseException:
        os.close(fd)
        raise

    handle = FileHandle(
        fd,
        path=path,
        mode=io_mode,
        geometry=geometry,
        writable=not read_only,
        stream=stream,
    )
    if disposition is OpenDisposition.APPEND:
        handle.seek(os.fstat(fd).st_size)
    return handle


def _open_raw(path: str | os.PathLike, flags: int, *, direct: bool) -> int:
    """os.open, with O_DIRECT when ``direct``; a filesystem's refusal of it
    raises DirectIoUnsupportedError, and other failures propagate as they are."""
    if not direct:
        return os.open(path, flags, 0o666)
    try:
        return os.open(path, flags | os.O_DIRECT, 0o666)
    except OSError as exc:
        if exc.errno in (errno.EINVAL, errno.EOPNOTSUPP, errno.ENOTSUP):
            raise DirectIoUnsupportedError(
                f"filesystem holding {os.fspath(path)!r} rejects uncached opens: {exc}"
            ) from exc
        raise


def count_extents(handle: FileHandle) -> int:
    """How many extents back the file (FIEMAP); raises ExtentQueryError if unknowable."""
    if handle.writable:
        handle.flush(FlushLevel.APPLICATION_BUFFERS)
    request = bytearray(_FIEMAP_HEADER.pack(0, (1 << 64) - 1, _FIEMAP_FLAG_SYNC, 0, 0, 0))
    try:
        fcntl.ioctl(handle.fileno(), _FS_IOC_FIEMAP, request)
    except OSError as exc:
        raise ExtentQueryError(f"filesystem refused the extent query: {exc}") from exc
    return _FIEMAP_HEADER.unpack(request)[3]


def supports_direct_io(directory: str | os.PathLike) -> bool:
    """Whether files under ``directory`` can be opened with caching disabled."""
    probe = Path(directory) / f".direct_probe_{os.getpid()}"
    try:
        fd = _open_raw(probe, os.O_CREAT | os.O_EXCL | os.O_RDWR, direct=True)
    except OSError:  # DirectIoUnsupportedError among them
        return False
    os.close(fd)
    with contextlib.suppress(OSError):
        probe.unlink()
    return True
