"""File I/O engine: open dispositions, aligned buffers, two buffering tiers.

It imports only the standard library and the package's own modules.
This is the package's one home of OS file services, for Linux only: direct
opens, access hints, preallocation (``preallocate``, which
FileHandle.preallocate, copy_file's destination and the extension trial's
file all go through), sector geometry and extent counts.  Measured
transfers go through it or the inline preadv/pwritev of the trial,
extension and copy loops.  The copy's two files, the extension trial's
file, the fragger's files and the unmeasured ones (offset and event logs,
typed_roundtrip, the asynccopy checksum) are opened outside it, with
open() or os.open.

The benchmarks in this package need to know exactly which software layer a
transfer passes through.  FileHandle therefore comes in two flavours:

* buffered: a user-space stream buffer in front of the OS file cache, the
  ordinary way programs read and write files.  The handle's public
  ``stream`` is that buffer, an io.Buffered* stream, and loops that make
  one call per request drive it directly.
* direct: no user-space buffering and the OS cache bypassed, so every
  read_block/write_block is a real device-sized request.  The filesystem
  enforces sector alignment for these; validate_direct_request mirrors the
  rules so violations are rejected up front with a full diagnosis instead
  of a bare EINVAL mid-run.

Positions are explicit.  A handle tracks one position, read_block and
write_block advance it, seek moves it.  A buffered handle keeps no state
of its own beside its stream, so driving the stream directly cannot put
the handle out of step.  A handle must be driven by one thread at a time.

transfer_full is the one full-transfer loop in the package: every
positional request that must move all of its bytes goes through it, and
write_chunks feeds it every file fill that no timer measures.
run_slots is the one place that starts threads: the overlapped trial and
the copy run their slots on it, slot 0 on the calling thread and one
bare ``_thread`` thread for each of the others, which inherits the
trace and profile hooks set with ``threading``.  It waits until every
slot has returned, and it is the one place that raises a slot's failure.
"""
from __future__ import annotations

import _thread
import contextlib
import ctypes
import enum
import errno
import fcntl
import io
import os
import struct
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

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
    "DEFAULT_STREAM_BUFFER",
    "detect_sector_geometry",
    "AlignedBuffer",
    "validate_direct_request",
    "transfer_full",
    "write_chunks",
    "preallocate",
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

    ``logical_sector`` is the unit the filesystem actually enforces.
    ``recommended_alignment`` follows from it: the unit callers should
    allocate with, the sector or 64 KiB, whichever is larger, so one
    buffer works across volumes.
    """

    logical_sector: int

    def __post_init__(self):
        if not _is_power_of_two(self.logical_sector) or self.logical_sector < _MIN_SECTOR:
            raise ValueError(
                f"logical sector must be a power of two >= {_MIN_SECTOR}, got {self.logical_sector}"
            )

    @property
    def recommended_alignment(self) -> int:
        return max(self.logical_sector, _SAFE_ALIGNMENT)


def detect_sector_geometry(path: str | os.PathLike) -> SectorGeometry:
    """Probe the volume holding ``path`` for its direct-transfer alignment.

    Reads the logical sector size from the device's sysfs queue.  A whole
    disk (a loop device among them) answers from its own; only when that
    read fails is the device's sysfs link resolved, to read the queue of
    the parent disk of a partition.  Raises GeometryProbeError when the
    device cannot be resolved or reports something implausible; no sector
    size is assumed in its place.
    """
    try:
        st = os.stat(path)
        node = f"/sys/dev/block/{os.major(st.st_dev)}:{os.minor(st.st_dev)}"
        try:
            sector = _queue_sector(node)
        except (OSError, ValueError):
            try:
                sector = _queue_sector(os.path.dirname(os.path.realpath(node, strict=True)))
            except (OSError, ValueError):
                raise OSError(f"no block device queue information at {node}") from None
        return SectorGeometry(sector)
    except (OSError, ValueError) as exc:  # ValueError: SectorGeometry refused the sector
        raise GeometryProbeError(
            f"cannot determine sector size for {os.fspath(path)!r}: {exc}"
        ) from exc


def _queue_sector(device: str) -> int:
    """The logical sector size in the sysfs queue of block device ``device``."""
    with open(f"{device}/queue/logical_block_size", "rb") as stream:
        return int(stream.read())


class AlignedBuffer:
    """Zero-filled transfer buffer whose base address is alignment-aligned.

    The memory is one ``bytearray`` that over-provisions by one alignment
    unit; the view starts at its first aligned byte, so no platform
    allocator support is needed.  ``address`` (the usable region's base,
    read through ctypes) and ``view`` (a writable flat byte view of it,
    which keeps the allocation alive) are fixed here.
    """

    __slots__ = ("capacity", "alignment", "address", "view")

    def __init__(self, capacity: int, alignment: int):
        if capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
        if not _is_power_of_two(alignment):
            raise ValueError(f"alignment must be a power of two, got {alignment}")
        raw = bytearray(capacity + alignment)
        base = ctypes.addressof(ctypes.c_char.from_buffer(raw))
        start = -base % alignment
        self.capacity = capacity
        self.alignment = alignment
        self.address = base + start
        self.view = memoryview(raw)[start : start + capacity]

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


def preallocate(fd: int, size: int) -> None:
    """Set the length of the file open as ``fd`` to exactly ``size`` without writing data.

    Growing reserves backing extents eagerly (so later writes into the
    region do not pay for allocation), or truncates where the filesystem
    refuses that (EOPNOTSUPP); any other failure, a full disk among them,
    raises and leaves the length as it was.  Shrinking truncates.
    """
    if size > os.fstat(fd).st_size:
        try:
            os.posix_fallocate(fd, 0, size)
        except OSError as exc:
            if exc.errno != errno.EOPNOTSUPP:
                raise
            os.ftruncate(fd, size)
    else:
        os.ftruncate(fd, size)


def run_slots(
    depth: int, slot: Callable[[int], None], fail: Callable[[BaseException], None]
) -> None:
    """Run ``slot(0)`` .. ``slot(depth - 1)``, wait for all of them, raise any failure.

    Slot 0 runs on the calling thread and each of the others on a bare
    ``_thread`` thread, so depth 1 starts none.  Each such thread first
    installs the ``threading.settrace`` and ``threading.setprofile``
    hooks in force when run_slots was called, as ``threading``'s own
    threads do, so tracers and profilers see slot frames.  An exception
    escaping a slot, or raised while starting the threads, is recorded
    and handed to ``fail``, which must make the other slots finish and
    keep no exception; a failed start is an OSError (EAGAIN: the system
    has no thread to give), runs neither that slot nor slot 0, and starts
    no later one.  An interrupt (a signal handler's exception, Ctrl-C)
    that reaches the calling thread while it runs slot 0 is that slot's
    exception; one that reaches the wait for the others goes to ``fail``
    too, and the wait goes on.  Once every slot has returned, this raises
    the first interrupt that reached the wait, or else the first failure,
    and empties its record so that no traceback is left in a reference
    cycle.
    """
    failures: list[BaseException] = []  # interrupts that reached the wait come first
    waited = 0  # how many of those there are
    trace, profile = threading.gettrace(), threading.getprofile()

    def failed(exc: BaseException) -> None:
        failures.append(exc)
        fail(exc)

    def guarded(index: int, finished=None) -> None:
        try:
            if finished is not None:  # a thread of its own: take the hooks, as threading's do
                if trace is not None:
                    sys.settrace(trace)
                if profile is not None:
                    sys.setprofile(profile)
            slot(index)
        except BaseException as exc:  # recorded: raised once every slot has finished
            failed(exc)
        finally:
            if finished is not None:
                finished.release()

    running = []  # the lock of each started thread, held until its slot ends
    try:
        for index in range(1, depth):
            finished = _thread.allocate_lock()
            finished.acquire()
            try:
                _thread.start_new_thread(guarded, (index, finished))
            except RuntimeError as exc:  # the system has no thread to give
                raise OSError(
                    errno.EAGAIN, f"cannot start the thread of slot {index}: {exc}"
                ) from None
            running.append(finished)
        if depth > 0:
            guarded(0)
    except BaseException as exc:  # recorded: raised once every slot has finished
        failed(exc)
    for finished in running:
        while True:
            try:  # an interrupted acquire takes nothing and can be retried
                with finished:
                    pass
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
    idempotent.  Every handle is readable; it is direct exactly when it
    holds a geometry, and writable exactly when its file object is.

    That file object owns the descriptor: a buffered handle's stream, or a
    direct handle's io.FileIO over its O_DIRECT descriptor.  Every use of
    the descriptor goes through it, so once the handle is closed every
    call but ``close`` and ``repr`` raises ValueError, and none reaches a
    descriptor number that another file may have been given since.  A
    handle dropped unclosed is closed when it is collected, with a
    ResourceWarning, on both tiers.

    ``stream`` is a buffered handle's stream buffer and None on a direct
    handle.  A read-only handle's is an io.BufferedReader, which refuses
    writes with io.UnsupportedOperation itself.  A stream read of at most
    the stream buffer, or of a multiple of it, issues the read calls
    read_block would.
    """

    def __init__(self, file, *, path, geometry):
        self.path = path if isinstance(path, Path) else Path(path)
        self.mode = IoMode.BUFFERED if geometry is None else IoMode.DIRECT
        self.geometry = geometry
        self.writable = file.writable()
        self._file = file  # owns the descriptor: the stream, or a direct handle's FileIO
        self.stream = file if geometry is None else None
        self._pos = 0  # authoritative only for direct handles

    # -- introspection -------------------------------------------------

    def fileno(self) -> int:
        return self._file.fileno()

    @property
    def position(self) -> int:
        if self.stream is not None:
            return self.stream.tell()
        if self._file.closed:
            raise ValueError("I/O operation on closed file")
        return self._pos

    @property
    def length(self) -> int:
        """Current file length in bytes, counting un-flushed stream data."""
        self._file.flush()
        return os.fstat(self._file.fileno()).st_size

    # -- positioning ---------------------------------------------------

    def seek(self, offset: int) -> None:
        """Move the position to an absolute byte offset."""
        if offset < 0:
            raise ValueError(f"cannot seek to negative offset {offset}")
        if self.stream is not None:
            self.stream.seek(offset)
        elif self._file.closed:
            raise ValueError("I/O operation on closed file")
        else:
            self._pos = offset

    # -- transfers -----------------------------------------------------

    def read_block(self, buffer, length: int | None = None) -> int:
        """Read up to ``length`` bytes, the whole buffer when None, at the position.

        Returns the count that one ``readinto`` of the stream, or one
        preadv on a direct handle, read; 0 means end of file, and the
        position advances by it.  A buffered handle reads into a
        ``bytearray``, a direct one into an AlignedBuffer.  A whole
        ``bytearray`` goes straight to the stream; any other request goes
        through _request_view first, which raises TypeError for a wrong
        buffer, or DirectRequestError naming every violation of the volume
        geometry, before anything is read.
        """
        stream = self.stream
        if stream is None or type(buffer) is not bytearray or (
            length is not None and length != len(buffer)
        ):
            buffer = self._request_view(buffer, length)
            if stream is None:
                got = os.preadv(self._file.fileno(), [buffer], self._pos)
                self._pos += got
                return got
        return stream.readinto(buffer)

    def write_block(self, buffer, length: int | None = None) -> int:
        """Write ``length`` bytes, the whole buffer when None, at the position; returns that count.

        Unlike reads, writes are all-or-nothing: the full count is written
        (the file grows as needed) or an exception is raised; a direct
        write continues a short transfer with transfer_full.  A buffered
        handle writes from ``bytes`` or a ``bytearray``; a whole one goes
        straight to the stream, and any other request goes through
        _request_view first, as read_block's does.
        """
        if not self.writable:
            raise io.UnsupportedOperation(f"{self.path} is open read-only")
        stream = self.stream
        kind = type(buffer)
        if stream is None or (kind is not bytes and kind is not bytearray) or (
            length is not None and length != len(buffer)
        ):
            buffer = self._request_view(buffer, length)
            if stream is None:
                length = len(buffer)
                transfer_full(self._file.fileno(), buffer, self._pos, length, write=True)
                self._pos += length
                return length
        return stream.write(buffer)

    def _request_view(self, buffer, length: int | None) -> memoryview:
        """A view of the ``length`` bytes one request moves, the whole buffer when None.

        A direct request needs a buffer exposing ``address`` and
        ``capacity`` (an AlignedBuffer) and must pass
        validate_direct_request at the position.  A buffered one needs
        ``bytes`` or a ``bytearray``; the stream's ``readinto`` refuses
        ``bytes`` as a read target, also with TypeError.
        """
        if self.stream is None:
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
            return buffer.view[:length]
        if not isinstance(buffer, (bytes, bytearray)):
            raise TypeError(
                f"buffered transfers take bytes or a bytearray, got {type(buffer).__name__}"
            )
        if length is not None:
            if length < 0:
                raise ValueError(f"negative transfer length {length}")
            if length > len(buffer):
                raise ValueError(f"transfer length {length} exceeds buffer capacity {len(buffer)}")
        return memoryview(buffer)[:length]

    # -- durability and allocation --------------------------------------

    def flush(self, level: FlushLevel = FlushLevel.APPLICATION_BUFFERS) -> None:
        """Drain buffered data down to ``level``; a non-FlushLevel raises TypeError first."""
        if level is not FlushLevel.APPLICATION_BUFFERS and (
            level is not FlushLevel.OPERATING_SYSTEM_CACHE
        ):
            raise TypeError(f"level must be a FlushLevel, got {level!r}")
        if not self.writable:
            raise io.UnsupportedOperation(f"{self.path} is open read-only; nothing to flush")
        self._file.flush()
        if level is FlushLevel.OPERATING_SYSTEM_CACHE:
            os.fsync(self._file.fileno())

    def preallocate(self, size: int) -> None:
        """Set the file length to exactly ``size`` without writing data.

        The stream's pending writes land first; then the module function
        preallocate sets the length.  The position is clamped to the new
        end when it would otherwise point past it.
        """
        if size < 0:
            raise ValueError(f"cannot preallocate a negative size {size}")
        if not self.writable:
            raise io.UnsupportedOperation(f"{self.path} is open read-only")
        self._file.flush()
        preallocate(self._file.fileno(), size)
        if self.position > size:
            self.seek(size)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "FileHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._file.closed else f"pos={self.position}"
        return f"<FileHandle {self.path} {self.mode.value} {state}>"


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

    Buffered handles get a DEFAULT_STREAM_BUFFER stream buffer; direct
    ones O_DIRECT, a probe of the volume's SectorGeometry and an io.FileIO.
    That file object owns the descriptor from then on (see FileHandle).  A
    probe failure surfaces as GeometryProbeError rather than being papered
    over.  An argument outside its enum raises TypeError before any open.

    Missing files, existing files under CREATE_NEW, and permission
    problems raise the standard FileNotFoundError, FileExistsError and
    PermissionError, and a directory raises IsADirectoryError naming its
    path.  Filesystems that refuse uncached access raise
    DirectIoUnsupportedError.
    """
    if not isinstance(disposition, OpenDisposition):
        raise TypeError(f"disposition must be an OpenDisposition, got {disposition!r}")
    if not isinstance(direction, Direction):
        raise TypeError(f"direction must be a Direction, got {direction!r}")
    direct = io_mode is IoMode.DIRECT
    if not direct and io_mode is not IoMode.BUFFERED:
        raise TypeError(f"io_mode must be an IoMode, got {io_mode!r}")
    try:
        advice = _ADVICE[access_hint]
    except KeyError:
        raise TypeError(f"access_hint must be an AccessHint, got {access_hint!r}") from None

    read_only = disposition is OpenDisposition.OPEN and direction is Direction.READ
    flags = _DISPOSITION_FLAGS[disposition]
    flags |= os.O_RDONLY if read_only else os.O_RDWR
    fd = _open_raw(path, flags, direct=direct)
    try:
        try:
            os.posix_fadvise(fd, 0, 0, advice)
        except OSError:  # only a hint, which a filesystem may refuse
            pass
        geometry = detect_sector_geometry(path) if direct else None
        # owns fd from here on: an io.FileIO when unbuffered, else a stream over one
        file = io.open(fd, "rb" if read_only else "r+b",
                       buffering=0 if direct else DEFAULT_STREAM_BUFFER)
    except IsADirectoryError:  # a read-only open of a directory; io.open names the fd
        os.close(fd)
        raise _is_a_directory(path) from None
    except BaseException:
        os.close(fd)
        raise

    handle = FileHandle(file, path=path, geometry=geometry)
    if disposition is OpenDisposition.APPEND:
        handle.seek(handle.length)
    return handle


def _is_a_directory(path: str | os.PathLike) -> IsADirectoryError:
    return IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))


def _open_raw(path: str | os.PathLike, flags: int, *, direct: bool) -> int:
    """os.open, with O_DIRECT when ``direct``; a filesystem's refusal of it
    raises DirectIoUnsupportedError, and other failures propagate as they are.
    A directory refuses O_DIRECT too (EINVAL), and raises IsADirectoryError."""
    if not direct:
        return os.open(path, flags, 0o666)
    try:
        return os.open(path, flags | os.O_DIRECT, 0o666)
    except OSError as exc:
        if exc.errno in (errno.EINVAL, errno.EOPNOTSUPP):
            if os.path.isdir(path):
                raise _is_a_directory(path) from None
            raise DirectIoUnsupportedError(
                f"filesystem holding {os.fspath(path)!r} rejects uncached opens: {exc}"
            ) from exc
        raise


def count_extents(handle: FileHandle) -> int:
    """How many extents back the file (FIEMAP); raises ExtentQueryError if unknowable."""
    if handle.stream is not None:  # a direct handle's file object buffers nothing
        handle.stream.flush()
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
