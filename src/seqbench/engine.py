"""File I/O engine: open dispositions, aligned buffers, two buffering tiers.

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
positional request that must move all of its bytes goes through it.
run_slots is the one place that starts threads: the overlapped trial and
the copy run one long-lived thread per slot on it.
"""
from __future__ import annotations

import enum
import io
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import _platform
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

    Raises GeometryProbeError, carrying FALLBACK_GEOMETRY, when the device
    cannot be resolved or reports something implausible.
    """
    try:
        sector = _platform.query_sector_size(path)
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


def run_slots(
    depth: int, slot: Callable[[int], None], fail: Callable[[BaseException], None]
) -> None:
    """Run ``slot(0)`` .. ``slot(depth - 1)`` on daemon threads and wait for all.

    An exception escaping a slot, or raised while starting the threads,
    is handed to ``fail``, which must record it and make the other slots
    finish; the caller raises what it recorded.  Every started thread has
    been joined when this returns.
    """

    def guarded(index: int) -> None:
        try:
            slot(index)
        except BaseException as exc:  # forwarded: the caller re-raises it
            fail(exc)

    started = []
    try:
        for index in range(depth):
            thread = threading.Thread(target=guarded, args=(index,), daemon=True)
            thread.start()
            started.append(thread)
    except BaseException as exc:  # forwarded: the caller re-raises it
        fail(exc)
    finally:
        for thread in started:
            thread.join()


# os.open flag bits per disposition; read/write access bits are added later.
_DISPOSITION_FLAGS = {
    OpenDisposition.OPEN: 0,
    OpenDisposition.CREATE: os.O_CREAT | os.O_TRUNC,
    OpenDisposition.CREATE_NEW: os.O_CREAT | os.O_EXCL,
    OpenDisposition.OPEN_OR_CREATE: os.O_CREAT,
    OpenDisposition.APPEND: os.O_CREAT,
    OpenDisposition.TRUNCATE: os.O_TRUNC,
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
        position advances by the returned count.  On a direct handle the
        request is validated against the volume geometry first and a
        DirectRequestError names every violation before anything is read.
        """
        if self.mode is IoMode.DIRECT:
            return self._direct_transfer(buffer, length, write=False)
        view = self._writable_view(buffer)
        length = self._clip_length(view, length)
        got = self._stream.readinto(view[:length]) if length else 0
        return got or 0

    def write_block(self, buffer, length: int | None = None) -> int:
        """Write ``length`` bytes at the current position; returns that count.

        Unlike reads, writes are all-or-nothing: the full count is written
        (the file grows as needed) or an exception is raised.
        """
        if not self.writable:
            raise io.UnsupportedOperation(f"{self.path} is open read-only")
        if self.mode is IoMode.DIRECT:
            return self._direct_transfer(buffer, length, write=True)
        view = self._readonly_view(buffer)
        length = self._clip_length(view, length)
        if length:
            self._stream.write(view[:length])
        return length

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
            _platform.flush_os_cache(self._fd)

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
        if size > current and hasattr(os, "posix_fallocate"):
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

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _writable_view(buffer) -> memoryview:
        if isinstance(buffer, AlignedBuffer):
            return buffer.view
        view = memoryview(buffer)
        if view.readonly:
            raise TypeError("read target buffer is read-only")
        return view.cast("B")

    @staticmethod
    def _readonly_view(buffer) -> memoryview:
        if isinstance(buffer, AlignedBuffer):
            return buffer.view
        return memoryview(buffer).cast("B")

    @staticmethod
    def _clip_length(view: memoryview, length: int | None) -> int:
        if length is None:
            return len(view)
        if length < 0:
            raise ValueError(f"negative transfer length {length}")
        if length > len(view):
            raise ValueError(f"transfer length {length} exceeds buffer capacity {len(view)}")
        return length


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

    fd = _platform.open_raw(path, flags, direct=io_mode is IoMode.DIRECT)
    try:
        _platform.advise_access(fd, sequential=access_hint is AccessHint.SEQUENTIAL)
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


def count_extents(handle: FileHandle) -> int:
    """How many extents back the file; raises ExtentQueryError if unknowable."""
    if handle.writable:
        handle.flush(FlushLevel.APPLICATION_BUFFERS)
    return _platform.count_extents(handle.fileno())


def supports_direct_io(directory: str | os.PathLike) -> bool:
    """Whether files under ``directory`` can be opened with caching disabled."""
    probe = Path(directory) / f".direct_probe_{os.getpid()}"
    try:
        fd = _platform.open_raw(probe, os.O_CREAT | os.O_EXCL | os.O_RDWR, direct=True)
    except DirectIoUnsupportedError:
        return False
    except OSError:
        return False
    os.close(fd)
    try:
        probe.unlink()
    except OSError:
        pass
    return True
