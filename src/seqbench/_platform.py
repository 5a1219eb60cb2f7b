"""Thin platform layer for the handful of OS services the engine needs.

Capability map.  Only Linux is implemented: the Linux column is what this
module does and what the test suite exercises.  The other columns are
documentation of where a port would plug in; no code here runs them.

    capability          Linux                       macOS                  Windows
    ------------------  --------------------------  ---------------------  ---------------------------
    cache-bypass open   O_DIRECT at open(2)         fcntl no-cache flag    FILE_FLAG_NO_BUFFERING
    flush OS cache      fsync(2)                    fcntl full fsync       FlushFileBuffers
    logical sector      /sys/dev/block/<dev>/queue  (no public query)      IOCTL_DISK_GET_DRIVE_GEOMETRY
    extent count        FIEMAP ioctl                fcntl F_LOG2PHYS loop  FSCTL_GET_RETRIEVAL_POINTERS
    access-hint         posix_fadvise(2)            F_RDAHEAD              FILE_FLAG_SEQUENTIAL_SCAN

Nothing here checks which platform it runs on.  On another POSIX system
the Linux calls themselves fail, and each failure surfaces as the error a
caller already handles: no O_DIRECT flag raises DirectIoUnsupportedError,
no /sys queue attribute raises OSError (GeometryProbeError once
detect_sector_geometry wraps it), and a refused FIEMAP ioctl raises
ExtentQueryError.  The access hint is skipped where posix_fadvise is
missing.  Flushing the OS cache is os.fsync, which FileHandle.flush calls
itself.
"""
from __future__ import annotations

import errno
import os
import struct
from pathlib import Path

from .errors import DirectIoUnsupportedError, ExtentQueryError

# FIEMAP ioctl pieces, from linux/fiemap.h.  The request header is
# fm_start, fm_length (u64); fm_flags, fm_mapped_extents, fm_extent_count,
# fm_reserved (u32).  With fm_extent_count == 0 the kernel only counts.
_FS_IOC_FIEMAP = 0xC020660B
_FIEMAP_FLAG_SYNC = 0x0001
_FIEMAP_HEADER = struct.Struct("=QQIIII")


def open_raw(path: str | os.PathLike, flags: int, mode: int = 0o666, *, direct: bool = False) -> int:
    """os.open with an optional cache-bypass request.

    Raises DirectIoUnsupportedError when Python exposes no O_DIRECT flag
    or the filesystem holding ``path`` refuses uncached access.  Plain open
    failures (missing file, exists, permission) propagate as their usual
    builtin exceptions.
    """
    path = os.fspath(path)
    if not direct:
        return os.open(path, flags, mode)
    if not hasattr(os, "O_DIRECT"):
        raise DirectIoUnsupportedError("this Python build exposes no O_DIRECT flag")
    try:
        return os.open(path, flags | os.O_DIRECT, mode)
    except OSError as exc:
        if exc.errno in (errno.EINVAL, errno.EOPNOTSUPP, errno.ENOTSUP):
            raise DirectIoUnsupportedError(
                f"filesystem holding {path!r} rejects uncached opens: {exc}"
            ) from exc
        raise


def advise_access(fd: int, *, sequential: bool) -> None:
    """Best effort readahead hint; silently a no-op where unavailable."""
    if hasattr(os, "posix_fadvise"):
        hint = os.POSIX_FADV_SEQUENTIAL if sequential else os.POSIX_FADV_RANDOM
        try:
            os.posix_fadvise(fd, 0, 0, hint)
        except OSError:
            pass


def query_sector_size(path: str | os.PathLike) -> int:
    """Logical sector size of the block device holding ``path`` (Linux).

    Reads the sysfs queue attribute for the device, falling back to the
    parent disk when the partition node has no queue directory.  Raises
    OSError when the device cannot be resolved (virtual filesystems,
    non-Linux platforms).
    """
    st = os.stat(path)
    major, minor = os.major(st.st_dev), os.minor(st.st_dev)
    node = Path(f"/sys/dev/block/{major}:{minor}")
    candidates = [node / "queue" / "logical_block_size"]
    try:
        candidates.append(node.resolve(strict=True).parent / "queue" / "logical_block_size")
    except OSError:
        pass
    for attr in candidates:
        try:
            return int(attr.read_text().strip())
        except (OSError, ValueError):
            continue
    raise OSError(f"no block device queue information for {os.fspath(path)!r} ({major}:{minor})")


def count_extents(fd: int) -> int:
    """Number of extents backing an open file, via the FIEMAP ioctl."""
    import fcntl

    request = bytearray(_FIEMAP_HEADER.pack(0, (1 << 64) - 1, _FIEMAP_FLAG_SYNC, 0, 0, 0))
    try:
        fcntl.ioctl(fd, _FS_IOC_FIEMAP, request)
    except OSError as exc:
        raise ExtentQueryError(f"filesystem refused the extent query: {exc}") from exc
    return _FIEMAP_HEADER.unpack(bytes(request))[3]
