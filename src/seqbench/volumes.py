"""Disposable loopback scratch volumes for filesystem experiments.

Fragmentation and allocation measurements contaminate whatever volume they
run on, and measurements on a shared root volume inherit all of its noise.
This module builds a throwaway ext4 filesystem in an image file (in RAM
when /dev/shm has room, so device latency drops out of the numbers),
loop-mounts it, and tears everything down afterward.

Linux-only and needs root plus mkfs.ext4; volume_support_problem reports
why the host cannot do it, so callers can skip cleanly.
"""
from __future__ import annotations

import contextlib
import errno
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from .errors import VolumeUnsupportedError

__all__ = ["volume_support_problem", "scratch_volume"]

_MKFS_DIRS = ("/sbin", "/usr/sbin", "/usr/local/sbin")


def _find_mkfs() -> str | None:
    """mkfs.ext4 on PATH or in the sbin directories a user's PATH may leave out."""
    search = filter(None, (os.environ.get("PATH", os.defpath), *_MKFS_DIRS))
    return shutil.which("mkfs.ext4", path=os.pathsep.join(search))


def volume_support_problem() -> str | None:
    """Why scratch_volume would fail here, or None if it should work."""
    if os.geteuid() != 0:
        return "mounting loopback volumes needs root"
    if _find_mkfs() is None:
        return "mkfs.ext4 not found"
    if shutil.which("mount") is None or shutil.which("umount") is None:
        return "mount/umount not found"
    if not os.path.exists("/dev/loop-control"):
        return "kernel has no loop device support"
    return None


def _run(command: list[str]) -> None:
    result = subprocess.run(command, capture_output=True, text=True)
    if result.returncode != 0:
        raise VolumeUnsupportedError(
            f"{command[0]} failed ({result.returncode}): {result.stderr.strip()[:300]}"
        )


def _image_directory(size_bytes: int) -> str:
    shm = Path("/dev/shm")
    try:
        if shm.is_dir() and shutil.disk_usage(shm).free > size_bytes * 1.1:
            return str(shm)
    except OSError:
        pass
    return tempfile.gettempdir()


@contextlib.contextmanager
def scratch_volume(size_bytes: int):
    """Yield the mount point of a fresh ext4 volume of ``size_bytes``.

    The filesystem is mounted with ``nodelalloc``, so blocks are allocated
    when a write is issued instead of deferred to writeback.  Deferred
    (delayed) allocation batches and hides exactly the per-write
    allocation work that file-extension experiments exist to measure.

    The backing image lives in /dev/shm when it fits, which takes device
    latency out of whatever is measured on the volume.  Everything is
    removed on exit, even on error.  When neither ``umount`` nor a lazy
    ``umount -l`` succeeds, the volume stays mounted: the image still
    goes, then an OSError (EBUSY) names the mount point, or, when the body
    raised, its exception carries a note naming it instead.  An image that
    cannot be deleted is reported the same way: unlink's OSError names it,
    or a note on the error already leaving the block does.
    """
    if size_bytes < 16 << 20:
        raise ValueError(f"volume size must be at least 16 MiB, got {size_bytes}")
    problem = volume_support_problem()
    if problem is not None:
        raise VolumeUnsupportedError(problem)
    mkfs = _find_mkfs()
    fd, image = tempfile.mkstemp(prefix="seqbench_vol_", suffix=".img", dir=_image_directory(size_bytes))
    mount_point = None
    mounted = finished = False
    try:
        os.ftruncate(fd, size_bytes)
        os.close(fd)
        fd = None
        _run([mkfs, "-q", "-F", image])
        mount_point = tempfile.mkdtemp(prefix="seqbench_mnt_")
        _run(["mount", "-o", "loop,nodelalloc", image, mount_point])
        mounted = True
        yield Path(mount_point)
        finished = True
    finally:
        if fd is not None:
            os.close(fd)
        if mounted:
            for umount in (["umount"], ["umount", "-l"]):
                if subprocess.run(umount + [mount_point], capture_output=True).returncode == 0:
                    mounted = False
                    break
                time.sleep(0.2)
        if mount_point is not None:
            with contextlib.suppress(OSError):  # EBUSY while still mounted
                os.rmdir(mount_point)
        try:
            os.unlink(image)
            left = None
        except OSError as error:  # the image stays, as large as the volume
            left = error
        failure = None if finished else sys.exc_info()[1]
        if mounted:  # neither umount worked
            stuck = "scratch volume could not be unmounted"
            if finished:
                failure = OSError(errno.EBUSY, stuck, mount_point)
            else:
                failure.add_note(f"{stuck}: still mounted at {mount_point}")
        if left is not None:
            if failure is None:
                failure = left
            else:
                failure.add_note(f"scratch volume image could not be removed: {left}")
        if finished and failure is not None:
            raise failure
