"""Scratch volumes without mounting anything.

Every command scratch_volume runs goes through a scripted
``subprocess.run``, and the host's answers (the uid, the tools on PATH,
``/dev/loop-control``) are faked, so these tests check the order of the
steps and what a failure at each one leaves, as any user can run them.
"""
import collections
import contextlib
import errno
import os
import shutil
import subprocess
import tempfile
import time
import types

import pytest
from conftest import open_fds

from seqbench import VolumeUnsupportedError, volumes

_SIZE = 16 << 20  # the smallest volume scratch_volume makes
_Usage = collections.namedtuple("_Usage", "total used free")


def test_mkfs_is_found_in_the_sbin_directories_when_path_is_empty(tmp_path, monkeypatch):
    fake = tmp_path / "mkfs.ext4"
    fake.write_text("#!/bin/sh\n")
    fake.chmod(0o755)
    monkeypatch.setenv("PATH", "")
    monkeypatch.setattr(volumes, "_MKFS_DIRS", (str(tmp_path / "missing"), str(tmp_path)))
    assert volumes._find_mkfs() == str(fake)
    fake.chmod(0o644)  # no execute bit, so not a tool even for root
    assert volumes._find_mkfs() is None


@pytest.fixture
def host(monkeypatch):
    """A host that can make scratch volumes: root, all three tools, loop devices.

    Change ``uid``, ``tools`` or ``loop`` to take one of them away.
    """
    state = types.SimpleNamespace(uid=0, tools={"mkfs.ext4", "mount", "umount"}, loop=True)
    exists = os.path.exists

    def which(name, mode=os.F_OK | os.X_OK, path=None):
        return f"/usr/sbin/{name}" if name in state.tools else None

    monkeypatch.setattr(os, "geteuid", lambda: state.uid)
    monkeypatch.setattr(shutil, "which", which)
    monkeypatch.setattr(
        os.path, "exists", lambda path: state.loop if path == "/dev/loop-control" else exists(path)
    )
    return state


@pytest.mark.parametrize("change, problem", [
    ({}, None),
    ({"uid": 1000}, "mounting loopback volumes needs root"),
    ({"tools": {"mount", "umount"}}, "mkfs.ext4 not found"),
    ({"tools": {"mkfs.ext4", "umount"}}, "mount/umount not found"),
    ({"tools": {"mkfs.ext4", "mount"}}, "mount/umount not found"),
    ({"loop": False}, "kernel has no loop device support"),
], ids=["supported", "not-root", "no-mkfs", "no-mount", "no-umount", "no-loop"])
def test_volume_support_problem_names_what_the_host_lacks(host, change, problem):
    vars(host).update(change)
    assert volumes.volume_support_problem() == problem


@pytest.fixture
def steps(monkeypatch, tmp_path, host):
    """The steps scratch_volume takes, in order, with nothing mounted.

    ``steps.done`` lists them: each command by name ("mkfs.ext4", "mount",
    "umount", "umount -l"), then "rmdir" and "unlink".  ``steps.argv``
    holds each command's arguments.  ``steps.exit`` holds the exit code a
    command is to give, or the errno rmdir or unlink is to raise (none
    unless set).  The image and the mount point are made in ``tmp_path``,
    where /dev/shm is said to have no room.
    """
    state = types.SimpleNamespace(done=[], argv={}, exit={})

    def run(argv, **kwargs):
        step = "umount -l" if "-l" in argv else os.path.basename(argv[0])
        state.done.append(step)
        state.argv[step] = argv
        code = state.exit.get(step, 0)
        return subprocess.CompletedProcess(argv, code, "", f"{step} refused" if code else "")

    def spy(name):
        def call(path, real=getattr(os, name)):
            state.done.append(name)
            if name in state.exit:
                raise OSError(state.exit[name], os.strerror(state.exit[name]), path)
            return real(path)
        return call

    monkeypatch.setattr(subprocess, "run", run)
    for name in ("rmdir", "unlink"):
        monkeypatch.setattr(os, name, spy(name))
    monkeypatch.setattr(time, "sleep", lambda seconds: None)  # between the two umounts
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(shutil, "disk_usage", lambda path: _Usage(_SIZE, _SIZE, 0))
    return state


def test_a_volume_is_made_mounted_and_removed_in_order(steps, tmp_path):
    with volumes.scratch_volume(_SIZE) as mount:
        steps.done.append("yield")
        (image,) = tmp_path.glob("seqbench_vol_*.img")
        assert image.stat().st_size == _SIZE
        assert mount.is_dir() and mount.parent == tmp_path
        assert mount.name.startswith("seqbench_mnt_")
    assert steps.done == ["mkfs.ext4", "mount", "yield", "umount", "rmdir", "unlink"]
    assert steps.argv["mkfs.ext4"] == ["/usr/sbin/mkfs.ext4", "-q", "-F", str(image)]
    assert steps.argv["mount"] == ["mount", "-o", "loop,nodelalloc", str(image), str(mount)]
    assert steps.argv["umount"] == ["umount", str(mount)]
    assert list(tmp_path.iterdir()) == []


class _Failed(Exception):
    """What the body of the ``with`` raises in the "body" case."""


@pytest.mark.parametrize("failing, done", [
    ("mkfs.ext4", ["mkfs.ext4", "unlink"]),
    ("mount", ["mkfs.ext4", "mount", "rmdir", "unlink"]),
    ("body", ["mkfs.ext4", "mount", "yield", "umount", "rmdir", "unlink"]),
    ("umount", ["mkfs.ext4", "mount", "yield", "umount", "umount -l", "rmdir", "unlink"]),
])
def test_a_failure_at_any_step_leaves_no_image_and_no_mount_point(steps, tmp_path, failing, done):
    """A failed command raises VolumeUnsupportedError with its stderr; a failed body
    raises its own error; a failed umount is retried lazily and raises nothing."""
    steps.exit[failing] = 32
    raised = {"mkfs.ext4": VolumeUnsupportedError, "mount": VolumeUnsupportedError,
              "body": _Failed}.get(failing)
    with pytest.raises(raised) if raised else contextlib.nullcontext() as info:
        with volumes.scratch_volume(_SIZE):
            steps.done.append("yield")
            if failing == "body":
                raise _Failed("the experiment failed")
    assert steps.done == done
    if raised is VolumeUnsupportedError:
        assert str(info.value) == f"{steps.argv[failing][0]} failed (32): {failing} refused"
    assert list(tmp_path.iterdir()) == []


def test_an_image_that_cannot_be_sized_is_closed_and_removed(steps, tmp_path, monkeypatch):
    def full(fd, length):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "ftruncate", full)
    fds = open_fds()
    with pytest.raises(OSError) as info:
        with volumes.scratch_volume(_SIZE):
            pass
    assert info.value.errno == errno.ENOSPC
    assert steps.done == ["unlink"] and open_fds() == fds and list(tmp_path.iterdir()) == []


_STUCK = {"umount": 32, "umount -l": 32, "rmdir": errno.EBUSY}  # still mounted


def test_a_volume_that_will_not_unmount_keeps_only_its_mount_point(steps, tmp_path):
    """Both umounts fail, so the mount point is busy and stays; the image still goes,
    and then an EBUSY error names the mount point that is left."""
    steps.exit.update(_STUCK)
    with pytest.raises(OSError) as info:
        with volumes.scratch_volume(_SIZE) as mount:
            pass
    assert (info.value.errno, info.value.filename) == (errno.EBUSY, str(mount))
    assert steps.done == ["mkfs.ext4", "mount", "umount", "umount -l", "rmdir", "unlink"]
    assert list(tmp_path.iterdir()) == [mount]


def test_a_failed_body_on_a_volume_that_will_not_unmount_keeps_its_own_error(steps, tmp_path):
    """The body's exception is what leaves the block, with a note naming the mount point."""
    steps.exit.update(_STUCK)
    with pytest.raises(_Failed) as info:
        with volumes.scratch_volume(_SIZE) as mount:
            raise _Failed("the experiment failed")
    assert info.value.__notes__ == [
        f"scratch volume could not be unmounted: still mounted at {mount}"
    ]
    assert steps.done == ["mkfs.ext4", "mount", "umount", "umount -l", "rmdir", "unlink"]
    assert list(tmp_path.iterdir()) == [mount]


def _image(tmp_path):
    """The one image scratch_volume left in ``tmp_path``."""
    (image,) = (path for path in tmp_path.iterdir() if path.name.startswith("seqbench_vol_"))
    return str(image)


def test_an_image_that_cannot_be_removed_is_reported(steps, tmp_path):
    """The volume is gone and its image stays, so unlink's own error names the image."""
    steps.exit["unlink"] = errno.EACCES
    with pytest.raises(OSError) as info:
        with volumes.scratch_volume(_SIZE):
            pass
    assert steps.done == ["mkfs.ext4", "mount", "umount", "rmdir", "unlink"]
    assert (info.value.errno, info.value.filename) == (errno.EACCES, _image(tmp_path))


def test_a_failed_body_whose_image_cannot_be_removed_keeps_its_own_error(steps, tmp_path):
    """The body's exception leaves the block, with a note naming the image that stays."""
    steps.exit["unlink"] = errno.EACCES
    with pytest.raises(_Failed) as info:
        with volumes.scratch_volume(_SIZE):
            raise _Failed("the experiment failed")
    assert info.value.__notes__ == [
        "scratch volume image could not be removed: "
        f"[Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: '{_image(tmp_path)}'"
    ]


def test_a_stuck_volume_whose_image_cannot_be_removed_names_both(steps, tmp_path):
    """The EBUSY error names the mount point, and its note names the image."""
    steps.exit.update(_STUCK, unlink=errno.EACCES)
    with pytest.raises(OSError) as info:
        with volumes.scratch_volume(_SIZE) as mount:
            pass
    assert (info.value.errno, info.value.filename) == (errno.EBUSY, str(mount))
    assert len(info.value.__notes__) == 1 and _image(tmp_path) in info.value.__notes__[0]


@pytest.mark.parametrize("size, change, error", [
    (_SIZE - 1, {}, ValueError),
    (_SIZE, {"uid": 1000}, VolumeUnsupportedError),
    (_SIZE, {"loop": False}, VolumeUnsupportedError),
])
def test_a_volume_that_cannot_be_made_is_refused_before_any_step(
    steps, host, tmp_path, size, change, error
):
    vars(host).update(change)
    with pytest.raises(error):
        with volumes.scratch_volume(size):
            pass
    assert steps.done == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("free, fails, roomy", [
    (_SIZE * 2, False, True),
    (_SIZE + 1, False, False),  # room for the image, but not the 10% to spare
    (_SIZE * 2, True, False),
])
def test_the_image_goes_to_dev_shm_only_when_it_has_room(monkeypatch, tmp_path, free, fails, roomy):
    def usage(path):
        if fails:
            raise PermissionError(13, "Permission denied", path)
        return _Usage(free, 0, free)

    monkeypatch.setattr(shutil, "disk_usage", usage)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    shm = "/dev/shm" if roomy and os.path.isdir("/dev/shm") else str(tmp_path)
    assert volumes._image_directory(_SIZE) == shm
