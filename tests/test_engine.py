"""Open dispositions, aligned buffers, direct-transfer validation, flushing."""
import contextlib
import errno
import fcntl
import functools
import hashlib
import io
import itertools
import os
import shutil
import subprocess
import threading
from array import array
from collections import namedtuple

import numpy as np
import pytest
from conftest import REFUSED, ZERO, Interrupt, lingering_threads, open_fds, os_threads
from hypothesis import given, settings, strategies as st

import seqbench as sb
from seqbench.core import Direction, OpenDisposition
from seqbench.engine import IoMode, SectorGeometry, run_slots


# -- SectorGeometry ---------------------------------------------------------

def test_geometry_invariants_hold_for_valid_input():
    g = SectorGeometry(logical_sector=512)
    assert g.logical_sector == 512 and g.recommended_alignment == 65536


@pytest.mark.parametrize("sector", [512, 4096, 65536, 131072])
def test_geometry_alignment_is_the_sector_or_64k_whichever_is_larger(sector):
    assert SectorGeometry(sector).recommended_alignment == max(sector, 65536)


@pytest.mark.parametrize(
    "sector",
    [
        500,  # not a power of two
        256,  # below 512
    ],
)
def test_geometry_rejects_bad_values(sector):
    with pytest.raises(ValueError):
        SectorGeometry(logical_sector=sector)


def test_detect_geometry_on_real_volume(tmp_path):
    """Detection either reports sane geometry or raises a probe error naming the path."""
    try:
        g = sb.detect_sector_geometry(tmp_path)
    except sb.GeometryProbeError as exc:
        assert repr(str(tmp_path)) in str(exc)
        return
    assert g.logical_sector >= 512
    assert g.logical_sector & (g.logical_sector - 1) == 0
    assert g.recommended_alignment == max(g.logical_sector, 65536)


def test_detect_geometry_matches_platform_query(tmp_path):
    """Cross-check the sector size against the OS's own block-device tool."""
    blockdev = shutil.which("blockdev") or (
        "/sbin/blockdev" if os.path.exists("/sbin/blockdev") else None
    )
    if blockdev is None:
        pytest.skip("no blockdev utility to cross-check against")
    dev = os.stat(tmp_path).st_dev
    node = f"/sys/dev/block/{os.major(dev)}:{os.minor(dev)}"
    if not os.path.exists(node):
        pytest.skip("temp directory is not on a block device")
    devname = os.path.basename(os.path.realpath(node))
    # partitions answer via their parent disk
    if not os.path.exists(f"{node}/queue"):
        devname = os.path.basename(os.path.dirname(os.path.realpath(node)))
    proc = subprocess.run(
        [blockdev, "--getss", f"/dev/{devname}"], capture_output=True, text=True
    )
    if proc.returncode != 0:
        pytest.skip(f"blockdev could not answer: {proc.stderr.strip()}")
    want = int(proc.stdout.strip())
    assert sb.detect_sector_geometry(tmp_path).logical_sector == want


def _own_queue_node(path):
    dev = os.stat(path).st_dev
    node = f"/sys/dev/block/{os.major(dev)}:{os.minor(dev)}"
    if not os.path.exists(f"{node}/queue/logical_block_size"):
        pytest.skip("temp directory is not on a whole disk with its own queue")
    return node


def test_a_whole_disk_answers_from_its_own_queue(tmp_path, monkeypatch):
    """The device's sysfs link is not resolved when its own queue answers."""
    node = _own_queue_node(tmp_path)
    with open(f"{node}/queue/logical_block_size") as stream:
        want = int(stream.read())

    def unexpected(*args, **kwargs):
        raise AssertionError("resolved the sysfs link of a whole disk")

    monkeypatch.setattr(os.path, "realpath", unexpected)
    assert sb.detect_sector_geometry(tmp_path).logical_sector == want


def test_a_device_without_a_queue_answers_from_its_parent(tmp_path, monkeypatch):
    """A partition has no queue of its own; its parent disk's is read instead."""
    node = _own_queue_node(tmp_path)
    asked = []
    real = sb.engine._queue_sector

    def partition(device):
        asked.append(device)
        return real(f"{device}/no-such-queue" if device == node else device)

    monkeypatch.setattr(sb.engine, "_queue_sector", partition)
    parent = os.path.dirname(os.path.realpath(node))
    try:
        want = real(parent)
    except (OSError, ValueError):
        with pytest.raises(sb.GeometryProbeError, match="no block device queue"):
            sb.detect_sector_geometry(tmp_path)
    else:
        assert sb.detect_sector_geometry(tmp_path).logical_sector == want
    assert asked == [node, parent]


def test_an_implausible_sector_is_a_probe_error(tmp_path, monkeypatch):
    monkeypatch.setattr(sb.engine, "_queue_sector", lambda device: 100)
    with pytest.raises(sb.GeometryProbeError, match="got 100"):
        sb.detect_sector_geometry(tmp_path)


def test_detect_geometry_error_path_names_the_path():
    with pytest.raises(sb.GeometryProbeError) as info:
        sb.detect_sector_geometry("/no/such/volume/anywhere")
    assert str(info.value).startswith("cannot determine sector size for '/no/such/volume/anywhere'")
    assert isinstance(info.value, OSError) and isinstance(info.value.__cause__, FileNotFoundError)


# -- open_file truth table ---------------------------------------------------

def _make(path, payload=b"x" * 100):
    path.write_bytes(payload)
    return path


def test_open_existing_preserves_content(tmp_path):
    p = _make(tmp_path / "f")
    with sb.open_file(p, OpenDisposition.OPEN, Direction.READ) as h:
        assert h.position == 0
        assert h.length == 100


def test_open_missing_fails(tmp_path):
    with pytest.raises(FileNotFoundError):
        sb.open_file(tmp_path / "f", OpenDisposition.OPEN, Direction.READ)
    with pytest.raises(TypeError, match="disposition must be an OpenDisposition, got 'open'"):
        sb.open_file(tmp_path / "f", "open", Direction.READ)
    with pytest.raises(TypeError, match="direction must be a Direction, got 'read'"):
        sb.open_file(tmp_path / "f", OpenDisposition.OPEN_OR_CREATE, "read")
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize(
    "arguments, message",
    [
        (("direct",), "io_mode must be an IoMode, got 'direct'"),
        ((IoMode.BUFFERED, "sequential"), "access_hint must be an AccessHint, got 'sequential'"),
    ],
    ids=["io_mode", "access_hint"],
)
def test_open_file_refuses_a_mode_or_hint_outside_its_enum_before_any_open(
    tmp_path, arguments, message
):
    fds = open_fds()
    with pytest.raises(TypeError, match=message):
        sb.open_file(tmp_path / "f", OpenDisposition.CREATE, Direction.WRITE, *arguments)
    assert not (tmp_path / "f").exists()
    assert open_fds() == fds


@pytest.mark.parametrize("disposition", list(OpenDisposition), ids=lambda d: d.value)
@pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
@pytest.mark.parametrize("mode", list(IoMode), ids=lambda m: m.value)
def test_a_handle_reads_its_tier_and_writability_from_what_it_holds(
    tmp_path, request, mode, direction, disposition
):
    """``mode`` and ``stream`` follow the geometry, which only a direct open
    probes, and ``writable`` the file object, which only (OPEN, READ) opens
    read-only; both agree with the descriptor's own flags."""
    if mode is IoMode.DIRECT:
        request.getfixturevalue("need_direct")
    p = tmp_path / "f"
    if disposition is not OpenDisposition.CREATE_NEW:
        p.write_bytes(b"\0" * 4096)
    with sb.open_file(p, disposition, direction, mode) as h:
        flags = fcntl.fcntl(h.fileno(), fcntl.F_GETFL)
        assert h.mode is mode
        assert (h.geometry is None) is (mode is IoMode.BUFFERED)
        assert bool(flags & os.O_DIRECT) is (mode is IoMode.DIRECT)
        assert h.writable is ((flags & os.O_ACCMODE) == os.O_RDWR)
        assert h.writable is not (
            disposition is OpenDisposition.OPEN and direction is Direction.READ
        )
        if mode is IoMode.BUFFERED:
            assert h.stream.fileno() == h.fileno() and h.stream.writable() is h.writable
        else:
            assert h.stream is None


def test_create_existing_truncates(tmp_path):
    p = _make(tmp_path / "f")
    with sb.open_file(p, OpenDisposition.CREATE, Direction.WRITE) as h:
        assert h.length == 0


@pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
@pytest.mark.parametrize("mode", list(IoMode), ids=lambda m: m.value)
def test_a_directory_open_names_the_path(tmp_path, mode, direction):
    """Not the descriptor a buffered read-only open got, nor the direct flag
    a directory refuses."""
    before = open_fds()
    with pytest.raises(IsADirectoryError) as info:
        sb.open_file(tmp_path, OpenDisposition.OPEN, direction, io_mode=mode)
    assert info.value.errno == errno.EISDIR
    assert info.value.filename == str(tmp_path)
    assert open_fds() == before


def test_create_missing_creates(tmp_path):
    p = tmp_path / "f"
    with sb.open_file(p, OpenDisposition.CREATE, Direction.WRITE) as h:
        assert h.length == 0
    assert p.exists()


def test_create_new_existing_fails(tmp_path):
    p = _make(tmp_path / "f")
    with pytest.raises(FileExistsError):
        sb.open_file(p, OpenDisposition.CREATE_NEW, Direction.WRITE)
    assert p.read_bytes() == b"x" * 100  # untouched


def test_create_new_missing_creates(tmp_path):
    p = tmp_path / "f"
    with sb.open_file(p, OpenDisposition.CREATE_NEW, Direction.WRITE):
        pass
    assert p.exists()


def test_open_or_create_existing_keeps(tmp_path):
    p = _make(tmp_path / "f")
    with sb.open_file(p, OpenDisposition.OPEN_OR_CREATE, Direction.WRITE) as h:
        assert h.length == 100
        assert h.position == 0


def test_open_or_create_missing_creates(tmp_path):
    p = tmp_path / "f"
    with sb.open_file(p, OpenDisposition.OPEN_OR_CREATE, Direction.WRITE) as h:
        assert h.length == 0


def test_append_existing_positions_at_end(tmp_path):
    p = _make(tmp_path / "f")
    with sb.open_file(p, OpenDisposition.APPEND, Direction.WRITE) as h:
        assert h.position == 100
        h.write_block(b"yz")
    assert p.read_bytes() == b"x" * 100 + b"yz"


def test_append_missing_creates_at_zero(tmp_path):
    p = tmp_path / "f"
    with sb.open_file(p, OpenDisposition.APPEND, Direction.WRITE) as h:
        assert h.position == 0


def test_truncate_existing_empties(tmp_path):
    p = _make(tmp_path / "f")
    with sb.open_file(p, OpenDisposition.TRUNCATE, Direction.WRITE) as h:
        assert h.length == 0


def test_truncate_missing_fails(tmp_path):
    with pytest.raises(FileNotFoundError):
        sb.open_file(tmp_path / "f", OpenDisposition.TRUNCATE, Direction.WRITE)


# -- block transfers ---------------------------------------------------------

@pytest.mark.parametrize("block", [1, 7, 512, 4096, 65536])
@pytest.mark.parametrize("count", [0, 1, 3, 100])
def test_read_back_identity(tmp_path, block, count):
    """K blocks of B bytes written are read back byte-identical."""
    rng = sb.make_rng(block * 1000 + count)
    payload = rng.bytes(block * count)
    p = tmp_path / "f"
    with sb.open_file(p, OpenDisposition.CREATE, Direction.WRITE) as h:
        for i in range(count):
            h.write_block(payload[i * block : (i + 1) * block])
        h.flush()
    digest = hashlib.sha256()
    with sb.open_file(p, OpenDisposition.OPEN, Direction.READ) as h:
        scratch = bytearray(max(block, 1))
        while True:
            got = h.read_block(scratch)
            if got == 0:
                break
            assert h.position <= h.length
            digest.update(scratch[:got])
    assert digest.digest() == hashlib.sha256(payload).digest()


def test_read_at_eof_returns_zero(tmp_path):
    p = _make(tmp_path / "f", b"abc")
    with sb.open_file(p, OpenDisposition.OPEN, Direction.READ) as h:
        h.seek(3)
        assert h.read_block(bytearray(16)) == 0
        assert h.read_block(bytearray(16)) == 0  # stable at EOF


def test_short_read_at_tail(tmp_path):
    p = _make(tmp_path / "f", b"y" * 100)
    with sb.open_file(p, OpenDisposition.OPEN, Direction.READ) as h:
        buf = bytearray(65536)
        assert h.read_block(buf) == 100
        assert buf[:100] == b"y" * 100


def test_write_zero_bytes_is_noop(tmp_path):
    p = _make(tmp_path / "f", b"abc")
    with sb.open_file(p, OpenDisposition.OPEN_OR_CREATE, Direction.WRITE) as h:
        h.seek(1)
        assert h.write_block(b"") == 0
        assert h.position == 1
    assert p.read_bytes() == b"abc"


def test_write_additivity(tmp_path):
    p = tmp_path / "f"
    with sb.open_file(p, OpenDisposition.CREATE, Direction.WRITE) as h:
        for _ in range(10):
            h.write_block(b"\x5a" * 65536)
        h.flush()
        assert h.length == 655360


def test_write_on_read_only_handle_fails(tmp_path):
    p = _make(tmp_path / "f")
    with sb.open_file(p, OpenDisposition.OPEN, Direction.READ) as h:
        with pytest.raises(io.UnsupportedOperation):
            h.write_block(b"zz")


# -- buffer contract of buffered handles -------------------------------------------

@pytest.mark.parametrize("write", [False, True], ids=["read", "write"])
@pytest.mark.parametrize(
    "length, message",
    [(-1, "negative transfer length -1"), (17, "transfer length 17 exceeds buffer capacity 16")],
)
def test_buffered_length_outside_the_buffer_is_a_value_error(tmp_path, write, length, message):
    p = _make(tmp_path / "f")
    with sb.open_file(p, OpenDisposition.OPEN, Direction.WRITE) as h:
        with pytest.raises(ValueError, match=message):
            (h.write_block if write else h.read_block)(bytearray(16), length)
        assert h.position == 0
    assert p.read_bytes() == b"x" * 100


def test_buffered_zero_length_moves_nothing(tmp_path):
    p = _make(tmp_path / "f")
    with sb.open_file(p, OpenDisposition.OPEN, Direction.WRITE) as h:
        buf = bytearray(b"\x01" * 16)
        assert h.read_block(buf, 0) == 0
        assert h.write_block(buf, 0) == 0
        assert h.position == 0
        assert buf == b"\x01" * 16
    assert p.read_bytes() == b"x" * 100


#: direction -> buffer name -> a maker of a fresh buffer, each one a kind the direction takes
_ACCEPTED = {
    "read": {
        "bytearray": lambda: bytearray(range(1, 17)),
        "empty-bytearray": bytearray,
    },
    "write": {
        "bytes": lambda: bytes(range(1, 17)),
        "bytearray": lambda: bytearray(range(1, 17)),
        "empty-bytes": bytes,
        "empty-bytearray": bytearray,
    },
}

_LENGTHS = {
    "none": lambda size: None,
    "equal": lambda size: size,
    "short": lambda size: size // 2,
    "zero": lambda size: 0,
}


def _aligned_16():
    buffer = sb.AlignedBuffer(16, 512)
    np.frombuffer(buffer.view, np.uint8)[:] = np.arange(1, 17)
    return buffer


_WORDS = [0x04030201, 0x08070605, 0x0C0B0A09, 0x100F0E0D]

#: name -> a maker of a fresh buffer that neither direction takes
_REFUSED = {
    "memoryview": lambda: memoryview(bytearray(range(1, 17))),
    "read-only-memoryview": lambda: memoryview(bytearray(range(1, 17))).toreadonly(),
    "uint32-array": lambda: array("I", _WORDS),
    "numpy-int32": lambda: np.array(_WORDS, dtype=np.int32),
    "aligned": _aligned_16,
}


def _held(buffer) -> bytes:
    return bytes(buffer.view if isinstance(buffer, sb.AlignedBuffer) else buffer)


@pytest.mark.parametrize("length_name", list(_LENGTHS))
@pytest.mark.parametrize(
    "direction, buffer_name",
    [(direction, name) for direction, makers in _ACCEPTED.items() for name in makers],
)
def test_buffered_transfer_matches_a_plain_stream(tmp_path, direction, buffer_name, length_name):
    """Same count, bytes held, position and file as one readinto/write of the view's prefix."""
    make = _ACCEPTED[direction][buffer_name]
    length = _LENGTHS[length_name](len(make()))
    write = direction == "write"
    opening = (
        (OpenDisposition.CREATE, Direction.WRITE) if write else (OpenDisposition.OPEN, Direction.READ)
    )

    def through_a_plain_stream(path, buffer):
        with io.open(path, "wb" if write else "rb", buffering=65536) as stream:
            view = memoryview(buffer)[:length]
            return (stream.write if write else stream.readinto)(view), stream.tell()

    def through_the_handle(path, buffer):
        with sb.open_file(path, *opening) as h:
            return (h.write_block if write else h.read_block)(buffer, length), h.position

    outcomes = []
    for transfer in (through_a_plain_stream, through_the_handle):
        path = tmp_path / transfer.__name__
        path.write_bytes(b"" if write else bytes(range(100, 164)))
        buffer = make()
        outcomes.append((*transfer(path, buffer), _held(buffer), path.read_bytes()))
    assert outcomes[1] == outcomes[0]


@pytest.mark.parametrize("length, message", [
    (-1, "negative transfer length -1"), (17, "transfer length 17 exceeds buffer capacity 16"),
])
@pytest.mark.parametrize("write", [False, True], ids=["read", "write"])
def test_a_buffered_length_outside_bytes_is_a_value_error(tmp_path, write, length, message):
    """As for a bytearray; a read's length is checked before its bytes target is refused."""
    p = _make(tmp_path / "f")
    with sb.open_file(p, OpenDisposition.OPEN, Direction.WRITE) as h:
        h.seek(3)
        with pytest.raises(ValueError, match=message):
            (h.write_block if write else h.read_block)(bytes(16), length)
        assert h.position == 3
    assert p.read_bytes() == b"x" * 100


@pytest.mark.parametrize("length", [None, 4])
@pytest.mark.parametrize(
    "direction, buffer_name",
    [("read", "bytes"), *((direction, name) for direction in _ACCEPTED for name in _REFUSED)],
)
def test_a_buffered_handle_refuses_any_other_buffer(tmp_path, direction, buffer_name, length):
    """A TypeError before a byte moves: the position, the buffer and the file stay."""
    write = direction == "write"
    if buffer_name == "bytes":  # a read target; the stream's readinto refuses it
        make, message = _ACCEPTED["write"]["bytes"], "read-write bytes-like object"
    else:
        make, message = _REFUSED[buffer_name], "buffered transfers take bytes or a bytearray, got "
    p = _make(tmp_path / "f")
    buffer = make()
    with sb.open_file(p, OpenDisposition.OPEN, Direction.WRITE) as h:
        h.seek(3)
        with pytest.raises(TypeError, match=message):
            (h.write_block if write else h.read_block)(buffer, length)
        assert h.position == 3
        assert h.length == 100
    assert _held(buffer) == _held(make())
    assert p.read_bytes() == b"x" * 100


def test_stream_writelines_and_reads_move_the_pieces_in_order(tmp_path):
    """The loops that drive a buffered handle's stream keep the handle in step."""
    p = tmp_path / "f"
    with sb.open_file(p, OpenDisposition.CREATE, Direction.WRITE) as h:
        h.stream.writelines([b"ab", b"", bytearray(b"cde"), memoryview(b"fg")])
        h.stream.writelines(memoryview(b"hij").cast("c"))
        assert h.position == 10
        assert h.length == 10
    assert p.read_bytes() == b"abcdefghij"
    with sb.open_file(p, OpenDisposition.OPEN, Direction.READ) as h:
        h.seek(1)
        assert list(iter(functools.partial(h.stream.read, 4), b"")) == [b"bcde", b"fghi", b"j"]
        assert h.stream.read(4) == b""
        assert h.position == 10
        assert isinstance(h.stream, io.BufferedReader)
        with pytest.raises(io.UnsupportedOperation):
            h.stream.writelines([b"x"])
    assert p.read_bytes() == b"abcdefghij"


def test_stream_calls_need_a_buffered_handle(tmp_path, need_direct):
    """A direct handle has no stream; a buffered one opened for writing reads and writes."""
    p = tmp_path / "f"
    p.write_bytes(b"\0" * 4096)
    with sb.open_file(p, OpenDisposition.OPEN, Direction.WRITE, IoMode.DIRECT) as h:
        assert h.stream is None
    with sb.open_file(p, OpenDisposition.OPEN, Direction.WRITE) as h:
        assert isinstance(h.stream, io.BufferedRandom)
    assert p.read_bytes() == b"\0" * 4096


def test_seek_rejects_negative(tmp_path):
    p = _make(tmp_path / "f")
    with sb.open_file(p, OpenDisposition.OPEN, Direction.READ) as h:
        with pytest.raises(ValueError):
            h.seek(-1)


def test_close_is_idempotent(tmp_path):
    p = _make(tmp_path / "f")
    h = sb.open_file(p, OpenDisposition.OPEN, Direction.READ)
    h.close()
    h.close()


@pytest.mark.parametrize("direction", [Direction.READ, Direction.WRITE], ids=["read-only", "read-write"])
@pytest.mark.parametrize("mode", list(IoMode), ids=lambda mode: mode.value)
def test_a_closed_handle_refuses_every_call(tmp_path, request, mode, direction):
    """Every call but close and repr raises ValueError, and the file that now has the
    closed handle's descriptor number keeps its bytes and its length."""
    if mode is IoMode.DIRECT:
        request.getfixturevalue("need_direct")
    p, other = tmp_path / "closed.dat", tmp_path / "other.dat"
    p.write_bytes(b"\1" * 8192)
    other.write_bytes(b"\2" * 100)
    h = sb.open_file(p, OpenDisposition.OPEN, direction, mode)
    buffer = sb.AlignedBuffer(4096, 4096) if mode is IoMode.DIRECT else bytearray(4096)
    fd = h.fileno()
    h.close()
    reopened = os.open(other, os.O_RDWR)
    if reopened != fd:  # give the other file the closed handle's number
        os.dup2(reopened, fd)
        os.close(reopened)
    try:
        calls = {
            "fileno": h.fileno,
            "position": lambda: h.position,
            "length": lambda: h.length,
            "seek": lambda: h.seek(0),
            "read_block": lambda: h.read_block(buffer),
            "write_block": lambda: h.write_block(buffer),
            "flush": h.flush,
            "flush to the device": lambda: h.flush(sb.FlushLevel.OPERATING_SYSTEM_CACHE),
            "preallocate": lambda: h.preallocate(0),
            "count_extents": lambda: sb.count_extents(h),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError):
                call()
                pytest.fail(f"{name} ran on a closed handle")
        h.close()
        assert repr(h) == f"<FileHandle {p} {mode.value} closed>"
        assert os.fstat(fd).st_size == 100 and os.pread(fd, 200, 0) == b"\2" * 100
    finally:
        os.close(fd)
    assert p.read_bytes() == b"\1" * 8192


@pytest.mark.parametrize("mode", list(IoMode), ids=lambda mode: mode.value)
def test_a_dropped_handle_is_closed_with_a_resource_warning(tmp_path, request, mode):
    if mode is IoMode.DIRECT:
        request.getfixturevalue("need_direct")
    p = tmp_path / "dropped.dat"
    p.write_bytes(b"\0" * 4096)
    fds = open_fds()
    h = sb.open_file(p, OpenDisposition.OPEN, Direction.READ, mode)
    assert open_fds() != fds
    with pytest.warns(ResourceWarning, match="unclosed file"):
        del h
    assert open_fds() == fds


# -- flush tiers --------------------------------------------------------------

def test_flush_application_buffers_makes_bytes_visible(tmp_path):
    p = tmp_path / "f"
    with sb.open_file(p, OpenDisposition.CREATE, Direction.WRITE) as h:
        h.write_block(b"q" * 10)
        h.flush(sb.FlushLevel.APPLICATION_BUFFERS)
        assert p.read_bytes() == b"q" * 10


def test_flush_refuses_a_level_outside_its_enum_before_flushing(tmp_path, monkeypatch):
    p = tmp_path / "f"
    fsyncs = []
    monkeypatch.setattr(os, "fsync", fsyncs.append)
    with sb.open_file(p, OpenDisposition.CREATE, Direction.WRITE) as h:
        h.write_block(b"q" * 10)
        with pytest.raises(TypeError, match="level must be a FlushLevel, got 'operating_sys"):
            h.flush("operating_system_cache")
        assert p.read_bytes() == b""  # the stream was not drained either
    assert fsyncs == []


def test_flush_os_cache_level(tmp_path):
    p = tmp_path / "f"
    with sb.open_file(p, OpenDisposition.CREATE, Direction.WRITE) as h:
        h.write_block(b"q" * 10)
        h.flush(sb.FlushLevel.OPERATING_SYSTEM_CACHE)
    assert p.read_bytes() == b"q" * 10


def test_flush_on_read_only_handle_fails(tmp_path):
    p = _make(tmp_path / "f")
    with sb.open_file(p, OpenDisposition.OPEN, Direction.READ) as h:
        with pytest.raises(io.UnsupportedOperation):
            h.flush()


# -- preallocate ---------------------------------------------------------------
# Each behaviour is checked through FileHandle.preallocate and through the
# engine function it calls, on a bare descriptor as copy_file uses it.

def _preallocate_fd(path, size: int) -> int:
    """engine.preallocate on a bare descriptor of ``path``; the length it leaves."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
    try:
        sb.engine.preallocate(fd, size)
        return os.fstat(fd).st_size
    finally:
        os.close(fd)


def test_preallocate_grow_is_exact(tmp_path):
    p = tmp_path / "f"
    with sb.open_file(p, OpenDisposition.CREATE, Direction.WRITE) as h:
        h.preallocate(8 << 20)
        assert h.length == 8 << 20
    assert p.stat().st_size == 8 << 20
    q = _make(tmp_path / "g", b"z" * 4096)
    assert _preallocate_fd(q, 8 << 20) == 8 << 20
    assert q.read_bytes() == b"z" * 4096 + bytes((8 << 20) - 4096)


def test_preallocate_zero_truncates(tmp_path):
    p = _make(tmp_path / "f", b"z" * (1 << 20))
    with sb.open_file(p, OpenDisposition.OPEN_OR_CREATE, Direction.WRITE) as h:
        h.preallocate(0)
        assert h.length == 0


def test_preallocate_shrink_clamps_position(tmp_path):
    p = _make(tmp_path / "f", b"z" * 65536)
    with sb.open_file(p, OpenDisposition.OPEN_OR_CREATE, Direction.WRITE) as h:
        h.seek(65536)
        h.preallocate(4096)
        assert h.length == 4096
        assert h.position <= 4096
    q = _make(tmp_path / "g", b"z" * 65536)
    assert _preallocate_fd(q, 4096) == 4096
    assert q.read_bytes() == b"z" * 4096


def test_preallocate_then_write_overwrites_not_extends(tmp_path):
    p = tmp_path / "f"
    with sb.open_file(p, OpenDisposition.CREATE, Direction.WRITE) as h:
        h.preallocate(65536)
        h.write_block(b"m" * 4096)
        h.flush()
        assert h.length == 65536  # still the preallocated length


def test_preallocate_on_read_only_fails(tmp_path):
    p = _make(tmp_path / "f")
    with sb.open_file(p, OpenDisposition.OPEN, Direction.READ) as h:
        with pytest.raises(io.UnsupportedOperation):
            h.preallocate(4096)


def test_preallocate_rejects_negative(tmp_path):
    p = tmp_path / "f"
    with sb.open_file(p, OpenDisposition.CREATE, Direction.WRITE) as h:
        with pytest.raises(ValueError):
            h.preallocate(-1)


def test_preallocate_falls_back_to_truncate_where_allocation_is_refused(tmp_path, faults):
    p = _make(tmp_path / "f", b"z" * 4096)
    with sb.open_file(p, OpenDisposition.OPEN_OR_CREATE, Direction.WRITE) as h:
        with faults("posix_fallocate", errno.EOPNOTSUPP) as refused:
            h.preallocate(65536)
        assert refused.fired and h.length == 65536
    assert p.read_bytes() == b"z" * 4096 + bytes(65536 - 4096)
    q = _make(tmp_path / "g", b"z" * 4096)
    with faults("posix_fallocate", errno.EOPNOTSUPP) as refused:
        assert _preallocate_fd(q, 65536) == 65536
    assert refused.fired and q.read_bytes() == b"z" * 4096 + bytes(65536 - 4096)


def test_preallocate_on_a_full_disk_raises_and_keeps_the_length(tmp_path, faults):
    p = _make(tmp_path / "f", b"z" * 4096)
    with sb.open_file(p, OpenDisposition.OPEN_OR_CREATE, Direction.WRITE) as h:
        with faults("posix_fallocate", errno.ENOSPC), pytest.raises(OSError) as info:
            h.preallocate(1 << 20)
        assert info.value.errno == errno.ENOSPC
        assert h.length == 4096
    assert p.read_bytes() == b"z" * 4096
    q = _make(tmp_path / "g", b"z" * 4096)
    with faults("posix_fallocate", errno.ENOSPC), pytest.raises(OSError) as info:
        _preallocate_fd(q, 1 << 20)
    assert info.value.errno == errno.ENOSPC and q.read_bytes() == b"z" * 4096


# -- write_chunks ---------------------------------------------------------------

def test_write_chunks_cuts_the_last_chunk_and_takes_no_more(tmp_path):
    taken = []

    def chunks():
        for index in itertools.count():
            taken.append(index)
            yield bytes([index]) * 4

    p = tmp_path / "f"
    p.write_bytes(b"-" * 3)
    fd = os.open(p, os.O_WRONLY)
    try:
        sb.engine.write_chunks(fd, chunks(), 3, 10)
        sb.engine.write_chunks(fd, chunks(), 13, 0)
    finally:
        os.close(fd)
    assert p.read_bytes() == b"---" + b"\0" * 4 + b"\1" * 4 + b"\2" * 2
    assert taken == [0, 1, 2]


@pytest.mark.parametrize("chunks", [[b"ab", b"cd"], itertools.repeat(b"")])
def test_write_chunks_refuses_to_fall_short(tmp_path, chunks):
    fd = os.open(tmp_path / "f", os.O_WRONLY | os.O_CREAT)
    try:
        with pytest.raises(ValueError, match="short of 5"):
            sb.engine.write_chunks(fd, chunks, 0, 5)
    finally:
        os.close(fd)


def test_write_chunks_ends_on_a_full_disk(tmp_path, faults, deadline):
    """The fourth chunk write fails: three chunks are on disk and no fifth is taken."""
    taken = []

    def chunks():
        for index in itertools.count():
            taken.append(index)
            yield bytes([index]) * 4096

    p = tmp_path / "f"
    before = open_fds()
    fd = os.open(p, os.O_WRONLY | os.O_CREAT)
    try:
        with faults("pwritev", errno.ENOSPC, at=4), pytest.raises(OSError) as info:
            sb.engine.write_chunks(fd, chunks(), 0, 10 * 4096)
    finally:
        os.close(fd)
    assert info.value.errno == errno.ENOSPC
    assert taken == [0, 1, 2, 3]
    assert p.read_bytes() == b"".join(bytes([index]) * 4096 for index in range(3))
    assert open_fds() == before


# -- aligned buffers ------------------------------------------------------------

@pytest.mark.parametrize("alignment", [512, 4096, 65536])
@pytest.mark.parametrize("capacity", [1, 512, 65536, 65536 + 1])
def test_allocate_aligned_properties(capacity, alignment):
    buf = sb.AlignedBuffer(capacity, alignment)
    assert buf.address % alignment == 0
    assert np.frombuffer(buf.view, np.uint8).ctypes.data == buf.address
    assert (buf.view.format, buf.view.ndim, buf.view.readonly) == ("B", 1, False)
    assert buf.view.nbytes == len(buf.view) == capacity
    assert buf.capacity == capacity
    assert bytes(buf.view) == b"\x00" * capacity
    buf.view[0] = 0xFF  # writable
    assert np.frombuffer(buf.view, np.uint8)[0] == 0xFF


def test_reprs_say_what_a_buffer_and_a_handle_are(tmp_path):
    assert repr(sb.AlignedBuffer(100, 512)) == "AlignedBuffer(capacity=100, alignment=512)"
    path = tmp_path / "f"
    handle = sb.open_file(path, OpenDisposition.CREATE, Direction.WRITE)
    handle.write_block(b"abc")
    assert repr(handle) == f"<FileHandle {path} buffered pos=3>"
    handle.close()
    assert repr(handle) == f"<FileHandle {path} buffered closed>"


def test_allocate_aligned_rejects_bad_alignment():
    with pytest.raises(ValueError):
        sb.AlignedBuffer(65536, 3000)
    with pytest.raises(ValueError):
        sb.AlignedBuffer(65536, 0)
    with pytest.raises(ValueError):
        sb.AlignedBuffer(0, 512)


# -- validate_direct_request ------------------------------------------------------

_GEOM_512 = SectorGeometry(512)
_GEOM_4096 = SectorGeometry(4096)
_FakeBuffer = namedtuple("_FakeBuffer", "address capacity")


def test_validator_accepts_legal_request():
    buf = sb.AlignedBuffer(65536, 65536)
    assert sb.validate_direct_request(_GEOM_512, buf, 65536, 0) == []


def test_validator_flags_ragged_length():
    buf = sb.AlignedBuffer(65536, 65536)
    violations = sb.validate_direct_request(_GEOM_512, buf, 1000, 0)
    assert len(violations) == 1 and "length" in violations[0]


def test_validator_flags_ragged_offset():
    buf = sb.AlignedBuffer(65536, 65536)
    violations = sb.validate_direct_request(_GEOM_4096, buf, 4096, 2048)
    assert len(violations) == 1 and "offset" in violations[0]


def test_validator_reports_every_violation_not_just_first():
    bad = _FakeBuffer(address=513, capacity=100)
    violations = sb.validate_direct_request(_GEOM_512, bad, 1001, 255)
    text = "\n".join(violations)
    assert "address" in text
    assert "length" in text
    assert "offset" in text
    assert "capacity" in text
    assert len(violations) == 4


def test_validator_flags_negative_values():
    buf = sb.AlignedBuffer(65536, 65536)
    violations = sb.validate_direct_request(_GEOM_512, buf, -512, -1024)
    assert any("negative length" in v for v in violations)
    assert any("negative file offset" in v for v in violations)


@given(
    sector_log=st.integers(min_value=9, max_value=13),
    address=st.integers(min_value=0, max_value=2**40),
    capacity=st.integers(min_value=1, max_value=2**24),
    length=st.integers(min_value=0, max_value=2**24),
    offset=st.integers(min_value=0, max_value=2**40),
)
@settings(max_examples=300, deadline=None)
def test_validator_matches_brute_force_oracle(sector_log, address, capacity, length, offset):
    """ok iff the three divisibility rules hold and length fits the buffer."""
    sector = 1 << sector_log
    geom = SectorGeometry(sector)
    legal = (
        address % sector == 0
        and length % sector == 0
        and offset % sector == 0
        and length <= capacity
    )
    got = sb.validate_direct_request(geom, _FakeBuffer(address, capacity), length, offset)
    assert (got == []) == legal


# -- direct I/O against a real volume ----------------------------------------------

def test_direct_round_trip(tmp_path, need_direct):
    p = tmp_path / "d.dat"
    geom = sb.detect_sector_geometry(tmp_path)
    buf = sb.AlignedBuffer(geom.recommended_alignment, geom.recommended_alignment)
    payload = sb.make_rng(5).bytes(buf.capacity)
    buf.view[:] = payload
    with sb.open_file(p, OpenDisposition.CREATE, Direction.WRITE, io_mode=IoMode.DIRECT) as h:
        assert h.mode is IoMode.DIRECT
        h.write_block(buf, buf.capacity)
        assert h.position == buf.capacity
    assert p.read_bytes() == payload

    back = sb.AlignedBuffer(buf.capacity, geom.recommended_alignment)
    with sb.open_file(p, OpenDisposition.OPEN, Direction.READ, io_mode=IoMode.DIRECT) as h:
        got = h.read_block(back, back.capacity)
    assert got == buf.capacity
    assert bytes(back.view) == payload


def test_direct_rejects_ragged_request_before_transfer(tmp_path, need_direct):
    p = tmp_path / "d.dat"
    geom = sb.detect_sector_geometry(tmp_path)
    buf = sb.AlignedBuffer(geom.recommended_alignment, geom.recommended_alignment)
    with sb.open_file(p, OpenDisposition.CREATE, Direction.WRITE, io_mode=IoMode.DIRECT) as h:
        with pytest.raises(sb.DirectRequestError) as info:
            h.write_block(buf, 1000)
        assert any("length" in v for v in info.value.violations)
        assert h.length == 0  # nothing was transferred
        assert h.position == 0


def test_a_direct_transfer_takes_an_aligned_buffer_whole_by_default(tmp_path, need_direct):
    """A buffer without an address and a capacity is refused before any transfer;
    with no length, a transfer asks for the buffer's whole capacity."""
    geom = sb.detect_sector_geometry(tmp_path)
    buf = sb.AlignedBuffer(geom.recommended_alignment, geom.recommended_alignment)
    buf.view[:] = payload = sb.make_rng(6).bytes(buf.capacity)
    back = sb.AlignedBuffer(2 * buf.capacity, geom.recommended_alignment)
    with sb.open_file(
        tmp_path / "d.dat", OpenDisposition.CREATE, Direction.WRITE, io_mode=IoMode.DIRECT
    ) as h:
        for call in (h.read_block, h.write_block):
            with pytest.raises(TypeError, match="got bytearray"):
                call(bytearray(buf.capacity))
        assert (h.position, h.length) == (0, 0)
        assert h.write_block(buf) == buf.capacity
        h.seek(0)
        assert h.read_block(back) == buf.capacity  # the end of the file cuts it short
        assert h.position == buf.capacity
    assert bytes(back.view[: buf.capacity]) == payload


def test_direct_write_ends_when_the_device_stops_making_progress(
    tmp_path, need_direct, faults, deadline
):
    geom = sb.detect_sector_geometry(tmp_path)
    buf = sb.AlignedBuffer(geom.recommended_alignment, geom.recommended_alignment)
    with sb.open_file(
        tmp_path / "d.dat", OpenDisposition.CREATE, Direction.WRITE, io_mode=IoMode.DIRECT
    ) as h:
        with faults("pwritev", ZERO), pytest.raises(OSError, match="no progress"):
            h.write_block(buf, buf.capacity)


def test_direct_unsupported_volume_is_a_distinct_error():
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no memory-backed filesystem mounted")
    if sb.supports_direct_io("/dev/shm"):
        pytest.skip("this kernel accepts cache-bypass opens on memory files")
    probe = "/dev/shm/seqbench_direct_probe.dat"
    try:
        with pytest.raises(sb.DirectIoUnsupportedError):
            sb.open_file(probe, OpenDisposition.CREATE, Direction.WRITE, io_mode=IoMode.DIRECT)
    finally:
        if os.path.exists(probe):
            os.unlink(probe)


@pytest.mark.parametrize("refusal", [errno.EINVAL, errno.EOPNOTSUPP], ids=errno.errorcode.get)
def test_a_volume_that_refuses_direct_opens(tmp_path, faults, refusal):
    """Only the cache-bypass flag is refused: the probe answers False and
    leaves nothing behind, and open_file raises the distinct error."""
    p = _make(tmp_path / "f")
    with faults("open", refusal, when=lambda path, flags, *rest: flags & os.O_DIRECT):
        assert sb.supports_direct_io(tmp_path) is False
        assert sorted(tmp_path.iterdir()) == [p]
        with pytest.raises(sb.DirectIoUnsupportedError) as info:
            sb.open_file(p, OpenDisposition.OPEN, Direction.READ, io_mode=IoMode.DIRECT)
        assert info.value.__cause__.errno == refusal
        with sb.open_file(p, OpenDisposition.OPEN, Direction.READ) as h:
            assert h.length == 100


def test_a_failed_geometry_probe_closes_the_direct_open(tmp_path, monkeypatch):
    """The open itself succeeds (the cache-bypass flag is dropped, so any
    volume will do); the probe after it fails, and the descriptor goes."""
    real_open, real_queue = os.open, sb.engine._queue_sector
    monkeypatch.setattr(os, "open", lambda path, flags, mode=0o777: real_open(
        path, flags & ~os.O_DIRECT, mode
    ))
    monkeypatch.setattr(sb.engine, "_queue_sector", lambda device: real_queue(f"{device}/none"))
    p = _make(tmp_path / "f")
    before = open_fds()
    with pytest.raises(sb.GeometryProbeError, match="no block device queue"):
        sb.open_file(p, OpenDisposition.OPEN, Direction.READ, io_mode=IoMode.DIRECT)
    assert open_fds() == before


def test_an_access_hint_the_filesystem_refuses_is_only_a_hint(tmp_path, faults):
    with faults("posix_fadvise", errno.EINVAL) as refused:
        with sb.open_file(_make(tmp_path / "f"), OpenDisposition.OPEN, Direction.READ,
                          access_hint=sb.AccessHint.RANDOM) as h:
            assert h.read_block(bytearray(200)) == 100
    assert refused.fired


def test_supports_direct_io_probe(tmp_path, direct_ok):
    assert sb.supports_direct_io(tmp_path) == direct_ok
    assert isinstance(sb.supports_direct_io(tmp_path), bool)


# -- extent counting -----------------------------------------------------------

def test_count_extents_on_real_file(tmp_path):
    p = tmp_path / "f"
    p.write_bytes(b"e" * (1 << 20))
    with sb.open_file(p, OpenDisposition.OPEN, Direction.READ) as h:
        try:
            extents = sb.count_extents(h)
        except sb.ExtentQueryError:
            pytest.skip("filesystem does not answer extent queries")
    assert extents >= 1


def test_an_extent_count_covers_the_writes_still_in_the_stream(tmp_path, monkeypatch):
    """The stream's pending bytes reach the file before the query is made."""
    sizes = []
    real = fcntl.ioctl

    def ioctl(fd, request, arg):
        sizes.append(os.fstat(fd).st_size)
        return real(fd, request, arg)

    monkeypatch.setattr(fcntl, "ioctl", ioctl)
    with sb.open_file(tmp_path / "f", OpenDisposition.CREATE, Direction.WRITE) as h:
        h.write_block(b"e" * 4096)
        assert os.fstat(h.fileno()).st_size == 0  # still in the stream buffer
        with contextlib.suppress(sb.ExtentQueryError):  # a filesystem may not answer
            sb.count_extents(h)
    assert sizes == [4096]


def test_a_refused_extent_query_is_an_extent_query_error(tmp_path, faults):
    with sb.open_file(_make(tmp_path / "f"), OpenDisposition.OPEN, Direction.READ) as h:
        with faults("ioctl", errno.EOPNOTSUPP), pytest.raises(sb.ExtentQueryError) as info:
            sb.count_extents(h)
    assert info.value.__cause__.errno == errno.EOPNOTSUPP


# -- run_slots -----------------------------------------------------------------------

def test_run_slots_raises_a_slot_failure_after_fail_saw_it(deadline):
    seen = []

    def slot(index):
        if index == 1:
            raise ValueError("slot 1 failed")

    with pytest.raises(ValueError, match="slot 1 failed"):
        run_slots(2, slot, lambda exc: seen.append(str(exc)))
    assert seen == ["slot 1 failed"]


def test_an_interrupt_in_the_wait_wins_over_an_earlier_slot_failure(interrupt_after):
    """Slot 0 fails at once, but ``fail`` stops slot 1 only for the interrupt,
    which lands in the wait: that interrupt is what run_slots raises."""
    stop = threading.Event()
    failures = []

    def slot(index):
        if index == 0:
            raise ValueError("slot 0 failed")
        stop.wait(10)

    def fail(exc):
        failures.append(type(exc))
        if isinstance(exc, Interrupt):
            stop.set()

    before = os_threads()
    interrupt_after(0.2)
    with pytest.raises(Interrupt):
        run_slots(2, slot, fail)
    assert failures == [ValueError, Interrupt]
    assert not lingering_threads(before)


def test_run_slots_wait_survives_an_interrupt(interrupt_after):
    """Slot 0 returns at once; slot 1 runs until ``fail`` stops it.

    The interrupt lands in the wait for slot 1: it must reach ``fail``,
    and run_slots may raise it only once slot 1 has ended.
    """
    stop = threading.Event()
    ended, failures = [], []

    def slot(index):
        if index == 1:
            stop.wait(10)
            ended.append(index)

    def fail(exc):
        failures.append(exc)
        stop.set()

    before = os_threads()
    interrupt_after(0.2)
    with pytest.raises(Interrupt):
        run_slots(2, slot, fail)
    assert ended == [1]
    assert [type(exc) for exc in failures] == [Interrupt]
    assert not lingering_threads(before)


def test_a_thread_that_cannot_start_stops_every_slot(faults, deadline):
    """At depth 3 slot 2's thread cannot start: slot 0 never runs, ``fail``
    stops slot 1, run_slots waits for it to end and raises the start error
    as the OSError it is, EAGAIN."""
    stop = threading.Event()
    ended, failures = [], []

    def slot(index):
        stop.wait(10)
        ended.append(index)

    def fail(exc):
        failures.append(exc)
        stop.set()

    before = os_threads()
    with faults("start_new_thread", REFUSED, at=2), pytest.raises(OSError) as info:
        run_slots(3, slot, fail)
    assert info.value.errno == errno.EAGAIN
    assert str(info.value).endswith("cannot start the thread of slot 2: can't start new thread")
    assert ended == [1]
    assert failures == [info.value]
    assert not lingering_threads(before)
