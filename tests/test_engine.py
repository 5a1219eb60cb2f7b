"""Open dispositions, aligned buffers, direct-transfer validation, flushing."""
import errno
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
from conftest import Interrupt, open_fds
from hypothesis import given, settings, strategies as st

import seqbench as sb
from seqbench.core import Direction, OpenDisposition
from seqbench.engine import FALLBACK_GEOMETRY, IoMode, SectorGeometry, _stream_view, run_slots


# -- SectorGeometry ---------------------------------------------------------

def test_geometry_invariants_hold_for_valid_input():
    g = SectorGeometry(logical_sector=512, recommended_alignment=65536)
    assert g.logical_sector == 512 and g.recommended_alignment == 65536


@pytest.mark.parametrize(
    "sector, alignment",
    [
        (500, 65536),     # not a power of two
        (256, 65536),     # below 512
        (512, 512),       # alignment below the 64K floor
        (512, 100000),    # alignment not a power of two
        (131072, 65536),  # alignment below the sector
    ],
)
def test_geometry_rejects_bad_values(sector, alignment):
    with pytest.raises(ValueError):
        SectorGeometry(logical_sector=sector, recommended_alignment=alignment)


def test_fallback_geometry_is_conservative():
    assert FALLBACK_GEOMETRY.logical_sector == 4096
    assert FALLBACK_GEOMETRY.recommended_alignment == 65536


def test_detect_geometry_on_real_volume(tmp_path):
    """Detection either reports sane geometry or carries the fallback."""
    try:
        g = sb.detect_sector_geometry(tmp_path)
    except sb.GeometryProbeError as exc:
        assert exc.fallback == FALLBACK_GEOMETRY
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


def test_detect_geometry_error_path_carries_fallback():
    with pytest.raises(sb.GeometryProbeError) as info:
        sb.detect_sector_geometry("/no/such/volume/anywhere")
    assert info.value.fallback == FALLBACK_GEOMETRY


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


def test_create_existing_truncates(tmp_path):
    p = _make(tmp_path / "f")
    with sb.open_file(p, OpenDisposition.CREATE, Direction.WRITE) as h:
        assert h.length == 0


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

def test_buffered_read_into_bytes_is_a_type_error(tmp_path):
    p = _make(tmp_path / "f")
    with sb.open_file(p, OpenDisposition.OPEN, Direction.READ) as h:
        with pytest.raises(TypeError, match="read target buffer is read-only"):
            h.read_block(b"\x00" * 16)
        with pytest.raises(TypeError, match="read target buffer is read-only"):
            h.read_block(memoryview(bytearray(16)).toreadonly(), 4)
        assert h.position == 0


@pytest.mark.parametrize("write", [False, True], ids=["read", "write"])
def test_buffered_non_contiguous_buffer_is_a_type_error(tmp_path, write):
    p = _make(tmp_path / "f")
    with sb.open_file(p, OpenDisposition.OPEN, Direction.WRITE) as h:
        with pytest.raises(TypeError, match="C-contiguous"):
            (h.write_block if write else h.read_block)(memoryview(bytearray(32))[::2])
    assert p.read_bytes() == b"x" * 100


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


def test_buffered_typed_buffer_is_counted_in_bytes(tmp_path):
    p = tmp_path / "f"
    words = array("I", [0x01020304, 0x05060708, 0x0A0B0C0D, 0xDEADBEEF])
    with sb.open_file(p, OpenDisposition.CREATE, Direction.WRITE) as h:
        assert h.write_block(words) == 16
        assert h.write_block(words, 6) == 6
        assert h.position == 22
    assert p.read_bytes() == words.tobytes() + words.tobytes()[:6]
    back = array("I", [0] * 4)
    with sb.open_file(p, OpenDisposition.OPEN, Direction.READ) as h:
        assert h.read_block(back) == 16
        assert back == words
        assert h.read_block(back, 3) == 3
        assert h.read_block(back) == 3  # the 6-byte tail's last 3 bytes
    grid = memoryview(bytearray(range(16))).cast("B", (4, 4))
    with sb.open_file(p, OpenDisposition.CREATE, Direction.WRITE) as h:
        assert h.write_block(grid) == 16
    assert p.read_bytes() == bytes(range(16))


def test_buffered_handle_takes_an_aligned_buffer(tmp_path):
    p = tmp_path / "f"
    out = sb.AlignedBuffer(4096, 4096)
    out.array[:] = np.arange(4096) % 251
    with sb.open_file(p, OpenDisposition.CREATE, Direction.WRITE) as h:
        assert h.write_block(out) == 4096
        assert h.write_block(out, 100) == 100
    assert p.read_bytes() == out.array.tobytes() + out.array[:100].tobytes()
    back = sb.AlignedBuffer(4096, 512)
    with sb.open_file(p, OpenDisposition.OPEN, Direction.READ) as h:
        assert h.read_block(back) == 4096
        assert bytes(back.view) == out.array.tobytes()
        assert h.read_block(back, 4096) == 100
        with pytest.raises(ValueError, match="exceeds buffer capacity 4096"):
            h.read_block(back, 4097)


# What read_block/write_block did on a buffered handle before whole bytes
# buffers went straight to the stream: every buffer through _stream_view.
def _reference_read(handle, buffer, length):
    view = _stream_view(buffer, length, target=True)
    return (handle._stream.readinto(view) or 0) if view else 0


def _reference_write(handle, buffer, length):
    view = _stream_view(buffer, length, target=False)
    if view:
        handle._stream.write(view)
    return len(view)


def _aligned_16():
    buffer = sb.AlignedBuffer(16, 512)
    buffer.array[:] = np.arange(1, 17)
    return buffer


_WORDS = [0x04030201, 0x08070605, 0x0C0B0A09, 0x100F0E0D]

#: name -> (a maker of a fresh buffer, its size in bytes)
_BUFFERS = {
    "bytes": (lambda: bytes(range(1, 17)), 16),
    "bytearray": (lambda: bytearray(range(1, 17)), 16),
    "memoryview": (lambda: memoryview(bytearray(range(1, 17))), 16),
    "sliced-memoryview": (lambda: memoryview(bytearray(range(33)))[1:17], 16),
    "int32-memoryview": (lambda: memoryview(array("i", _WORDS)), 16),
    "strided-memoryview": (lambda: memoryview(bytearray(range(1, 33)))[::2], 16),
    "numpy-int32": (lambda: np.array(_WORDS, dtype=np.int32), 16),
    "aligned": (_aligned_16, 16),
    "empty-bytes": (lambda: b"", 0),
    "empty-bytearray": (lambda: bytearray(), 0),
}

_LENGTHS = {
    "none": lambda size: None,
    "equal": lambda size: size,
    "short": lambda size: size // 2,
    "negative": lambda size: -1,
    "too-long": lambda size: size + 1,
}

_PINNED = {
    ("read", "bytes", "none"): (TypeError, "read target buffer is read-only"),
    ("read", "bytearray", "too-long"): (ValueError, "transfer length 17 exceeds buffer capacity 16"),
    ("write", "bytes", "too-long"): (ValueError, "transfer length 17 exceeds buffer capacity 16"),
    ("write", "bytearray", "negative"): (ValueError, "negative transfer length -1"),
    ("read", "empty-bytearray", "too-long"): (ValueError, "transfer length 1 exceeds buffer capacity 0"),
}


def _outcome(call, handle, buffer, length):
    try:
        result = ("count", call(handle, buffer, length))
    except Exception as exc:
        result = (type(exc), str(exc))
    held = buffer.array if isinstance(buffer, sb.AlignedBuffer) else memoryview(buffer)
    return result, held.tobytes(), handle.position


@pytest.mark.parametrize("length_name", list(_LENGTHS))
@pytest.mark.parametrize("buffer_name", list(_BUFFERS))
@pytest.mark.parametrize("write", [False, True], ids=["read", "write"])
def test_buffered_transfer_matches_the_view_path(tmp_path, write, buffer_name, length_name):
    """Same count, same bytes moved and held, same exception type and message."""
    make, size = _BUFFERS[buffer_name]
    length = _LENGTHS[length_name](size)
    source = bytes(range(100, 164))
    outcomes = []
    for call in (_reference_write, sb.FileHandle.write_block) if write else (
        _reference_read, sb.FileHandle.read_block
    ):
        p = tmp_path / call.__name__
        p.write_bytes(b"" if write else source)
        disposition, direction = (
            (OpenDisposition.CREATE, Direction.WRITE) if write else (OpenDisposition.OPEN, Direction.READ)
        )
        with sb.open_file(p, disposition, direction) as handle:
            outcome = _outcome(call, handle, make(), length)
        outcomes.append((outcome, p.read_bytes()))
    assert outcomes[1] == outcomes[0]
    pinned = _PINNED.get(("write" if write else "read", buffer_name, length_name))
    if pinned is not None:
        assert outcomes[1][0][0] == pinned


def test_write_each_and_reads_move_the_pieces_in_order(tmp_path):
    p = tmp_path / "f"
    with sb.open_file(p, OpenDisposition.CREATE, Direction.WRITE) as h:
        h.write_each([b"ab", b"", bytearray(b"cde"), memoryview(b"fg")])
        h.write_each(memoryview(b"hij").cast("c"))
        assert h.position == 10
    assert p.read_bytes() == b"abcdefghij"
    with sb.open_file(p, OpenDisposition.OPEN, Direction.READ) as h:
        h.seek(1)
        assert list(h.reads(4)) == [b"bcde", b"fghi", b"j"]
        assert list(h.reads(4)) == []
        with pytest.raises(ValueError, match="at least 1 byte"):
            h.reads(0)
        with pytest.raises(io.UnsupportedOperation, match="read-only"):
            h.write_each([b"x"])
    assert p.read_bytes() == b"abcdefghij"


def test_stream_calls_need_a_buffered_handle(tmp_path, need_direct):
    p = tmp_path / "f"
    p.write_bytes(b"\0" * 4096)
    with sb.open_file(p, OpenDisposition.OPEN, Direction.WRITE, IoMode.DIRECT) as h:
        for call in (h.lines, lambda: h.reads(4096), lambda: h.write_each([b"x" * 4096])):
            with pytest.raises(io.UnsupportedOperation, match="needs a buffered handle"):
                call()
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


# -- flush tiers --------------------------------------------------------------

def test_flush_application_buffers_makes_bytes_visible(tmp_path):
    p = tmp_path / "f"
    with sb.open_file(p, OpenDisposition.CREATE, Direction.WRITE) as h:
        h.write_block(b"q" * 10)
        h.flush(sb.FlushLevel.APPLICATION_BUFFERS)
        assert p.read_bytes() == b"q" * 10


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

def test_preallocate_grow_is_exact(tmp_path):
    p = tmp_path / "f"
    with sb.open_file(p, OpenDisposition.CREATE, Direction.WRITE) as h:
        h.preallocate(8 << 20)
        assert h.length == 8 << 20
    assert p.stat().st_size == 8 << 20


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


def test_preallocate_falls_back_to_truncate_where_allocation_is_refused(tmp_path, monkeypatch):
    def refuse(fd, offset, length):
        raise OSError(errno.EOPNOTSUPP, os.strerror(errno.EOPNOTSUPP))

    monkeypatch.setattr(os, "posix_fallocate", refuse)
    p = _make(tmp_path / "f", b"z" * 4096)
    with sb.open_file(p, OpenDisposition.OPEN_OR_CREATE, Direction.WRITE) as h:
        h.preallocate(65536)
        assert h.length == 65536
    assert p.read_bytes() == b"z" * 4096 + bytes(65536 - 4096)


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


def test_write_chunks_ends_on_a_full_disk(tmp_path, enospc_at, deadline):
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
        enospc_at(4)
        with pytest.raises(OSError) as info:
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
    assert buf.capacity == capacity
    assert len(buf) == capacity
    assert bytes(buf.view) == b"\x00" * capacity
    buf.view[0] = 0xFF  # writable
    assert buf.array[0] == 0xFF


def test_allocate_aligned_rejects_bad_alignment():
    with pytest.raises(ValueError):
        sb.AlignedBuffer(65536, 3000)
    with pytest.raises(ValueError):
        sb.AlignedBuffer(65536, 0)
    with pytest.raises(ValueError):
        sb.AlignedBuffer(0, 512)


# -- validate_direct_request ------------------------------------------------------

_GEOM_512 = SectorGeometry(512, 65536)
_GEOM_4096 = SectorGeometry(4096, 65536)
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
    geom = SectorGeometry(sector, max(sector, 65536))
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


def test_direct_write_ends_when_the_device_stops_making_progress(
    tmp_path, need_direct, short_then_zero, deadline
):
    geom = sb.detect_sector_geometry(tmp_path)
    buf = sb.AlignedBuffer(geom.recommended_alignment, geom.recommended_alignment)
    with sb.open_file(
        tmp_path / "d.dat", OpenDisposition.CREATE, Direction.WRITE, io_mode=IoMode.DIRECT
    ) as h:
        short_then_zero("pwritev", step=geom.logical_sector)
        with pytest.raises(OSError, match="no progress"):
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
def test_a_volume_that_refuses_direct_opens(tmp_path, monkeypatch, refusal):
    """Only the cache-bypass flag is refused: the probe answers False and
    leaves nothing behind, and open_file raises the distinct error."""
    real_open = os.open

    def refusing(path, flags, mode=0o777, **kwargs):
        if flags & os.O_DIRECT:
            raise OSError(refusal, os.strerror(refusal))
        return real_open(path, flags, mode, **kwargs)

    p = _make(tmp_path / "f")
    monkeypatch.setattr(os, "open", refusing)
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
    real_open = os.open

    def failed_probe(path):
        raise sb.GeometryProbeError(f"no queue for {path}", FALLBACK_GEOMETRY)

    monkeypatch.setattr(os, "open", lambda path, flags, mode=0o777: real_open(
        path, flags & ~os.O_DIRECT, mode
    ))
    monkeypatch.setattr(sb.engine, "detect_sector_geometry", failed_probe)
    p = _make(tmp_path / "f")
    before = open_fds()
    with pytest.raises(sb.GeometryProbeError) as info:
        sb.open_file(p, OpenDisposition.OPEN, Direction.READ, io_mode=IoMode.DIRECT)
    assert info.value.fallback == FALLBACK_GEOMETRY
    assert open_fds() == before


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

    before = threading.active_count()
    interrupt_after(0.2)
    with pytest.raises(Interrupt):
        run_slots(2, slot, fail)
    assert failures == [ValueError, Interrupt]
    assert threading.active_count() == before


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

    before = threading.active_count()
    interrupt_after(0.2)
    with pytest.raises(Interrupt):
        run_slots(2, slot, fail)
    assert ended == [1]
    assert [type(exc) for exc in failures] == [Interrupt]
    assert threading.active_count() == before
