"""Open dispositions, aligned buffers, direct-transfer validation, flushing."""
import hashlib
import io
import os
import shutil
import subprocess
from collections import namedtuple

import pytest
from hypothesis import given, settings, strategies as st

import seqbench as sb
from seqbench.core import Direction, OpenDisposition
from seqbench.engine import FALLBACK_GEOMETRY, IoMode, SectorGeometry


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


# -- aligned buffers ------------------------------------------------------------

@pytest.mark.parametrize("alignment", [512, 4096, 65536])
@pytest.mark.parametrize("capacity", [1, 512, 65536, 65536 + 1])
def test_allocate_aligned_properties(capacity, alignment):
    buf = sb.allocate_aligned(capacity, alignment)
    assert buf.address % alignment == 0
    assert buf.capacity == capacity
    assert len(buf) == capacity
    assert bytes(buf.view) == b"\x00" * capacity
    buf.view[0] = 0xFF  # writable
    assert buf.array[0] == 0xFF


def test_allocate_aligned_rejects_bad_alignment():
    with pytest.raises(ValueError):
        sb.allocate_aligned(65536, 3000)
    with pytest.raises(ValueError):
        sb.allocate_aligned(65536, 0)
    with pytest.raises(ValueError):
        sb.allocate_aligned(0, 512)


# -- validate_direct_request ------------------------------------------------------

_GEOM_512 = SectorGeometry(512, 65536)
_GEOM_4096 = SectorGeometry(4096, 65536)
_FakeBuffer = namedtuple("_FakeBuffer", "address capacity")


def test_validator_accepts_legal_request():
    buf = sb.allocate_aligned(65536, 65536)
    assert sb.validate_direct_request(_GEOM_512, buf, 65536, 0) == []


def test_validator_flags_ragged_length():
    buf = sb.allocate_aligned(65536, 65536)
    violations = sb.validate_direct_request(_GEOM_512, buf, 1000, 0)
    assert len(violations) == 1 and "length" in violations[0]


def test_validator_flags_ragged_offset():
    buf = sb.allocate_aligned(65536, 65536)
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
    buf = sb.allocate_aligned(65536, 65536)
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
    buf = sb.allocate_aligned(geom.recommended_alignment, geom.recommended_alignment)
    payload = sb.make_rng(5).bytes(buf.capacity)
    buf.view[:] = payload
    with sb.open_file(p, OpenDisposition.CREATE, Direction.WRITE, io_mode=IoMode.DIRECT) as h:
        assert h.mode is IoMode.DIRECT
        h.write_block(buf, buf.capacity)
        assert h.position == buf.capacity
    assert p.read_bytes() == payload

    back = sb.allocate_aligned(buf.capacity, geom.recommended_alignment)
    with sb.open_file(p, OpenDisposition.OPEN, Direction.READ, io_mode=IoMode.DIRECT) as h:
        got = h.read_block(back, back.capacity)
    assert got == buf.capacity
    assert bytes(back.view) == payload


def test_direct_rejects_ragged_request_before_transfer(tmp_path, need_direct):
    p = tmp_path / "d.dat"
    geom = sb.detect_sector_geometry(tmp_path)
    buf = sb.allocate_aligned(geom.recommended_alignment, geom.recommended_alignment)
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
    buf = sb.allocate_aligned(geom.recommended_alignment, geom.recommended_alignment)
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
