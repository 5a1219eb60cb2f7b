"""Overlapped copy: schedule tiling, ring behavior, report accounting."""
import errno
import gc
import hashlib
import itertools
import os
import sys
import threading
import tracemalloc
import zlib

import pytest
from conftest import lingering_threads, os_threads
from hypothesis import given, settings, strategies as st

import seqbench as sb


# -- plan_schedule -----------------------------------------------------------

def test_schedule_worked_example():
    assert sb.plan_schedule(17, 4, 2) == [
        (0, 0, 4),
        (1, 4, 4),
        (0, 8, 4),
        (1, 12, 4),
        (0, 16, 1),
    ]


def test_schedule_empty_file():
    assert sb.plan_schedule(0, 4096, 4) == []


def test_schedule_single_short_request():
    assert sb.plan_schedule(10, 4096, 4) == [(0, 0, 10)]


def test_schedule_exact_multiple_has_no_tail():
    plan = sb.plan_schedule(16, 4, 2)
    assert [length for _, _, length in plan] == [4, 4, 4, 4]


@pytest.mark.parametrize("size, block, depth", [(1, 0, 1), (1, 4, 0), (-1, 4, 2)])
def test_schedule_rejects_bad_arguments(size, block, depth):
    with pytest.raises(ValueError):
        sb.plan_schedule(size, block, depth)


def _check_tiling(plan, size, block, depth):
    """Brute-force interval checker: disjoint, complete, slot rule, tail rule."""
    covered = []
    for slot, offset, length in plan:
        assert 0 <= slot < depth
        assert slot == (offset // block) % depth
        assert length >= 1
        covered.append((offset, offset + length))
    covered.sort()
    cursor = 0
    for lo, hi in covered:
        assert lo == cursor, "gap or overlap in the tiling"
        cursor = hi
    assert cursor == size
    for _, _, length in plan[:-1]:
        assert length == block
    if plan:
        assert plan[-1][2] == size - (len(plan) - 1) * block


@given(
    size=st.integers(min_value=0, max_value=1 << 20),
    block=st.integers(min_value=1, max_value=1 << 16),
    depth=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=200, deadline=None)
def test_schedule_tiles_exactly(size, block, depth):
    _check_tiling(sb.plan_schedule(size, block, depth), size, block, depth)


# -- copy_file ----------------------------------------------------------------

def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fill(path, size, seed=0):
    path.write_bytes(sb.make_rng(seed).bytes(size))


@pytest.mark.parametrize(
    "size, block, depth",
    [
        (0, 4096, 4),
        (1, 4096, 4),
        (4095, 4096, 4),
        (4096, 4096, 4),
        (4097, 4096, 4),
        (4 * 4096 - 1, 4096, 4),
        (4 * 4096, 4096, 4),
        (4 * 4096 + 1, 4096, 4),
        (100_000, 1, 2),
        (65536, 65536, 1),
        (4 * 4096 + 1, 4096, 1),
    ],
)
def test_copy_preserves_bytes(tmp_path, size, block, depth):
    src, dst = tmp_path / "src", tmp_path / "dst"
    _fill(src, size, seed=size)
    report = sb.copy_file(src, dst, block=block, depth=depth)
    assert _sha(src) == _sha(dst)
    wanted_requests = -(-size // block)
    assert report.bytes_copied == size
    assert report.read_requests == wanted_requests
    assert report.write_requests == wanted_requests
    if size:
        assert 1 <= report.peak_outstanding <= depth  # so exactly 1 at depth 1
    else:
        assert report.peak_outstanding == 0  # no request was ever made
    assert report.wall_time >= 0.0


def test_copy_peak_reaches_depth_when_reads_overlap(tmp_path, monkeypatch, deadline):
    """Hold the first ``depth`` reads inside preadv together: the peak must see all of them."""
    depth = 3
    src, dst = tmp_path / "src", tmp_path / "dst"
    _fill(src, 8 * 4096)
    real = os.preadv
    gate = threading.Barrier(depth, timeout=10)
    calls = itertools.count()

    def held(fd, buffers, offset):
        if next(calls) < depth:
            gate.wait()
        return real(fd, buffers, offset)

    monkeypatch.setattr(os, "preadv", held)
    report = sb.copy_file(src, dst, block=4096, depth=depth)
    assert report.peak_outstanding == depth
    assert _sha(src) == _sha(dst)


def test_copy_counts_survive_thread_switch_stress(tmp_path, deadline):
    """Eight slots on a fast switch interval: a lost count update or a turn out of order shows."""
    src, dst = tmp_path / "src", tmp_path / "dst"
    payload = sb.make_rng(4).bytes(3000 * 64 + 5)
    src.write_bytes(payload)
    running = zlib.adler32(b"")

    def hook(view):
        nonlocal running
        running = zlib.adler32(view, running)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = sb.copy_file(src, dst, block=64, depth=8, hook=hook)
    finally:
        sys.setswitchinterval(interval)
    assert running == zlib.adler32(payload)  # hooks ran in file order
    assert dst.read_bytes() == payload
    assert (report.read_requests, report.write_requests) == (3001, 3001)
    assert report.bytes_copied == 3000 * 64 + 5
    assert 1 <= report.peak_outstanding <= 8


def test_copy_hook_sees_blocks_in_file_order(tmp_path):
    src, dst = tmp_path / "src", tmp_path / "dst"
    payload = sb.make_rng(3).bytes(10 * 4096 + 17)
    src.write_bytes(payload)
    running = zlib.adler32(b"")
    calls = []

    def hook(view):
        nonlocal running
        assert view.readonly
        running = zlib.adler32(view, running)
        calls.append(len(view))

    sb.copy_file(src, dst, block=4096, depth=3, hook=hook)
    assert running == zlib.adler32(payload)
    assert calls == [4096] * 10 + [17]


def test_copy_hook_exception_aborts_and_cleans_up(tmp_path):
    src, dst = tmp_path / "src", tmp_path / "dst"
    _fill(src, 20 * 4096)

    def hook(view):
        raise RuntimeError("synthetic processing failure")

    with pytest.raises(sb.CopyAbortedError) as info:
        sb.copy_file(src, dst, block=4096, depth=4, hook=hook)
    assert not dst.exists()
    assert info.value.progress.bytes_copied < 20 * 4096


def test_hook_abort_leaves_no_thread_behind(tmp_path, deadline):
    src, dst = tmp_path / "src", tmp_path / "dst"
    _fill(src, 20 * 4096)
    seen = []

    def hook(view):
        seen.append(len(view))
        if len(seen) == 5:
            raise RuntimeError("synthetic processing failure")

    before = os_threads()
    with pytest.raises(sb.CopyAbortedError) as info:
        sb.copy_file(src, dst, block=4096, depth=4, hook=hook)
    assert not lingering_threads(before)
    assert len(seen) == 5  # the abort stopped the hook calls
    assert info.value.progress.write_requests <= 4


@pytest.mark.parametrize("depth", [1, 2, 4])
@pytest.mark.parametrize("failing", [0, 7, 15], ids=["first", "middle", "last"])
def test_hook_exception_at_any_block_aborts_cleanly(tmp_path, deadline, depth, failing):
    """16 blocks, the last one ragged: the hook raises at block ``failing`` and nothing follows."""
    blocks = 16
    src, dst = tmp_path / "src", tmp_path / "dst"
    _fill(src, blocks * 4096 - 100)
    seen = []

    def hook(view):
        seen.append(len(view))
        if len(seen) == failing + 1:
            raise RuntimeError("synthetic processing failure")

    before = os_threads()
    with pytest.raises(sb.CopyAbortedError) as info:
        sb.copy_file(src, dst, block=4096, depth=depth, hook=hook)
    assert isinstance(info.value.__cause__, RuntimeError)
    assert not lingering_threads(before)
    assert not dst.exists()
    assert len(seen) == failing + 1  # no hook call after the failing block
    assert info.value.progress.write_requests < blocks


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_a_failed_copy_leaves_no_garbage_cycle(tmp_path, deadline, depth):
    """A cycle through the failed slots' frames would hold every slot's
    block buffer until the cyclic GC ran, inside whatever code ran then."""
    src, dst = tmp_path / "src", tmp_path / "dst"
    _fill(src, 1 << 20)
    seen = []

    def hook(view):
        seen.append(len(view))
        if len(seen) == 5:
            raise RuntimeError("synthetic processing failure")

    gc.collect()
    with pytest.raises(sb.CopyAbortedError):
        sb.copy_file(src, dst, block=64 << 10, depth=depth, hook=hook)
    assert gc.collect() == 0


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_copy_ends_on_a_full_disk_and_carries_its_progress(tmp_path, faults, deadline, depth):
    """Writes 1 to 6 land, write 7 and every later one fail with ENOSPC."""
    src, dst = tmp_path / "src", tmp_path / "dst"
    _fill(src, 20 * 4096)
    before = os_threads()
    with faults("pwritev", errno.ENOSPC, at=7), pytest.raises(sb.CopyAbortedError) as info:
        sb.copy_file(src, dst, block=4096, depth=depth)
    assert info.value.__cause__.errno == errno.ENOSPC
    assert not lingering_threads(before)
    assert not dst.exists()
    progress = info.value.progress
    assert (progress.write_requests, progress.bytes_copied) == (6, 6 * 4096)
    assert 6 <= progress.read_requests < 20


@pytest.mark.parametrize("depth", [1, 2])
def test_copy_preallocates_its_destination_before_the_first_write(tmp_path, monkeypatch, depth):
    """One posix_fallocate of the whole destination, before any pwritev; none for an
    empty source, where there is nothing to grow (posix_fallocate refuses a length of 0)."""
    calls = []

    def fallocate(fd, offset, length, real=os.posix_fallocate):
        calls.append(("posix_fallocate", os.readlink(f"/proc/self/fd/{fd}"), offset, length))
        return real(fd, offset, length)

    def pwritev(fd, buffers, offset, real=os.pwritev):
        calls.append(("pwritev",))
        return real(fd, buffers, offset)

    monkeypatch.setattr(os, "posix_fallocate", fallocate)
    monkeypatch.setattr(os, "pwritev", pwritev)
    for size in (5 * 4096 + 17, 0):
        src, dst = tmp_path / f"src{size}", tmp_path / f"dst{size}"
        _fill(src, size)
        calls.clear()
        sb.copy_file(src, dst, block=4096, depth=depth)
        assert dst.read_bytes() == src.read_bytes()
        if size:
            assert calls[0] == ("posix_fallocate", str(dst), 0, size)
            assert calls[1:] == [("pwritev",)] * 6
        else:
            assert calls == []


def test_copy_existing_destination_is_left_alone(tmp_path):
    src, dst = tmp_path / "src", tmp_path / "dst"
    _fill(src, 4096)
    dst.write_bytes(b"precious")
    with pytest.raises(FileExistsError):
        sb.copy_file(src, dst, block=4096, depth=2)
    assert dst.read_bytes() == b"precious"


def test_copy_missing_source(tmp_path):
    with pytest.raises(FileNotFoundError):
        sb.copy_file(tmp_path / "nope", tmp_path / "dst", block=4096, depth=2)
    assert not (tmp_path / "dst").exists()


def test_copy_rejects_bad_parameters(tmp_path):
    src = tmp_path / "src"
    _fill(src, 4096)
    with pytest.raises(ValueError):
        sb.copy_file(src, tmp_path / "a", block=0, depth=2)
    with pytest.raises(ValueError):
        sb.copy_file(src, tmp_path / "b", block=4096, depth=0)


@pytest.mark.parametrize("block, depth", [(0, 2), (-1, 2), (4096, 0), (4096, -3)])
def test_copy_rejects_bad_geometry_before_opening_anything(tmp_path, block, depth):
    src, dst = tmp_path / "src", tmp_path / "dst"
    _fill(src, 4096)
    with pytest.raises(ValueError):
        sb.copy_file(src, dst, block=block, depth=depth)
    assert not dst.exists()
    with pytest.raises(ValueError):  # checked before the missing source is opened
        sb.copy_file(tmp_path / "nope", dst, block=block, depth=depth)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["src"]


@pytest.mark.parametrize(
    "size, block, depth",
    [
        (10 * 4096 + 17, 4096, 3),  # ragged final block
        (300, 100, 8),  # more slots than blocks
        (50, 1, 4),  # one byte per block
        (16 * 64, 64, 4),  # an exact multiple, no tail
    ],
)
def test_copy_slots_walk_the_reference_layout(tmp_path, monkeypatch, size, block, depth):
    """Every transfer, recorded with its thread, against plan_schedule.

    Each block is read and written once, by one thread; each thread's
    offsets rise; a thread keeps to one slot, slot 0 being the caller's.
    """
    src, dst = tmp_path / "src", tmp_path / "dst"
    _fill(src, size)
    transfers = {"preadv": [], "pwritev": []}
    for name, record in transfers.items():
        def recorded(fd, buffers, offset, real=getattr(os, name), record=record.append):
            record((threading.get_ident(), offset, sum(len(memoryview(b)) for b in buffers)))
            return real(fd, buffers, offset)

        monkeypatch.setattr(os, name, recorded)
    sb.copy_file(src, dst, block=block, depth=depth)
    assert dst.read_bytes() == src.read_bytes()
    reads, writes = transfers["preadv"], transfers["pwritev"]
    plan = sb.plan_schedule(size, block, depth)
    for made in (reads, writes):
        assert sorted((offset, length) for _, offset, length in made) == [
            (offset, length) for _, offset, length in plan
        ]
    reader = {offset: thread for thread, offset, _ in reads}
    assert {offset: thread for thread, offset, _ in writes} == reader
    slot_of = {}
    for thread, offset, _ in reads + writes:
        assert slot_of.setdefault(thread, (offset // block) % depth) == (offset // block) % depth
    assert len(set(slot_of.values())) == len(slot_of) == min(depth, len(plan))
    assert slot_of[threading.get_ident()] == 0
    for made in (reads, writes):
        for thread in slot_of:
            offsets = [offset for who, offset, _ in made if who == thread]
            assert offsets == sorted(offsets)


def _copy_peak_bytes(tmp_path, blocks, block, depth=2):
    """tracemalloc's peak over one copy of a sparse ``blocks * block``-byte file."""
    src, dst = tmp_path / f"src_{blocks}", tmp_path / f"dst_{blocks}"
    with open(src, "wb") as stream:
        stream.truncate(blocks * block)
    tracemalloc.start()
    try:
        report = sb.copy_file(src, dst, block=block, depth=depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.write_requests == blocks
    src.unlink()
    dst.unlink()
    return peak


def test_copy_memory_does_not_grow_with_the_file(tmp_path, deadline):
    """The ring holds its buffers and O(depth) bookkeeping, nothing per block."""
    assert _copy_peak_bytes(tmp_path, 16_384, 4096) < 256 * 1024  # 64 MiB in 4 KiB blocks
    small = _copy_peak_bytes(tmp_path, 4096, 512)
    large = _copy_peak_bytes(tmp_path, 65_536, 512)
    assert abs(large - small) < 64 * 1024


def test_concurrent_independent_copies(tmp_path):
    """Two copies in separate threads do not interfere."""
    sources = []
    for i in range(2):
        src = tmp_path / f"src{i}"
        _fill(src, 300_000 + i, seed=i)
        sources.append(src)
    failures = []

    def work(i):
        try:
            dst = tmp_path / f"dst{i}"
            sb.copy_file(sources[i], dst, block=4096, depth=4)
            assert _sha(sources[i]) == _sha(dst)
        except Exception as exc:  # noqa: BLE001 - collected for the main thread
            failures.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert failures == []


def test_default_hook_is_a_no_op():
    view = memoryview(b"abc")
    assert sb.pipeline._process_hook(view) is None
