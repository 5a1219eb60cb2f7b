"""Byte/line/block/record workloads, typed streams, text and sort helpers."""
import errno
import hashlib
import io
import math
import os
import struct
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings, strategies as st

import seqbench as sb
from seqbench.workloads import TypedReader, TypedWriter, _draw_pieces

from conftest import golden_text, open_fds


# -- read granularities -------------------------------------------------------

def test_byte_block_and_record_reads_agree(tmp_path):
    p = tmp_path / "data.bin"
    payload = sb.make_rng(1).bytes(200_001)
    p.write_bytes(payload)
    want = zlib.adler32(payload, 1)
    by_byte = sb.run_read(p, sb.ByteAtATime())
    by_block = sb.run_read(p, sb.BlockAtATime(64 * 1024))
    by_small_block = sb.run_read(p, sb.BlockAtATime(777))
    assert by_byte.checksum == by_block.checksum == by_small_block.checksum == want
    assert by_byte.bytes_processed == by_block.bytes_processed == 200_001
    assert by_byte.sample.request_count == 200_001
    assert by_block.sample.request_count == math.ceil(200_001 / 65536)


def test_record_read_requires_whole_records(tmp_path):
    p = tmp_path / "data.bin"
    p.write_bytes(b"r" * 300)
    result = sb.run_read(p, sb.TypedRecords())
    assert result.bytes_processed == 300
    assert result.sample.request_count == 3
    assert result.checksum == zlib.adler32(b"r" * 300, 1)


def test_line_read_strips_one_terminator_and_keeps_other_carriage_returns(tmp_path):
    """"\r\n", else "\n", comes off; a lone "\r" and the first "\r" of "\r\r\n" stay."""
    p = tmp_path / "lines.txt"
    p.write_bytes(b"a\r\r\nb\rc\r\n\r\n\rd\n\r")
    result = sb.run_read(p, sb.LineAtATime())
    bodies = [b"a\r", b"b\rc", b"", b"\rd", b"\r"]
    assert result.sample.request_count == len(bodies)
    assert result.bytes_processed == sum(map(len, bodies))
    assert result.checksum == zlib.adler32(b"".join(bodies), 1)


def test_line_read_counts_payload_not_terminators(tmp_path):
    p = tmp_path / "lines.txt"
    p.write_bytes(b"ab\r\ncd\n" + b"tail")
    result = sb.run_read(p, sb.LineAtATime())
    assert result.bytes_processed == 8  # "ab" + "cd" + "tail"
    assert result.checksum == zlib.adler32(b"abcdtail", 1)
    assert result.sample.request_count == 3


def _read_syscalls(run) -> int:
    """Read syscalls this process made while ``run()`` ran, from /proc/self/io."""

    def syscr() -> int:
        with open("/proc/self/io") as stream:
            return next(int(line.split()[1]) for line in stream if line.startswith("syscr:"))

    before = syscr()
    run()
    return syscr() - before


@pytest.mark.skipif(not os.path.exists("/proc/self/io"), reason="needs /proc/self/io")
def test_every_read_granularity_goes_through_the_same_stream(tmp_path):
    """Lines, bytes and 64 KiB blocks of one 1 MiB file cost the same read calls."""
    p = tmp_path / "lines.txt"
    sb.run_write(p, sb.LineAtATime(), 1 << 20, sb.make_rng(2))
    counts = {
        name: _read_syscalls(lambda: sb.run_read(p, granularity))
        for name, granularity in [
            ("line", sb.LineAtATime()),
            ("byte", sb.ByteAtATime()),
            ("block", sb.BlockAtATime(64 * 1024)),
        ]
    }
    assert max(counts.values()) - min(counts.values()) <= 2, counts


def test_line_reads_need_a_buffered_handle(tmp_path, need_direct):
    p = tmp_path / "lines.txt"
    p.write_bytes(b"a\n" * 4096)
    with sb.open_file(p, sb.OpenDisposition.OPEN, sb.Direction.READ, sb.IoMode.DIRECT) as handle:
        with pytest.raises(io.UnsupportedOperation, match="buffered"):
            handle.lines()


def test_empty_file_reads_cleanly(tmp_path):
    p = tmp_path / "empty"
    p.write_bytes(b"")
    for granularity in (sb.ByteAtATime(), sb.LineAtATime(), sb.BlockAtATime(4096)):
        result = sb.run_read(p, granularity)
        assert result.bytes_processed == 0
        assert result.sample.request_count == 0
        assert result.checksum == zlib.adler32(b"", 1)


def test_block_granularity_rejects_bad_size():
    with pytest.raises(ValueError):
        sb.BlockAtATime(0)


# -- write granularities ---------------------------------------------------------

def test_byte_write_total_and_read_back(tmp_path):
    p = tmp_path / "w.bin"
    result = sb.run_write(p, sb.ByteAtATime(), 5000, sb.make_rng(2))
    assert p.stat().st_size == 5000
    assert result.bytes_processed == 5000
    assert result.sample.request_count == 5000
    back = sb.run_read(p, sb.BlockAtATime(512))
    assert back.checksum == result.checksum


def test_block_write_total(tmp_path):
    p = tmp_path / "w.bin"
    result = sb.run_write(p, sb.BlockAtATime(4096), 10_001, sb.make_rng(3))
    assert p.stat().st_size == 10_001
    assert result.sample.request_count == 3
    assert sb.run_read(p, sb.ByteAtATime()).checksum == result.checksum


def test_line_write_exact_total_and_payload_checksum(tmp_path):
    p = tmp_path / "w.txt"
    result = sb.run_write(p, sb.LineAtATime(), 10_000, sb.make_rng(4))
    assert p.stat().st_size == 10_000
    back = sb.run_read(p, sb.LineAtATime())
    assert back.checksum == result.checksum
    text = p.read_bytes()
    body_lengths = [len(line) for line in text.split(b"\n") if line]
    assert all(length <= 78 for length in body_lengths[:-1])
    assert set(text) <= set(range(97, 123)) | {10}  # lowercase plus newline


@pytest.mark.parametrize("granularity", [sb.ByteAtATime(), sb.LineAtATime()], ids=["byte", "line"])
def test_write_ends_on_a_full_disk(tmp_path, stream_enospc_at, deadline, granularity):
    stream_enospc_at(3)  # the third 64 KiB stream flush of 16
    before = open_fds()
    with pytest.raises(OSError) as info:
        sb.run_write(tmp_path / "out.dat", granularity, 1 << 20, sb.make_rng(4))
    assert info.value.errno == errno.ENOSPC
    assert open_fds() == before


def test_record_write_requires_multiple_of_record_size(tmp_path):
    p = tmp_path / "w.bin"
    with pytest.raises(ValueError):
        sb.run_write(p, sb.TypedRecords(), 150, sb.make_rng(0))
    result = sb.run_write(p, sb.TypedRecords(), 300, sb.make_rng(0))
    assert p.stat().st_size == 300
    assert result.sample.request_count == 3


def test_writes_are_deterministic(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for granularity in (sb.ByteAtATime(), sb.LineAtATime(), sb.BlockAtATime(1024)):
        sb.run_write(first, granularity, 4096, sb.make_rng(9))
        sb.run_write(second, granularity, 4096, sb.make_rng(9))
        assert first.read_bytes() == second.read_bytes()


# -- written and read bytes pinned ------------------------------------------------

#: The granularities of tests/golden/run_write_seed137.sha256, by the name it gives them.
_GOLDEN_GRANULARITIES = {
    "byte": sb.ByteAtATime(),
    "block4096": sb.BlockAtATime(4096),
    "block7": sb.BlockAtATime(7),
    "record": sb.TypedRecords(),
    "line": sb.LineAtATime(),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_GRANULARITIES))
def test_written_files_match_their_golden_digests(tmp_path, name):
    """200,000 bytes written at seed 137: one digest per granularity."""
    want = dict(line.split()[::-1] for line in golden_text("run_write_seed137.sha256").splitlines())
    p = tmp_path / "out.dat"
    sb.run_write(p, _GOLDEN_GRANULARITIES[name], 200_000, sb.make_rng(137))
    assert hashlib.sha256(p.read_bytes()).hexdigest() == want[name]


def _drawn(step: int, total: int, rng) -> bytes:
    """What a fixed-size run_write writes: one rng.bytes draw per block or
    record, and one per 64 KiB of single bytes."""
    draw = 64 * 1024 if step == 1 else step
    return b"".join(rng.bytes(min(draw, total - start)) for start in range(0, total, draw))


@pytest.mark.parametrize("step", [3, 4, 7, 100, 4096])
@pytest.mark.parametrize("count", [1, 2, 17])
def test_batched_pieces_are_the_per_piece_draws(step, count):
    """One draw of ``count`` pieces gives the bytes of ``count`` rng.bytes draws, and
    leaves the generator where those draws would."""
    batched, single = sb.make_rng(step), sb.make_rng(step)
    pieces = _draw_pieces(batched, step, count)
    assert pieces.shape == (count, step)
    assert pieces.tobytes() == b"".join(single.bytes(step) for _ in range(count))
    assert batched.bytes(16) == single.bytes(16)


_FIXED_SIZES = [sb.ByteAtATime(), sb.BlockAtATime(7), sb.TypedRecords(), sb.BlockAtATime(4096),
                sb.BlockAtATime(64 * 1024)]


@pytest.mark.parametrize("seed", range(10))
def test_fixed_size_files_and_reads_are_the_drawn_bytes(tmp_path, seed):
    """Sizes just over 64 KiB: single bytes take two draws, the second one
    short, and most granularities end on a short read."""
    total = 70_000 + 100 * seed
    p = tmp_path / "out.dat"
    for granularity in _FIXED_SIZES:
        written = sb.run_write(p, granularity, total, sb.make_rng(seed))
        data = _drawn(granularity.block, total, sb.make_rng(seed))
        assert p.read_bytes() == data
        want = zlib.adler32(data, 1)
        assert (written.bytes_processed, written.checksum) == (total, want)
        assert written.sample.request_count == math.ceil(total / granularity.block)
        for reader in _FIXED_SIZES:
            read = sb.run_read(p, reader)
            assert (read.bytes_processed, read.checksum) == (total, want)
            assert read.sample.request_count == math.ceil(total / reader.block)


@pytest.mark.parametrize("total", [1, 2, 78, 79, 80, 40_000, 200_003])
def test_line_files_are_seeded_letter_lines_of_the_exact_total(tmp_path, total):
    """Lines of 0-78 lowercase letters, the last one cut to end the file at ``total``."""
    for seed in (0, 1):
        p, again = tmp_path / "a.txt", tmp_path / "b.txt"
        result = sb.run_write(p, sb.LineAtATime(), total, sb.make_rng(seed))
        repeat = sb.run_write(again, sb.LineAtATime(), total, sb.make_rng(seed))
        data = p.read_bytes()
        assert data == again.read_bytes()
        assert (repeat.checksum, repeat.sample.request_count) == (
            result.checksum, result.sample.request_count
        )
        assert len(data) == total
        assert data.endswith(b"\n")
        assert set(data) <= set(range(97, 123)) | {10}
        bodies = data.split(b"\n")[:-1]
        assert max(map(len, bodies)) <= 78
        assert result.sample.request_count == len(bodies)
        assert result.checksum == zlib.adler32(b"".join(bodies), 1)
        if total == 200_003:  # about 5,000 lines, five batches of drawn lengths
            assert {len(body) for body in bodies[:-1]} == set(range(79))


def test_a_megabyte_block_read_holds_about_one_block(tmp_path):
    p = tmp_path / "big.dat"
    p.write_bytes(sb.make_rng(6).bytes(16 << 20))
    tracemalloc.start()
    try:
        result = sb.run_read(p, sb.BlockAtATime(1 << 20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.sample.request_count == 16
    assert peak < 4_000_000, peak


# -- typed streams -----------------------------------------------------------------

def test_typed_roundtrip_example(tmp_path):
    values = [("u32", 42), ("str", "hello")]
    assert sb.typed_roundtrip(values, tmp_path / "t.bin") == values


def test_typed_layout_is_little_endian_with_length_prefixes(tmp_path):
    p = tmp_path / "t.bin"
    sb.typed_roundtrip(
        [("u32", 42), ("str", "hello"), ("i64", -3), ("f64", 2.5)], p
    )
    raw = p.read_bytes()
    assert raw[0:4] == struct.pack("<I", 42)
    assert raw[4:8] == struct.pack("<I", 5)
    assert raw[8:13] == b"hello"
    assert raw[13:21] == struct.pack("<q", -3)
    assert raw[21:29] == struct.pack("<d", 2.5)
    assert len(raw) == 29


def test_typed_unicode_strings(tmp_path):
    values = [("str", "Ünï¢ødé"), ("str", ""), ("str", "line\nbreak")]
    assert sb.typed_roundtrip(values, tmp_path / "t.bin") == values


def test_typed_range_checks(tmp_path):
    with open(tmp_path / "t.bin", "wb") as stream:
        writer = TypedWriter(stream)
        with pytest.raises(ValueError):
            writer.write_u32(-1)
        with pytest.raises(ValueError):
            writer.write_u32(2**32)
        with pytest.raises(ValueError):
            writer.write_i64(2**63)
        with pytest.raises(ValueError):
            writer.write_i64(-(2**63) - 1)
        writer.write_i64(2**63 - 1)
        writer.write_i64(-(2**63))


def test_typed_truncation_is_detected(tmp_path):
    p = tmp_path / "t.bin"
    sb.typed_roundtrip([("u32", 7), ("str", "hello")], p)
    with open(p, "r+b") as stream:
        stream.truncate(10)  # cuts the string body short
    with open(p, "rb") as stream:
        reader = TypedReader(stream)
        assert reader.read_u32() == 7
        with pytest.raises(sb.StreamTruncatedError):
            reader.read_str()
    # callers watching for plain end-of-file see the same failure
    with open(p, "rb") as stream:
        reader = TypedReader(stream)
        reader.read_u32()
        with pytest.raises(EOFError):
            reader.read_str()


_VALUE_STRATEGY = st.one_of(
    st.tuples(st.just("u32"), st.integers(min_value=0, max_value=2**32 - 1)),
    st.tuples(st.just("i64"), st.integers(min_value=-(2**63), max_value=2**63 - 1)),
    st.tuples(
        st.just("f64"),
        st.floats(allow_nan=False, allow_infinity=True, width=64),
    ),
    st.tuples(st.just("str"), st.text(max_size=40)),
)


@given(values=st.lists(_VALUE_STRATEGY, max_size=60))
@settings(max_examples=100, deadline=None)
def test_typed_roundtrip_identity_property(tmp_path_factory, values):
    """Round trip vs. an independent struct-module rendering of the bytes."""
    path = tmp_path_factory.mktemp("typed") / "t.bin"
    got = sb.typed_roundtrip(list(values), path)
    assert got == list(values)
    expected = bytearray()
    for kind, value in values:
        if kind == "u32":
            expected += struct.pack("<I", value)
        elif kind == "i64":
            expected += struct.pack("<q", value)
        elif kind == "f64":
            expected += struct.pack("<d", value)
        else:
            data = value.encode("utf-8")
            expected += struct.pack("<I", len(data)) + data
    assert path.read_bytes() == bytes(expected)


# -- count_lines ------------------------------------------------------------------

@pytest.mark.parametrize(
    "payload, want",
    [
        (b"", 0),
        (b"\n", 1),
        (b"a", 1),
        (b"a\n", 1),
        (b"a\nb", 2),
        (b"a\r\nb\r\n", 2),
        (b"a\r", 1),
        (b"\n" * 1000, 1000),
    ],
)
def test_count_lines_cases(tmp_path, payload, want):
    p = tmp_path / "t.txt"
    p.write_bytes(payload)
    assert sb.count_lines(p) == want


def test_count_lines_with_terminator_straddling_chunks(tmp_path):
    p = tmp_path / "t.txt"
    chunk = 4096
    p.write_bytes(b"a" * (chunk - 1) + b"\r\n" + b"b")
    assert sb.count_lines(p, chunk=chunk) == 2


def test_count_lines_matches_naive_splitter_on_random_text(tmp_path):
    rng = sb.make_rng(21)
    for case in range(40):
        alphabet = b"ab\r\n"
        payload = bytes(alphabet[i] for i in rng.integers(0, 4, size=int(rng.integers(0, 400))))
        p = tmp_path / f"t{case}.txt"
        p.write_bytes(payload)
        naive = len(payload.split(b"\n")) - (1 if payload.endswith(b"\n") or not payload else 0)
        assert sb.count_lines(p, chunk=7) == naive, payload


# -- sort input file ----------------------------------------------------------------

def test_sort_file_record_layout(tmp_path):
    p = tmp_path / "sort.dat"
    sb.write_sort_file(p, 3, sb.make_rng(137))
    raw = p.read_bytes()
    assert len(raw) == 300
    for i in range(3):
        record = raw[i * 100 : (i + 1) * 100]
        assert record[10:30] == f"{i:020d}".encode("ascii")
        assert record[30:] == b" " * 70


def test_sort_file_keys_differ_across_records(tmp_path):
    p = tmp_path / "sort.dat"
    sb.write_sort_file(p, 50, sb.make_rng(137))
    raw = p.read_bytes()
    keys = {raw[i * 100 : i * 100 + 10] for i in range(50)}
    assert len(keys) > 1


def test_sort_file_deterministic_and_io_block_independent(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    sb.write_sort_file(a, 128, sb.make_rng(137))
    sb.write_sort_file(b, 128, sb.make_rng(137))
    sb.write_sort_file(c, 128, sb.make_rng(137), io_block=100)
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_sort_file_golden_digest(tmp_path):
    p = tmp_path / "sort.dat"
    sb.write_sort_file(p, 128, sb.make_rng(137))
    want = golden_text("sort_seed137_n128.sha256").strip()
    assert hashlib.sha256(p.read_bytes()).hexdigest() == want


def test_sort_file_zero_records(tmp_path):
    p = tmp_path / "sort.dat"
    sb.write_sort_file(p, 0, sb.make_rng(137))
    assert p.stat().st_size == 0


def test_sort_file_length_is_100_per_record(tmp_path):
    p = tmp_path / "sort.dat"
    for count in (1, 41, 4096, 5000):
        sb.write_sort_file(p, count, sb.make_rng(0))
        assert p.stat().st_size == 100 * count


@pytest.mark.parametrize(
    "count, io_block", [(0, 65536), (1, 65536), (3, 7), (128, 100), (5000, 4096), (5000, 65536)]
)
def test_sort_file_result_matches_a_block_read(tmp_path, count, io_block):
    p = tmp_path / "sort.dat"
    written = sb.write_sort_file(p, count, sb.make_rng(137), io_block=io_block)
    read = sb.run_read(p, sb.BlockAtATime(io_block))
    assert written.bytes_processed == written.sample.bytes_moved == 100 * count
    assert written.checksum == read.checksum
    assert written.sample.request_count == math.ceil(100 * count / io_block)
    assert written.sample.request_count == read.sample.request_count


def test_unknown_granularity_is_rejected(tmp_path):
    p = tmp_path / "data.bin"
    p.write_bytes(b"x")
    with pytest.raises(TypeError):
        sb.run_read(p, object())
    with pytest.raises(TypeError):
        sb.run_write(p, object(), 1, sb.make_rng(0))
