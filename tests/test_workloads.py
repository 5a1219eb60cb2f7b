"""Byte/line/block/record workloads, typed streams, text and sort helpers."""
import functools
import hashlib
import io
import itertools
import math
import os
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import seqbench as sb
from seqbench.workloads import _draw_pieces, _read_typed

from conftest import golden_text, rng_state


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


def _per_line_pass(path):
    """The line pass as one loop step per line: payload bytes, checksum and lines."""
    checksum, payload, lines = 1, 0, 0
    with sb.open_file(path, sb.OpenDisposition.OPEN, sb.Direction.READ) as handle:
        for line in handle.stream:
            if line.endswith(b"\n"):
                line = line[:-2] if line.endswith(b"\r\n") else line[:-1]
            checksum = zlib.adler32(line, checksum)
            payload += len(line)
            lines += 1
    return payload, checksum, lines


_LINE_PIECES = st.sampled_from([b"a", b"bc", b"\r", b"\n", b"\r\n", b"\r\r\n", b"\n\r"])
_BATCH = sb.workloads._LINE_BATCH


@given(
    head=st.lists(_LINE_PIECES, max_size=30),
    filler=st.sampled_from([0, 1, _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH]),
    long_line=st.booleans(),
    tail=st.lists(_LINE_PIECES, max_size=30),
)
@example(head=[], filler=_BATCH - 1, long_line=False, tail=[])
@example(head=[], filler=_BATCH, long_line=False, tail=[])
@example(head=[], filler=_BATCH + 1, long_line=False, tail=[b"a"])
@example(head=[b"\r\r\n", b"\n"], filler=0, long_line=True, tail=[b"\r"])
@settings(max_examples=60, deadline=None)
def test_batched_line_reads_match_one_step_per_line(
    tmp_path_factory, head, filler, long_line, tail
):
    """Terminators "\r\n" and "\n", lone and doubled "\r", empty lines, no final
    terminator, a line past the 64 KiB stream buffer, and line counts either side of
    a batch."""
    filler_lines = b"".join(b"q\r\n" if i % 2 else b"\n" for i in range(filler))
    text = b"".join(head) + (b"y" * 70_000 + b"\r\n" if long_line else b"") + filler_lines
    p = tmp_path_factory.mktemp("lines") / "lines.txt"
    p.write_bytes(text + b"".join(tail))
    result = sb.run_read(p, sb.LineAtATime())
    want = _per_line_pass(p)
    assert (result.bytes_processed, result.checksum, result.sample.request_count) == want


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
    """Line reads split the stream buffer, which a direct handle does not have."""
    with sb.open_file(p, sb.OpenDisposition.OPEN, sb.Direction.READ, sb.IoMode.DIRECT) as handle:
        assert handle.stream is None
    with sb.open_file(p, sb.OpenDisposition.OPEN, sb.Direction.READ) as handle:
        assert list(handle.stream) == [b"a\n"] * 4096


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


def test_record_write_requires_multiple_of_record_size(tmp_path):
    p = tmp_path / "w.bin"
    with pytest.raises(ValueError):
        sb.run_write(p, sb.TypedRecords(), 150, sb.make_rng(0))
    with pytest.raises(ValueError, match="may not be negative, got -100"):
        sb.run_write(p, sb.TypedRecords(), -100, sb.make_rng(0))
    result = sb.run_write(p, sb.TypedRecords(), 300, sb.make_rng(0))
    assert p.stat().st_size == 300
    assert result.sample.request_count == 3


def test_writes_are_deterministic(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for granularity in (sb.ByteAtATime(), sb.LineAtATime(), sb.BlockAtATime(1024)):
        sb.run_write(first, granularity, 4096, sb.make_rng(9))
        sb.run_write(second, granularity, 4096, sb.make_rng(9))
        assert first.read_bytes() == second.read_bytes()



@pytest.mark.parametrize(
    "granularity",
    [sb.ByteAtATime(), sb.LineAtATime(), sb.BlockAtATime(64), sb.TypedRecords()],
    ids=lambda granularity: type(granularity).__name__,
)
def test_bytes_processed_is_the_samples_byte_count(tmp_path, granularity):
    p = tmp_path / "w.bin"
    written = sb.run_write(p, granularity, 3000, sb.make_rng(5))
    read = sb.run_read(p, granularity)
    for result in (written, read):
        assert result.bytes_processed == result.sample.bytes_moved

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


@pytest.mark.parametrize("step", [3, 4, 7, 100, 4096])
@pytest.mark.parametrize("make", [lambda: sb.make_rng(1), lambda: np.random.Generator(np.random.MT19937(1))],
                         ids=["make_rng", "mt19937"])
def test_batched_pieces_take_their_words_from_rng_bytes(make, step):
    """The pieces are as many rng.bytes(step) draws for any Generator, and the
    generator ends where they would leave it: make_rng's, which draws 64-bit
    Philox outputs, and one over MT19937, whose native output is 32 bits."""
    batched, single = make(), make()
    pieces = _draw_pieces(batched, step, 17)
    assert [row.tobytes() for row in pieces] == [single.bytes(step) for _ in range(17)]
    assert rng_state(batched) == rng_state(single)


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


# -- read calls pinned --------------------------------------------------------------

class _LoggedRaw(io.FileIO):
    """A raw file that logs every readinto as (bytes asked for, bytes read)."""

    log: list = []

    def readinto(self, buffer):
        got = super().readinto(buffer)
        self.log.append((memoryview(buffer).nbytes, got))
        return got


def _raw_reads(monkeypatch, run):
    """What ``run()`` returns, and the raw reads its buffered read streams made."""

    def logged_open(file, mode="r", buffering=-1):
        assert mode == "rb", mode
        return io.BufferedReader(_LoggedRaw(file, "r"), buffering)

    log = []
    with monkeypatch.context() as patch:
        patch.setattr(_LoggedRaw, "log", log)
        patch.setattr(io, "open", logged_open)
        return run(), log


def _runs(log) -> str:
    """``asked:got`` per raw read, a run of n equal reads written once with ``xn``."""
    runs = ((call, len(list(group))) for call, group in itertools.groupby(log))
    return " ".join(f"{asked}:{got}" + (f"x{n}" if n > 1 else "") for (asked, got), n in runs)


#: The passes of tests/golden/run_read_calls_seed137.txt, by the name it gives them.
_PINNED_READS = {
    **{f"random-step{step}": ("random.bin", sb.BlockAtATime(step))
       for step in (1, 7, 100, 4096, 65536, 100_000, 1 << 20)},
    "random-lines": ("random.bin", sb.LineAtATime()),
    "text-lines": ("text.txt", sb.LineAtATime()),
}


@pytest.fixture(scope="module")
def pinned_files(tmp_path_factory):
    """2,200,000 seeded random bytes (past two 1 MiB reads, no size a step divides
    but 100,000) and 300,000 bytes of seeded letter lines."""
    root = tmp_path_factory.mktemp("pinned")
    (root / "random.bin").write_bytes(sb.make_rng(137).bytes(2_200_000))
    sb.run_write(root / "text.txt", sb.LineAtATime(), 300_000, sb.make_rng(137))
    return root


def _pinned_pass(monkeypatch, root, name) -> str:
    """One golden line: the pass's bytes, checksum and requests, then its raw reads."""
    file, granularity = _PINNED_READS[name]
    result, log = _raw_reads(monkeypatch, lambda: sb.run_read(root / file, granularity))
    return (f"{name} bytes={result.bytes_processed} checksum={result.checksum:#010x} "
            f"requests={result.sample.request_count} reads={_runs(log)}")


@pytest.mark.parametrize("name", list(_PINNED_READS))
def test_read_passes_make_their_golden_raw_reads(monkeypatch, pinned_files, name):
    """Every raw read a pass makes, its size asked and its count read, and the pass's
    result: a 1 MiB step reads 1 MiB at a time, and a small one refills 64 KiB."""
    lines = golden_text("run_read_calls_seed137.txt").splitlines()
    want = {line.split()[0]: line for line in lines}
    assert _pinned_pass(monkeypatch, pinned_files, name) == want[name]


def _per_request_pass(path, step):
    """The pass as one read call per request in a Python loop: bytes, checksum, requests."""
    checksum, requests = 1, 0
    with sb.open_file(path, sb.OpenDisposition.OPEN, sb.Direction.READ) as handle:
        for piece in iter(functools.partial(handle.stream.read, step), b""):
            checksum = zlib.adler32(piece, checksum)
            requests += 1
        return handle.stream.tell(), checksum, requests


@pytest.mark.parametrize("step", [1, 7, 4096, 40_000, 65535, 65536, 100_000, 1 << 20])
@pytest.mark.parametrize("size", [0, 1, 6, 4095, 65535, 65536, 65537, 65536 + 4095,
                                  3 * 65536, 3 * 65536 + 40_000, (1 << 20) + 1])
def test_a_read_pass_makes_the_raw_reads_of_one_call_per_request(monkeypatch, tmp_path, size, step):
    """Files that end at, just past and just short of a stream buffer or a step."""
    path = tmp_path / "data.bin"
    path.write_bytes(sb.make_rng(size).bytes(size))
    result, log = _raw_reads(monkeypatch, lambda: sb.run_read(path, sb.BlockAtATime(step)))
    want, want_log = _raw_reads(monkeypatch, lambda: _per_request_pass(path, step))
    assert (result.bytes_processed, result.checksum, result.sample.request_count) == want
    assert _runs(log) == _runs(want_log)


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
    p = tmp_path / "t.bin"
    with pytest.raises(ValueError):
        sb.typed_roundtrip([("u32", -1)], p)
    with pytest.raises(ValueError):
        sb.typed_roundtrip([("u32", 2**32)], p)
    with pytest.raises(ValueError):
        sb.typed_roundtrip([("i64", 2**63)], p)
    with pytest.raises(ValueError):
        sb.typed_roundtrip([("i64", -(2**63) - 1)], p)
    sb.typed_roundtrip([("i64", 2**63 - 1)], p)
    sb.typed_roundtrip([("i64", -(2**63))], p)



@pytest.mark.parametrize("value", [10**400, -(10**400), 2**1024])
def test_an_integer_past_a_doubles_range_is_a_value_error(tmp_path, value):
    path = tmp_path / "t.bin"
    with pytest.raises(ValueError, match="does not fit in a f64 field"):
        sb.typed_roundtrip([("f64", value)], path)
    assert not path.exists()



@pytest.mark.parametrize(
    "kind, error, message",
    [("u32", ValueError, "a 16610-bit integer does not fit in a u32 field"),
     ("i64", ValueError, "a 16610-bit integer does not fit in a i64 field"),
     ("f64", ValueError, "a 16610-bit integer does not fit in a f64 field"),
     ("str", TypeError, "a str field cannot hold a 16610-bit integer")],
)
def test_an_integer_too_long_to_print_is_named_by_its_bit_length(tmp_path, kind, error, message):
    """Python refuses to format an integer of more than 4,300 digits; the
    message names 10**5000 without formatting it, and raises the documented type."""
    path = tmp_path / "t.bin"
    with pytest.raises(error, match=f"^{message}$"):
        sb.typed_roundtrip([(kind, 10**5000)], path)
    assert not path.exists()


def test_an_ordinary_value_is_named_by_its_repr(tmp_path):
    with pytest.raises(ValueError, match=r"^-1 does not fit in a u32 field$"):
        sb.typed_roundtrip([("u32", -1)], tmp_path / "t.bin")
    with pytest.raises(ValueError, match=r"^18446744073709551615 does not fit in a i64 field$"):
        sb.typed_roundtrip([("i64", 2**64 - 1)], tmp_path / "t.bin")

@pytest.mark.parametrize("value", [2**1023, 1.5, math.inf])
def test_an_f64_round_trips_a_double_or_an_integer_within_its_range(tmp_path, value):
    assert sb.typed_roundtrip([("f64", value)], tmp_path / "t.bin") == [("f64", value)]

@pytest.mark.parametrize(
    "kind, value",
    [("u32", 1.5), ("u32", "7"), ("i64", 1.5), ("i64", None), ("f64", "x"), ("f64", None),
     ("str", 5), ("str", b"bytes")],
)
def test_typed_wrong_type_is_a_type_error_naming_kind_and_value(tmp_path, kind, value):
    path = tmp_path / "t.bin"
    with pytest.raises(TypeError, match=f"{kind} .*{re.escape(repr(value))}"):
        sb.typed_roundtrip([(kind, value)], path)
    assert not path.exists()


@pytest.mark.parametrize("bad", [("i64", 2**63), ("f64", "x"), ("u16", 1)])
def test_typed_bad_value_after_good_ones_writes_nothing(tmp_path, bad):
    """Every value is packed before the file is opened: no new file, and an old one unchanged."""
    fresh, existing = tmp_path / "fresh.bin", tmp_path / "existing.bin"
    existing.write_bytes(b"keep me")
    for path in (fresh, existing):
        with pytest.raises((TypeError, ValueError)):
            sb.typed_roundtrip([("u32", 1), ("str", "ok"), bad], path)
    assert not fresh.exists()
    assert existing.read_bytes() == b"keep me"


def test_typed_unknown_kind_is_named(tmp_path):
    with pytest.raises(ValueError, match="'u16'"):
        sb.typed_roundtrip([("u16", 7)], tmp_path / "t.bin")


def test_typed_truncation_is_detected(tmp_path):
    p = tmp_path / "t.bin"
    sb.typed_roundtrip([("u32", 7), ("str", "hello")], p)
    with open(p, "r+b") as stream:
        stream.truncate(10)  # cuts the string body short
    with open(p, "rb") as stream:
        assert _read_typed(stream, "u32") == 7
        with pytest.raises(sb.StreamTruncatedError):
            _read_typed(stream, "str")
    # callers watching for plain end-of-file see the same failure
    with open(p, "rb") as stream:
        _read_typed(stream, "u32")
        with pytest.raises(EOFError):
            _read_typed(stream, "str")


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


# -- line counts: the line pass's request count -------------------------------------

def _line_count(path):
    return sb.run_read(path, sb.LineAtATime()).sample.request_count


def _naive_line_count(payload):
    return len(payload.split(b"\n")) - (1 if payload.endswith(b"\n") or not payload else 0)


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
    assert _line_count(p) == want


def test_count_lines_with_terminator_straddling_chunks(tmp_path):
    """A CRLF whose CR ends a 4 KiB page or the 64 KiB stream buffer and whose LF starts the next."""
    p = tmp_path / "t.txt"
    for boundary in (4096, sb.engine.DEFAULT_STREAM_BUFFER):
        p.write_bytes(b"a" * (boundary - 1) + b"\r\n" + b"b")
        result = sb.run_read(p, sb.LineAtATime())
        assert result.sample.request_count == 2
        assert result.bytes_processed == boundary  # both terminator bytes dropped


@pytest.mark.parametrize("terminated", [True, False], ids=["terminated", "unterminated"])
@pytest.mark.parametrize("count", [_BATCH - 1, _BATCH, _BATCH + 1])
def test_line_pass_counts_every_line_either_side_of_a_batch(tmp_path, count, terminated):
    payload = b"\r\n".join(b"line %d" % i for i in range(count)) + (b"\r\n" if terminated else b"")
    p = tmp_path / "t.txt"
    p.write_bytes(payload)
    assert _line_count(p) == count == _naive_line_count(payload)


def test_count_lines_matches_naive_splitter_on_random_text(tmp_path):
    rng = sb.make_rng(21)
    for case in range(40):
        alphabet = b"ab\r\n"
        payload = bytes(alphabet[i] for i in rng.integers(0, 4, size=int(rng.integers(0, 400))))
        p = tmp_path / f"t{case}.txt"
        p.write_bytes(payload)
        assert _line_count(p) == _naive_line_count(payload), payload


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
    with pytest.raises(ValueError, match="record count may not be negative, got -1"):
        sb.write_sort_file(tmp_path / "none.dat", -1, sb.make_rng(137))
    with pytest.raises(ValueError, match="io block must be at least 1 byte, got 0"):
        sb.write_sort_file(tmp_path / "none.dat", 1, sb.make_rng(137), io_block=0)
    assert not (tmp_path / "none.dat").exists()


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
