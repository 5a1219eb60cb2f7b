"""Application-shaped file workloads: byte, line, block and record access.

These are the little programs people actually write, expressed at the
granularities worth comparing: one byte per call, one text line per call,
one fixed block per call, and fixed-width typed records.  Each runner
reports what it processed, a checksum of the payload it saw, and a
ThroughputSample, so different granularities over the same data can be
checked for equivalence and compared for speed.  The runners issue their
stream calls from C, through ``map``: per request, nothing runs but the
call.  Their Python work (joining, checksumming, drawing content) is
done once per window of requests, a window being about one stream
buffer of reads, a batch of lines, or one draw of pieces to write.

Also here: a length-prefixed typed binary stream (the portable way to put
numbers and strings in a file without inventing a text format), and the
classic 100-byte-record sort input generator.
"""
from __future__ import annotations

import collections
import itertools
import operator
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Sequence

import numpy as np

from .bench import Stopwatch, ThroughputSample
from .core import Direction, OpenDisposition
from .engine import DEFAULT_STREAM_BUFFER, FlushLevel, open_file
from .errors import StreamTruncatedError

__all__ = [
    "ByteAtATime",
    "LineAtATime",
    "BlockAtATime",
    "TypedRecords",
    "WorkloadResult",
    "run_read",
    "run_write",
    "typed_roundtrip",
    "write_sort_file",
    "SORT_RECORD_BYTES",
]

DEFAULT_BLOCK = 64 * 1024
RECORD_BYTES = 100

# Sort input layout: a random key, then the record's decimal index
# zero-padded to 20 digits, then spaces out to 100 bytes.  Fixed-width
# records, no line terminators.
SORT_RECORD_BYTES = RECORD_BYTES
_SORT_KEY_BYTES = 10
_SORT_INDEX_DIGITS = 20

#: Lines a LineAtATime pass draws (writing) or joins (reading) per batch,
#: about 40 KiB of the text run_write makes.
_LINE_BATCH = 1024
_NEWLINE = ord("\n")


class Granularity:
    """Marker base class; see the concrete granularities below."""


@dataclass(frozen=True)
class ByteAtATime(Granularity):
    block = 1  # a class attribute, not a field


@dataclass(frozen=True)
class LineAtATime(Granularity):
    pass


@dataclass(frozen=True)
class BlockAtATime(Granularity):
    block: int = DEFAULT_BLOCK

    def __post_init__(self):
        if self.block < 1:
            raise ValueError(f"block must be at least 1 byte, got {self.block}")


@dataclass(frozen=True)
class TypedRecords(Granularity):
    """Fixed 100-byte records, one record per call."""

    block = RECORD_BYTES  # a class attribute, not a field


@dataclass(frozen=True)
class WorkloadResult:
    """What a workload run processed and how fast.

    For LineAtATime, ``bytes_processed`` and ``checksum`` cover line
    payloads only (terminators excluded), and a read's
    ``sample.request_count`` is the file's line count, counted as editors
    do: LF ends a line, CRLF is welcome, and an unterminated last fragment
    counts.  Every other granularity covers the raw file content.
    """

    bytes_processed: int
    checksum: int
    sample: ThroughputSample


def _fixed_block(granularity: Granularity) -> int:
    """Bytes per call of a fixed-size granularity (byte, block, record)."""
    block = getattr(granularity, "block", None)
    if block is None:
        raise TypeError(f"unknown granularity {granularity!r}")
    return block


def run_read(path: str | Path, granularity: Granularity) -> WorkloadResult:
    """Read the whole file at the given granularity and checksum it.

    A fixed-size granularity (byte, block, record) makes one read call of
    the handle's stream per request, and the file reads that a loop of
    those calls makes.  A step below the stream buffer goes a window at a
    time: one read, which refills the buffer where that loop would, then
    the whole requests left before the next stream-buffer boundary of the
    file or its length at open, issued from C by ``map`` and joined.  The
    buffer refills whole buffer-aligned stretches of the file, so it
    already holds them.  A larger step is one read per window.  One
    chained adler32 runs over each window: the checksum one call per
    request would give.  The pass ends at the first empty read (should
    the file shrink while it is read, the rest of that window's reads
    come back empty too).  A read that returns nothing short of the
    file's length at open raises OSError.
    """
    if isinstance(granularity, LineAtATime):
        return _read_lines(path)
    step = _fixed_block(granularity)
    windowed = step < DEFAULT_STREAM_BUFFER
    checksum = 1
    requests = 0
    stopwatch = Stopwatch()
    with open_file(path, OpenDisposition.OPEN, Direction.READ) as handle:
        length = handle.length
        read = handle.stream.read
        position = 0  # bytes read so far: the stream's position, kept with no tell()
        while piece := read(step):
            checksum = zlib.adler32(piece, checksum)
            requests += 1
            position += len(piece)
            # A short piece means a raw read came back empty: the end of the
            # file, or a zero read mid-file.  The next read alone decides which.
            if windowed and len(piece) == step:
                boundary = position - position % DEFAULT_STREAM_BUFFER + DEFAULT_STREAM_BUFFER
                count = (min(length, boundary) - position) // step
                window = b"".join(map(read, itertools.repeat(step, count)))
                checksum = zlib.adler32(window, checksum)
                requests += count
                position += len(window)
        processed = handle.stream.tell()
        if processed < length:
            raise OSError(f"short read: reads ended at byte {processed} of {length} in {path}")
    return WorkloadResult(processed, checksum, stopwatch.sample(processed, requests))


def _read_lines(path: str | Path) -> WorkloadResult:
    """run_read by lines: _LINE_BATCH lines from the stream at a time, joined."""
    checksum = 1
    payload = 0
    lines = 0
    stopwatch = Stopwatch()
    with open_file(path, OpenDisposition.OPEN, Direction.READ) as handle:
        length = handle.length
        full = True
        while full:
            batch = list(itertools.islice(handle.stream, _LINE_BATCH))
            full = len(batch) == _LINE_BATCH  # past a short batch, a next line would read again
            # Every "\n" ends a line, so every "\r\n" is a terminator; a lone "\r" stays.
            text = b"".join(batch).replace(b"\r\n", b"").replace(b"\n", b"")
            checksum = zlib.adler32(text, checksum)
            payload += len(text)
            lines += len(batch)
        if (end := handle.stream.tell()) < length:
            raise OSError(f"short read: reads ended at byte {end} of {length} in {path}")
    return WorkloadResult(payload, checksum, stopwatch.sample(payload, lines))


def run_write(
    path: str | Path,
    granularity: Granularity,
    total_bytes: int,
    rng: np.random.Generator,
) -> WorkloadResult:
    """Write exactly ``total_bytes`` of seeded random content.

    The file is created fresh (truncated if present).  Every request is
    one call of the handle's bound stream ``write``, issued from C by
    ``map`` and drained by a zero-length deque (``writelines`` would look
    ``write`` up by name for every piece).
    A fixed-size granularity writes what ``rng.bytes`` draws: one
    DEFAULT_BLOCK draw per 64 KiB of single bytes, and otherwise what one
    draw per block or record would give, drawn about 64 KiB of whole
    blocks at a time (see _draw_pieces), the short final block on its
    own.  LineAtATime writes newline-terminated lines of
    random lowercase letters with lengths uniform on [0, 78], truncating
    the last line so the total is exact; it draws the lengths and then
    the letters of _LINE_BATCH lines with one sized draw each, and its
    checksum covers payloads only, mirroring run_read.  TypedRecords
    requires a multiple of 100 bytes.
    """
    if total_bytes < 0:
        raise ValueError(f"total may not be negative, got {total_bytes}")
    if isinstance(granularity, TypedRecords) and total_bytes % RECORD_BYTES:
        raise ValueError(
            f"typed records are {RECORD_BYTES} bytes; {total_bytes} is not a multiple"
        )
    lines = isinstance(granularity, LineAtATime)
    step = None if lines else _fixed_block(granularity)
    # Single bytes are drawn 64 KiB at a time, and whole blocks about that
    # many bytes at a time: one rng call per request would cost more than
    # the write being timed.
    batch = None if lines else max(1, DEFAULT_BLOCK // step)
    checksum = 1
    requests = 0
    remaining = total_bytes
    stopwatch = Stopwatch()
    with open_file(path, OpenDisposition.CREATE, Direction.WRITE) as handle:
        write = handle.stream.write
        while remaining:
            if lines:
                body, pieces = _draw_lines(rng, remaining)
                remaining -= len(body) + len(pieces)
            elif step == 1:
                body = rng.bytes(min(DEFAULT_BLOCK, remaining))
                # A "c" view yields each byte as a cached one-byte bytes object.
                pieces = memoryview(body).cast("c")
                remaining -= len(body)
            else:
                count = min(batch, remaining // step) or 1  # 0: the short final piece
                body = pieces = _draw_pieces(rng, min(step, remaining), count)
                remaining -= body.nbytes
            checksum = zlib.adler32(body, checksum)
            collections.deque(map(write, pieces), maxlen=0)
            requests += len(pieces)
        handle.flush(FlushLevel.APPLICATION_BUFFERS)
    return WorkloadResult(total_bytes, checksum, stopwatch.sample(total_bytes, requests))


def _draw_pieces(rng: np.random.Generator, step: int, count: int) -> np.ndarray:
    """``count`` pieces of ``step`` bytes, as ``count`` rng.bytes(step) draws give them.

    rng.bytes draws whole little-endian uint32 words and drops the bytes
    past its length, so one draw of ``count`` rows of ceil(step / 4) words,
    each row cut to ``step`` bytes, equals those draws in a row.  Returns
    the pieces as the rows of one contiguous uint8 array.
    """
    row = 4 * -(-step // 4)
    rows = np.frombuffer(rng.bytes(count * row), np.uint8).reshape(count, row)
    return np.ascontiguousarray(rows[:, :step])


def _draw_lines(rng: np.random.Generator, remaining: int) -> tuple[np.ndarray, list[bytes]]:
    """The next _LINE_BATCH lines, or fewer ending at ``remaining`` bytes.

    Returns the letters (the payload) and the lines, terminators kept.
    """
    lengths = rng.integers(0, 79, size=_LINE_BATCH)
    ends = np.cumsum(lengths + 1)
    last = int(np.searchsorted(ends, remaining))
    if last < _LINE_BATCH:
        lengths = lengths[: last + 1]
        lengths[last] -= ends[last] - remaining
    body = rng.integers(97, 123, size=int(lengths.sum()), dtype=np.uint8)
    text = np.insert(body, np.cumsum(lengths), _NEWLINE).tobytes()
    return body, text.splitlines(keepends=True)


# -- typed binary streams ----------------------------------------------

U32_MAX = (1 << 32) - 1
I64_MIN, I64_MAX = -(1 << 63), (1 << 63) - 1

#: Each fixed-width kind: its little-endian layout, and the inclusive range
#: of values it takes (None: every float).  A "str" is not here: it is a
#: u32 byte count, then that many bytes of UTF-8.
_KINDS = {
    "u32": (struct.Struct("<I"), (0, U32_MAX)),
    "i64": (struct.Struct("<q"), (I64_MIN, I64_MAX)),
    "f64": (struct.Struct("<d"), None),
}


def _pack_typed(kind: str, value) -> bytes:
    """The bytes one value of ``kind`` is stored as.

    An unknown kind, or a value outside its kind's range, raises
    ValueError; a value of the wrong type raises TypeError naming both.
    """
    if kind == "str":
        if not isinstance(value, str):
            raise TypeError(f"a str field cannot hold {value!r}")
        data = value.encode("utf-8")
        return _pack_typed("u32", len(data)) + data  # too long: the u32 range check refuses it
    if kind not in _KINDS:
        raise ValueError(f"unknown typed kind {kind!r}")
    layout, bounds = _KINDS[kind]
    try:
        if bounds:
            value = operator.index(value)
            if not bounds[0] <= value <= bounds[1]:
                raise ValueError(f"{value} does not fit in a {kind} field")
        return layout.pack(value)
    except (TypeError, struct.error):
        raise TypeError(f"a {kind} field cannot hold {value!r}") from None


def _read_exactly(stream: BinaryIO, count: int) -> bytes:
    data = stream.read(count)
    if len(data) != count:
        raise StreamTruncatedError(
            f"unexpected end of stream: wanted {count} more bytes, found {len(data)}"
        )
    return data


def _read_typed(stream: BinaryIO, kind: str):
    """Read the next value of ``kind`` from ``stream``."""
    if kind == "str":
        return _read_exactly(stream, _read_typed(stream, "u32")).decode("utf-8")
    layout = _KINDS[kind][0]
    return layout.unpack(_read_exactly(stream, layout.size))[0]


def typed_roundtrip(values: Sequence[tuple[str, object]], path: str | Path) -> list[tuple[str, object]]:
    """Write (kind, value) pairs to ``path``, read them back, return them.

    The kinds are "u32", "i64" and "f64", fixed-width little-endian, and
    "str", UTF-8 after a u32 little-endian byte count.  The format is
    self-framing, so reading the same kinds in order gets the values back.
    A value outside its kind's range, or an unknown kind, raises
    ValueError, and a value of the wrong type TypeError, both before the
    file is opened, since every value is packed first; then each value
    is one write of the stream.  A file cut short raises
    StreamTruncatedError.
    """
    pieces = [_pack_typed(kind, value) for kind, value in values]
    with open(path, "wb") as stream:
        for piece in pieces:
            stream.write(piece)
    with open(path, "rb") as stream:
        return [(kind, _read_typed(stream, kind)) for kind, _ in values]


# -- sort input ------------------------------------------------------------------

def write_sort_file(
    path: str | Path,
    record_count: int,
    rng: np.random.Generator,
    *,
    io_block: int = DEFAULT_BLOCK,
) -> WorkloadResult:
    """Generate the fixed-width sort input file (see SORT_RECORD_BYTES).

    Record i is 10 seeded-random key bytes, i as a zero-padded 20-digit
    decimal, and spaces out to 100 bytes.  Output is written in
    ``io_block``-byte requests regardless of record boundaries: each is
    one call of the handle's bound stream ``write``, issued from C by
    ``map``, of a view into the pending bytes, and the last may be short.
    Returns the bytes written, their checksum and the write request count.
    """
    if record_count < 0:
        raise ValueError(f"record count may not be negative, got {record_count}")
    if io_block < 1:
        raise ValueError(f"io block must be at least 1 byte, got {io_block}")
    build_chunk = 4096  # records materialized per numpy batch
    powers = np.uint64(10) ** np.arange(_SORT_INDEX_DIGITS - 1, -1, -1, dtype=np.uint64)
    pending = bytearray()
    checksum = 1
    requests = 0
    stopwatch = Stopwatch()
    with open_file(path, OpenDisposition.CREATE, Direction.WRITE) as handle:
        write = handle.stream.write
        for start in range(0, record_count, build_chunk):
            count = min(build_chunk, record_count - start)
            records = np.full((count, RECORD_BYTES), 0x20, dtype=np.uint8)
            records[:, :_SORT_KEY_BYTES] = rng.integers(
                0, 256, size=(count, _SORT_KEY_BYTES), dtype=np.uint8
            )
            digits = np.arange(start, start + count, dtype=np.uint64)[:, None] // powers % 10
            records[:, _SORT_KEY_BYTES : _SORT_KEY_BYTES + _SORT_INDEX_DIGITS] = digits + ord("0")
            checksum = zlib.adler32(records, checksum)
            pending += records.data
            ends = range(io_block, len(pending) + 1, io_block)
            with memoryview(pending) as view:  # an exported bytearray cannot shrink
                blocks = map(view.__getitem__, map(slice, range(0, len(pending), io_block), ends))
                collections.deque(map(write, blocks), maxlen=0)
            requests += len(ends)
            del pending[: len(ends) * io_block]
        if pending:
            write(pending)
            requests += 1
        handle.flush(FlushLevel.APPLICATION_BUFFERS)
    total = record_count * RECORD_BYTES
    return WorkloadResult(total, checksum, stopwatch.sample(total, requests))
