"""Application-shaped file workloads: byte, line, block and record access.

These are the little programs people actually write, expressed at the
granularities worth comparing: one byte per call, one text line per call,
one fixed block per call, and fixed-width typed records.  Each runner
reports what it processed, a checksum of the payload it saw, and a
ThroughputSample, so different granularities over the same data can be
checked for equivalence and compared for speed.

Also here: a length-prefixed typed binary stream (the portable way to put
numbers and strings in a file without inventing a text format), a line
counter, and the classic 100-byte-record sort input generator.
"""
from __future__ import annotations

import itertools
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Sequence

import numpy as np

from .bench import Stopwatch, ThroughputSample
from .core import Direction, OpenDisposition
from .engine import FlushLevel, open_file
from .errors import StreamTruncatedError

__all__ = [
    "ByteAtATime",
    "LineAtATime",
    "BlockAtATime",
    "TypedRecords",
    "WorkloadResult",
    "run_read",
    "run_write",
    "TypedWriter",
    "TypedReader",
    "typed_roundtrip",
    "count_lines",
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

#: Lines LineAtATime writes draw per batch, about 40 KiB of text.
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
    payloads only (terminators excluded); every other granularity covers
    the raw file content.
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

    A fixed-size granularity (byte, block, record) makes one stream read
    call per request, from C (``FileHandle.reads``).  The reads are joined
    about DEFAULT_BLOCK bytes at a time, at least one read per join, and
    one chained adler32 runs over each join: the checksum one call per
    request would give, with no Python frame per request.
    """
    if isinstance(granularity, LineAtATime):
        return _read_lines(path)
    step = _fixed_block(granularity)
    per_join = max(1, DEFAULT_BLOCK // step)
    checksum = 1
    processed = 0
    requests = 0
    stopwatch = Stopwatch()
    with open_file(path, OpenDisposition.OPEN, Direction.READ) as handle:
        reads = handle.reads(step)
        while pieces := list(itertools.islice(reads, per_join)):
            data = b"".join(pieces)
            checksum = zlib.adler32(data, checksum)
            processed += len(data)
            requests += len(pieces)
    return WorkloadResult(processed, checksum, stopwatch.sample(processed, requests))


def _read_lines(path: str | Path) -> WorkloadResult:
    checksum = 1
    payload = 0
    lines = 0
    stopwatch = Stopwatch()
    with open_file(path, OpenDisposition.OPEN, Direction.READ) as handle:
        for line in handle.lines():
            # "\r\n", then "\n"; a lone "\r" stays, so rstrip would not do
            if line.endswith(b"\n"):
                line = line[:-2] if line.endswith(b"\r\n") else line[:-1]
            checksum = zlib.adler32(line, checksum)
            payload += len(line)
            lines += 1
    return WorkloadResult(payload, checksum, stopwatch.sample(payload, lines))


def run_write(
    path: str | Path,
    granularity: Granularity,
    total_bytes: int,
    rng: np.random.Generator,
) -> WorkloadResult:
    """Write exactly ``total_bytes`` of seeded random content.

    The file is created fresh (truncated if present).  Every request is
    one stream write call, made from C (``FileHandle.write_each``).  A
    fixed-size granularity writes what ``rng.bytes`` draws: one
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
        write_each = handle.write_each
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
            write_each(pieces)
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
    words = rng.integers(0, 1 << 32, size=(count, -(-step // 4)), dtype=np.uint32)
    return np.ascontiguousarray(words.astype("<u4", copy=False).view(np.uint8)[:, :step])


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

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
U32_MAX = (1 << 32) - 1
I64_MIN, I64_MAX = -(1 << 63), (1 << 63) - 1


class TypedWriter:
    """Writes u32/i64/f64/str values to a binary stream.

    Numbers are fixed-width little-endian; strings are UTF-8 with a u32
    little-endian byte-length prefix.  The format is self-framing, so a
    reader issuing the same sequence of typed reads gets the values back.
    """

    def __init__(self, stream: BinaryIO):
        self._stream = stream

    def write_u32(self, value: int) -> None:
        if not 0 <= value <= U32_MAX:
            raise ValueError(f"{value} does not fit in an unsigned 32-bit field")
        self._stream.write(_U32.pack(value))

    def write_i64(self, value: int) -> None:
        if not I64_MIN <= value <= I64_MAX:
            raise ValueError(f"{value} does not fit in a signed 64-bit field")
        self._stream.write(_I64.pack(value))

    def write_f64(self, value: float) -> None:
        self._stream.write(_F64.pack(value))

    def write_str(self, value: str) -> None:
        data = value.encode("utf-8")
        if len(data) > U32_MAX:
            raise ValueError("string is too long for a u32 length prefix")
        self._stream.write(_U32.pack(len(data)))
        self._stream.write(data)

    def write(self, kind: str, value) -> None:
        getattr(self, f"write_{kind}")(value)


class TypedReader:
    """Reads values written by TypedWriter, in the same order and kinds."""

    def __init__(self, stream: BinaryIO):
        self._stream = stream

    def _exactly(self, count: int) -> bytes:
        data = self._stream.read(count)
        if len(data) != count:
            raise StreamTruncatedError(
                f"unexpected end of stream: wanted {count} more bytes, found {len(data)}"
            )
        return data

    def read_u32(self) -> int:
        return _U32.unpack(self._exactly(4))[0]

    def read_i64(self) -> int:
        return _I64.unpack(self._exactly(8))[0]

    def read_f64(self) -> float:
        return _F64.unpack(self._exactly(8))[0]

    def read_str(self) -> str:
        length = self.read_u32()
        return self._exactly(length).decode("utf-8")

    def read(self, kind: str):
        return getattr(self, f"read_{kind}")()


def typed_roundtrip(values: Sequence[tuple[str, object]], path: str | Path) -> list[tuple[str, object]]:
    """Write (kind, value) pairs to ``path``, read them back, return them."""
    with open(path, "wb") as stream:
        writer = TypedWriter(stream)
        for kind, value in values:
            writer.write(kind, value)
    out = []
    with open(path, "rb") as stream:
        reader = TypedReader(stream)
        for kind, _ in values:
            out.append((kind, reader.read(kind)))
    return out


# -- text and sort-input helpers -----------------------------------------

def count_lines(path: str | Path, chunk: int = 1 << 20) -> int:
    """Count lines the way editors do: LF terminated, CRLF welcome, and an
    unterminated final fragment still counts as a line."""
    lines = 0
    last = b""
    with open(path, "rb") as stream:
        while True:
            data = stream.read(chunk)
            if not data:
                break
            lines += data.count(b"\n")
            last = data[-1:]
    if last and last != b"\n":
        lines += 1
    return lines


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
    ``io_block``-byte requests regardless of record boundaries.  Returns
    the bytes written, their checksum and the write request count.
    """
    if record_count < 0:
        raise ValueError(f"record count may not be negative, got {record_count}")
    if io_block < 1:
        raise ValueError(f"io block must be at least 1 byte, got {io_block}")
    build_chunk = 4096  # records materialized per numpy batch
    pending = bytearray()
    checksum = 1
    requests = 0
    stopwatch = Stopwatch()
    with open_file(path, OpenDisposition.CREATE, Direction.WRITE) as handle:
        for start in range(0, record_count, build_chunk):
            count = min(build_chunk, record_count - start)
            records = np.full((count, RECORD_BYTES), 0x20, dtype=np.uint8)
            records[:, :_SORT_KEY_BYTES] = rng.integers(
                0, 256, size=(count, _SORT_KEY_BYTES), dtype=np.uint8
            )
            digits = "".join(f"{i:020d}" for i in range(start, start + count))
            records[:, _SORT_KEY_BYTES : _SORT_KEY_BYTES + _SORT_INDEX_DIGITS] = (
                np.frombuffer(digits.encode("ascii"), dtype=np.uint8).reshape(count, -1)
            )
            data = records.tobytes()
            checksum = zlib.adler32(data, checksum)
            pending += data
            while len(pending) >= io_block:
                handle.write_block(pending[:io_block])
                del pending[:io_block]
                requests += 1
        if pending:
            handle.write_block(pending)
            requests += 1
        handle.flush(FlushLevel.APPLICATION_BUFFERS)
    total = record_count * RECORD_BYTES
    return WorkloadResult(total, checksum, stopwatch.sample(total, requests))
