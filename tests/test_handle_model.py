"""FileHandle against an in-memory model: a bytearray for the file and an int for the position.

A hypothesis state machine opens one handle per run, under any
disposition, and drives it with seeks, block and stream transfers,
preallocation and flushes.  After every step the handle's position is
the model's; reads return the model's bytes, and a flushed file holds
them.  The same machine runs buffered and direct; a direct handle moves
only whole sectors, so its sizes and offsets are rounded down to them.
"""
import contextlib
import functools
import io
import itertools

import pytest
from conftest import proc_io
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule, run_state_machine_as_test,
)

import seqbench as sb
from seqbench.core import Direction, OpenDisposition
from seqbench.engine import DEFAULT_STREAM_BUFFER, AlignedBuffer, FlushLevel, IoMode

#: (disposition, direction) pairs, with whether the file exists beforehand.
OPENINGS = [
    (OpenDisposition.OPEN, Direction.READ, True),
    (OpenDisposition.OPEN, Direction.WRITE, True),
    (OpenDisposition.CREATE, Direction.WRITE, True),
    (OpenDisposition.CREATE_NEW, Direction.WRITE, False),
    (OpenDisposition.OPEN_OR_CREATE, Direction.WRITE, True),
    (OpenDisposition.OPEN_OR_CREATE, Direction.WRITE, False),
    (OpenDisposition.APPEND, Direction.WRITE, True),
    (OpenDisposition.TRUNCATE, Direction.READ, True),
]

#: Transfer sizes: small ones, and ones around the sector and the 64 KiB stream buffer.
SIZES = st.one_of(
    st.integers(0, 700),
    st.sampled_from([4095, 4096, 8192, 65535, 65536, 65537, 100_000, 131_072, 250_000]),
)

#: Read sizes for stream reads: the stream buffer, below it, its multiples, and neither.
READ_SIZES = st.one_of(
    st.integers(1, 700),
    st.sampled_from([4096, 65535, 65536, 65537, 100_000, 131_072, 200_000]),
)


def _content(seed: int, size: int) -> bytes:
    return sb.make_rng(seed).bytes(size)


def _lines(data: bytes) -> list[bytes]:
    """``data`` split after every b"\\n", as a binary stream's lines are."""
    *lines, tail = data.split(b"\n")
    return [line + b"\n" for line in lines] + ([tail] if tail else [])


def _read_calls(path, position, read) -> tuple[bytes, int]:
    """What ``read(handle)`` returns from ``position`` of a fresh read-only handle,
    and the read system calls it took."""
    with sb.open_file(path, OpenDisposition.OPEN, Direction.READ) as handle:
        handle.seek(position)
        before = proc_io()["syscr"]
        data = read(handle)
        return data, proc_io()["syscr"] - before


def _stream_reads(handle, size) -> list[bytes]:
    """Reads of ``size`` bytes from the handle's stream until end of file."""
    return list(iter(functools.partial(handle.stream.read, size), b""))


def _read_all(handle, size) -> bytes:
    return b"".join(_stream_reads(handle, size))


def _read_blocks(handle, size) -> bytes:
    buffer, blocks = bytearray(size), []
    while got := handle.read_block(buffer):
        blocks.append(bytes(buffer[:got]))
    return b"".join(blocks)


class HandleModel(RuleBasedStateMachine):
    directory = None  # set by each test
    mode = IoMode.BUFFERED
    runs = itertools.count()

    def __init__(self):
        super().__init__()
        self.handle = None
        self.path = self.directory / f"model_{next(self.runs)}.dat"

    def teardown(self):
        if self.handle is not None:
            self.handle.close()
        self.path.unlink(missing_ok=True)

    # -- sizes ------------------------------------------------------------------

    @property
    def direct(self) -> bool:
        return self.mode is IoMode.DIRECT

    def _size(self, size: int) -> int:
        """``size`` as this handle can move it: whole sectors when direct."""
        if self.direct:
            return size - size % self.handle.geometry.logical_sector
        return size

    def _moved(self, size: int) -> bytes:
        """The model's bytes a read of ``size`` at the position returns."""
        return bytes(self.file[self.pos : self.pos + size])

    def _put(self, data: bytes) -> None:
        """Write ``data`` at the position in the model; a gap before it reads as zeros.
        Writing nothing fills no gap."""
        if data and self.pos > len(self.file):
            self.file.extend(bytes(self.pos - len(self.file)))
        self.file[self.pos : self.pos + len(data)] = data
        self.pos += len(data)

    # -- opening ----------------------------------------------------------------

    @initialize(opening=st.sampled_from(OPENINGS), seed=st.integers(0, 99), size=SIZES)
    def open(self, opening, seed, size):
        disposition, direction, exists = opening
        if self.direct:  # whole sectors, for any sector size up to 4 KiB
            size -= size % 4096
        initial = _content(seed, size)
        if exists:
            self.path.write_bytes(initial)
        self.handle = sb.open_file(self.path, disposition, direction, self.mode)
        kept = exists and disposition in (
            OpenDisposition.OPEN, OpenDisposition.OPEN_OR_CREATE, OpenDisposition.APPEND
        )
        self.file = bytearray(initial if kept else b"")
        self.pos = len(self.file) if disposition is OpenDisposition.APPEND else 0
        self.writable = not (disposition is OpenDisposition.OPEN and direction is Direction.READ)
        assert self.handle.writable == self.writable

    # -- positioning ------------------------------------------------------------

    @rule(base=st.sampled_from(["start", "end", "here"]), delta=st.integers(-70_000, 70_000))
    def seek(self, base, delta):
        start = {"start": 0, "end": len(self.file), "here": self.pos}[base]
        offset = self._size(max(0, start + delta))
        self.handle.seek(offset)
        self.pos = offset

    @invariant()
    def position(self):
        if self.handle is not None:
            assert self.handle.position == self.pos

    @rule()
    def length(self):
        assert self.handle.length == len(self.file)

    # -- block transfers --------------------------------------------------------

    @rule(size=SIZES, spare=st.booleans())
    def read_block(self, size, spare):
        size = self._size(size)
        if self.direct:
            sector = self.handle.geometry.logical_sector
            buffer = AlignedBuffer(size + (sector if spare else 0) or sector,
                                   self.handle.geometry.recommended_alignment)
            got = self.handle.read_block(buffer, size)
            data = bytes(buffer.view[:got])
        else:
            buffer = bytearray(size + 13 if spare else size)
            got = self.handle.read_block(buffer, size if spare else None)
            data = bytes(buffer[:got])
        assert data == self._moved(size)
        self.pos += got

    @rule(
        seed=st.integers(0, 99), size=SIZES, kind=st.sampled_from([bytes, bytearray])
    )
    def write_block(self, seed, size, kind):
        data = _content(seed, self._size(size))
        if self.direct:
            buffer = AlignedBuffer(max(len(data), 1), self.handle.geometry.recommended_alignment)
            buffer.view[: len(data)] = data
        else:
            buffer = kind(data)
        if not self.writable:
            with pytest.raises(io.UnsupportedOperation):
                self.handle.write_block(buffer, len(data))
            return
        assert self.handle.write_block(buffer, len(data)) == len(data)
        self._put(data)

    # -- stream transfers -------------------------------------------------------

    @rule(size=READ_SIZES)
    def reads(self, size):
        if self.direct:
            assert self.handle.stream is None
            return
        pieces = _stream_reads(self.handle, size)
        rest = self._moved(len(self.file))
        assert b"".join(pieces) == rest
        assert all(len(piece) == size for piece in pieces[:-1])
        assert not pieces or 1 <= len(pieces[-1]) <= size
        self.pos += len(rest)

    @rule(pieces=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 300)), max_size=20))
    def writelines(self, pieces):
        data = [_content(seed, size) for seed, size in pieces]
        if self.direct:
            assert self.handle.stream is None
            return
        if not self.writable:
            # A read-only stream refuses its first write; with no pieces there is none.
            with pytest.raises(io.UnsupportedOperation) if data else contextlib.nullcontext():
                self.handle.stream.writelines(data)
            return
        self.handle.stream.writelines(data)
        self._put(b"".join(data))

    @rule(count=st.integers(0, 5))
    def lines(self, count):
        if self.direct:
            assert self.handle.stream is None
            return
        taken = list(itertools.islice(self.handle.stream, count))
        assert taken == _lines(self._moved(len(self.file)))[:count]
        self.pos += sum(map(len, taken))

    # -- allocation and durability ----------------------------------------------

    @rule(size=SIZES)
    def preallocate(self, size):
        size = self._size(size)
        if not self.writable:
            with pytest.raises(io.UnsupportedOperation):
                self.handle.preallocate(size)
            return
        self.handle.preallocate(size)
        del self.file[size:]
        self.file.extend(bytes(size - len(self.file)))
        self.pos = min(self.pos, size)

    @rule(level=st.sampled_from(FlushLevel))
    def flush(self, level):
        if not self.writable:
            with pytest.raises(io.UnsupportedOperation):
                self.handle.flush(level)
            return
        self.handle.flush(level)
        assert self.path.read_bytes() == self.file

    # -- stream reads against read_block ----------------------------------------

    @precondition(lambda self: not self.direct)
    @rule(size=READ_SIZES)
    def reads_make_the_calls_read_block_makes(self, size):
        """On a copy of the model's file, from the model's position: the same bytes,
        and for a read of at most the stream buffer, or a multiple of it, the same
        read system calls (/proc/self/io syscr)."""
        twin = self.path.with_suffix(".twin")
        twin.write_bytes(self.file)
        try:
            streamed, streamed_calls = _read_calls(twin, self.pos, lambda h: _read_all(h, size))
            blocks, block_calls = _read_calls(twin, self.pos, lambda h: _read_blocks(h, size))
        finally:
            twin.unlink()
        assert streamed == blocks == self._moved(len(self.file))
        if size <= DEFAULT_STREAM_BUFFER or size % DEFAULT_STREAM_BUFFER == 0:
            assert streamed_calls == block_calls


@pytest.mark.parametrize(
    "size", [7, 4096, 65535, 65536, 65537, 100_000, 131_072, 200_000, 400_000]
)
def test_reads_return_what_read_block_does(tmp_path, size):
    """The same bytes at every size, and the same read calls where stream
    reads promise them: at most the stream buffer, or a multiple of it."""
    path = tmp_path / "data"
    path.write_bytes(_content(3, 300_000))
    promised = size <= DEFAULT_STREAM_BUFFER or size % DEFAULT_STREAM_BUFFER == 0
    for position in (0, 1, 4095, 65_536, 70_000, 299_999, 300_000, 350_000):
        streamed, streamed_calls = _read_calls(path, position, lambda h: _read_all(h, size))
        blocks, block_calls = _read_calls(path, position, lambda h: _read_blocks(h, size))
        assert streamed == blocks == path.read_bytes()[position:]
        if promised:
            assert streamed_calls == block_calls, position


MODEL_SETTINGS = settings(
    max_examples=100,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _run(directory, mode):
    machine = type(f"{mode.name.title()}HandleModel", (HandleModel,),
                   {"directory": directory, "mode": mode})
    run_state_machine_as_test(machine, settings=MODEL_SETTINGS)


def test_buffered_handle_follows_its_model(tmp_path, deadline):
    _run(tmp_path, IoMode.BUFFERED)


def test_direct_handle_follows_its_model(tmp_path, deadline, need_direct):
    _run(tmp_path, IoMode.DIRECT)

