"""Every I/O loop under every fault it can meet: one table of loops, one test of its cells.

A row of LOOPS is one loop: how it runs in a fresh directory, the calls it
makes (each with the call number its fault lands at), and the files and
progress it promises to leave.  A cell is one (loop, call, fault) for each
fault _FAULTS gives that call.  In every cell the loop ends within
``deadline``, ends as ``_expect`` says, leaves no file descriptor, thread
or garbage cycle behind, and leaves its files and progress report as its
docstring states.  A cell the program fails is xfail(strict=True) with
the CHANGES.md FOUND line that names the defect.  A new loop is a new row,
and a call a loop newly makes is a new entry of its ``calls``.
"""
import collections
import dataclasses
import errno
import gc
import os
import zlib
from typing import Callable

import pytest
from conftest import (
    REFUSED, SHORT, ZERO, Interrupt, Spin, files_on_disk, lingering_threads, offset_chain,
    open_fds, os_threads, replay, run_cli,
)

import seqbench as sb
from seqbench.core import Direction, OpenDisposition

#: The faults each call can meet.  A read allocates nothing, so it cannot
#: find the disk full; fsync and fallocate move no bytes of their own.
_FAULTS = {
    **dict.fromkeys(["preadv", "raw.readinto"], (SHORT, ZERO, errno.EIO, Interrupt)),
    **dict.fromkeys(["pwritev", "raw.write"], (SHORT, ZERO, errno.ENOSPC, errno.EIO, Interrupt)),
    **dict.fromkeys(["fsync", "posix_fallocate"], (errno.ENOSPC, errno.EIO, Interrupt)),
    "start_new_thread": (REFUSED, Interrupt),
}
_READS = ("preadv", "raw.readinto")
_PATTERN, _OLD = b"\xa5", b"\x5a"  # what trials, extensions and fills write; what was there

_RUN = sb.bench._RUN_REQUESTS  # requests in a 4 KiB ticket run
Cell = collections.namedtuple("Cell", "loop target at fault")


@dataclasses.dataclass(frozen=True)
class Loop:
    run: Callable  # the loop, run in the cell's directory: run(directory) -> its outcome
    calls: str  # "target@n ...": each call a fault lands on, and at which call number
    check: Callable = lambda d, outcome, cell: None  # the files and progress left behind
    setup: Callable = lambda d: None
    zero_read: tuple = (OSError, "short read")  # the error a read's 0 ends it with
    wrap: type | None = None  # the error that carries every failure but an interrupt
    full_disk_ok: bool = False  # a full disk is absorbed and reported
    tool: bool = False  # run returns (exit code, stdout, stderr)
    direct: bool = False


def _ok(outcome) -> bool:
    """Whether the loop ended without an exception (a tool: with exit code 0)."""
    if isinstance(outcome, tuple):
        return outcome[0] == 0
    return not isinstance(outcome, BaseException)


def _trial(calls: str, direction=Direction.READ, **overrides) -> Loop:
    """Two trials over a target of _OLD bytes, so no fill runs; a trial at depth 2 is two
    ticket runs, one per slot."""
    overrides = {"file_size": 2 * _RUN * 4096 if "async_depth" in overrides else 256 << 10,
                 "block": 4096, **overrides}

    def config(d):
        return sb.IoConfig(path=d / "target.dat", offset_log=d / "offsets.txt", direction=direction,
                           max_requests=overrides["file_size"] // overrides["block"], **overrides)

    def check(d, outcome, cell):
        """The log holds the offsets issued, a failed measurement's too: a refused thread
        runs no slot, a later fault falls in trial 0.  A read leaves the target as it was,
        and a write changes whole blocks, at logged offsets only."""
        cfg = config(d)
        logged = [int(line) for line in cfg.offset_log.read_text().split()]
        trials = [offset_chain(cfg, trial, cfg.max_requests) for trial in (0, 1)]
        if _ok(outcome):
            assert logged == trials[0] + trials[1]
        else:  # whole ticket runs of trial 0; none where a thread start failed
            run = min(_RUN, sb.bench._RUN_BYTES // cfg.block, cfg.max_requests)
            assert logged == trials[0][: len(logged)] and len(logged) % run == 0
            assert bool(logged) is (cell.target != "start_new_thread")
        data, size = cfg.path.read_bytes(), cfg.block
        assert len(data) == cfg.file_size
        written = {at for at in range(0, len(data), size) if data[at : at + size] != _OLD * size}
        assert all(data[at : at + size] == _PATTERN * size for at in written)
        if direction is Direction.WRITE and _ok(outcome):
            assert written == set(logged)
        assert written <= (set(logged) if direction is Direction.WRITE else set())

    def setup(d):
        config(d).path.write_bytes(_OLD * overrides["file_size"])

    def run(d):
        return sb.run_measurement(config(d), trials=2, warmup=0, clock_ghz=1.0)

    return Loop(run, calls, check, setup, direct=overrides.get("direct", False))


def _extension(calls: str, mode) -> Loop:
    def check(d, outcome, cell):
        """The pattern from byte 0, then a preallocated file's zeros; a refused
        preallocation leaves no sparse file behind to pass for one."""
        data = (d / "grown.dat").read_bytes()
        written = data.rstrip(b"\0")
        assert written == _PATTERN * len(written)
        assert not _ok(outcome) or data == _PATTERN * 16 * 4096
        if mode is sb.ExtensionMode.INCREMENTAL or cell.target == "posix_fallocate":
            assert data == written

    return Loop(lambda d: sb.measure_extension(
        d / "grown.dat", 16 * 4096, 4096, mode, trials=1, clock_ghz=1.0
    ), calls, check)


def _fill(d):
    """8 MiB and 8 bytes past a 4-byte file: three writes of the 4 MiB fill chunk."""
    return sb.IoConfig(path=d / "target.dat", file_size=(8 << 20) + 12)


def _fill_check(d, outcome, cell):
    """The bytes already there stay, and the fill pattern follows them, all of it once done."""
    data = (d / "target.dat").read_bytes()
    assert data[:4] == b"keep" and data[4:] == _PATTERN * (len(data) - 4)
    assert not _ok(outcome) or len(data) == _fill(d).file_size


def _copy(calls: str, depth: int) -> Loop:
    blocks = 20

    def check(d, outcome, cell):
        """A finished copy matches; a failed one leaves no destination, and its error
        carries the progress made: every write before the failing call's landed, and
        none where the destination's preallocation failed."""
        if _ok(outcome):
            assert (d / "dst").read_bytes() == (d / "src").read_bytes()
            assert (outcome.read_requests, outcome.write_requests) == (blocks, blocks)
            return
        assert not (d / "dst").exists()
        if isinstance(outcome, sb.CopyAbortedError):
            done = outcome.progress
            assert done.bytes_copied == done.write_requests * 4096
            assert done.write_requests <= done.read_requests < blocks
            assert cell.target != "pwritev" or done.write_requests == cell.at - 1
            assert cell.target != "preadv" or done.read_requests < cell.at
            assert cell.target != "start_new_thread" or done.read_requests == 0
            assert cell.target != "posix_fallocate" or (
                done.read_requests, done.write_requests) == (0, 0)

    return Loop(
        lambda d: sb.copy_file(d / "src", d / "dst", block=4096, depth=depth), calls, check,
        lambda d: (d / "src").write_bytes(sb.make_rng(depth).bytes(blocks * 4096)),
        zero_read=(OSError, "source shrank"), wrap=sb.CopyAbortedError,
    )


def _handle_direct(d):
    """A write_block of two 4 KiB units through a direct handle (two sectors of a 4 KiB
    sector volume), then a read_block of them back: (written, read, bytes read).  A
    short transfer on a direct descriptor is one unit.  A read of 0 where the write
    landed is an early end of file.  (A list: a tuple is a tool's outcome.)"""
    with sb.open_file(d / "direct.dat", OpenDisposition.CREATE, Direction.WRITE,
                      sb.IoMode.DIRECT) as handle:
        geometry = handle.geometry
        size = 2 * max(geometry.logical_sector, 4096)
        out, back = (sb.AlignedBuffer(size, geometry.recommended_alignment) for _ in range(2))
        out.view[:] = _PATTERN * size
        written = handle.write_block(out)
        handle.seek(0)
        got = handle.read_block(back)
        if got == 0:
            raise OSError(f"short read: the file ended at 0 of {size} bytes")
        return [written, got, bytes(back.view[:got])]


def _handle_direct_check(d, outcome, cell):
    """Only the pattern lands.  A write that returns finished the whole request; a read
    returns what its one preadv gave, one unit where that came back short."""
    data = (d / "direct.dat").read_bytes()
    assert data == _PATTERN * len(data)
    if _ok(outcome):
        written, got, back = outcome
        assert len(data) == written
        assert got == (written // 2 if (cell.target, cell.fault) == ("preadv", SHORT) else written)
        assert back == _PATTERN * got


def _aging_check(d, outcome, cell):
    """The event log replays to the files on disk however the run ends; a run that
    returns reports them, and a full disk in its notes."""
    events = (d / "events.log").read_text().splitlines()
    assert replay(events) == files_on_disk(d / "aged")
    if _ok(outcome):
        assert list(outcome.events) == events and dict(outcome.survivors) == replay(events)
        assert outcome.cycles_run == 2 and outcome.created_files > 0 and outcome.survivors
        assert cell.fault != errno.ENOSPC or "cycle 1: volume full, purging early" in outcome.notes


_PAYLOAD = sb.make_rng(2).bytes(256 << 10)
_TYPED = [("i64", value * 7919) for value in range(-1500, 1500)] + [("str", "ünïcode")] * 3


def _read_check(d, outcome, cell):
    """What was read and its checksum: the whole file."""
    if _ok(outcome):
        assert outcome.bytes_processed == len(_PAYLOAD)
        assert outcome.checksum == zlib.adler32(_PAYLOAD)


#: About 240 KiB of lines, "\r\n" or "\n" terminated, and their payloads.
_TEXT_LINES = [b"x" * (i % 97) + (b"\r\n" if i % 3 else b"\n") for i in range(5000)]
_TEXT_PAYLOAD = b"".join(line.rstrip(b"\n").removesuffix(b"\r") for line in _TEXT_LINES)


def _lines_check(d, outcome, cell):
    """What was read and its checksum: every line's payload."""
    if _ok(outcome):
        assert outcome.bytes_processed == len(_TEXT_PAYLOAD)
        assert outcome.checksum == zlib.adler32(_TEXT_PAYLOAD)
        assert outcome.sample.request_count == len(_TEXT_LINES)


def _written(name):
    def check(d, outcome, cell):
        """A finished write leaves the bytes it reports (a line write sums payloads only)."""
        data = (d / name).read_bytes()
        if _ok(outcome):
            assert len(data) == outcome.bytes_processed
            assert name == "lines.txt" or zlib.adler32(data) == outcome.checksum

    return check


def _summary_check(d, outcome, cell):
    """Nothing is left behind, and a failure names the step that met the fault."""
    assert list(d.iterdir()) == []
    if isinstance(outcome, sb.ScenarioError):
        step = "write" if cell.target == "raw.write" else "read"
        assert str(outcome).startswith(f"step {step!r} failed: "), outcome


def _typed_check(d, outcome, cell):
    assert not _ok(outcome) or outcome == _TYPED


def _asynccopy_check(d, outcome, cell):
    """Both files go however the tool ends; it says "verified" only when it exits 0, and
    a failed source write starts no copy."""
    assert list(d.iterdir()) == []
    if isinstance(outcome, tuple):
        code, out, _ = outcome
        assert (code == 0) == ("verified: destination matches source" in out)
        assert not (code and cell.target == "pwritev" and cell.at == 1) or "copying" not in out


def _fragdisk_check(d, outcome, cell):
    """fragdisk prints what it left: its surviving count is the files on disk."""
    if _ok(outcome):
        assert f"surviving: {len(files_on_disk(d / 'aged'))} files" in outcome[1]


def _tool(calls: str, command: str, **fields) -> Loop:
    """A command line, ``{d}`` standing for the cell's directory."""
    return Loop(lambda d: run_cli(command.format(d=d).split()), calls, tool=True, **fields)


_DIRECT = dict(direct=True, block=64 << 10, file_size=1 << 20)  # 16 requests: one ticket run

LOOPS = {
    "trial-stream-read": _trial("raw.readinto@3"),
    "trial-stream-write": _trial("raw.write@2", Direction.WRITE),
    "trial-pread-depth1": _trial("preadv@10", seek_pct=30),
    "trial-pwrite-depth1": _trial("pwritev@10", Direction.WRITE, seek_pct=30),
    "trial-pread-depth2": _trial("preadv@10 start_new_thread@1", async_depth=2),
    "trial-pwrite-depth2": _trial("pwritev@10 start_new_thread@1", Direction.WRITE, async_depth=2),
    "trial-direct-read": _trial("preadv@5", **_DIRECT),
    "trial-direct-write": _trial("pwritev@5", Direction.WRITE, **_DIRECT),
    "handle-direct": Loop(_handle_direct, "pwritev@1 preadv@1", _handle_direct_check,
                          direct=True),
    "measure_extension-incremental": _extension("pwritev@5 fsync@5", sb.ExtensionMode.INCREMENTAL),
    "measure_extension-preallocated": _extension(
        "posix_fallocate@1 pwritev@5 fsync@5", sb.ExtensionMode.PREALLOCATED
    ),
    "_prepare_target": Loop(
        lambda d: sb.bench._prepare_target(_fill(d)), "pwritev@2 fsync@1", _fill_check,
        setup=lambda d: (d / "target.dat").write_bytes(b"keep"),
    ),
    "copy_file-depth1": _copy("posix_fallocate@1 preadv@7 pwritev@7", 1),
    "copy_file-depth2": _copy("posix_fallocate@1 preadv@7 pwritev@7 start_new_thread@1", 2),
    "run_cycles": Loop(
        lambda d: sb.run_cycles(sb.FragConfig.scaled(
            d / "aged", capacity_limit=8 << 20, seed=7, event_log=d / "events.log"
        )),
        "pwritev@6", _aging_check, full_disk_ok=True,
    ),
    "run_read": Loop(
        lambda d: sb.run_read(d / "data.bin", sb.ByteAtATime()), "raw.readinto@2", _read_check,
        setup=lambda d: (d / "data.bin").write_bytes(_PAYLOAD),
    ),
    "run_read-line": Loop(
        lambda d: sb.run_read(d / "lines.txt", sb.LineAtATime()), "raw.readinto@2", _lines_check,
        setup=lambda d: (d / "lines.txt").write_bytes(b"".join(_TEXT_LINES)),
    ),
    "run_read-block4096": Loop(
        lambda d: sb.run_read(d / "data.bin", sb.BlockAtATime(4096)), "raw.readinto@2",
        _read_check, setup=lambda d: (d / "data.bin").write_bytes(_PAYLOAD),
    ),
    "run_read-block7": Loop(  # its second refill is inside a read that straddles it
        lambda d: sb.run_read(d / "data.bin", sb.BlockAtATime(7)), "raw.readinto@2",
        _read_check, setup=lambda d: (d / "data.bin").write_bytes(_PAYLOAD),
    ),
    "run_write-byte": Loop(
        lambda d: sb.run_write(d / "bytes.bin", sb.ByteAtATime(), 256 << 10, sb.make_rng(4)),
        "raw.write@2", _written("bytes.bin"),
    ),
    "run_write-line": Loop(
        lambda d: sb.run_write(d / "lines.txt", sb.LineAtATime(), 256 << 10, sb.make_rng(4)),
        "raw.write@2", _written("lines.txt"),
    ),
    "typed_roundtrip": Loop(
        lambda d: sb.typed_roundtrip(_TYPED, d / "typed.bin"), "raw.write@2 raw.readinto@2",
        _typed_check, zero_read=(sb.StreamTruncatedError, "unexpected end of stream"),
    ),
    "write_sort_file": Loop(
        lambda d: sb.write_sort_file(d / "sort.dat", 3000, sb.make_rng(3), io_block=4096),
        "raw.write@2", _written("sort.dat"),
    ),
    "summary_scenario": Loop(
        sb.summary_scenario, "raw.write@1 raw.readinto@1", _summary_check,
        zero_read=(ValueError, "read back 0 bytes"), wrap=sb.ScenarioError,
    ),
    "iospeed-buffered-read": _tool(
        "pwritev@1 fsync@1 raw.readinto@2", "iospeed -t0.05 -b4K -r256K {d}/io.dat"
    ),
    "iospeed-preallocated-async-write": _tool(
        "posix_fallocate@1 pwritev@6 fsync@2 start_new_thread@1",
        "iospeed -t0.05 -b64K -w256K -a2 -p {d}/io.dat",
    ),
    "asynccopy": _tool(
        "pwritev@1 pwritev@4 preadv@3 fsync@1 posix_fallocate@1 start_new_thread@1 "
        "raw.readinto@1",
        "asynccopy -z256K -b16K -a2 {d}", check=_asynccopy_check,
    ),
    "fragdisk": _tool(
        "pwritev@6", "fragdisk -n2 -c20 -Fm4K -FM16K -f99 -k1 {d}/aged", check=_fragdisk_check,
        full_disk_ok=True,
    ),
    "examples": _tool("raw.write@2 raw.readinto@2", "examples {d}/ex.dat 300"),
}

#: Cells the program fails, each with the CHANGES.md FOUND line that names the defect.
_SPINS = ("FOUND in CHANGES.md: io.BufferedWriter retries a raw write that returns 0 "
          "without end, so a loop that writes through a buffered stream spins")
_KNOWN = {
    **{Cell(name, "raw.write", 2, ZERO): _SPINS
       for name in ("trial-stream-write", "run_write-byte", "run_write-line", "typed_roundtrip",
                    "write_sort_file", "examples")},
    Cell("summary_scenario", "raw.write", 1, ZERO): _SPINS,
}


def _cells():
    for name, loop in LOOPS.items():
        for call in loop.calls.split():
            target, at = call.split("@")
            for fault in _FAULTS[target]:
                cell = Cell(name, target, int(at), fault)
                named = "interrupt" if fault is Interrupt else errno.errorcode.get(fault, fault)
                known = cell in _KNOWN and [pytest.mark.xfail(strict=True, reason=_KNOWN[cell])]
                yield pytest.param(cell, marks=known or (), id=f"{name}-{call}-{named}")


def _expect(loop: Loop, cell: Cell, outcome) -> None:
    """Assert that ``outcome`` is how ``loop`` ends under ``cell``'s fault.

    A short transfer is continued, so the loop finishes.  An interrupt
    stays itself.  A read's 0 raises ``zero_read``, and a write's raises
    "no progress".  An errno raises that OSError, unless a
    ``full_disk_ok`` loop absorbs ENOSPC; a refused thread raises OSError
    (EAGAIN).  ``wrap`` carries any of these but the interrupt.  A tool
    exits 1 instead, with one stderr line naming the error, or 0 where the
    loop finishes.
    """
    fault = cell.fault
    if fault is Interrupt:
        assert isinstance(outcome, Interrupt), outcome
        return
    finishes = fault == SHORT or (fault == errno.ENOSPC and loop.full_disk_ok)
    kind, message = loop.zero_read if cell.target in _READS else (OSError, "no progress")
    if loop.tool:
        code, _, err = outcome
        assert code == (0 if finishes else 1), err
        if not finishes:
            assert err.count("\n") == 1 and err.startswith("error: "), err
            assert not isinstance(fault, int) or os.strerror(fault) in err, err
            assert fault != ZERO or cell.target in _READS or message in err, err
    elif finishes:
        assert _ok(outcome), outcome
    else:
        if loop.wrap is not None:
            assert isinstance(outcome, loop.wrap), outcome
            outcome = outcome.__cause__
        if fault == ZERO:
            assert isinstance(outcome, kind) and message in str(outcome), outcome
        else:  # an errno, or EAGAIN: the system has no thread to give
            assert isinstance(outcome, OSError), outcome
            assert outcome.errno == (errno.EAGAIN if fault == REFUSED else fault), outcome


@pytest.mark.parametrize("cell", _cells())
def test_a_loop_under_a_fault(tmp_path, request, faults, deadline, cell):
    loop = LOOPS[cell.loop]
    if loop.direct:
        request.getfixturevalue("need_direct")
    loop.setup(tmp_path)
    fds, threads = open_fds(), os_threads()
    gc.freeze()  # what earlier tests left is neither counted nor scanned
    try:
        with faults(cell.target, cell.fault, at=cell.at) as script:
            try:
                outcome = loop.run(tmp_path)
            except (Exception, Interrupt, Spin) as exc:
                outcome = exc
        assert script.fired, f"call {cell.at} of {cell.target} never came"
        assert not isinstance(outcome, Spin), outcome
        _expect(loop, cell, outcome)
        assert open_fds() == fds
        assert not lingering_threads(threads)
        loop.check(tmp_path, outcome, cell)
        del outcome  # a cycle through the error is garbage once its holder lets go
        assert gc.collect() == 0
    finally:
        gc.unfreeze()
