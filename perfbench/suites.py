"""The benchmark's three workloads, each a set of paired rows.

A row times one public seqbench call against a raw floor written here
with os.preadv/os.pwritev (or plain open()) that moves the same bytes at
the same offsets.  Rows without a floor are per-layer probes and run only
in traced runs.  Every input (file contents, offsets, record data,
aging plans) comes from the workload seed.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import math
import mmap
import os
import shutil
import statistics
import time
from pathlib import Path
from typing import Callable

from harness import Row, count, stat

MiB = 1 << 20
DATA_SIZE = 64 * MiB  # stays in the page cache of the work area
WRITE_SIZE = 32 * MiB
EXAMPLE_RECORDS = 500  # 50 KB per pass of the examples tool
SORT_RECORDS = 10_000
COPY_DEPTH = 2  # no deeper than this host's two CPUs
COPY_SIZE = 32 * MiB
VOLUME_SIZE = 192 * MiB
AGE_QUOTA = 128 * MiB  # set-up aging of the volume
CHURN_QUOTA = 16 * MiB  # aging timed in each round
VOLUME_FILE_SIZE = 32 * MiB
EXTEND_SIZE = 8 * MiB
EXTEND_BLOCK = 64 * 1024
LONG = 3600.0  # trial duration; max_requests ends every timed call first
FILL_BYTE = 0xA5  # what seqbench's write trials write


class Context:
    """What every workload needs: the package, the seed and a directory."""

    def __init__(self, sb, seed: int, directory: Path):
        self.sb = sb
        self.seed = seed
        self.dir = directory
        self.clock = sb.detect_clock_ghz()
        self.state: dict = {}  # per-run facts the report reads


# -- shared helpers --------------------------------------------------------------

def write_seeded(sb, path: Path, size: int, seed: int, stream: int) -> None:
    rng = sb.make_rng(seed, stream)
    with open(path, "wb") as out:
        for start in range(0, size, 4 * MiB):
            out.write(rng.bytes(min(4 * MiB, size - start)))


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        while chunk := stream.read(MiB):
            digest.update(chunk)
    return digest.hexdigest()


def reference_offsets(sb, cfg) -> list[int]:
    """The offsets trial 0 of ``cfg`` issues, built from next_offset alone."""
    rng = sb.make_rng(cfg.seed, 0)
    offsets = [0]
    for _ in range(cfg.max_requests - 1):
        offsets.append(sb.next_offset(offsets[-1], cfg, cfg.file_size, rng))
    return offsets


def pread_floor(path: Path, block: int, offsets: list[int], *, direct: bool = False):
    flags = os.O_RDONLY | (os.O_DIRECT if direct else 0)
    buffer = mmap.mmap(-1, block)  # page aligned, as O_DIRECT needs
    views = [memoryview(buffer)]

    def run():
        fd = os.open(path, flags)
        try:
            for offset in offsets:
                if os.preadv(fd, views, offset) != block:
                    raise OSError(f"short read at {offset} in {path}")
        finally:
            os.close(fd)
    return run


def pwrite_floor(path: Path, block: int, offsets: list[int]):
    views = [memoryview(bytes([FILL_BYTE]) * block)]

    def run():
        fd = os.open(path, os.O_WRONLY)
        try:
            for offset in offsets:
                if os.pwritev(fd, views, offset) != block:
                    raise OSError(f"short write at {offset} in {path}")
        finally:
            os.close(fd)
    return run


def seq_median(row: Row | None) -> float | None:
    return statistics.median(s.seq_ns for s in row.samples) if row and row.samples else None


def measurement(sb, cfg, clock):
    return lambda: sb.run_measurement(cfg, trials=1, warmup=0, clock_ghz=clock)


def trial_checks(cfg):
    """A pinned trial issues exactly max_requests whole blocks."""
    def check(result):
        sample = result.samples[0]
        return [
            ("requests", sample.request_count == cfg.max_requests,
             f"{sample.request_count} of {cfg.max_requests}"),
            ("bytes", sample.bytes_moved == cfg.max_requests * cfg.block,
             f"{sample.bytes_moved} bytes"),
        ]
    return check


def sequential_probe(sb, path: Path, block: int, count: int, *, direct: bool = False):
    """FileHandle.read_block called ``count`` times, rewinding at end of file."""
    mode = sb.IoMode.DIRECT if direct else sb.IoMode.BUFFERED

    def run():
        with sb.open_file(path, sb.OpenDisposition.OPEN, sb.Direction.READ, mode) as handle:
            buffer = (sb.AlignedBuffer(block, handle.geometry.recommended_alignment)
                      if direct else bytearray(block))
            for _ in range(count):
                if handle.read_block(buffer, block) != block:
                    handle.seek(0)
    return run


def open_probe(sb, path: Path, count: int, *, direct: bool = False):
    mode = sb.IoMode.DIRECT if direct else sb.IoMode.BUFFERED

    def run():
        for _ in range(count):
            sb.open_file(path, sb.OpenDisposition.OPEN, sb.Direction.READ, mode).close()
    return run


# -- small-requests ---------------------------------------------------------------

def small_setup(ctx: Context) -> None:
    sb = ctx.sb
    write_seeded(sb, ctx.dir / "data.bin", DATA_SIZE, ctx.seed, 1)
    write_seeded(sb, ctx.dir / "write.bin", WRITE_SIZE, ctx.seed, 2)


def examples_floor(ctx: Context):
    """The examples tool's six passes, written directly against open()."""
    sb = ctx.sb
    path = ctx.dir / "examples_floor.dat"
    total = EXAMPLE_RECORDS * sb.workloads.SORT_RECORD_BYTES
    rng = sb.make_rng(ctx.seed, 3)
    data = rng.bytes(total)
    sort_input = rng.bytes(total)
    lines, size = [], 0
    while size < total:
        length = min(int(rng.integers(0, 79)), total - size - 1)
        lines.append(b"x" * length + b"\n")
        size += length + 1

    def run():
        with open(path, "wb") as out:
            for index in range(total):
                out.write(data[index:index + 1])
        with open(path, "wb") as out:
            for start in range(0, total, 65536):
                out.write(sort_input[start:start + 65536])
        with open(path, "wb") as out:
            for line in lines:
                out.write(line)
        with open(path, "rb") as stream:
            while stream.read(1):
                pass
        with open(path, "rb") as stream:
            for _ in stream:
                pass
        buffer = bytearray(65536)
        with open(path, "rb") as stream:
            while stream.readinto(buffer):
                pass
    return run


def examples_parts(ctx: Context, path: Path):
    """The six workload calls the examples tool makes, without the tool."""
    sb = ctx.sb
    total = EXAMPLE_RECORDS * sb.workloads.SORT_RECORD_BYTES

    def run():
        rng = sb.make_rng(sb.DEFAULT_SEED)
        sb.run_write(path, sb.ByteAtATime(), total, rng)
        sb.write_sort_file(path, EXAMPLE_RECORDS, rng, io_block=65536)
        sb.run_write(path, sb.LineAtATime(), total, rng)
        sb.run_read(path, sb.ByteAtATime())
        sb.run_read(path, sb.LineAtATime())
        sb.run_read(path, sb.BlockAtATime(65536))
    return run


GRANULARITIES = ("byte", "line", "block", "record")


def roundtrip(ctx: Context, kind: str):
    """run_write then run_read at one granularity; both results."""
    sb = ctx.sb
    granularity = {
        "byte": sb.ByteAtATime(),
        "line": sb.LineAtATime(),
        "block": sb.BlockAtATime(4096),  # a dozen calls per pass, not one
        "record": sb.TypedRecords(),
    }[kind]
    path = ctx.dir / f"roundtrip_{kind}.dat"
    total = EXAMPLE_RECORDS * sb.workloads.SORT_RECORD_BYTES

    def run():
        written = sb.run_write(path, granularity, total, sb.make_rng(ctx.seed, 4))
        return written, sb.run_read(path, granularity)
    return run


def roundtrip_check(result):
    written, read = result
    return [("checksum", written.checksum == read.checksum,
             f"write {written.checksum:#x} read {read.checksum:#x}")]


def small_rows(ctx: Context) -> list[Row]:
    sb = ctx.sb
    data, wfile = ctx.dir / "data.bin", ctx.dir / "write.bin"

    def cfg(**kw):
        return sb.IoConfig(path=data, file_size=DATA_SIZE, duration=LONG, seed=ctx.seed, **kw)

    read4k = cfg(block=4096, max_requests=16384)
    seek4k = cfg(block=4096, seek_pct=100, max_requests=4096)
    seek512 = cfg(block=512, seek_pct=100, max_requests=4096)
    write4k = sb.IoConfig(path=wfile, direction=sb.Direction.WRITE, file_size=WRITE_SIZE,
                          duration=LONG, block=4096, seed=ctx.seed, max_requests=8192)
    seek4k_offsets = reference_offsets(sb, seek4k)
    ctx.state["seek_config"], ctx.state["seek_offsets"] = seek4k, seek4k_offsets
    ex_path = ctx.dir / "examples.dat"
    ex_bytes = 6 * EXAMPLE_RECORDS * sb.workloads.SORT_RECORD_BYTES

    def examples():
        with contextlib.redirect_stdout(io.StringIO()):
            return sb.cli.main(["examples", str(ex_path), str(EXAMPLE_RECORDS)])

    def row(name, c, floor, floor_label, floor_reps, **kw):
        return Row(name, "bench.run_measurement", c.max_requests, measurement(sb, c, ctx.clock),
                   floor, trial_checks(c), app_bytes=c.max_requests * c.block,
                   label=f"bench.trial_ns_per_request.{name}", floor_label=floor_label,
                   floor_reps=floor_reps, **kw)

    rows = [
        row("read_4k", read4k, pread_floor(data, 4096, reference_offsets(sb, read4k)),
            "floor.pread_ns.4k", 2),
        row("seek_read_4k", seek4k, pread_floor(data, 4096, seek4k_offsets), None, 8),
        row("seek_read_512", seek512, pread_floor(data, 512, reference_offsets(sb, seek512)),
            "floor.pread_ns.512", 8, headline=False),
        row("write_4k", write4k, pwrite_floor(wfile, 4096, reference_offsets(sb, write4k)),
            "floor.pwrite_ns.4k", 2),
        Row("examples", "cli.main", 1, examples, examples_floor(ctx),
            lambda code: [("exit_code", code == 0, f"exit {code}")], app_bytes=ex_bytes,
            floor_reps=8, label="cli.examples_s", floor_label="floor.examples_s"),
    ]
    n = 16384

    def seek_read_block():
        with sb.open_file(data, sb.OpenDisposition.OPEN, sb.Direction.READ,
                          access_hint=sb.AccessHint.RANDOM) as handle:
            buffer = bytearray(4096)
            for offset in seek4k_offsets:
                handle.seek(offset)
                handle.read_block(buffer, 4096)

    def write_block():
        with sb.open_file(wfile, sb.OpenDisposition.OPEN, sb.Direction.WRITE) as handle:
            buffer = bytes([FILL_BYTE]) * 4096
            for _ in range(8192):
                handle.write_block(buffer, 4096)
            handle.flush()

    def next_offsets(c, count):
        def run():
            rng = sb.make_rng(c.seed, 0)
            offset = 0
            for _ in range(count):
                offset = sb.next_offset(offset, c, c.file_size, rng)
        return run

    def write_sort():
        sb.write_sort_file(ex_path, SORT_RECORDS, sb.make_rng(ctx.seed, 5))

    rows += [
        Row("read_block_1b", "engine.FileHandle.read_block", n, sequential_probe(sb, data, 1, n),
            label="engine.read_block_ns.1b"),
        Row("read_block_4k", "engine.FileHandle.read_block", n,
            sequential_probe(sb, data, 4096, n), label="engine.read_block_ns.4k"),
        Row("seek_read_block_4k", "engine.FileHandle.read_block", len(seek4k_offsets),
            seek_read_block, label="engine.seek_read_block_ns.4k"),
        Row("write_block_4k", "engine.FileHandle.write_block", 8192, write_block,
            label="engine.write_block_ns.4k"),
        Row("open_file", "engine.open_file", 200, open_probe(sb, data, 200),
            label="engine.open_file_us"),
        Row("next_offset_seq", "bench.next_offset", n, next_offsets(read4k, n),
            label="bench.next_offset_ns.seq"),
        Row("next_offset_seek", "bench.next_offset", n, next_offsets(seek4k, n),
            label="bench.next_offset_ns.seek"),
        Row("examples_parts", "workloads.examples_parts", 1, examples_parts(ctx, ex_path),
            label="workloads.examples_parts_s"),
        Row("write_sort_file", "workloads.write_sort_file", 1, write_sort,
            app_bytes=SORT_RECORDS * sb.workloads.SORT_RECORD_BYTES),
    ]
    rows += [Row(f"roundtrip_{kind}", "workloads.run_write+run_read", 1, roundtrip(ctx, kind),
                 check=roundtrip_check) for kind in GRANULARITIES]
    return rows


def small_final_checks(ctx: Context, ledger) -> None:
    """Checks run once per run, traced or not."""
    sb = ctx.sb
    for kind in GRANULARITIES:
        result = ledger.call(f"roundtrip_{kind}", roundtrip(ctx, kind))
        if result is not None:
            for label, ok, detail in roundtrip_check(result):
                ledger.check(f"roundtrip_{kind}.{label}", ok, detail)
    log = ctx.dir / "offsets.log"
    cfg = ctx.state["seek_config"]
    logged = dataclasses.replace(cfg, offset_log=log)
    if ledger.call("seek offset log", measurement(sb, logged, ctx.clock)) is not None:
        issued = [int(line) for line in log.read_text().split()]
        ledger.check("seek_read_4k.offset_log", issued == ctx.state["seek_offsets"],
                     f"{len(issued)} offsets logged")


def small_metrics(ctx: Context, rows: dict[str, Row]) -> dict:
    m = {}
    for trial, probe in (("read_4k", "read_block_4k"), ("seek_read_4k", "seek_read_block_4k"),
                         ("write_4k", "write_block_4k")):
        if seq_median(rows.get(probe)) is not None:
            m[f"bench.harness_ns_per_request.{trial}"] = count(
                seq_median(rows[trial]) - seq_median(rows[probe]), "ns")
    for kind in GRANULARITIES:
        samples = rows[f"roundtrip_{kind}"].samples if f"roundtrip_{kind}" in rows else []
        for index, direction in ((0, "write"), (1, "read")):
            if samples and (kind, direction) != ("record", "write"):
                m[f"workloads.{direction}_ns_per_call.{kind}"] = stat(
                    [s.result[index].sample.wall_seconds * 1e9 / s.result[index].sample.request_count
                     for s in samples], "ns")
    if "write_sort_file" in rows:
        sort = rows["write_sort_file"]
        m["workloads.write_sort_file_mbps"] = stat(
            [sort.app_bytes * 1e3 / s.seq_ns for s in sort.samples], "MB/s")
    if seq_median(rows.get("examples_parts")) is not None:
        m["cli.row_overhead_us"] = count(
            (seq_median(rows["examples"]) - seq_median(rows["examples_parts"])) / 6 / 1e3, "us")
    return m


# -- overlap -------------------------------------------------------------------------

def overlap_setup(ctx: Context) -> None:
    write_seeded(ctx.sb, ctx.dir / "data.bin", DATA_SIZE, ctx.seed, 1)
    write_seeded(ctx.sb, ctx.dir / "copy_src.bin", COPY_SIZE, ctx.seed, 6)
    ctx.state["copy_sha256"] = sha256_of(ctx.dir / "copy_src.bin")


def copy_floor(src: Path, directory: Path, block: int):
    """Serial pread+pwrite copy into a new file of ``directory`` per call."""
    buffer = bytearray(block)
    view = memoryview(buffer)
    calls = itertools.count()

    def run():
        directory.mkdir(exist_ok=True)
        src_fd = os.open(src, os.O_RDONLY)
        dst_fd = os.open(directory / str(next(calls)), os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            offset = 0
            while got := os.preadv(src_fd, [view], offset):
                os.pwritev(dst_fd, [view[:got]], offset)
                offset += got
        finally:
            os.close(src_fd)
            os.close(dst_fd)
    return run


def overlap_rows(ctx: Context) -> list[Row]:
    sb = ctx.sb
    data = ctx.dir / "data.bin"

    def cfg(**kw):
        return sb.IoConfig(path=data, file_size=DATA_SIZE, duration=LONG, seed=ctx.seed, **kw)

    def async_row(name, c, label, floor_reps, floor_label=None, headline=True):
        return Row(name, "bench.run_measurement", c.max_requests, measurement(sb, c, ctx.clock),
                   pread_floor(data, c.block, reference_offsets(sb, c)), trial_checks(c),
                   app_bytes=c.max_requests * c.block, headline=headline, label=label,
                   floor_label=floor_label, floor_reps=floor_reps)

    def copy_row(name, block, floor_reps):
        src, dst, floor_dir = ctx.dir / "copy_src.bin", ctx.dir / f"{name}.out", \
            ctx.dir / f"{name}.floor"
        blocks = math.ceil(COPY_SIZE / block)

        def check(report):
            return [
                ("sha256", sha256_of(dst) == ctx.state["copy_sha256"], str(dst)),
                ("read_requests", report.read_requests == blocks,
                 f"{report.read_requests} of {blocks}"),
                ("write_requests", report.write_requests == blocks,
                 f"{report.write_requests} of {blocks}"),
            ]

        def reset():
            with contextlib.suppress(FileNotFoundError):
                dst.unlink()
            shutil.rmtree(floor_dir, ignore_errors=True)
        size = name.split("_")[1]
        return Row(name, "pipeline.copy_file", blocks,
                   lambda: sb.copy_file(src, dst, block=block, depth=COPY_DEPTH),
                   copy_floor(src, floor_dir, block), check, reset, app_bytes=2 * COPY_SIZE,
                   floor_reps=floor_reps, label=f"pipeline.copy_ns_per_block.{size}",
                   floor_label=f"floor.copy_ns_per_block.{size}")

    def plan():
        for _ in range(10):
            sb.plan_schedule(DATA_SIZE, 65536, COPY_DEPTH)

    return [
        async_row("async_read_4k", cfg(block=4096, async_depth=2, max_requests=1024),
                  "bench.async_ns_per_request.4k.d2", 16),
        async_row("async_read_4k_d1", cfg(block=4096, async_depth=1, max_requests=1024),
                  "bench.async_ns_per_request.4k.d1", 16, headline=False),
        async_row("async_read_64k", cfg(block=65536, async_depth=2, max_requests=512),
                  "bench.async_ns_per_request.64k.d2", 4, "floor.pread_ns.64k"),
        copy_row("copy_64k", 65536, 4),
        copy_row("copy_1m", MiB, 1),
        Row("plan_schedule", "pipeline.plan_schedule", 10, plan, label="pipeline.plan_schedule_us"),
        Row("open_file", "engine.open_file", 200, open_probe(sb, data, 200),
            label="engine.open_file_us"),
    ]


def overlap_metrics(ctx: Context, rows: dict[str, Row]) -> dict:
    m = {}
    for size in ("64k", "1m"):
        row = rows[f"copy_{size}"]
        if row.samples:
            m[f"pipeline.requests_per_block.{size}"] = count(statistics.median(
                (s.result.read_requests + s.result.write_requests) / row.units
                for s in row.samples), "1/block")
            m[f"pipeline.peak_outstanding.{size}"] = count(
                max(s.result.peak_outstanding for s in row.samples))
    return m


# -- aged-volume -----------------------------------------------------------------------

def aged_setup(ctx: Context) -> None:
    """A fresh scratch volume, aged, holding the seeded read target.

    The volume stays mounted until aged_teardown; its creation time is
    volumes.create_s.
    """
    sb = ctx.sb
    stack = contextlib.ExitStack()
    started = time.perf_counter()
    mount = stack.enter_context(sb.scratch_volume(VOLUME_SIZE))
    ctx.state.setdefault("volume_create_s", []).append(time.perf_counter() - started)
    ctx.state["volume"], ctx.state["volume_stack"] = mount, stack
    sb.run_cycles(sb.FragConfig.scaled(mount / "aged", AGE_QUOTA, seed=ctx.seed))
    write_seeded(sb, mount / "target.bin", VOLUME_FILE_SIZE, ctx.seed, 1)
    os.sync()


def aged_teardown(ctx: Context) -> None:
    stack = ctx.state.pop("volume_stack", None)
    if stack is not None:
        started = time.perf_counter()
        stack.close()
        ctx.state.setdefault("volume_teardown_s", []).append(time.perf_counter() - started)


def replay_floor(events: tuple[str, ...], root: Path):
    """Replays a fragger event log with bare os calls.

    Same files, sizes and order, the same fill byte pattern chunking,
    and a sync where each fill phase ends, as run_cycles does.
    """
    parents = sorted({str(Path(e.split()[1]).parent) for e in events})
    chunk = b"\x66" * MiB

    def run():
        for parent in parents:
            os.makedirs(root / parent, exist_ok=True)
        previous = "D"
        for event in events:
            kind, rel, size = event.split()
            if kind == "D" and previous == "C":
                os.sync()
            previous = kind
            if kind == "D":
                os.unlink(root / rel)
                continue
            fd = os.open(root / rel, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            try:
                remaining = int(size)
                while remaining > 0:
                    remaining -= os.write(fd, chunk[:min(MiB, remaining)])
            finally:
                os.close(fd)
        if previous == "C":
            os.sync()
    return run


def extension_floor(path: Path, preallocate: bool):
    block = bytes([FILL_BYTE]) * EXTEND_BLOCK

    def run():
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            if preallocate:
                os.posix_fallocate(fd, 0, EXTEND_SIZE)
            for offset in range(0, EXTEND_SIZE, EXTEND_BLOCK):
                os.pwrite(fd, block, offset)
                os.fsync(fd)
            os.fsync(fd)
        finally:
            os.close(fd)
    return run


def aged_rows(ctx: Context) -> list[Row]:
    sb = ctx.sb
    volume = ctx.state["volume"]
    target = volume / "target.bin"

    def cfg(**kw):
        return sb.IoConfig(path=target, file_size=VOLUME_FILE_SIZE, duration=LONG, block=MiB,
                           seed=ctx.seed, **kw)

    def read_row(name, c, floor_label=None):
        return Row(name, "bench.run_measurement", c.max_requests, measurement(sb, c, ctx.clock),
                   pread_floor(target, MiB, reference_offsets(sb, c), direct=c.direct),
                   trial_checks(c), app_bytes=c.max_requests * c.block,
                   label=f"bench.trial_ns_per_request.{name}", floor_label=floor_label)

    def extension_row(mode):
        name = f"extend_{mode.value}"
        path, floor_path = volume / f"{name}.dat", volume / f"{name}.floor.dat"

        def check(result):
            size = path.stat().st_size
            with sb.open_file(path, sb.OpenDisposition.OPEN, sb.Direction.READ) as handle:
                ctx.state.setdefault(f"extent_count.{mode.value}", []).append(
                    sb.count_extents(handle))
            return [("size", size == EXTEND_SIZE, f"{size} of {EXTEND_SIZE} bytes")]
        return Row(name, "bench.measure_extension", EXTEND_SIZE // EXTEND_BLOCK,
                   lambda: sb.measure_extension(path, EXTEND_SIZE, EXTEND_BLOCK, mode, trials=1,
                                                clock_ghz=ctx.clock),
                   extension_floor(floor_path, mode is sb.ExtensionMode.PREALLOCATED), check,
                   app_bytes=EXTEND_SIZE, label=f"bench.extend_ns_per_block.{mode.value}")

    churn = volume / "churn"
    churn_cfg = sb.FragConfig.scaled(churn / "seqbench", CHURN_QUOTA, seed=ctx.seed)
    events = sb.run_cycles(sb.FragConfig.scaled(churn / "reference", CHURN_QUOTA,
                                                seed=ctx.seed)).events
    shutil.rmtree(churn)

    def age_check(report):
        return [("events", report.events == events, f"{len(report.events)} events")]

    return [
        read_row("read_1m", cfg(max_requests=256), "floor.pread_ns.1m"),
        read_row("direct_read_1m", cfg(direct=True, max_requests=128)),
        extension_row(sb.ExtensionMode.INCREMENTAL),
        extension_row(sb.ExtensionMode.PREALLOCATED),
        Row("age", "fragger.run_cycles", 1, lambda: sb.run_cycles(churn_cfg),
            replay_floor(events, churn / "floor"), age_check,
            lambda: shutil.rmtree(churn, ignore_errors=True),
            app_bytes=sum(int(e.split()[2]) for e in events if e[0] == "C"),
            label="age_s", floor_label="floor.age_s"),
        Row("direct_read_block_1m", "engine.FileHandle.read_block", 64,
            sequential_probe(sb, target, MiB, 64, direct=True),
            label="engine.direct_read_block_ns.1m"),
        Row("open_file_direct", "engine.open_file", 100, open_probe(sb, target, 100, direct=True),
            label="engine.open_file_us"),
    ]


def aged_metrics(ctx: Context, rows: dict[str, Row]) -> dict:
    sb, m = ctx.sb, {}
    extensions = [(mode.value, rows[f"extend_{mode.value}"]) for mode in sb.ExtensionMode]
    if all(row.samples for _, row in extensions):
        m["extend_s"] = count(sum(seq_median(row) * row.units for _, row in extensions) / 1e9, "s")
    for mode, row in extensions:
        if row.samples:
            m[f"bench.extend_mbps.{mode}"] = stat([s.result.mb_per_sec for s in row.samples], "MB/s")
        if ctx.state.get(f"extent_count.{mode}"):
            m[f"engine.extent_count.{mode}"] = count(
                statistics.median(ctx.state[f"extent_count.{mode}"]))
    age = rows["age"].samples
    if age:
        m["fragger.files_per_s"] = stat(
            [s.result.created_files * 1e9 / s.seq_ns for s in age], "1/s")
        m["fragger.mb_written_per_s"] = stat(
            [s.result.bytes_written * 1e3 / s.seq_ns for s in age], "MB/s")
        m["fragger.created_files"] = count(age[0].result.created_files)
    for key in ("create_s", "teardown_s"):
        if ctx.state.get(f"volume_{key}"):
            m[f"volumes.{key}"] = stat(ctx.state[f"volume_{key}"], "s")
    return m


@dataclasses.dataclass(frozen=True)
class Workload:
    setup: Callable[[Context], None]
    teardown: Callable[[Context], None] | None
    rows: Callable[[Context], list[Row]]
    final_checks: Callable | None  # (ctx, ledger), once per run
    metrics: Callable[[Context, dict], dict]  # workload-only metrics from the rows


WORKLOADS = {
    "small-requests": Workload(small_setup, None, small_rows, small_final_checks, small_metrics),
    "overlap": Workload(overlap_setup, None, overlap_rows, None, overlap_metrics),
    "aged-volume": Workload(aged_setup, aged_teardown, aged_rows, None, aged_metrics),
}
