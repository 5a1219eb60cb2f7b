"""Command line front end: one ``seqbench`` command, four tools.

    seqbench iospeed    timed read/write measurement of one file
    seqbench fragdisk   age a volume with create/delete churn
    seqbench examples   byte/line/block workload timing matrix
    seqbench asynccopy  overlapped copy self-test

Flag style follows the classic single-dash, attached-value convention
(``-t30``, ``-b64K``, ``-Fm2M``): values are glued to the flag, flags
cannot be combined, and matching is case-sensitive with the longest flag
name winning (so ``-Fm`` and ``-FM`` are distinct).  Size values accept
the K/M/G binary suffixes, case-insensitively.

Exit codes: 0 success, 1 runtime I/O failure, 2 bad usage or config.
"""
from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .bench import (
    DEFAULT_ASYNC_DEPTH,
    BenchmarkResult,
    ExtensionMode,
    IoConfig,
    detect_clock_ghz,
    measure_extension,
    run_measurement,
)
from .core import DEFAULT_SEED, Direction, OpenDisposition, make_rng, parse_size
from .engine import FlushLevel, open_file
from .errors import ConfigError, SizeParseError, ToolkitError
from .fragger import FragConfig, run_cycles
from .pipeline import copy_file
from .report import ResultRow, result_row, to_csv
from .workloads import (
    BlockAtATime,
    ByteAtATime,
    LineAtATime,
    SORT_RECORD_BYTES,
    run_read,
    run_write,
    write_sort_file,
)

__all__ = [
    "IospeedInvocation",
    "FragdiskInvocation",
    "ExamplesInvocation",
    "AsyncCopyInvocation",
    "parse_iospeed",
    "parse_fragdisk",
    "parse_examples",
    "parse_asynccopy",
    "run",
    "main",
]

GLOBAL_USAGE = """\
usage: seqbench <tool> [options]

tools:
  iospeed     timed sequential/seeking read or write of one file
  fragdisk    fragment a volume's free space with create/delete churn
  examples    time byte-, line- and block-granularity workloads
  asynccopy   create a file, copy it with overlapped requests, verify

Run "seqbench <tool> -h" for that tool's options."""

IOSPEED_USAGE = """\
usage: seqbench iospeed [options] <file>

  -r[size]   timed read test; size of the target file (default 1G)
  -w[size]   timed write test (overwrites in place); same size rules
  -t<secs>   seconds per timed test (default 30)
  -b<size>   bytes per request (default 64K)
  -a[count]  overlapped requests in flight (bare -a means 4)
  -d         disable caching: direct, sector-aligned transfers
  -s[pct]    seek between requests, max distance pct of file (bare -s
             means 100; -s0 or omitted means pure sequential)
  -x[size]   first grow the file to size with synchronous appends
  -p[size]   like -x but preallocate the full length up front
  -c         touch every byte in memory instead of discarding buffers
  -q         quiet: CSV row only on stdout, narration to stderr

Sizes take binary K/M/G suffixes (64K = 65536).  Values attach to the
flag: -t30, -b256K.  One of -r/-w picks the timed direction (default
read); -x/-p run before it and reuse its size when bare, and vice versa.

examples:
  seqbench iospeed a.dat
  seqbench iospeed -t30 -b64K -r1G -s0 a.dat    (same as the line above)
  seqbench iospeed -t60 -p100M a.dat
  seqbench iospeed -t30 -w100M -p a.dat
  seqbench iospeed -a2 -b256K a.dat"""

FRAGDISK_USAGE = """\
usage: seqbench fragdisk [options] <directory>

Creates files of random size until the volume is -f percent full, then
deletes a random subset until only -k percent is used, and repeats.

  -m<count>  maximum live files (default 100000)
  -Fm<size>  minimum file size; bare numbers mean MiB (default 1)
  -FM<size>  maximum file size; bare numbers mean MiB (default 256)
  -c<count>  files created per cycle (default 1000)
  -d<count>  maximum files per directory (default 100)
  -s<count>  maximum subdirectories per directory (default 10)
  -n<count>  cycles to run; 0 means until interrupted (default 0)
  -k<pct>    keep percentage after deleting (default 5)
  -f<pct>    fill percentage while creating (default 70)
  -r<seed>   random seed (default 137)

example:
  seqbench fragdisk -f95 -k10 /mnt/scratch"""

EXAMPLES_USAGE = """\
usage: seqbench examples [file] [record-count]

Times write then read of the same data at one byte, one line and one
64K block per call.  The block-granularity write builds the standard
100-byte-record sort input file.  Defaults: a file in the system temp
directory, 1000000 records (100 bytes each).

example:
  seqbench examples /tmp/test.dat 10000000"""

ASYNCCOPY_USAGE = """\
usage: seqbench asynccopy [options] [directory]

Creates a source file, copies it with a ring of overlapped requests,
verifies the copy byte for byte, and deletes both files.

  -z<size>   source file size (default 1G)
  -b<size>   bytes per request (default 1M)
  -a<count>  requests in flight (default 4)

The directory defaults to a fresh temp directory."""


@dataclass(frozen=True)
class IospeedInvocation:
    config: IoConfig
    extension: ExtensionMode | None = None
    extension_size: int | None = None
    quiet: bool = False


@dataclass(frozen=True)
class FragdiskInvocation:
    config: FragConfig


@dataclass(frozen=True)
class ExamplesInvocation:
    path: Path
    record_count: int


@dataclass(frozen=True)
class AsyncCopyInvocation:
    size: int = 1 << 30
    block: int = 1 << 20
    depth: int = DEFAULT_ASYNC_DEPTH
    directory: Path | None = None


_BARE, _OPTIONAL, _REQUIRED = "bare", "optional", "required"

_IOSPEED_FLAGS = {
    "r": _OPTIONAL,
    "w": _OPTIONAL,
    "t": _REQUIRED,
    "b": _REQUIRED,
    "a": _OPTIONAL,
    "d": _BARE,
    "s": _OPTIONAL,
    "x": _OPTIONAL,
    "p": _OPTIONAL,
    "c": _BARE,
    "q": _BARE,
}

_ASYNCCOPY_FLAGS = {"z": _REQUIRED, "b": _REQUIRED, "a": _REQUIRED}


def _scan(args, flags: dict[str, str], tool: str):
    """Split argv into {flag: attached value or None} and positionals.

    Longest-name, case-sensitive matching; a repeated flag's last
    spelling wins, like most of the tools this mimics.
    """
    names = sorted(flags, key=len, reverse=True)
    found: dict[str, str | None] = {}
    positionals: list[str] = []
    for token in args:
        if not token.startswith("-") or token == "-":
            positionals.append(token)
            continue
        rest = token[1:]
        for name in names:
            if rest.startswith(name):
                value = rest[len(name) :]
                kind = flags[name]
                if kind == _BARE and value:
                    raise ConfigError(f"{tool}: flag -{name} takes no value, got {token!r}")
                if kind == _REQUIRED and not value:
                    raise ConfigError(f"{tool}: flag -{name} needs an attached value, like -{name}30")
                found[name] = value or None
                break
        else:
            raise ConfigError(f"{tool}: unknown flag {token!r}")
    return found, positionals


def _size(text: str, flag: str) -> int:
    try:
        return parse_size(text)
    except SizeParseError as exc:
        raise ConfigError(f"-{flag}: {exc}") from None


def _int(text: str, flag: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"-{flag}: expected an integer, got {text!r}") from None


def parse_iospeed(args) -> IospeedInvocation:
    found, positionals = _scan(args, _IOSPEED_FLAGS, "iospeed")
    if len(positionals) != 1:
        raise ConfigError(f"iospeed needs exactly one file path, got {positionals!r}")
    if "r" in found and "w" in found:
        raise ConfigError("iospeed: -r and -w are mutually exclusive")
    if "x" in found and "p" in found:
        raise ConfigError("iospeed: -x and -p are mutually exclusive")

    rw_text = found.get("r") if "r" in found else found.get("w")
    rw_size = _size(rw_text, "r" if "r" in found else "w") if rw_text else None
    extension = None
    ext_size = None
    if "x" in found or "p" in found:
        flag = "x" if "x" in found else "p"
        extension = ExtensionMode.INCREMENTAL if flag == "x" else ExtensionMode.PREALLOCATED
        ext_size = _size(found[flag], flag) if found[flag] else None

    # Bare forms borrow the other phase's explicit size; with neither
    # spelled out, both default to 1G.
    file_size = rw_size or ext_size or (1 << 30)
    if extension is not None:
        ext_size = ext_size or rw_size or (1 << 30)

    duration = 30.0
    if "t" in found:
        try:
            duration = float(found["t"])
        except ValueError:
            raise ConfigError(f"-t: expected seconds, got {found['t']!r}") from None
        if not duration > 0:
            raise ConfigError(f"-t: duration must be positive, got {found['t']!r}")

    block = _size(found["b"], "b") if "b" in found else 64 * 1024
    depth = None
    if "a" in found:
        depth = _int(found["a"], "a") if found["a"] else DEFAULT_ASYNC_DEPTH
        if depth < 1:
            raise ConfigError(f"-a: depth must be at least 1, got {depth}")
    seek = None
    if "s" in found:
        seek = _int(found["s"], "s") if found["s"] else 100
        if not 0 <= seek <= 100:
            raise ConfigError(f"-s: percentage must be in 0..100, got {seek}")
        if seek == 0:
            seek = None  # -s0 spells sequential out loud

    try:
        config = IoConfig(
            path=Path(positionals[0]),
            direction=Direction.WRITE if "w" in found else Direction.READ,
            file_size=file_size,
            duration=duration,
            block=block,
            async_depth=depth,
            direct="d" in found,
            seek_pct=seek,
            touch="c" in found,
        )
    except ConfigError as exc:
        raise ConfigError(f"iospeed: {exc}") from None
    return IospeedInvocation(config, extension, ext_size if extension else None, "q" in found)


def _size_mb_default(text: str, flag: str) -> int:
    """Fragdisk file sizes: bare numbers are MiB, suffixes override."""
    if text.isascii() and text.isdigit():
        return int(text) << 20
    return _size(text, flag)


#: fragdisk flag -> (FragConfig field, value parser); every flag needs a value.
_FRAGDISK_FIELDS = {
    "m": ("max_files", _int),
    "Fm": ("min_file", _size_mb_default),
    "FM": ("max_file", _size_mb_default),
    "c": ("files_per_cycle", _int),
    "d": ("max_files_per_dir", _int),
    "s": ("max_subdirs", _int),
    "n": ("max_cycles", _int),
    "k": ("keep_pct", _int),
    "f": ("fill_pct", _int),
    "r": ("seed", _int),
}

_FRAGDISK_FLAGS = {name: _REQUIRED for name in _FRAGDISK_FIELDS}


def parse_fragdisk(args) -> FragdiskInvocation:
    found, positionals = _scan(args, _FRAGDISK_FLAGS, "fragdisk")
    if len(positionals) != 1:
        raise ConfigError(f"fragdisk needs exactly one directory, got {positionals!r}")
    values = dict(root=Path(positionals[0]))
    for flag, (field, parse) in _FRAGDISK_FIELDS.items():
        if flag in found:
            values[field] = parse(found[flag], flag)
    try:
        config = FragConfig(**values)
    except ValueError as exc:
        raise ConfigError(f"fragdisk: {exc}") from None
    return FragdiskInvocation(config)


def parse_examples(args) -> ExamplesInvocation:
    # No flags.  A bare negative number is someone's record count; let it
    # through so the range check can name the real problem.
    positionals = []
    for token in args:
        if token.startswith("-") and token != "-" and not token[1:].isdigit():
            raise ConfigError(f"examples: unknown flag {token!r}")
        positionals.append(token)
    if len(positionals) > 2:
        raise ConfigError(f"examples takes at most a file and a record count, got {positionals!r}")
    path = Path(positionals[0]) if positionals else Path(tempfile.gettempdir()) / "io_examples_temp.dat"
    count = 1_000_000
    if len(positionals) == 2:
        try:
            count = int(positionals[1])
        except ValueError:
            raise ConfigError(f"examples: record count must be an integer, got {positionals[1]!r}") from None
        if count < 0:
            raise ConfigError(f"examples: record count may not be negative, got {count}")
    return ExamplesInvocation(path, count)


def parse_asynccopy(args) -> AsyncCopyInvocation:
    found, positionals = _scan(args, _ASYNCCOPY_FLAGS, "asynccopy")
    if len(positionals) > 1:
        raise ConfigError(f"asynccopy takes at most one directory, got {positionals!r}")
    size = _size(found["z"], "z") if "z" in found else 1 << 30
    block = _size(found["b"], "b") if "b" in found else 1 << 20
    depth = _int(found["a"], "a") if "a" in found else DEFAULT_ASYNC_DEPTH
    if size < 1:
        raise ConfigError(f"asynccopy: size must be at least 1 byte, got {size}")
    if block < 1:
        raise ConfigError(f"asynccopy: block must be at least 1 byte, got {block}")
    if depth < 1:
        raise ConfigError(f"asynccopy: depth must be at least 1, got {depth}")
    directory = Path(positionals[0]) if positionals else None
    return AsyncCopyInvocation(size, block, depth, directory)


# -- execution -------------------------------------------------------------

def _human_rate(row: ResultRow) -> str:
    cost = "" if row.bytes_moved == 0 else f", {row.ns_per_byte:.2f} ns/byte"
    if row.cycles_per_byte == row.cycles_per_byte and row.bytes_moved:  # not NaN
        cost += f" ({row.cycles_per_byte:.2f} cycles)"
    return f"{row.mb_per_sec:.2f} MB/s{cost}"


def _run_iospeed(inv: IospeedInvocation) -> int:
    cfg = inv.config
    human = sys.stderr if inv.quiet else sys.stdout
    clock = detect_clock_ghz()
    rows = []
    if inv.extension is not None:
        print(
            f"extending {cfg.path} to {inv.extension_size} bytes "
            f"({inv.extension.value}, {cfg.block} byte synchronous writes)",
            file=human,
        )
        result = measure_extension(
            cfg.path, inv.extension_size, cfg.block, inv.extension, trials=1, clock_ghz=clock
        )
        row = result_row("iospeed-extend", result, block_bytes=cfg.block)
        rows.append(row)
        print(f"  extension: {_human_rate(row)}", file=human)
    print(
        f"{cfg.direction.value} test: {cfg.path}, {cfg.file_size} bytes, "
        f"{cfg.block} byte requests, {cfg.duration:g}s"
        + (", direct" if cfg.direct else "")
        + (f", {cfg.async_depth} in flight" if cfg.async_depth else "")
        + (f", seek {cfg.seek_pct}%" if cfg.seek_pct else ""),
        file=human,
    )
    result = run_measurement(cfg, trials=1, warmup=0, clock_ghz=clock)
    row = result_row("iospeed", result)
    rows.append(row)
    print(f"  {cfg.direction.value}: {_human_rate(row)}", file=human)
    sys.stdout.write(to_csv(rows, header=not inv.quiet))
    return 0


def _run_fragdisk(inv: FragdiskInvocation) -> int:
    cfg = inv.config
    report = run_cycles(cfg)
    mode = "quota" if cfg.capacity_limit else "volume"
    print(f"aged {cfg.root} ({mode} capacity {report.capacity} bytes)")
    print(
        f"  {report.cycles_run} cycle(s): created {report.created_files} files "
        f"({report.bytes_written} bytes), deleted {report.deleted_files} "
        f"({report.bytes_deleted} bytes)"
    )
    print(
        f"  surviving: {len(report.survivors)} files, {report.live_bytes} bytes, "
        f"volume {report.final_fill_pct:.1f}% full"
    )
    for note in report.notes:
        print(f"  note: {note}")
    return 0


def _run_examples(inv: ExamplesInvocation) -> int:
    path = inv.path
    total = inv.record_count * SORT_RECORD_BYTES
    block = 64 * 1024
    rng = make_rng(DEFAULT_SEED)
    clock = detect_clock_ghz()
    print(f"workload matrix on {path}: {inv.record_count} records, {total} bytes")
    rows = []

    def row(direction: str, block_bytes: int, workload) -> None:
        result = BenchmarkResult.from_samples([workload.sample], clock)
        rows.append(result_row("examples", result, direction=direction, block_bytes=block_bytes))

    print("  write, one byte per call")
    row("write", 1, run_write(path, ByteAtATime(), total, rng))
    print("  write, 64K blocks (builds the sort input file)")
    row("write", block, write_sort_file(path, inv.record_count, rng, io_block=block))
    print("  write, one line per call")
    row("write", 0, run_write(path, LineAtATime(), total, rng))
    print("  read, one byte per call")
    row("read", 1, run_read(path, ByteAtATime()))
    print("  read, one line per call")
    row("read", 0, run_read(path, LineAtATime()))
    print("  read, 64K blocks")
    row("read", block, run_read(path, BlockAtATime(block)))

    sys.stdout.write(to_csv(rows))
    return 0


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        while True:
            chunk = stream.read(1 << 20)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def _run_asynccopy(inv: AsyncCopyInvocation) -> int:
    made_directory = inv.directory is None
    directory = Path(tempfile.mkdtemp(prefix="asynccopy_")) if made_directory else inv.directory
    directory.mkdir(parents=True, exist_ok=True)
    src = directory / "asynccopy_src.dat"
    dst = directory / "asynccopy_dst.dat"
    try:
        for stale in (src, dst):
            if stale.exists():
                stale.unlink()
        print(f"creating {src} ({inv.size} bytes)")
        chunk = os.urandom(min(1 << 20, inv.size))
        with open_file(src, OpenDisposition.CREATE_NEW, Direction.WRITE) as handle:
            written = 0
            while written < inv.size:
                step = min(len(chunk), inv.size - written)
                handle.write_block(chunk, step)
                written += step
            handle.flush(FlushLevel.OPERATING_SYSTEM_CACHE)
        print(f"copying with {inv.depth} x {inv.block} byte requests in flight")
        report = copy_file(src, dst, block=inv.block, depth=inv.depth)
        rate = report.bytes_copied / 1e6 / report.wall_time if report.wall_time else 0.0
        print(
            f"  copied {report.bytes_copied} bytes in {report.wall_time:.3f}s "
            f"({rate:.2f} MB/s, {report.read_requests} reads, "
            f"{report.write_requests} writes, peak {report.peak_outstanding} in flight)"
        )
        if _sha256(src) != _sha256(dst):
            raise ToolkitError("copy verification failed: source and destination differ")
        print("  verified: destination matches source")
        return 0
    finally:
        for path in (src, dst):
            try:
                path.unlink()
            except OSError:
                pass
        if made_directory:
            try:
                directory.rmdir()
            except OSError:
                pass


def run(invocation) -> int:
    """Execute a parsed invocation; returns the process exit code."""
    try:
        if isinstance(invocation, IospeedInvocation):
            return _run_iospeed(invocation)
        if isinstance(invocation, FragdiskInvocation):
            return _run_fragdisk(invocation)
        if isinstance(invocation, ExamplesInvocation):
            return _run_examples(invocation)
        if isinstance(invocation, AsyncCopyInvocation):
            return _run_asynccopy(invocation)
        raise TypeError(f"not an invocation: {invocation!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


_TOOLS = {
    "iospeed": (parse_iospeed, IOSPEED_USAGE),
    "fragdisk": (parse_fragdisk, FRAGDISK_USAGE),
    "examples": (parse_examples, EXAMPLES_USAGE),
    "asynccopy": (parse_asynccopy, ASYNCCOPY_USAGE),
}


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args:
        print(GLOBAL_USAGE, file=sys.stderr)
        return 2
    if args[0] in ("-h", "--help", "help"):
        print(GLOBAL_USAGE)
        return 0
    tool = args[0]
    entry = _TOOLS.get(tool)
    if entry is None:
        print(f"error: unknown tool {tool!r}\n\n{GLOBAL_USAGE}", file=sys.stderr)
        return 2
    parser, usage = entry
    if any(arg in ("-h", "--help") for arg in args[1:]):
        print(usage)
        return 0
    try:
        invocation = parser(args[1:])
    except ConfigError as exc:
        print(f"error: {exc}\n\n{usage}", file=sys.stderr)
        return 2
    return run(invocation)
