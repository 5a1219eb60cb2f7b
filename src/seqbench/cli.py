"""Command line front end: one ``seqbench`` command, four tools.

    seqbench iospeed    timed read/write measurement of one file
    seqbench fragdisk   age a volume with create/delete churn
    seqbench examples   byte/line/block workload timing matrix
    seqbench asynccopy  overlapped copy self-test

Flag style follows the classic single-dash, attached-value convention
(``-t30``, ``-b64K``, ``-Fm2M``): values are glued to the flag, flags
cannot be combined, and matching is case-sensitive with the longest flag
name winning (so ``-Fm`` and ``-FM`` are distinct).  Size values accept
the K/M/G binary suffixes, case-insensitively.  Every flag-taking tool
has one table, ``{flag: (field, parser, bare)}``, which ``_scan`` walks;
what is left in a tool's parser belongs to that tool alone.

Exit codes: 0 success, 1 runtime I/O failure, 2 bad usage or config.
"""
from __future__ import annotations

import contextlib
import hashlib
import itertools
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from . import pipeline, workloads
from .bench import (
    DEFAULT_ASYNC_DEPTH,
    DEFAULT_FILE_SIZE,
    BenchmarkResult,
    ExtensionMode,
    IoConfig,
    detect_clock_ghz,
    measure_extension,
    run_measurement,
)
from .core import DEFAULT_SEED, Direction, OpenDisposition, make_rng, parse_size
from .engine import FlushLevel, open_file, write_chunks
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
  -s<count>  maximum subdirectories per directory, at least 2 (default 10)
  -n<count>  cycles to run; 0 means until interrupted (default 0)
  -k<pct>    keep percentage after deleting (default 5)
  -f<pct>    fill percentage while creating (default 70)
  -r<seed>   random seed (default 137)
  -l<path>   write each create and delete to this file as it happens (default none)

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

The directory must exist; it defaults to a fresh temp directory."""


@dataclass(frozen=True)
class IospeedInvocation:
    config: IoConfig
    extension: ExtensionMode | None = None
    extension_size: int | None = None
    quiet: bool = False


@dataclass(frozen=True)
class ExamplesInvocation:
    """With ``scratch`` (no file named), the run writes a file named
    ``path.name`` in a fresh temp directory and removes both at its end."""

    path: Path
    record_count: int
    scratch: bool = False


@dataclass(frozen=True)
class AsyncCopyInvocation:
    size: int = DEFAULT_FILE_SIZE
    block: int = pipeline.DEFAULT_BLOCK
    depth: int = pipeline.DEFAULT_DEPTH
    directory: Path | None = None

    def __post_init__(self):
        if self.size < 1:
            raise ConfigError(f"size must be at least 1 byte, got {self.size}")
        if self.block < 1:
            raise ConfigError(f"block must be at least 1 byte, got {self.block}")
        if self.depth < 1:
            raise ConfigError(f"depth must be at least 1, got {self.depth}")


#: Markers for a flag table's ``bare`` column, which otherwise holds the
#: value a flag given with no value stands for: a switch takes no value and
#: stands for True; a flag that needs a value has no bare form.
_SWITCH, _NEEDS_VALUE = object(), object()


def _scan(args, table: dict, tool: str):
    """Split argv into {field: parsed value} for the given flags, and positionals.

    ``table`` maps each flag to ``(field, parser, bare)``.  Longest-name,
    case-sensitive matching; a repeated flag's last spelling wins, like most
    of the tools this mimics.  Only that spelling is parsed, after the whole
    scan, so an earlier malformed one is ignored.
    """
    names = sorted(table, key=len, reverse=True)
    given: dict[str, str] = {}
    positionals: list[str] = []
    for token in args:
        if not token.startswith("-") or token == "-":
            positionals.append(token)
            continue
        rest = token[1:]
        name = next((name for name in names if rest.startswith(name)), None)
        if name is None:
            raise ConfigError(f"{tool}: unknown flag {token!r}")
        value = rest[len(name) :]
        bare = table[name][2]
        if bare is _SWITCH and value:
            raise ConfigError(f"{tool}: flag -{name} takes no value, got {token!r}")
        if bare is _NEEDS_VALUE and not value:
            raise ConfigError(f"{tool}: flag -{name} needs an attached value, like -{name}30")
        given[name] = value
    values = {}
    for name, text in given.items():
        field, parse, bare = table[name]
        values[field] = parse(text, name) if text else (True if bare is _SWITCH else bare)
    return values, positionals


def _size(text: str, flag: str) -> int:
    try:
        return parse_size(text)
    except SizeParseError as exc:
        raise ConfigError(f"-{flag}: {exc}") from None


def _file_size(text: str, flag: str) -> int:
    """A size for -r/-w/-x/-p: a file of 0 bytes times nothing."""
    size = _size(text, flag)
    if size == 0:
        raise ConfigError(f"-{flag}: file size must be at least 1 byte, got {text!r}")
    return size


def _number(convert, expected: str):
    """A flag value parser: ``convert``, or an error naming the ``expected`` form."""
    def parse(text: str, flag: str):
        try:
            return convert(text)
        except ValueError:
            raise ConfigError(f"-{flag}: expected {expected}, got {text!r}") from None

    return parse


_int, _seconds = _number(int, "an integer"), _number(float, "seconds")


def _size_mb_default(text: str, flag: str) -> int:
    """Fragdisk file sizes: bare numbers are MiB, suffixes override."""
    if text.isascii() and text.isdigit():
        return int(text) << 20
    return _size(text, flag)


def _either(values: dict, first, second, flags: str):
    """Which field of a mutually exclusive pair was given, if either."""
    if first in values and second in values:
        raise ConfigError(f"iospeed: {flags} are mutually exclusive")
    return first if first in values else second if second in values else None


def _build(tool: str, kind, **values):
    """``kind(**values)``, with its range errors reported under the tool's name."""
    try:
        return kind(**values)
    except ValueError as exc:
        raise ConfigError(f"{tool}: {exc}") from None


#: iospeed flag -> (field, value parser, bare).  The fields of -r/-w and
#: -x/-p are the modes they pick; a bare one stands for "no size given".
_IOSPEED_FLAGS = {
    "r": (Direction.READ, _file_size, None),
    "w": (Direction.WRITE, _file_size, None),
    "x": (ExtensionMode.INCREMENTAL, _file_size, None),
    "p": (ExtensionMode.PREALLOCATED, _file_size, None),
    "t": ("duration", _seconds, _NEEDS_VALUE),
    "b": ("block", _size, _NEEDS_VALUE),
    "a": ("async_depth", _int, DEFAULT_ASYNC_DEPTH),
    "d": ("direct", None, _SWITCH),
    "s": ("seek_pct", _int, 100),
    "c": ("touch", None, _SWITCH),
    "q": ("quiet", None, _SWITCH),
}

#: fragdisk flag -> (FragConfig field, value parser, bare); every flag needs a value.
_FRAGDISK_FLAGS = {
    "m": ("max_files", _int, _NEEDS_VALUE),
    "Fm": ("min_file", _size_mb_default, _NEEDS_VALUE),
    "FM": ("max_file", _size_mb_default, _NEEDS_VALUE),
    "c": ("files_per_cycle", _int, _NEEDS_VALUE),
    "d": ("max_files_per_dir", _int, _NEEDS_VALUE),
    "s": ("max_subdirs", _int, _NEEDS_VALUE),
    "n": ("max_cycles", _int, _NEEDS_VALUE),
    "k": ("keep_pct", _int, _NEEDS_VALUE),
    "f": ("fill_pct", _int, _NEEDS_VALUE),
    "r": ("seed", _int, _NEEDS_VALUE),
    "l": ("event_log", lambda text, flag: Path(text), _NEEDS_VALUE),
}

#: asynccopy flag -> (AsyncCopyInvocation field, value parser, bare); every flag needs a value.
_ASYNCCOPY_FLAGS = {
    "z": ("size", _size, _NEEDS_VALUE),
    "b": ("block", _size, _NEEDS_VALUE),
    "a": ("depth", _int, _NEEDS_VALUE),
}


def parse_iospeed(args) -> IospeedInvocation:
    values, positionals = _scan(args, _IOSPEED_FLAGS, "iospeed")
    if len(positionals) != 1:
        raise ConfigError(f"iospeed needs exactly one file path, got {positionals!r}")
    direction = _either(values, Direction.READ, Direction.WRITE, "-r and -w") or Direction.READ
    extension = _either(values, ExtensionMode.INCREMENTAL, ExtensionMode.PREALLOCATED, "-x and -p")
    # Bare forms borrow the other phase's explicit size; with neither
    # spelled out, both default to 1G.
    rw_size, ext_size = values.pop(direction, None), values.pop(extension, None)
    if extension is not None:
        ext_size = ext_size or rw_size or DEFAULT_FILE_SIZE
    quiet = values.pop("quiet", False)
    # Ranges (duration, depth, seek percentage) are IoConfig's to check;
    # absent flags take its defaults.
    config = _build(
        "iospeed",
        IoConfig,
        path=Path(positionals[0]),
        direction=direction,
        file_size=rw_size or ext_size or DEFAULT_FILE_SIZE,
        **values,
    )
    return IospeedInvocation(config, extension, ext_size, quiet)


def parse_fragdisk(args) -> FragConfig:
    values, positionals = _scan(args, _FRAGDISK_FLAGS, "fragdisk")
    if len(positionals) != 1:
        raise ConfigError(f"fragdisk needs exactly one directory, got {positionals!r}")
    return _build("fragdisk", FragConfig, root=Path(positionals[0]), **values)


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
    path = Path(positionals[0] if positionals else "io_examples_temp.dat")
    count = 1_000_000
    if len(positionals) == 2:
        try:
            count = int(positionals[1])
        except ValueError:
            raise ConfigError(f"examples: record count must be an integer, got {positionals[1]!r}") from None
        if count < 0:
            raise ConfigError(f"examples: record count may not be negative, got {count}")
    return ExamplesInvocation(path, count, scratch=not positionals)


def parse_asynccopy(args) -> AsyncCopyInvocation:
    values, positionals = _scan(args, _ASYNCCOPY_FLAGS, "asynccopy")
    if len(positionals) > 1:
        raise ConfigError(f"asynccopy takes at most one directory, got {positionals!r}")
    directory = Path(positionals[0]) if positionals else None
    return _build("asynccopy", AsyncCopyInvocation, directory=directory, **values)


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


def _run_fragdisk(cfg: FragConfig) -> int:
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
    with contextlib.ExitStack() as cleanup:
        path = inv.path
        if inv.scratch:
            path = Path(cleanup.enter_context(
                tempfile.TemporaryDirectory(prefix="examples_", ignore_cleanup_errors=True)
            ), path.name)
        total = inv.record_count * SORT_RECORD_BYTES
        block = workloads.DEFAULT_BLOCK
        rng = make_rng(DEFAULT_SEED)
        clock = detect_clock_ghz()
        print(f"workload matrix on {path}: {inv.record_count} records, {total} bytes")
        cells = (  # (direction, block_bytes, what one call moves, workload), in run order
            ("write", 1, "one byte per call", lambda: run_write(path, ByteAtATime(), total, rng)),
            ("write", block, "64K blocks (builds the sort input file)",
             lambda: write_sort_file(path, inv.record_count, rng, io_block=block)),
            ("write", 0, "one line per call", lambda: run_write(path, LineAtATime(), total, rng)),
            ("read", 1, "one byte per call", lambda: run_read(path, ByteAtATime())),
            ("read", 0, "one line per call", lambda: run_read(path, LineAtATime())),
            ("read", block, "64K blocks", lambda: run_read(path, BlockAtATime(block))),
        )
        rows = []
        for direction, block_bytes, unit, workload in cells:
            print(f"  {direction}, {unit}")
            result = BenchmarkResult.from_samples([workload().sample], clock)
            rows.append(result_row("examples", result, direction=direction, block_bytes=block_bytes))
        sys.stdout.write(to_csv(rows))
        return 0


def _sha256(path: Path) -> tuple[int, str]:
    """The byte count and SHA-256 of what reading ``path`` gives."""
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as stream:
        while chunk := stream.read(1 << 20):
            digest.update(chunk)
            size += len(chunk)
    return size, digest.hexdigest()


def _run_asynccopy(inv: AsyncCopyInvocation) -> int:
    with contextlib.ExitStack() as cleanup:
        directory = inv.directory or Path(cleanup.enter_context(
            tempfile.TemporaryDirectory(prefix="asynccopy_", ignore_cleanup_errors=True)
        ))
        src = directory / "asynccopy_src.dat"
        dst = directory / "asynccopy_dst.dat"

        @cleanup.callback
        def remove_files():
            for path in (src, dst):
                with contextlib.suppress(OSError):
                    path.unlink()

        for stale in (src, dst):
            stale.unlink(missing_ok=True)
        print(f"creating {src} ({inv.size} bytes)")
        # Every chunk is fresh seeded data: with one chunk repeated, a block
        # copied to the wrong place could still match the source.
        chunks = map(make_rng(DEFAULT_SEED).bytes, itertools.repeat(1 << 20))
        with open_file(src, OpenDisposition.CREATE_NEW, Direction.WRITE) as handle:
            write_chunks(handle.fileno(), chunks, 0, inv.size)
            handle.flush(FlushLevel.OPERATING_SYSTEM_CACHE)
        print(f"copying with {inv.depth} x {inv.block} byte requests in flight")
        report = copy_file(src, dst, block=inv.block, depth=inv.depth)
        rate = report.bytes_copied / 1e6 / report.wall_time if report.wall_time else 0.0
        print(
            f"  copied {report.bytes_copied} bytes in {report.wall_time:.3f}s "
            f"({rate:.2f} MB/s, {report.read_requests} reads, "
            f"{report.write_requests} writes, peak {report.peak_outstanding} in flight)"
        )
        source, copied = _sha256(src), _sha256(dst)
        if source[0] != inv.size:  # two empty reads would match
            raise ToolkitError(
                f"copy verification failed: read {source[0]} of {inv.size} source bytes"
            )
        if copied != source:
            raise ToolkitError("copy verification failed: source and destination differ")
        print("  verified: destination matches source")
        return 0


#: The tools: name -> (parser, usage page, invocation type, runner).
_TOOLS = {
    "iospeed": (parse_iospeed, IOSPEED_USAGE, IospeedInvocation, _run_iospeed),
    "fragdisk": (parse_fragdisk, FRAGDISK_USAGE, FragConfig, _run_fragdisk),
    "examples": (parse_examples, EXAMPLES_USAGE, ExamplesInvocation, _run_examples),
    "asynccopy": (parse_asynccopy, ASYNCCOPY_USAGE, AsyncCopyInvocation, _run_asynccopy),
}


def run(invocation) -> int:
    """Execute a parsed invocation; returns the process exit code."""
    for _, _, kind, runner in _TOOLS.values():
        if isinstance(invocation, kind):
            break
    else:
        raise TypeError(f"not an invocation: {invocation!r}")
    try:
        return runner(invocation)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


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
    parser, usage, _, _ = entry
    if any(arg in ("-h", "--help") for arg in args[1:]):
        print(usage)
        return 0
    try:
        invocation = parser(args[1:])
    except ConfigError as exc:
        print(f"error: {exc}\n\n{usage}", file=sys.stderr)
        return 2
    return run(invocation)
