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
    DEFAULT_BLOCK,
    DEFAULT_DURATION,
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
  -s<count>  maximum subdirectories per directory, at least 2 (default 10)
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

The directory must exist; it defaults to a fresh temp directory."""


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


def _value(found, flag, parse, bare=None, absent=None):
    """``flag``'s value read by ``parse``: ``bare`` if it has none, ``absent`` if not given."""
    if flag not in found:
        return absent
    text = found[flag]
    return bare if text is None else parse(text, flag)


def _given(*values):
    """The first of ``values`` that is not None."""
    return next(value for value in values if value is not None)


def _values(found, table) -> dict:
    """Keyword values for the given flags of a ``{flag: (field, parser)}`` table."""
    return {field: parse(found[flag], flag) for flag, (field, parse) in table.items() if flag in found}


def _either(found, first: str, second: str) -> str | None:
    """Which flag of a mutually exclusive pair was given, if either."""
    if first in found and second in found:
        raise ConfigError(f"iospeed: -{first} and -{second} are mutually exclusive")
    return first if first in found else second if second in found else None


def _build(tool: str, kind, **values):
    """``kind(**values)``, with its range errors reported under the tool's name."""
    try:
        return kind(**values)
    except ValueError as exc:
        raise ConfigError(f"{tool}: {exc}") from None


def parse_iospeed(args) -> IospeedInvocation:
    found, positionals = _scan(args, _IOSPEED_FLAGS, "iospeed")
    if len(positionals) != 1:
        raise ConfigError(f"iospeed needs exactly one file path, got {positionals!r}")
    timed = _either(found, "r", "w")
    grow = _either(found, "x", "p")
    rw_size = _value(found, timed, _file_size)
    ext_size = _value(found, grow, _file_size)
    extension = {"x": ExtensionMode.INCREMENTAL, "p": ExtensionMode.PREALLOCATED}.get(grow)
    # Ranges (duration, depth, seek percentage) are IoConfig's to check.
    config = _build(
        "iospeed",
        IoConfig,
        path=Path(positionals[0]),
        direction=Direction.WRITE if timed == "w" else Direction.READ,
        # Bare forms borrow the other phase's explicit size; with neither
        # spelled out, both default to 1G.
        file_size=_given(rw_size, ext_size, DEFAULT_FILE_SIZE),
        duration=_value(found, "t", _seconds, absent=DEFAULT_DURATION),
        block=_value(found, "b", _size, absent=DEFAULT_BLOCK),
        async_depth=_value(found, "a", _int, bare=DEFAULT_ASYNC_DEPTH),
        direct="d" in found,
        seek_pct=_value(found, "s", _int, bare=100) or None,  # -s0 spells sequential out loud
        touch="c" in found,
    )
    if extension is not None:
        ext_size = _given(ext_size, rw_size, DEFAULT_FILE_SIZE)
    return IospeedInvocation(config, extension, ext_size, "q" in found)


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

#: asynccopy flag -> (AsyncCopyInvocation field, value parser); every flag needs a value.
_ASYNCCOPY_FIELDS = {"z": ("size", _size), "b": ("block", _size), "a": ("depth", _int)}


def parse_fragdisk(args) -> FragdiskInvocation:
    found, positionals = _scan(args, dict.fromkeys(_FRAGDISK_FIELDS, _REQUIRED), "fragdisk")
    if len(positionals) != 1:
        raise ConfigError(f"fragdisk needs exactly one directory, got {positionals!r}")
    values = _values(found, _FRAGDISK_FIELDS)
    return FragdiskInvocation(_build("fragdisk", FragConfig, root=Path(positionals[0]), **values))


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
    found, positionals = _scan(args, dict.fromkeys(_ASYNCCOPY_FIELDS, _REQUIRED), "asynccopy")
    if len(positionals) > 1:
        raise ConfigError(f"asynccopy takes at most one directory, got {positionals!r}")
    values = _values(found, _ASYNCCOPY_FIELDS)
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
    "fragdisk": (parse_fragdisk, FRAGDISK_USAGE, FragdiskInvocation, _run_fragdisk),
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
