"""Flag grammar for all four tools and end-to-end command runs."""
import dataclasses
import math
import os
import re
import string
import tempfile

import pytest

import seqbench as sb
from seqbench import cli
from seqbench.bench import ExtensionMode
from seqbench.cli import (
    parse_asynccopy,
    parse_examples,
    parse_fragdisk,
    parse_iospeed,
)
from seqbench.core import Direction

from conftest import run_cli


def csv_rows(stdout):
    """Pull the CSV block (header onward) out of narrated output."""
    lines = stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("tool,"))
    return sb.from_csv("\n".join(lines[start:]))


# -- iospeed parsing -----------------------------------------------------------

def test_bare_invocation_equals_spelled_out_defaults():
    assert parse_iospeed(["a.dat"]) == parse_iospeed(
        ["-t30", "-b64K", "-r1G", "-s0", "a.dat"]
    )


def test_iospeed_default_config_values():
    inv = parse_iospeed(["a.dat"])
    cfg = inv.config
    assert cfg.direction is Direction.READ
    assert cfg.duration == 30.0
    assert cfg.block == 64 * 1024
    assert cfg.file_size == 1 << 30
    assert cfg.async_depth is None
    assert cfg.seek_pct is None
    assert cfg.direct is False
    assert cfg.touch is False
    assert inv.quiet is False
    assert inv.extension is None
    assert inv.extension_size is None


def test_usage_example_preallocate_then_timed_run():
    inv = parse_iospeed("-t60 -p100M a.dat".split())
    assert inv.extension is ExtensionMode.PREALLOCATED
    assert inv.extension_size == 100 << 20
    assert inv.config.duration == 60.0
    assert inv.config.file_size == 100 << 20  # timed phase borrows the size


def test_usage_example_write_with_bare_preallocate():
    inv = parse_iospeed("-t30 -w100M -p a.dat".split())
    assert inv.config.direction is Direction.WRITE
    assert inv.extension is ExtensionMode.PREALLOCATED
    assert inv.extension_size == 100 << 20  # bare -p borrows the -w size


def test_usage_example_shallow_async_read():
    inv = parse_iospeed("-a2 -b256K a.dat".split())
    assert inv.config.async_depth == 2
    assert inv.config.block == 256 * 1024
    assert inv.config.direction is Direction.READ


def test_bare_a_means_depth_four():
    assert parse_iospeed("-a x".split()).config.async_depth == 4


def test_bare_s_means_full_seek_and_s0_means_sequential():
    assert parse_iospeed("-s x".split()).config.seek_pct == 100
    assert parse_iospeed("-s0 x".split()).config.seek_pct is None
    assert parse_iospeed("-s10 x".split()).config.seek_pct == 10


def test_every_spelling_of_sequential_access_prints_one_row():
    """-s0, seek_pct=0 and the default config are one experiment, so one row."""
    sample = sb.ThroughputSample(4096, wall_seconds=0.5, cpu_seconds=0.25, request_count=1)
    configs = [
        parse_iospeed("-s0 -b4K x".split()).config,
        sb.IoConfig(path="x", block=4096, seek_pct=0),
        sb.IoConfig(path="x", block=4096),
    ]
    rows = {
        sb.to_csv([sb.result_row("iospeed", sb.BenchmarkResult.from_samples([sample], 1.0, cfg))])
        for cfg in configs
    }
    assert len(rows) == 1


def test_direct_touch_and_quiet_flags():
    inv = parse_iospeed("-d -c -q x".split())
    cfg = inv.config
    assert cfg.direct and cfg.touch and inv.quiet


def test_write_direction_and_size():
    cfg = parse_iospeed("-w512M x".split()).config
    assert cfg.direction is Direction.WRITE
    assert cfg.file_size == 512 << 20


def test_bare_r_keeps_default_size():
    cfg = parse_iospeed("-r x".split()).config
    assert cfg.direction is Direction.READ
    assert cfg.file_size == 1 << 30


def test_extension_only_invocation_defaults_to_1g():
    inv = parse_iospeed("-x grow.dat".split())
    assert inv.extension is ExtensionMode.INCREMENTAL
    assert inv.extension_size == 1 << 30
    assert inv.config.file_size == 1 << 30


def test_explicit_extension_size_wins_over_rw_size():
    inv = parse_iospeed("-r1G -x2G grow.dat".split())
    assert inv.extension_size == 2 << 30
    assert inv.config.file_size == 1 << 30


def test_fractional_duration_accepted():
    assert parse_iospeed("-t0.5 x".split()).config.duration == 0.5


def test_last_spelling_of_repeated_flag_wins():
    assert parse_iospeed("-b4K -b8K x".split()).config.block == 8192


@pytest.mark.parametrize(
    "tool, malformed, valid, positionals",
    [
        ("iospeed", "-tfast", "-t30", ["f"]),
        ("fragdisk", "-nX", "-n1", ["d"]),
        ("asynccopy", "-zZ", "-z1M", []),
    ],
)
def test_an_earlier_malformed_spelling_is_ignored_when_a_later_one_is_valid(
    tool, malformed, valid, positionals
):
    """Only a flag's last spelling is parsed, so one the user corrected later
    on the line is no error."""
    parse = cli._TOOLS[tool][0]
    with pytest.raises(sb.ConfigError):
        parse([malformed] + positionals)
    assert parse([malformed, valid] + positionals) == parse([valid] + positionals)


def test_seek_composes_with_async():
    cfg = parse_iospeed("-a2 -s5 x".split()).config
    assert cfg.async_depth == 2 and cfg.seek_pct == 5


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["-r1G", "-w1G", "f"], "mutually exclusive"),
        (["-x1M", "-p1M", "f"], "mutually exclusive"),
        ([], "exactly one file"),
        (["f", "g"], "exactly one file"),
        (["-b0", "f"], "block"),
        (["-b", "f"], "attached value"),
        (["-t", "f"], "attached value"),
        (["-t0", "f"], "positive"),
        (["-tfast", "f"], "seconds"),
        (["-bZZ", "f"], "size"),
        (["-a0", "f"], "depth"),
        (["-s101", "f"], "0..100"),
        (["-dx", "f"], "takes no value"),
        (["-zzz", "f"], "unknown flag"),
        (["-r1x", "f"], "size"),
    ],
)
def test_iospeed_rejects_bad_usage(argv, fragment):
    with pytest.raises(sb.ConfigError) as info:
        parse_iospeed(argv)
    assert fragment in str(info.value)


# -- fragdisk parsing --------------------------------------------------------------

def test_fragdisk_defaults_match_usage_page(tmp_path):
    cfg = parse_fragdisk([str(tmp_path)]).config
    assert cfg.max_files == 100_000
    assert cfg.min_file == 1 << 20
    assert cfg.max_file == 256 << 20
    assert cfg.files_per_cycle == 1000
    assert cfg.max_files_per_dir == 100
    assert cfg.max_subdirs == 10
    assert cfg.max_cycles == 0
    assert cfg.keep_pct == 5
    assert cfg.fill_pct == 70
    assert cfg.seed == 137
    assert cfg.root == tmp_path


def test_fragdisk_usage_example_line(tmp_path):
    cfg = parse_fragdisk(["-f95", "-k10", str(tmp_path)]).config
    assert cfg.fill_pct == 95
    assert cfg.keep_pct == 10
    assert cfg.max_files == 100_000  # rest stays defaulted


def test_fragdisk_every_override(tmp_path):
    cfg = parse_fragdisk(
        ["-m500", "-Fm2", "-FM32", "-c50", "-d20", "-s4", "-n3", "-k2", "-f60", "-r9",
         str(tmp_path)]
    ).config
    assert cfg.max_files == 500
    assert cfg.min_file == 2 << 20
    assert cfg.max_file == 32 << 20
    assert cfg.files_per_cycle == 50
    assert cfg.max_files_per_dir == 20
    assert cfg.max_subdirs == 4
    assert cfg.max_cycles == 3
    assert cfg.keep_pct == 2
    assert cfg.fill_pct == 60
    assert cfg.seed == 9


def test_fragdisk_file_sizes_bare_numbers_are_mib(tmp_path):
    cfg = parse_fragdisk(["-Fm3", "-FM64", str(tmp_path)]).config
    assert cfg.min_file == 3 << 20
    assert cfg.max_file == 64 << 20


def test_fragdisk_size_suffixes_override_mib_rule(tmp_path):
    cfg = parse_fragdisk(["-Fm128K", "-FM256K", str(tmp_path)]).config
    assert cfg.min_file == 128 * 1024
    assert cfg.max_file == 256 * 1024


def test_fragdisk_fm_and_FM_are_distinct_flags(tmp_path):
    cfg = parse_fragdisk(["-Fm2", str(tmp_path)]).config
    assert cfg.min_file == 2 << 20
    assert cfg.max_file == 256 << 20


@pytest.mark.parametrize(
    "argv, fragment",
    [
        ([], "directory"),
        (["-k70", "-f70", "/t"], "keep"),
        (["-f0", "/t"], "keep"),
        (["-Fm10", "-FM5", "/t"], "minimum file size"),
        (["-n-1", "/t"], "cycle"),
        (["-q", "/t"], "unknown flag"),
    ],
)
def test_fragdisk_rejects_bad_usage(argv, fragment):
    with pytest.raises(sb.ConfigError) as info:
        parse_fragdisk(argv)
    assert fragment in str(info.value)


# -- examples parsing -----------------------------------------------------------------

def test_examples_defaults():
    inv = parse_examples([])
    assert inv.record_count == 1_000_000
    assert inv.path.name == "io_examples_temp.dat"


def test_examples_positional_overrides(tmp_path):
    inv = parse_examples([str(tmp_path / "t.dat"), "10000"])
    assert inv.path == tmp_path / "t.dat"
    assert inv.record_count == 10_000


def test_examples_rejections():
    with pytest.raises(sb.ConfigError):
        parse_examples(["p", "-5"])
    with pytest.raises(sb.ConfigError):
        parse_examples(["p", "many"])
    with pytest.raises(sb.ConfigError):
        parse_examples(["a", "1", "extra"])
    with pytest.raises(sb.ConfigError):
        parse_examples(["-n5"])


# -- asynccopy parsing ----------------------------------------------------------------

def test_asynccopy_defaults():
    inv = parse_asynccopy([])
    assert inv.size == 1 << 30
    assert inv.block == 1 << 20
    assert inv.depth == 4
    assert inv.directory is None


def test_asynccopy_overrides(tmp_path):
    inv = parse_asynccopy(["-z16M", "-b128K", "-a8", str(tmp_path)])
    assert inv.size == 16 << 20
    assert inv.block == 128 * 1024
    assert inv.depth == 8
    assert inv.directory == tmp_path


@pytest.mark.parametrize(
    "argv",
    [["-z0"], ["-b0"], ["-a0"], ["a", "b"], ["-d4"]],
)
def test_asynccopy_rejections(argv):
    with pytest.raises(sb.ConfigError):
        parse_asynccopy(argv)


# -- exact messages and usage pages ---------------------------------------------------

@pytest.mark.parametrize(
    "tool, argv, message",
    [
        ("iospeed", ["-r1G", "-w1G", "f"], "iospeed: -r and -w are mutually exclusive"),
        ("iospeed", ["-x1M", "-p1M", "f"], "iospeed: -x and -p are mutually exclusive"),
        ("iospeed", [], "iospeed needs exactly one file path, got []"),
        ("iospeed", ["f", "g"], "iospeed needs exactly one file path, got ['f', 'g']"),
        ("iospeed", ["-b0", "f"], "iospeed: block must be at least 1 byte, got 0"),
        ("iospeed", ["-b", "f"], "iospeed: flag -b needs an attached value, like -b30"),
        ("iospeed", ["-t", "f"], "iospeed: flag -t needs an attached value, like -t30"),
        ("iospeed", ["-t0", "f"], "iospeed: duration must be finite and positive, got 0.0"),
        ("iospeed", ["-tfast", "f"], "-t: expected seconds, got 'fast'"),
        ("iospeed", ["-bZZ", "f"], "-b: unknown size suffix 'Z' in 'ZZ'"),
        ("iospeed", ["-a0", "f"], "iospeed: async depth must be at least 1, got 0"),
        ("iospeed", ["-s101", "f"], "iospeed: seek percentage must be in 0..100, got 101"),
        ("iospeed", ["-dx", "f"], "iospeed: flag -d takes no value, got '-dx'"),
        ("iospeed", ["-zzz", "f"], "iospeed: unknown flag '-zzz'"),
        ("iospeed", ["-r1x", "f"], "-r: unknown size suffix 'x' in '1x'"),
        ("fragdisk", [], "fragdisk needs exactly one directory, got []"),
        ("fragdisk", ["-k70", "-f70", "/t"],
         "fragdisk: percentages must satisfy 1 <= keep < fill <= 99, got keep=70 fill=70"),
        ("fragdisk", ["-f0", "/t"],
         "fragdisk: percentages must satisfy 1 <= keep < fill <= 99, got keep=5 fill=0"),
        ("fragdisk", ["-Fm10", "-FM5", "/t"],
         "fragdisk: minimum file size 10485760 exceeds maximum 5242880"),
        ("fragdisk", ["-n-1", "/t"], "fragdisk: max_cycles may not be negative, got -1"),
        ("fragdisk", ["-q", "/t"], "fragdisk: unknown flag '-q'"),
        ("asynccopy", ["-z0"], "asynccopy: size must be at least 1 byte, got 0"),
        ("asynccopy", ["-b0"], "asynccopy: block must be at least 1 byte, got 0"),
        ("asynccopy", ["-a0"], "asynccopy: depth must be at least 1, got 0"),
        ("asynccopy", ["a", "b"], "asynccopy takes at most one directory, got ['a', 'b']"),
        ("asynccopy", ["-d4"], "asynccopy: unknown flag '-d4'"),
        ("examples", ["p", "-5"], "examples: record count may not be negative, got -5"),
        ("examples", ["p", "many"], "examples: record count must be an integer, got 'many'"),
        ("examples", ["a", "1", "extra"],
         "examples takes at most a file and a record count, got ['a', '1', 'extra']"),
        ("examples", ["-n5"], "examples: unknown flag '-n5'"),
    ],
)
def test_each_rejection_gives_its_exact_message(tool, argv, message):
    parse = cli._TOOLS[tool][0]
    with pytest.raises(sb.ConfigError) as info:
        parse(argv)
    assert str(info.value) == message


#: A value each usage-page placeholder accepts on its own, and the
#: positionals each tool needs.
_SAMPLES = {"size": "1M", "secs": "1", "count": "2", "pct": "10", "seed": "2"}
_POSITIONALS = {"iospeed": ["f"], "fragdisk": ["d"], "examples": [], "asynccopy": []}


@pytest.mark.parametrize("tool", cli._TOOLS)
def test_usage_pages_list_exactly_the_flags_their_parsers_take(tool):
    parse, usage, _, _ = cli._TOOLS[tool]
    listed = re.findall(r"^  -([A-Za-z]+)(\[\w+\]|<\w+>)?\s", usage, re.MULTILINE)
    positionals = _POSITIONALS[tool]
    for flag, placeholder in listed:
        spellings = [f"-{flag}{_SAMPLES[placeholder[1:-1]]}"] if placeholder else [f"-{flag}"]
        if placeholder.startswith("["):
            spellings.append(f"-{flag}")
        for spelling in spellings:
            parse([spelling] + positionals)
    names = {flag for flag, _ in listed}
    candidates = list(string.ascii_letters) + ["F" + letter for letter in string.ascii_letters]
    for flag in candidates:
        if flag not in names:
            with pytest.raises(sb.ConfigError) as info:
                parse([f"-{flag}"] + positionals)
            assert str(info.value) == f"{tool}: unknown flag '-{flag}'"


# -- top-level dispatch ------------------------------------------------------------------

def test_no_arguments_prints_usage_to_stderr():
    code, out, err = run_cli([])
    assert code == 2
    assert "usage: seqbench" in err
    assert out == ""


def test_global_help_exits_zero():
    code, out, _ = run_cli(["help"])
    assert code == 0
    assert "iospeed" in out


def test_tool_help_exits_zero():
    code, out, _ = run_cli(["iospeed", "-h"])
    assert code == 0
    assert "usage: seqbench iospeed" in out


def test_unknown_tool_is_a_usage_error():
    code, _, err = run_cli(["defrag"])
    assert code == 2
    assert "unknown tool" in err


def test_parse_error_prints_tool_usage():
    code, _, err = run_cli(["iospeed", "-b0", "f"])
    assert code == 2
    assert "usage: seqbench iospeed" in err


@pytest.mark.parametrize("seconds", ["inf", "1e999", "nan"])
def test_an_endless_duration_is_a_usage_error_before_any_io(tmp_path, seconds, deadline):
    target = tmp_path / "a.dat"
    code, out, err = run_cli(["iospeed", f"-t{seconds}", "-r1M", "-b64K", "-q", str(target)])
    assert code == 2
    assert "duration must be finite and positive" in err
    assert out == ""
    assert not target.exists()


@pytest.mark.parametrize("flag", ["r", "w", "x", "p"])
def test_a_zero_file_size_is_a_usage_error_before_any_io(tmp_path, flag):
    """A 0 size is refused, not replaced by the other phase's size or by 1G."""
    other = "-p1M" if flag in "rw" else "-r1M"
    with pytest.raises(sb.ConfigError) as info:
        parse_iospeed([f"-{flag}0", other, "f"])
    assert str(info.value) == f"-{flag}: file size must be at least 1 byte, got '0'"
    target = tmp_path / "a.dat"
    target.write_bytes(b"keep")
    code, out, err = run_cli(["iospeed", f"-{flag}0", "-t0.1", "-q", str(target)])
    assert code == 2
    assert "usage: seqbench iospeed" in err
    assert out == ""
    assert target.read_bytes() == b"keep"


# -- end-to-end runs ------------------------------------------------------------------------

def test_quiet_read_emits_exactly_one_csv_row(tmp_path):
    target = tmp_path / "a.dat"
    code, out, err = run_cli(["iospeed", "-t0.1", "-b64K", "-r2M", "-q", str(target)])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    row = sb.from_csv(out)[0]
    assert row.tool == "iospeed"
    assert row.direction == "read"
    assert row.block_bytes == 65536
    assert row.trials == 1
    assert row.bytes_moved > 0
    assert err  # narration went to stderr instead


def test_loud_write_narrates_and_appends_headered_csv(tmp_path):
    target = tmp_path / "a.dat"
    code, out, err = run_cli(["iospeed", "-t0.1", "-b64K", "-w2M", str(target)])
    assert code == 0
    rows = csv_rows(out)
    assert rows[0].direction == "write"
    assert err == ""


def test_extension_run_emits_extend_row_then_timed_row(tmp_path):
    target = tmp_path / "grow.dat"
    code, out, _ = run_cli(["iospeed", "-t0.1", "-b256K", "-x4M", "-q", str(target)])
    assert code == 0
    rows = sb.from_csv(out)
    assert [r.tool for r in rows] == ["iospeed-extend", "iospeed"]
    assert rows[0].direction == "write"
    assert rows[0].bytes_moved == 4 << 20
    assert target.stat().st_size == 4 << 20


def test_io_failure_exits_one_and_names_the_path(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "f.dat"
    code, _, err = run_cli(["iospeed", "-t0.1", "-r1M", "-q", str(missing)])
    assert code == 1
    assert str(missing.parent) in err or str(missing) in err


def test_a_runner_config_error_exits_two_and_run_takes_only_invocations(tmp_path, monkeypatch):
    monkeypatch.setenv("SEQBENCH_CLOCK_GHZ", "junk")
    target = tmp_path / "a.dat"
    code, out, err = run_cli(["iospeed", "-t0.1", "-r1M", str(target)])
    assert (code, out, err) == (2, "", "error: SEQBENCH_CLOCK_GHZ='junk' is not a number\n")
    assert not target.exists()
    with pytest.raises(TypeError, match="not an invocation: 'iospeed'"):
        cli.run("iospeed")


def test_examples_run_emits_six_rows(tmp_path):
    target = tmp_path / "ex.dat"
    code, out, _ = run_cli(["examples", str(target), "1000"])
    assert code == 0
    rows = csv_rows(out)
    assert len(rows) == 6
    assert [r.direction for r in rows] == ["write"] * 3 + ["read"] * 3
    # byte and block cells move the whole payload; line rows use block 0
    assert {r.block_bytes for r in rows} == {1, 65536, 0}
    for row in rows:
        if row.direction == "write" or row.block_bytes != 0:
            assert row.bytes_moved == 100 * 1000


def test_examples_rows_derive_rate_and_cost_from_their_own_sample(tmp_path):
    code, out, _ = run_cli(["examples", str(tmp_path / "ex.dat"), "1000"])
    assert code == 0
    for row in csv_rows(out):
        assert row.tool == "examples" and row.trials == 1 and row.stddev == 0.0
        assert not row.direct and row.async_depth is None and row.seek_pct is None
        assert row.mb_per_sec == row.bytes_moved / 1e6 / row.wall_s
        assert row.ns_per_byte == row.cpu_s * 1e9 / row.bytes_moved


@pytest.mark.parametrize("fails", [False, True], ids=["pass", "fail"])
def test_examples_without_a_file_removes_its_scratch_file(tmp_path, monkeypatch, capsys, fails):
    """With no file named, the run's file and its directory go when it ends,
    pass or fail; a file named on the command line stays."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    if fails:
        def no_reads(path, granularity):
            raise OSError(5, "read failed", str(path))

        monkeypatch.setattr(cli, "run_read", no_reads)
    invocation = dataclasses.replace(parse_examples([]), record_count=1000)
    assert cli.run(invocation) == (1 if fails else 0)
    assert f"workload matrix on {tmp_path / 'examples_'}" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
    named = tmp_path / "named" / "io_examples_temp.dat"
    named.parent.mkdir()
    assert cli.run(parse_examples([str(named), "1000"])) == (1 if fails else 0)
    assert named.stat().st_size == 100 * 1000


def test_examples_with_zero_records_emits_six_empty_rows(tmp_path):
    code, out, _ = run_cli(["examples", str(tmp_path / "ex.dat"), "0"])
    assert code == 0
    rows = csv_rows(out)
    assert len(rows) == 6
    for row in rows:
        assert row.bytes_moved == 0
        assert row.mb_per_sec == 0.0
        assert math.isnan(row.ns_per_byte) and math.isnan(row.cycles_per_byte)


def test_asynccopy_run_verifies_and_cleans_up(tmp_path):
    code, out, _ = run_cli(["asynccopy", "-z1M", "-b64K", "-a2", str(tmp_path)])
    assert code == 0
    assert "verified" in out
    assert list(tmp_path.iterdir()) == []


def test_asynccopy_without_a_directory_cleans_up_its_scratch_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    code, out, _ = run_cli(["asynccopy", "-z1M", "-b64K", "-a2"])
    assert code == 0
    assert "verified" in out
    assert f"creating {tmp_path / 'asynccopy_'}" in out
    assert list(tmp_path.iterdir()) == []


def test_asynccopy_replaces_stale_files_and_removes_them(tmp_path):
    for name in ("asynccopy_src.dat", "asynccopy_dst.dat"):
        (tmp_path / name).write_bytes(b"stale")
    code, out, _ = run_cli(["asynccopy", "-z1M", "-b64K", "-a2", str(tmp_path)])
    assert code == 0
    assert f"creating {tmp_path / 'asynccopy_src.dat'} (1048576 bytes)" in out
    assert "verified" in out
    assert list(tmp_path.iterdir()) == []


def test_asynccopy_into_a_missing_directory_fails_and_leaves_nothing(tmp_path):
    missing = tmp_path / "acdir" / "sub"
    code, _, err = run_cli(["asynccopy", "-z1M", "-b64K", "-a2", str(missing)])
    assert code == 1
    assert str(missing) in err
    assert list(tmp_path.iterdir()) == []


def test_asynccopy_catches_a_misplaced_block(tmp_path, monkeypatch):
    real_copy = sb.cli.copy_file

    def swap_first_two_blocks(src, dst, **kw):
        report = real_copy(src, dst, **kw)
        data = dst.read_bytes()
        dst.write_bytes(data[1 << 20 : 2 << 20] + data[: 1 << 20] + data[2 << 20 :])
        return report

    monkeypatch.setattr(sb.cli, "copy_file", swap_first_two_blocks)
    code, out, err = run_cli(["asynccopy", "-z4M", "-b1M", "-a2", str(tmp_path)])
    assert code == 1
    assert "verification failed" in err
    assert "verified" not in out
    assert list(tmp_path.iterdir()) == []


def test_a_fan_out_of_1_is_a_usage_error_before_any_file(tmp_path, deadline):
    """A fan-out of 1 holds only the root leaf, so a run that needs more leaves
    is refused rather than left planning its tree forever."""
    code, out, err = run_cli(["fragdisk", "-s1", "-n1", str(tmp_path)])
    assert code == 2
    assert "fragdisk: max_subdirs must be at least 2, got 1" in err
    assert out == "" and list(tmp_path.iterdir()) == []


def test_fragdisk_bounded_run(tmp_path):
    code, out, _ = run_cli(
        ["fragdisk", "-n1", "-c50", "-Fm4K", "-FM16K", "-f99", "-k1", str(tmp_path)]
    )
    assert code == 0
    assert "cycle" in out
    # per-cycle cap bound the fill; purge then emptied the tree
    assert "created 50" in out
