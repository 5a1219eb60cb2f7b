"""Flag grammar for all four tools and end-to-end command runs."""
import contextlib
import io
import math
import os

import pytest

import seqbench as sb
from seqbench.bench import ExtensionMode
from seqbench.cli import (
    main,
    parse_asynccopy,
    parse_examples,
    parse_fragdisk,
    parse_iospeed,
)
from seqbench.core import Direction


def run_cli(argv):
    """Invoke the command line entry and capture (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


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


def test_fragdisk_bounded_run(tmp_path):
    code, out, _ = run_cli(
        ["fragdisk", "-n1", "-c50", "-Fm4K", "-FM16K", "-f99", "-k1", str(tmp_path)]
    )
    assert code == 0
    assert "cycle" in out
    # per-cycle cap bound the fill; purge then emptied the tree
    assert "created 50" in out
