"""Volume aging: tree planning, churn cycles, determinism, occupancy targets."""
import itertools
import math
import os
import shutil
from pathlib import Path

import pytest

import seqbench as sb
from seqbench import fragger
from seqbench.fragger import FragConfig

from conftest import open_fds


# -- config validation ------------------------------------------------------

def test_defaults_match_the_documented_table(tmp_path):
    cfg = FragConfig(root=tmp_path)
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


@pytest.mark.parametrize(
    "overrides",
    [
        {"keep_pct": 70, "fill_pct": 70},
        {"keep_pct": 80, "fill_pct": 70},
        {"keep_pct": 0},
        {"fill_pct": 100},
        {"min_file": 2 << 20, "max_file": 1 << 20},
        {"min_file": 0},
        {"max_files": 0},
        {"files_per_cycle": 0},
        {"max_files_per_dir": 0},
        {"max_subdirs": 0},
        {"max_cycles": -1},
    ],
)
def test_config_rejects_invalid_values(tmp_path, overrides):
    with pytest.raises((sb.ConfigError, ValueError)):
        FragConfig(root=tmp_path, **overrides)


def test_scaled_mode_shrinks_sizes_with_quota(tmp_path):
    cfg = FragConfig.scaled(tmp_path, capacity_limit=8 << 20)
    assert cfg.capacity_limit == 8 << 20
    assert cfg.min_file <= cfg.max_file <= 8 << 20
    assert cfg.max_cycles > 0  # desk-scale runs are bounded


# -- tree planning -------------------------------------------------------------

def test_single_leaf_when_few_slots_needed(tmp_path):
    cfg = FragConfig(root=tmp_path, min_file=1 << 20, fill_pct=70)
    plan = sb.plan_directory_tree(cfg, volume_capacity=100 << 20)
    # 70 slots fit into one directory of 100
    assert plan.leaf_count == 1
    assert plan.depth == 1
    assert plan.slots == 70


def test_thousand_slots_make_ten_leaves_depth_two(tmp_path):
    cfg = FragConfig(
        root=tmp_path, min_file=1 << 20, fill_pct=50,
        max_files_per_dir=100, max_subdirs=10,
    )
    # 50% of 2000 MiB in 1 MiB slots is exactly 1000
    plan = sb.plan_directory_tree(cfg, volume_capacity=2000 << 20)
    assert plan.slots == 1000
    assert plan.leaf_count == 10
    assert plan.depth == 2


def test_default_plan_for_250_gb_volume(tmp_path):
    cfg = FragConfig(root=tmp_path)
    plan = sb.plan_directory_tree(cfg, volume_capacity=250 * 10**9)
    needed = min(math.ceil(0.70 * 250 * 10**9 / (1 << 20)), cfg.max_files)
    assert plan.slots == needed
    assert plan.leaf_count * cfg.max_files_per_dir >= plan.slots
    assert plan.leaf_count == math.ceil(needed / cfg.max_files_per_dir)


def test_plan_respects_subdir_fanout(tmp_path):
    cfg = FragConfig(
        root=tmp_path, min_file=4096, fill_pct=50,
        max_files_per_dir=2, max_subdirs=3,
    )
    plan = sb.plan_directory_tree(cfg, volume_capacity=4096 * 1000)
    # every level of every leaf path stays inside the fanout limit
    for leaf in plan.leaves:
        for part in leaf.parts:
            if part != ".":
                assert int(part.lstrip("d0") or 0) < 3
    assert plan.leaf_count <= 3 ** (plan.depth - 1)
    assert plan.leaf_count * 2 >= plan.slots


def test_slots_never_exceed_max_files(tmp_path):
    cfg = FragConfig(root=tmp_path, max_files=50, min_file=4096)
    plan = sb.plan_directory_tree(cfg, volume_capacity=1 << 30)
    assert plan.slots == 50


# -- run_cycles -----------------------------------------------------------------

def _scaled(tmp_path, **overrides):
    overrides.setdefault("seed", 7)
    return FragConfig.scaled(tmp_path, capacity_limit=8 << 20, **overrides)


def test_two_runs_same_seed_identical_logs(tmp_path):
    root = tmp_path / "aged"
    reports = []
    for _ in range(2):
        if root.exists():
            shutil.rmtree(root)
        root.mkdir()
        reports.append(sb.run_cycles(_scaled(root)))
    first, second = reports
    assert list(first.events) == list(second.events)
    assert list(first.survivors) == list(second.survivors)
    assert first.created_files == second.created_files
    assert first.cycles_run == second.cycles_run == 2


def test_different_seed_different_history(tmp_path):
    a_root, b_root = tmp_path / "a", tmp_path / "b"
    a_root.mkdir(), b_root.mkdir()
    a = sb.run_cycles(_scaled(a_root, seed=1))
    b = sb.run_cycles(_scaled(b_root, seed=2))
    assert list(a.events) != list(b.events)


def test_census_matches_files_on_disk(tmp_path):
    report = sb.run_cycles(_scaled(tmp_path))
    on_disk = {}
    for dirpath, _, filenames in os.walk(tmp_path):
        for name in filenames:
            full = os.path.join(dirpath, name)
            on_disk[os.path.relpath(full, tmp_path)] = os.path.getsize(full)
    assert {str(p): s for p, s in report.survivors} == on_disk
    assert report.live_bytes == sum(on_disk.values())


def test_census_sizes_within_configured_bounds(tmp_path):
    cfg = _scaled(tmp_path)
    report = sb.run_cycles(cfg)
    assert report.created_files > 0
    for _, size in report.survivors:
        assert cfg.min_file <= size <= cfg.max_file


def test_deleted_never_exceeds_created(tmp_path):
    report = sb.run_cycles(_scaled(tmp_path))
    assert report.deleted_files <= report.created_files
    assert report.bytes_deleted <= report.bytes_written


def test_event_log_grammar_and_replay(tmp_path):
    """Events are `C|D <relpath> <bytes>` and replay to the final census."""
    report = sb.run_cycles(_scaled(tmp_path))
    live = {}
    for event in report.events:
        op, rel, size = event.split(" ")
        assert op in ("C", "D")
        if op == "C":
            assert rel not in live
            live[rel] = int(size)
        else:
            assert live.pop(rel) == int(size)
    assert live == {str(p): s for p, s in report.survivors}


def test_event_log_file_streams_the_same_records(tmp_path):
    root = tmp_path / "aged"
    root.mkdir()
    log = tmp_path / "events.log"
    report = sb.run_cycles(_scaled(root, event_log=log))
    assert log.read_text().splitlines() == list(report.events)


def test_occupancy_brackets_targets_at_phase_boundaries(tmp_path):
    cfg = _scaled(tmp_path)
    report = sb.run_cycles(cfg)
    assert report.boundaries
    for boundary in report.boundaries:
        if boundary.phase == "fill":
            # stopped at the first file pushing past the target (or a cap)
            assert boundary.occupancy <= boundary.target + cfg.max_file
        else:
            assert boundary.occupancy <= boundary.target + cfg.max_file
            floor = max(boundary.target - cfg.max_file, report.base_used)
            assert boundary.occupancy >= floor - cfg.max_file


def test_structural_limits_hold_on_disk(tmp_path):
    cfg = _scaled(tmp_path, max_files_per_dir=5, max_subdirs=3)
    sb.run_cycles(cfg)
    for dirpath, dirnames, filenames in os.walk(tmp_path):
        assert len(dirnames) <= 3
        assert len(filenames) <= 5


def test_max_files_cap_binds(tmp_path):
    cfg = _scaled(tmp_path, max_files=3)
    report = sb.run_cycles(cfg)
    live = 0
    for event in report.events:
        live += 1 if event.startswith("C") else -1
        assert live <= 3


def test_quota_exhaustion_triggers_early_purge_note(tmp_path):
    # quota so small that the fill target is unreachable
    cfg = FragConfig.scaled(tmp_path, capacity_limit=1 << 20, seed=3)
    tight = FragConfig(
        root=tmp_path, capacity_limit=cfg.capacity_limit,
        min_file=cfg.min_file, max_file=cfg.max_file,
        fill_pct=98, keep_pct=1, max_cycles=1, seed=3,
        files_per_cycle=10_000,
    )
    report = sb.run_cycles(tight)
    assert report.cycles_run == 1
    # the live set can never exceed the quota
    assert report.live_bytes <= tight.capacity_limit


def test_final_fill_percentage_reported(tmp_path):
    cfg = _scaled(tmp_path)
    report = sb.run_cycles(cfg)
    assert 0.0 <= report.final_fill_pct <= 100.0


# -- short and stalled writes --------------------------------------------------


def _files_on_disk(root):
    found = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            full = Path(dirpath) / name
            found[str(full.relative_to(root))] = full.stat().st_size
    return found


def test_short_writes_are_continued_to_the_recorded_size(tmp_path, monkeypatch):
    """Every write moves at most half its bytes; survivors still reach full size."""
    real_write, real_pwritev = os.write, os.pwritev

    def half_write(fd, data):
        view = memoryview(data)
        return real_write(fd, view[: max(1, len(view) // 2)])

    def half_pwritev(fd, buffers, offset):
        view = memoryview(buffers[0])
        return real_pwritev(fd, [view[: max(1, len(view) // 2)]], offset)

    monkeypatch.setattr(os, "write", half_write)
    monkeypatch.setattr(os, "pwritev", half_pwritev)
    report = sb.run_cycles(_scaled(tmp_path))
    assert report.survivors
    assert _files_on_disk(tmp_path) == {str(p): s for p, s in report.survivors}


def test_files_hold_the_fill_pattern_across_chunks(tmp_path):
    cfg = FragConfig(
        root=tmp_path, min_file=(1 << 20) + 1, max_file=3 << 20, files_per_cycle=4,
        max_cycles=1, keep_pct=50, fill_pct=90, capacity_limit=16 << 20, seed=7,
    )
    report = sb.run_cycles(cfg)
    assert report.survivors
    for rel, size in report.survivors:
        assert (tmp_path / rel).read_bytes() == b"\x66" * size


def test_stalled_write_raises_and_leaves_nothing_behind(tmp_path, short_then_zero):
    root = tmp_path / "aged"
    log = tmp_path / "events.log"
    short_then_zero("pwritev")
    with pytest.raises(OSError, match="no progress"):
        sb.run_cycles(_scaled(root, event_log=log))
    assert _files_on_disk(root) == {}
    assert log.read_text() == ""


def test_a_full_disk_ends_the_run_and_leaves_only_what_it_reports(tmp_path, enospc_at, deadline):
    """Every write from the sixth on fails: the file it hit is removed, and each
    later fill phase ends at its first file."""
    root = tmp_path / "aged"
    log = tmp_path / "events.log"
    before = open_fds()
    enospc_at(6)
    report = sb.run_cycles(_scaled(root, event_log=log))
    assert report.created_files > 0
    assert report.cycles_run == 2
    assert any("volume full" in note for note in report.notes)
    assert _files_on_disk(root) == {str(p): s for p, s in report.survivors}
    assert log.read_text().splitlines() == list(report.events)
    assert open_fds() == before


def test_an_interrupt_mid_write_ends_the_run_and_leaves_only_what_it_reports(
    tmp_path, monkeypatch, deadline
):
    """Ctrl-C ends an unbounded run; here it lands halfway through the fifth
    file, which must go with its descriptor, unrecorded."""
    root = tmp_path / "aged"
    log = tmp_path / "events.log"
    real = fragger.write_chunks
    calls = itertools.count(1)

    def interrupted(fd, chunks, offset, length):
        if next(calls) == 5:
            real(fd, chunks, offset, length // 2)
            raise KeyboardInterrupt
        real(fd, chunks, offset, length)

    monkeypatch.setattr(fragger, "write_chunks", interrupted)
    before = open_fds()
    report = sb.run_cycles(_scaled(root, event_log=log, max_cycles=0))
    assert "interrupted, stopping after partial cycle" in report.notes
    assert report.created_files == 4
    assert _files_on_disk(root) == {str(p): s for p, s in report.survivors}
    assert log.read_text().splitlines() == list(report.events)
    assert open_fds() == before
