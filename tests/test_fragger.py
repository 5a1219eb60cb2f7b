"""Volume aging: tree planning, churn cycles, determinism, occupancy targets."""
import errno
import hashlib
import itertools
import math
import os
import shutil
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import seqbench as sb
from seqbench import fragger
from seqbench.fragger import FragConfig, _plan_directory_tree

from conftest import files_on_disk, golden_text, open_fds, replay


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
        {"seed": -1},
        {"capacity_limit": 0},
        {"max_subdirs": 1},  # holds only the root leaf
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
    leaves = _plan_directory_tree(cfg, volume_capacity=100 << 20)
    # 70 slots fit into one directory of 100
    assert [leaf.parts for leaf in leaves] == [()]  # the root itself


def test_thousand_slots_make_ten_leaves_depth_two(tmp_path):
    cfg = FragConfig(
        root=tmp_path, min_file=1 << 20, fill_pct=50,
        max_files_per_dir=100, max_subdirs=10,
    )
    # 50% of 2000 MiB in 1 MiB slots is exactly 1000
    leaves = _plan_directory_tree(cfg, volume_capacity=2000 << 20)
    assert len(leaves) == 10
    assert {len(leaf.parts) for leaf in leaves} == {1}  # one level below the root


def test_default_plan_for_250_gb_volume(tmp_path):
    cfg = FragConfig(root=tmp_path)
    leaves = _plan_directory_tree(cfg, volume_capacity=250 * 10**9)
    needed = min(math.ceil(0.70 * 250 * 10**9 / (1 << 20)), cfg.max_files)
    assert len(leaves) * cfg.max_files_per_dir >= needed
    assert len(leaves) == math.ceil(needed / cfg.max_files_per_dir)


def test_plan_respects_subdir_fanout(tmp_path):
    cfg = FragConfig(
        root=tmp_path, min_file=4096, fill_pct=50,
        max_files_per_dir=2, max_subdirs=3,
    )
    leaves = _plan_directory_tree(cfg, volume_capacity=4096 * 1000)
    # every level of every leaf path stays inside the fanout limit
    for leaf in leaves:
        for part in leaf.parts:
            if part != ".":
                assert int(part.lstrip("d0") or 0) < 3
    (levels,) = {len(leaf.parts) for leaf in leaves}
    assert len(leaves) <= 3**levels
    assert len(leaves) * 2 >= 500  # half the capacity in min_file files


@given(
    capacity=st.integers(1, 1 << 52),
    fill_pct=st.integers(2, 99),
    min_file=st.integers(1, 1 << 44),
    max_files=st.integers(1, 3000),
    max_files_per_dir=st.integers(1, 300),
    max_subdirs=st.integers(2, 16),
)
def test_the_tree_has_room_for_every_file_a_run_holds_live(
    capacity, fill_pct, min_file, max_files, max_files_per_dir, max_subdirs
):
    """run_cycles creates a file only while fewer than max_files are live and the
    occupancy is below the fill target, and each live file holds at least
    min_file bytes.  So fewer than min(max_files, ceil(fill_target / min_file))
    files are live when one is created, and the tree's leaves hold that many:
    the least-loaded leaf always has room."""
    cfg = FragConfig(
        root=Path("aging"), min_file=min_file, max_file=min_file, max_files=max_files,
        max_files_per_dir=max_files_per_dir, max_subdirs=max_subdirs, keep_pct=1,
        fill_pct=fill_pct,
    )
    fill_target = capacity * fill_pct // 100  # as run_cycles computes it
    most_live = min(max_files, -(-fill_target // min_file))
    leaves = _plan_directory_tree(cfg, capacity)
    assert len(leaves) * max_files_per_dir >= most_live


def test_slots_never_exceed_max_files(tmp_path):
    cfg = FragConfig(root=tmp_path, max_files=50, min_file=4096)
    leaves = _plan_directory_tree(cfg, volume_capacity=1 << 30)
    assert [leaf.parts for leaf in leaves] == [()]  # 50 files fit in the root


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


# -- golden histories -------------------------------------------------------------

#: The runs of tests/golden/fragger_events_<name>.sha256: a tree of one leaf,
#: the root itself, and one of 36 leaves two directories deep (d0/d0 .. d3/d5).
_GOLDEN_TREES = {
    "single_leaf": {"max_files_per_dir": 1000},
    "three_level": {"max_files_per_dir": 20, "max_subdirs": 10},
}


def _history_digests(root, log, **overrides):
    """sha256 of a seeded run's event log, its survivors, the sorted paths of
    the files it left, and those files' bytes in that order."""
    report = sb.run_cycles(_scaled(root, event_log=log, **overrides))
    paths = sorted(files_on_disk(root))
    contents = hashlib.sha256()
    for rel in paths:
        contents.update((root / rel).read_bytes())
    return {
        "events": hashlib.sha256(log.read_bytes()).hexdigest(),
        "survivors": hashlib.sha256(repr(report.survivors).encode()).hexdigest(),
        "paths": hashlib.sha256("\n".join(paths).encode()).hexdigest(),
        "contents": contents.hexdigest(),
    }


@pytest.mark.parametrize("tree", _GOLDEN_TREES)
def test_a_seeded_history_matches_its_golden_digests(tmp_path, tree):
    """Events, survivors, paths and file bytes are the same on every version."""
    root = tmp_path / "aged"
    got = _history_digests(root, tmp_path / "events.log", **_GOLDEN_TREES[tree])
    want = dict(line.split()[::-1] for line in golden_text(f"fragger_events_{tree}.sha256").splitlines())
    assert got == want


# -- file contents ------------------------------------------------------------

def test_files_hold_the_fill_pattern_across_chunks(tmp_path):
    cfg = FragConfig(
        root=tmp_path, min_file=(1 << 20) + 1, max_file=3 << 20, files_per_cycle=4,
        max_cycles=1, keep_pct=50, fill_pct=90, capacity_limit=16 << 20, seed=7,
    )
    report = sb.run_cycles(cfg)
    assert report.survivors
    for rel, size in report.survivors:
        assert (tmp_path / rel).read_bytes() == b"\x66" * size


@pytest.mark.parametrize(
    "min_file, max_file",
    [((2 << 20) + 12345, (2 << 20) + 12345), (4097, 300_001)],
    ids=["beyond-a-chunk", "ragged-under-the-chunk"],
)
def test_every_file_reads_back_as_the_fill_byte(tmp_path, min_file, max_file):
    """Files of two chunks and a ragged tail, and files cut short of a chunk
    sized to the largest file."""
    cfg = FragConfig(
        root=tmp_path, min_file=min_file, max_file=max_file, files_per_cycle=6,
        max_cycles=1, keep_pct=50, fill_pct=90, capacity_limit=24 << 20, seed=7,
    )
    report = sb.run_cycles(cfg)
    assert report.survivors
    for rel, size in report.survivors:
        assert size % 4096
        assert (tmp_path / rel).read_bytes() == b"\x66" * size


@pytest.mark.parametrize("files_per_cycle", [1, 40])
def test_the_fill_chunk_is_built_once_per_run(tmp_path, monkeypatch, files_per_cycle):
    chunks = []
    real = fragger._write_file

    def spy(path, size, chunk):
        chunks.append(chunk)
        return real(path, size, chunk)

    monkeypatch.setattr(fragger, "_write_file", spy)
    report = sb.run_cycles(_scaled(tmp_path, files_per_cycle=files_per_cycle))
    assert report.created_files >= 2 * files_per_cycle
    assert len({id(chunk) for chunk in chunks}) == 1  # one object for every file
    assert chunks[0] == b"\x66" * min(1 << 20, _scaled(tmp_path).max_file)


def test_a_failed_write_whose_file_cannot_be_removed_raises_the_write_failure(
    tmp_path, monkeypatch, faults
):
    """The first create's write fails and so does its clean-up unlink: the run
    raises the write's error, keeps no descriptor, and leaves that empty file,
    which its event log never recorded."""
    def refused(path):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

    root, log = tmp_path / "aged", tmp_path / "events.log"
    before = open_fds()
    monkeypatch.setattr(fragger.os, "unlink", refused)
    with faults("pwritev", errno.EIO), pytest.raises(OSError) as info:
        sb.run_cycles(_scaled(root, event_log=log))
    assert info.value.errno == errno.EIO
    assert open_fds() == before
    assert log.read_text() == ""
    assert list(files_on_disk(root).values()) == [0]


def _interrupt_fifth(monkeypatch, point):
    """Raise KeyboardInterrupt at ``point`` of the fifth file write or delete."""
    calls = itertools.count(1)
    if point == "mid-write":
        real = fragger.write_chunks

        def interrupted(fd, chunks, offset, length):
            if next(calls) == 5:
                real(fd, chunks, offset, length // 2)
                raise KeyboardInterrupt
            real(fd, chunks, offset, length)

        monkeypatch.setattr(fragger, "write_chunks", interrupted)
        return
    owner, name = (fragger, "_write_file") if point == "as-write-returns" else (fragger.os, "unlink")
    real = getattr(owner, name)

    def interrupted(*args):
        fifth = next(calls) == 5
        if fifth and point == "before-unlink":
            raise KeyboardInterrupt
        real(*args)
        if fifth:
            raise KeyboardInterrupt

    monkeypatch.setattr(owner, name, interrupted)


#: interrupt point -> (files created, files deleted) by the run it ends;
#: None stands for every file of the first fill phase.
_INTERRUPTS = {
    "mid-write": (4, 0),
    "as-write-returns": (4, 0),
    "before-unlink": (None, 4),
    "as-unlink-returns": (None, 5),
}


@pytest.mark.parametrize("point", _INTERRUPTS)
def test_an_interrupt_mid_write_ends_the_run_and_leaves_only_what_it_reports(
    tmp_path, monkeypatch, deadline, point
):
    """Ctrl-C ends an unbounded run; here it lands in the fifth file write or
    delete.  A file whose create was not recorded goes with its descriptor,
    and a delete that reached the disk is recorded.  The run's history is
    in its event log alone: the report's counts agree with the log, and it
    holds no events."""
    created, deleted = _INTERRUPTS[point]
    if created is None:
        created = sb.run_cycles(_scaled(tmp_path / "reference", max_cycles=1)).created_files
    root = tmp_path / "aged"
    log = tmp_path / "events.log"
    _interrupt_fifth(monkeypatch, point)
    before = open_fds()
    report = sb.run_cycles(_scaled(root, event_log=log, max_cycles=0))
    assert "interrupted, stopping after partial cycle" in report.notes
    assert report.created_files == created
    assert report.deleted_files == deleted
    assert files_on_disk(root) == {str(p): s for p, s in report.survivors}
    assert report.events == ()
    events = log.read_text().splitlines()
    for op, files, moved in (("C", created, report.bytes_written), ("D", deleted, report.bytes_deleted)):
        sizes = [int(event.split(" ")[2]) for event in events if event[0] == op]
        assert (len(sizes), sum(sizes)) == (files, moved)
    assert open_fds() == before
    assert replay(events) == files_on_disk(root)
    assert report.live_bytes == sum(size for _, size in report.survivors)
