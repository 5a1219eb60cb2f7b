"""Measurement core: offsets, summaries, accounting, extension timing."""
import collections
import contextlib
import dataclasses
import errno
import gc
import io
import itertools
import math
import mmap
import os
import pathlib
import signal
import statistics
import sys
import threading
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from conftest import (
    SHORT, ZERO, Interrupt, lingering_threads, offset_chain, open_fds, os_threads, proc_io,
)
from hypothesis import given, settings, strategies as st

import seqbench as sb
from seqbench.bench import CLOCK_ENV_VAR, IoConfig, ThroughputSample
from seqbench.core import Direction
from seqbench.engine import IoMode
from seqbench.workloads import SORT_RECORD_BYTES


def _cfg(tmp_path, **kw):
    kw.setdefault("path", tmp_path / "bench.dat")
    kw.setdefault("file_size", 1 << 20)
    kw.setdefault("duration", 10.0)
    kw.setdefault("block", 4096)
    return IoConfig(**kw)


# -- IoConfig validation ------------------------------------------------------

@pytest.mark.parametrize(
    "overrides",
    [
        {"block": 0},
        {"file_size": 1024, "block": 4096},
        {"duration": 0.0},
        {"duration": -1.0},
        {"async_depth": 0},
        {"seek_pct": 101},
        {"seek_pct": -1},
        {"max_requests": 0},
        {"duration": math.inf},  # a timed trial that never ends
        {"duration": math.nan},
    ],
)
def test_config_rejects_bad_values(tmp_path, overrides):
    with pytest.raises(sb.ConfigError):
        _cfg(tmp_path, **overrides)


def test_config_refuses_a_direction_outside_its_enum(tmp_path):
    with pytest.raises(sb.ConfigError, match="direction must be a Direction, got 'write'"):
        _cfg(tmp_path, direction="write")


def test_seek_pct_0_is_the_sequential_config(tmp_path):
    """Sequential access has one spelling: 0 is stored as None."""
    assert _cfg(tmp_path, seek_pct=0).seek_pct is None
    assert _cfg(tmp_path, seek_pct=0) == _cfg(tmp_path)


def test_an_unwritable_offset_log_fails_before_any_io(tmp_path, monkeypatch):
    """The log opens before the target is filled and before the warm-up trial."""
    transfers = []
    for name in ("preadv", "pwritev"):
        monkeypatch.setattr(os, name, lambda *args, name=name: transfers.append(name))
    cfg = _cfg(tmp_path, max_requests=1, offset_log=tmp_path / "missing" / "offsets.txt")
    with pytest.raises(FileNotFoundError):
        sb.run_measurement(cfg, trials=1, warmup=1, clock_ghz=1.0)
    assert transfers == []
    assert not cfg.path.exists()


@pytest.mark.parametrize("counts", [{"trials": 0}, {"warmup": -1}])
def test_a_measurement_refuses_bad_trial_counts_before_any_io(tmp_path, counts):
    cfg = _cfg(tmp_path, max_requests=1)
    with pytest.raises(sb.ConfigError, match="trial" if "trials" in counts else "warm-up"):
        sb.run_measurement(cfg, **counts)
    assert not cfg.path.exists()


# -- offset generation ----------------------------------------------------------

def test_sequential_offsets_step_by_block(tmp_path):
    cfg = _cfg(tmp_path, file_size=10 * 4096)
    rng = sb.make_rng(0)
    assert sb.next_offset(0, cfg, cfg.file_size, rng) == 4096
    assert sb.next_offset(4096, cfg, cfg.file_size, rng) == 8192


def test_sequential_wraps_when_next_block_does_not_fit(tmp_path):
    cfg = _cfg(tmp_path, file_size=10 * 4096)
    last = 9 * 4096
    assert sb.next_offset(last - 4096, cfg, cfg.file_size, sb.make_rng(0)) == last
    assert sb.next_offset(last, cfg, cfg.file_size, sb.make_rng(0)) == 0


def test_sequential_wrap_with_ragged_tail(tmp_path):
    # a 10-byte file in 4-byte blocks never visits the 2-byte tail
    cfg = _cfg(tmp_path, file_size=10, block=4)
    seen = set()
    offset = 0
    for _ in range(8):
        seen.add(offset)
        offset = sb.next_offset(offset, cfg, 10, sb.make_rng(0))
    assert seen == {0, 4}


def test_single_block_file_stays_at_zero(tmp_path):
    cfg = _cfg(tmp_path, file_size=4096)
    assert sb.next_offset(0, cfg, 4096, sb.make_rng(0)) == 0


def test_offset_rejects_undersized_file(tmp_path):
    cfg = _cfg(tmp_path)
    with pytest.raises(ValueError):
        sb.next_offset(0, cfg, 100, sb.make_rng(0))


def test_seek_offsets_are_aligned_in_range_and_deterministic(tmp_path):
    cfg = _cfg(tmp_path, file_size=1 << 20, block=4096, seek_pct=25)
    rng = sb.make_rng(7)
    offsets, offset = [], 0
    for _ in range(500):
        offset = sb.next_offset(offset, cfg, cfg.file_size, rng)
        assert offset % 4096 == 0
        assert 0 <= offset <= cfg.file_size - 4096
        offsets.append(offset)
    rng = sb.make_rng(7)
    replay, offset = [], 0
    for _ in range(500):
        offset = sb.next_offset(offset, cfg, cfg.file_size, rng)
        replay.append(offset)
    assert replay == offsets


def test_seek_zero_means_sequential(tmp_path):
    cfg = _cfg(tmp_path, file_size=10 * 4096, seek_pct=0)
    assert sb.next_offset(0, cfg, cfg.file_size, sb.make_rng(0)) == 4096


def test_full_seek_covers_the_file_roughly_uniformly(tmp_path):
    """With seek 100 the landing blocks pass a chi-square smoke test.

    The final block start is excluded: the wrap-then-floor rule reaches
    it through exactly one residue of the wrap span, so it is orders of
    magnitude rarer than every other start by construction.
    """
    scipy_stats = pytest.importorskip("scipy.stats")
    blocks = 64
    cfg = _cfg(tmp_path, file_size=blocks * 4096, block=4096, seek_pct=100)
    rng = sb.make_rng(11)
    counts = [0] * blocks
    offset = 0
    for _ in range(100_000):
        offset = sb.next_offset(offset, cfg, cfg.file_size, rng)
        counts[offset // 4096] += 1
    assert all(c > 0 for c in counts[:-1])
    result = scipy_stats.chisquare(counts[:-1])
    assert result.pvalue > 1e-4


@given(
    blocks=st.integers(min_value=1, max_value=64),
    block=st.sampled_from([1, 512, 4096, 65536]),
    tail=st.integers(min_value=0, max_value=511),
    seek=st.integers(min_value=0, max_value=100),
    start=st.integers(min_value=0, max_value=63),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=200, deadline=None)
def test_offset_always_lands_on_a_whole_block(tmp_path_factory, blocks, block, tail, seek, start, seed):
    file_size = blocks * block + tail
    cfg = IoConfig(
        path="unused.dat", file_size=max(file_size, block), block=block,
        seek_pct=seek, duration=1.0,
    )
    current = min(start, blocks - 1) * block
    offset = sb.next_offset(current, cfg, file_size, sb.make_rng(seed))
    assert offset % block == 0
    assert 0 <= offset <= file_size - block


# -- summaries -------------------------------------------------------------------

def _one_second_trials(rates):
    """Trials of one wall second each that moved ``rate`` MB apiece."""
    return [ThroughputSample(round(rate * 1e6), 1.0, 0.5, 1) for rate in rates]


def test_summarize_median_and_pstdev():
    result = sb.BenchmarkResult.from_samples(_one_second_trials([1.0, 2.0, 3.0]), None)
    assert result.mb_per_sec == 2.0
    assert result.stddev_mb_per_sec == pytest.approx(statistics.pstdev([1.0, 2.0, 3.0]))
    result = sb.BenchmarkResult.from_samples(_one_second_trials([1.0, 2.0, 3.0, 4.0]), None)
    assert result.mb_per_sec == 2.5
    assert result.stddev_mb_per_sec == pytest.approx(statistics.pstdev([1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(ValueError):
        sb.BenchmarkResult.from_samples([], None)


@given(trials=st.lists(
    st.tuples(st.integers(min_value=1, max_value=10**15),
              st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=16,
))
def test_summarize_agrees_with_pstdev(trials):
    samples = [ThroughputSample(moved, wall, 0.5, 1) for moved, wall in trials]
    rates = [moved / 1e6 / wall for moved, wall in trials]
    result = sb.BenchmarkResult.from_samples(samples, None)
    assert result.mb_per_sec == statistics.median(rates)
    dev = result.stddev_mb_per_sec
    assert dev == pytest.approx(statistics.pstdev(rates), rel=1e-12, abs=1e-12 * max(rates))
    if len(rates) == 1:
        assert dev == 0.0


def test_per_byte_cost_example():
    sample = ThroughputSample(bytes_moved=10**9, wall_seconds=9.9, cpu_seconds=5.0, request_count=1)
    result = sb.BenchmarkResult.from_samples([sample], 2.8)
    assert result.per_byte_ns == pytest.approx(5.0)
    assert result.per_byte_cycles == pytest.approx(14.0)


def test_per_byte_cost_without_clock_is_nan():
    result = sb.BenchmarkResult.from_samples([ThroughputSample(1000, 1.0, 0.5, 1)], None)
    assert result.per_byte_ns == pytest.approx(5e5)
    assert math.isnan(result.per_byte_cycles)


def test_results_store_only_their_samples_and_what_they_were_told():
    assert [f.name for f in dataclasses.fields(sb.BenchmarkResult)] == ["samples", "clock_ghz", "config"]
    assert [f.name for f in dataclasses.fields(sb.WorkloadResult)] == ["checksum", "sample"]


def test_from_samples_medians():
    samples = [
        ThroughputSample(1000_000, 1.0, 0.10, 10),
        ThroughputSample(2000_000, 1.0, 0.30, 20),
        ThroughputSample(3000_000, 1.0, 0.20, 30),
    ]
    result = sb.bench.BenchmarkResult.from_samples(samples, 2.0)
    assert result.mb_per_sec == 2.0  # median of 1, 2, 3 MB/s
    assert result.per_byte_ns == pytest.approx(statistics.median(
        s.cpu_seconds * 1e9 / s.bytes_moved for s in samples))
    assert result.per_byte_cycles == pytest.approx(result.per_byte_ns * 2.0)
    assert result.bytes_moved == 6_000_000
    with pytest.raises(ValueError):
        sb.bench.BenchmarkResult.from_samples([], 2.0)


def test_from_samples_zero_bytes_is_zero_rate_and_nan_cost():
    result = sb.bench.BenchmarkResult.from_samples([ThroughputSample(0, 0.5, 0.1, 0)], 2.0)
    assert result.mb_per_sec == 0.0 and result.stddev_mb_per_sec == 0.0
    assert math.isnan(result.per_byte_ns) and math.isnan(result.per_byte_cycles)


def test_stopwatch_sample_carries_the_counts_and_elapsed_time():
    stopwatch = sb.bench.Stopwatch()
    sum(range(100_000))  # some CPU work to time
    sample = stopwatch.sample(4096, 3)
    assert (sample.bytes_moved, sample.request_count) == (4096, 3)
    assert sample.wall_seconds > 0 and sample.cpu_seconds >= 0


# -- clock detection ---------------------------------------------------------------

def test_clock_env_override(monkeypatch):
    monkeypatch.setenv(CLOCK_ENV_VAR, "3.5")
    assert sb.detect_clock_ghz() == 3.5


def test_clock_env_junk_is_an_error(monkeypatch):
    monkeypatch.setenv(CLOCK_ENV_VAR, "fast")
    with pytest.raises(sb.ConfigError):
        sb.detect_clock_ghz()
    monkeypatch.setenv(CLOCK_ENV_VAR, "-2")
    with pytest.raises(sb.ConfigError):
        sb.detect_clock_ghz()


@pytest.mark.parametrize("value", ["inf", "1e9", "0.01", "nan", "10.01"])
def test_clock_env_outside_its_range_is_an_error(monkeypatch, value):
    monkeypatch.setenv(CLOCK_ENV_VAR, value)
    with pytest.raises(sb.ConfigError, match="0.1 to 10.0"):
        sb.detect_clock_ghz()


@pytest.mark.parametrize("value, ghz", [("0.1", 0.1), ("10", 10.0)])
def test_clock_env_range_ends_are_accepted(monkeypatch, value, ghz):
    monkeypatch.setenv(CLOCK_ENV_VAR, value)
    assert sb.detect_clock_ghz() == ghz


#: cpuinfo text -> the clock read from it: the model name's rated clock wins over
#: the running MHz; neither, or no readable cpuinfo, is no clock.
_CPUINFO = {
    "model-name": ("model name\t: Intel(R) Xeon(R) CPU E5-2680 v4 @ 2.40GHz\n"
                   "cpu MHz\t\t: 1200.000\n", 2.4),
    "mhz": ("model name\t: AMD EPYC 7B13 64-Core Processor\ncpu MHz\t\t: 2450.000\n", 2.45),
    "neither": ("processor\t: 0\nmodel name\t: QEMU Virtual CPU\n", None),
    "unreadable": (None, None),
}


@pytest.mark.parametrize("text, ghz", list(_CPUINFO.values()), ids=list(_CPUINFO))
def test_the_clock_comes_from_the_model_name_then_the_running_mhz(monkeypatch, text, ghz):
    real = pathlib.Path.read_text

    def read_text(path, *args, **kwargs):
        if str(path) != "/proc/cpuinfo":
            return real(path, *args, **kwargs)
        if text is None:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
        return text

    monkeypatch.delenv(CLOCK_ENV_VAR, raising=False)
    monkeypatch.setattr(pathlib.Path, "read_text", read_text)
    assert sb.detect_clock_ghz() == ghz


def test_clock_detection_shape(monkeypatch):
    monkeypatch.delenv(CLOCK_ENV_VAR, raising=False)
    ghz = sb.detect_clock_ghz()
    assert ghz is None or 0.1 < ghz < 10.0


# -- run_measurement -----------------------------------------------------------------

def test_read_accounting_is_exact(tmp_path):
    cfg = _cfg(tmp_path, max_requests=64)
    result = sb.run_measurement(cfg, trials=2, warmup=1, clock_ghz=2.0)
    assert len(result.samples) == 2
    for s in result.samples:
        assert s.request_count == 64
        assert s.bytes_moved == 64 * 4096
    assert result.config is cfg
    assert result.mb_per_sec > 0
    assert result.per_byte_cycles == pytest.approx(result.per_byte_ns * 2.0)


def _write_opens(monkeypatch, path):
    """Spy on ``os.open`` as the engine calls it: the list fills with the
    flags of every open of ``path`` that asks for write access or creation."""
    opens = []
    real = sb.engine.os.open

    def spy(file, flags, *args, **kwargs):
        if os.fspath(file) == os.fspath(path) and flags & (os.O_WRONLY | os.O_RDWR | os.O_CREAT):
            opens.append(flags)
        return real(file, flags, *args, **kwargs)

    monkeypatch.setattr(sb.engine.os, "open", spy)
    return opens


@pytest.mark.parametrize(
    "overrides",
    [{}, {"seek_pct": 50}, {"async_depth": 2}, {"direct": True}],
    ids=["sequential", "seek", "depth2", "direct"],
)
def test_a_read_of_a_full_length_target_opens_nothing_for_writing(
    tmp_path, monkeypatch, request, overrides
):
    """A read-only file or mount serves a read measurement: only a short target is written."""
    if overrides.get("direct"):
        request.getfixturevalue("need_direct")
    cfg = _cfg(tmp_path, max_requests=8, **overrides)
    cfg.path.write_bytes(b"\x5a" * cfg.file_size)
    opens = _write_opens(monkeypatch, cfg.path)
    assert sb.run_measurement(cfg, trials=2, warmup=1, clock_ghz=1.0).bytes_moved == 16 * 4096
    assert opens == []
    assert cfg.path.read_bytes() == b"\x5a" * cfg.file_size


@pytest.mark.parametrize(
    "overrides", [{}, {"async_depth": 2}, {"direct": True}], ids=["buffered", "depth2", "direct"]
)
def test_a_directory_target_is_refused_by_name(tmp_path, request, overrides):
    """A directory is no shorter than a 4 KiB target, yet no trial may open it."""
    if overrides.get("direct"):
        request.getfixturevalue("need_direct")
    cfg = _cfg(tmp_path, path=tmp_path, file_size=4096, max_requests=2, **overrides)
    with pytest.raises(IsADirectoryError) as info:
        sb.run_measurement(cfg, trials=1, warmup=0, clock_ghz=1.0)
    assert info.value.filename == str(tmp_path)


def test_prepare_creates_and_fills_target(tmp_path):
    cfg = _cfg(tmp_path, max_requests=4)
    assert not cfg.path.exists()
    sb.run_measurement(cfg, trials=1, warmup=0)
    assert cfg.path.stat().st_size == cfg.file_size


def test_prepare_keeps_existing_bytes_and_fills_the_rest_with_the_pattern(tmp_path, monkeypatch):
    cfg = _cfg(tmp_path, file_size=(8 << 20) + 4096, max_requests=1)
    cfg.path.write_bytes(b"keep")
    opens = _write_opens(monkeypatch, cfg.path)
    sb.run_measurement(cfg, trials=1, warmup=0)
    assert len(opens) == 1
    assert cfg.path.read_bytes() == b"keep" + b"\xa5" * (cfg.file_size - 4)


@pytest.mark.parametrize(
    "overrides",
    [{}, {"direction": Direction.WRITE}, {"async_depth": 2}, {"seek_pct": 0}, {"direct": True}],
    ids=["read", "write", "depth2", "seek0", "direct"],
)
def test_a_sequential_measurement_builds_no_generator(tmp_path, monkeypatch, request, overrides):
    if overrides.get("direct"):
        request.getfixturevalue("need_direct")
    log = tmp_path / "offsets.txt"
    cfg = _cfg(tmp_path, file_size=8 * 4096, max_requests=20, offset_log=log, **overrides)

    def refuse(*args):
        raise AssertionError("a sequential trial built a generator")

    monkeypatch.setattr(sb.bench, "make_rng", refuse)
    result = sb.run_measurement(cfg, trials=2, warmup=1, clock_ghz=1.0)
    assert result.bytes_moved == 2 * 20 * 4096
    trial = [index % 8 * 4096 for index in range(20)]
    assert [int(line) for line in log.read_text().split()] == trial * 2


def test_a_seeking_measurement_draws_from_its_generator(tmp_path, monkeypatch):
    cfg = _cfg(tmp_path, seek_pct=50, max_requests=20)
    streams = []
    real = sb.bench.make_rng
    monkeypatch.setattr(
        sb.bench, "make_rng", lambda seed, stream: streams.append(stream) or real(seed, stream)
    )
    sb.run_measurement(cfg, trials=2, warmup=1, clock_ghz=1.0)
    assert streams == [sb.bench._WARMUP_STREAM_BASE, 0, 1]


def test_write_measures_in_place(tmp_path):
    cfg = _cfg(tmp_path, direction=Direction.WRITE, max_requests=300)
    result = sb.run_measurement(cfg, trials=1, warmup=0)
    # 300 requests of 4096 into a 256-block file: wrapped, not extended
    assert cfg.path.stat().st_size == cfg.file_size
    assert result.bytes_moved == 300 * 4096


def test_duration_bounds_a_timed_trial(tmp_path):
    cfg = _cfg(tmp_path, duration=0.1)
    result = sb.run_measurement(cfg, trials=1, warmup=0)
    sample = result.samples[0]
    assert sample.request_count >= 1
    # the loop checks the clock before each request, so the measured wall
    # time can stop a timer tick short of the budget
    assert sample.wall_seconds >= 0.095


def test_offset_log_matches_arithmetic_sequence(tmp_path):
    log = tmp_path / "offsets.txt"
    cfg = _cfg(tmp_path, file_size=8 * 4096, max_requests=20, offset_log=log)
    sb.run_measurement(cfg, trials=1, warmup=0)
    got = [int(line) for line in log.read_text().split()]
    want, offset = [], 0
    for _ in range(20):
        want.append(offset)
        offset = offset + 4096 if offset + 2 * 4096 <= 8 * 4096 else 0
    assert got == want


def test_seek_offset_log_is_deterministic(tmp_path):
    logs = []
    for name in ("a.txt", "b.txt"):
        log = tmp_path / name
        cfg = _cfg(tmp_path, seek_pct=50, max_requests=50, offset_log=log)
        sb.run_measurement(cfg, trials=2, warmup=1)
        logs.append(log.read_text())
    assert logs[0] == logs[1]
    offsets = [int(line) for line in logs[0].split()]
    assert len(offsets) == 100  # 2 measured trials, warm-up not logged
    assert all(o % 4096 == 0 and 0 <= o <= (1 << 20) - 4096 for o in offsets)


def test_an_offset_log_is_written_as_the_trials_run(tmp_path):
    """3 trials of 200,000 512 B requests: the log holds every offset, and the
    measurement holds no more than one ticket run's worth of them."""
    log = tmp_path / "offsets.txt"
    cfg = _cfg(tmp_path, block=512, max_requests=200_000, offset_log=log)
    sb.run_measurement(dataclasses.replace(cfg, max_requests=1), trials=1, warmup=0, clock_ghz=1.0)
    tracemalloc.start()
    try:
        sb.run_measurement(cfg, trials=3, warmup=0, clock_ghz=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak
    blocks = cfg.file_size // cfg.block
    trial = [index % blocks * cfg.block for index in range(200_000)]
    assert [int(line) for line in log.read_text().split()] == trial * 3


@contextlib.contextmanager
def _short_then_zero(faults, call: str):
    """``call`` moves half its bytes three times, then 0 every time."""
    with faults(call, SHORT), faults(call, ZERO, at=4):
        yield


def test_a_failed_measurement_leaves_the_offsets_it_took(tmp_path, faults, deadline):
    """The fourth read of a seeking trial comes back empty, inside its first ticket run."""
    log = tmp_path / "offsets.txt"
    cfg = _cfg(tmp_path, seek_pct=50, max_requests=50, offset_log=log)
    sb.run_measurement(dataclasses.replace(cfg, offset_log=None), trials=1, warmup=0, clock_ghz=1.0)
    with faults("preadv", ZERO, at=4), pytest.raises(OSError, match="short read"):
        sb.run_measurement(cfg, trials=2, warmup=0, clock_ghz=1.0)
    assert [int(line) for line in log.read_text().split()] == offset_chain(cfg, 0, 50)


def test_a_failed_trial_leaves_no_garbage_cycle(tmp_path, faults, deadline):
    """A cycle through the failed trial's frames would keep its seek-offset
    generator alive until the cyclic GC closed it, in whatever code ran then."""
    cfg = _cfg(tmp_path, seek_pct=50, max_requests=50)
    sb.run_measurement(cfg, trials=1, warmup=0, clock_ghz=1.0)
    gc.collect()
    with faults("preadv", ZERO, at=4), pytest.raises(OSError, match="short read"):
        sb.run_measurement(cfg, trials=1, warmup=0, clock_ghz=1.0)
    assert gc.collect() == 0


def test_touch_mode_runs(tmp_path):
    cfg = _cfg(tmp_path, touch=True, max_requests=16)
    result = sb.run_measurement(cfg, trials=1, warmup=0)
    assert result.bytes_moved == 16 * 4096


@pytest.mark.parametrize(
    "overrides", [{"seek_pct": 50}, {"async_depth": 2}, {"direct": True}],
    ids=["seek", "depth2", "direct"],
)
def test_touch_reads_every_positional_request_once(tmp_path, monkeypatch, request, overrides):
    if overrides.get("direct"):
        request.getfixturevalue("need_direct")
    cfg = _cfg(tmp_path, touch=True, max_requests=32, **overrides)
    sums = []
    real = zlib.adler32
    monkeypatch.setattr(zlib, "adler32", lambda data: sums.append(len(data)) or real(data))
    result = sb.run_measurement(cfg, trials=1, warmup=0)
    assert sums == [4096] * result.samples[0].request_count
    assert result.samples[0].request_count == 32


def test_async_read_accounting(tmp_path):
    cfg = _cfg(tmp_path, async_depth=2, max_requests=32)
    result = sb.run_measurement(cfg, trials=1, warmup=0)
    assert result.samples[0].request_count == 32
    assert result.bytes_moved == 32 * 4096


def test_async_write_accounting(tmp_path):
    cfg = _cfg(tmp_path, direction=Direction.WRITE, async_depth=4, max_requests=32)
    result = sb.run_measurement(cfg, trials=1, warmup=0)
    assert result.bytes_moved == 32 * 4096
    assert cfg.path.stat().st_size == cfg.file_size


def test_async_seek_offsets_match_sync_chain(tmp_path):
    """The async engine issues the same offset chain the sync one would."""
    logs = []
    for depth in (None, 4):
        log = tmp_path / f"log_{depth}.txt"
        cfg = _cfg(tmp_path, seek_pct=40, async_depth=depth, max_requests=40, offset_log=log)
        sb.run_measurement(cfg, trials=1, warmup=0)
        logs.append(log.read_text())
    assert logs[0] == logs[1]


def test_async_chain_survives_thread_switch_stress(tmp_path, deadline):
    """Eight slots on a fast switch interval: a lost ticket or offset update breaks the chain.

    9000 requests run past two batches of drawn seek deltas.
    """
    logs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for depth in (None, 8):
            log = tmp_path / f"log_{depth}.txt"
            cfg = _cfg(tmp_path, seek_pct=30, async_depth=depth, max_requests=9000, offset_log=log)
            result = sb.run_measurement(cfg, trials=1, warmup=0)
            assert result.samples[0].request_count == 9000
            logs.append(log.read_text())
    finally:
        sys.setswitchinterval(interval)
    assert logs[0] == logs[1]
    assert [int(line) for line in logs[1].split()] == offset_chain(cfg, 0, 9000)


# -- trial offsets against the next_offset reference ------------------------------

@pytest.mark.parametrize("depth", [None, 2])
@pytest.mark.parametrize(
    "file_size, block, seek_pct",
    [
        (1 << 20, 4096, 1),
        (1 << 20, 4096, 30),
        (1 << 20, 4096, 100),
        (99, 8, 1),  # d = 1% of 99 bytes = 0: every delta is 0
        (10 * 4096 + 100, 4096, None),  # sequential: wraps to 0 every 10 requests
    ],
)
def test_trial_offsets_equal_the_next_offset_chain(tmp_path, depth, file_size, block, seek_pct):
    """5000 requests per trial run past one batch of drawn seek deltas."""
    log = tmp_path / "offsets.txt"
    cfg = _cfg(
        tmp_path, file_size=file_size, block=block, seek_pct=seek_pct, async_depth=depth,
        max_requests=5000, offset_log=log, seed=137,
    )
    sb.run_measurement(cfg, trials=2, warmup=0, clock_ghz=1.0)
    got = [int(line) for line in log.read_text().split()]
    assert got == offset_chain(cfg, 0, 5000) + offset_chain(cfg, 1, 5000)


@given(
    file_size=st.integers(min_value=1, max_value=1 << 20),
    block=st.sampled_from([1, 8, 512, 4096]),
    seek_pct=st.sampled_from([None, 0, 1, 7, 30, 100]),
    seed=st.integers(min_value=0, max_value=1 << 32),
    n=st.integers(min_value=1, max_value=9000),
    depth=st.sampled_from([None, 3]),
)
@settings(max_examples=40, deadline=None)
def test_trial_offsets_follow_next_offset(tmp_path_factory, file_size, block, seek_pct, seed, n, depth):
    block = min(block, file_size)
    log = tmp_path_factory.mktemp("chain") / "offsets.txt"
    cfg = IoConfig(
        path=log.with_name("target.dat"), file_size=file_size, block=block, seek_pct=seek_pct,
        seed=seed, async_depth=depth, max_requests=n, offset_log=log, duration=30.0,
    )
    sb.run_measurement(cfg, trials=1, warmup=0, clock_ghz=1.0)
    got = [int(line) for line in log.read_text().split()]
    assert got == offset_chain(cfg, 0, n)


@pytest.mark.parametrize("seed", [137, 11, 5, 3])
@pytest.mark.parametrize(
    "file_size, seek_pct",
    [(99, 1), (150, 1), (1000, 1), (1 << 22, 25), (1 << 28, 25), (1 << 30, 100), (1 << 38, 25)],
)
def test_offset_chain_matches_scalar_draws_across_batches(seed, file_size, seek_pct):
    """d = 0, 1, 10, 2^20, 2^26, 2^30 and 2^36: batched deltas equal scalar ones.

    No file is touched, so the chain is checked at sizes no test could create.
    """
    cfg = IoConfig(path="unused.dat", file_size=file_size, block=8, seek_pct=seek_pct, seed=seed)
    count = 2 * sb.bench._CHAIN_BATCH + 3
    chain = sb.bench._offset_chain(cfg, sb.make_rng(seed, 0))
    assert list(itertools.islice(chain, count)) == offset_chain(cfg, 0, count)


# -- per-request call budget --------------------------------------------------------

class _CallRate(float):
    """Calls per request; its repr, which a failed assertion shows, names the
    functions that made them, so a frame that creeps into a hot path is named."""

    def __new__(cls, rate: float, by_function: dict[str, float]):
        self = super().__new__(cls, rate)
        self.by_function = by_function
        return self

    def __repr__(self) -> str:
        culprits = sorted(self.by_function.items(), key=lambda item: (-item[1], item[0]))
        named = ", ".join(f"{name} {count:g}" for name, count in culprits if count >= 0.01)
        return f"{float(self):g} calls per request ({named or 'none'})"


def _calls_per_request(run, small=1000, large=3000):
    """Python-level calls per request: profile "call" events of ``run(large)``
    minus those of ``run(small)``, over ``large - small``.  Fixed costs cancel.

    Calls are counted on every thread, the calling one and any that
    ``run`` starts; each appends its code object to one list, which
    list.append keeps thread-safe.  The result is a float that also
    carries the calls per request of each function.

    The cyclic GC is run before each profiled run and kept off during
    it: a collection calls every ``gc.callbacks`` hook (hypothesis
    installs one) and closes any generator left in a garbage cycle, so a
    collection that fell in one run and not the other would count calls
    that ``run`` never made.
    """
    (fewer, _), (more, _) = (_profiled_calls(run, requests) for requests in (small, large))
    return _call_rate(fewer, more, large - small)


def _profiled_calls(run, *args):
    """``run(*args)`` under the profile: (calls per function, what it returned)."""
    calls = []

    def profile(frame, event, arg, record=calls.append):
        if event == "call":
            record(frame.f_code)

    gc.collect()
    gc.disable()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        result = run(*args)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        gc.enable()
    counts = collections.Counter(
        f"{os.path.splitext(os.path.basename(code.co_filename))[0]}.{code.co_qualname}"
        for code in calls
    )
    return counts, result


def _call_rate(fewer, more, span) -> _CallRate:
    """The calls that ``more`` counts beyond ``fewer``, per one of ``span`` units."""
    by_function = {name: (more[name] - fewer[name]) / span for name in more | fewer}
    return _CallRate((more.total() - fewer.total()) / span, by_function)


@pytest.mark.parametrize(
    "overrides, budget",
    [
        ({}, 3),
        ({"seek_pct": 100}, 4),
        ({"direction": Direction.WRITE}, 4),
    ],
    ids=["sequential-read", "seeking-read", "write"],
)
def test_buffered_4k_trial_stays_within_its_call_budget(tmp_path, overrides, budget):
    cfg = _cfg(tmp_path, max_requests=1, **overrides)
    sb.run_measurement(cfg, trials=1, warmup=0, clock_ghz=1.0)  # creates the target

    def run(requests):
        pinned = dataclasses.replace(cfg, max_requests=requests)
        sample = sb.run_measurement(pinned, trials=1, warmup=0, clock_ghz=1.0).samples[0]
        assert sample.request_count == requests

    assert _calls_per_request(run) <= budget


def _measurement_call(tmp_path, depth):
    cfg = _cfg(tmp_path, max_requests=1, async_depth=depth)
    return lambda: sb.run_measurement(cfg, trials=1, warmup=0, clock_ghz=1.0)


def _copy_call(tmp_path, depth):
    src = tmp_path / "src"
    src.write_bytes(sb.make_rng(1).bytes(2 * 4096))
    targets = iter([tmp_path / f"dst{index}" for index in range(3)])
    return lambda: sb.copy_file(src, next(targets), block=4096, depth=depth)


def _fixed_cost_events(run) -> collections.Counter:
    """Profile events (Python and C calls) of one warmed ``run()`` on every
    thread, by function name: the work around the requests, which a short
    call pays every time, slot threads' start and wait included."""
    for _ in range(2):
        run()
    events = []

    def profile(frame, event, arg, record=events.append):
        if event == "call":
            record(frame.f_code.co_qualname)
        elif event == "c_call":
            record(getattr(arg, "__qualname__", repr(arg)))

    gc.collect()
    gc.disable()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        gc.enable()
    return collections.Counter(events)


def test_a_measurement_call_stays_within_its_fixed_cost_budget(tmp_path):
    """A 1-request measurement of a sequential 4 KiB read at depth 1.
    It counts about 80 events on CPython 3.11."""
    events = _fixed_cost_events(_measurement_call(tmp_path, None))
    assert events.total() <= 100, events.most_common()


@pytest.mark.parametrize(
    "call, budget",
    [(_measurement_call, 100), (_copy_call, 75)],
    ids=["measurement", "copy-2-blocks"],
)
def test_a_depth_2_call_stays_within_its_fixed_cost_budget(tmp_path, call, budget):
    """A sequential 4 KiB read measurement capped at 1 request (depth 2 still
    issues its first 2 tickets), or a copy of two 4 KiB blocks, at depth 2;
    the events of slot 1's thread count too.  They count about 90 and 70 on
    CPython 3.11."""
    events = _fixed_cost_events(call(tmp_path, 2))
    assert events.total() <= budget, events.most_common()


def test_byte_at_a_time_workloads_stay_within_their_call_budget(tmp_path):
    path = tmp_path / "bytes.dat"
    rng = sb.make_rng(5)

    def write(requests):
        result = sb.run_write(path, sb.ByteAtATime(), requests, rng)
        assert result.sample.request_count == requests

    def read(requests):
        result = sb.run_read(sources[requests], sb.ByteAtATime())
        assert result.sample.request_count == requests

    sources = {}
    for requests in (1000, 3000):
        sources[requests] = tmp_path / f"read_{requests}.dat"
        sources[requests].write_bytes(rng.bytes(requests))
    assert _calls_per_request(write) <= 2
    assert _calls_per_request(read) <= 2


def _pinned_trial(cfg):
    """``run(requests)`` for _calls_per_request: one trial of exactly that many requests."""
    sb.run_measurement(dataclasses.replace(cfg, max_requests=1), trials=1, warmup=0, clock_ghz=1.0)

    def run(requests):
        pinned = dataclasses.replace(cfg, max_requests=requests)
        sample = sb.run_measurement(pinned, trials=1, warmup=0, clock_ghz=1.0).samples[0]
        assert sample.request_count == requests

    return run


@pytest.mark.parametrize(
    "overrides, budget",
    [
        ({}, 0.05),
        ({"seek_pct": 100}, 3.0),
        ({"direction": Direction.WRITE}, 0.05),
    ],
    ids=["sequential-read", "seeking-read", "write"],
)
def test_buffered_4k_trial_costs_one_frame_per_request(tmp_path, overrides, budget):
    """A sequential trial hands its whole bytearray to the stream's readinto or
    write from the run's loop, with no frame per request; a seeking read's
    preadv/pwritev requests add only the offset generator."""
    assert _calls_per_request(_pinned_trial(_cfg(tmp_path, **overrides))) <= budget


@pytest.mark.parametrize(
    "granularity, write_budget",
    # Blocks and records are drawn about 64 KiB at a time; one such draw runs a few
    # numpy frames, 0.375 per request at 4 KiB and none in a 7-byte run of one draw.
    [(sb.ByteAtATime(), 1.0), (sb.TypedRecords(), 0.05), (sb.BlockAtATime(4096), 0.5),
     (sb.BlockAtATime(7), 0.05)],
    ids=["byte", "typed-records", "block-4k", "block-7"],
)
def test_fixed_size_workloads_make_one_handle_call_per_request(tmp_path, granularity, write_budget):
    path = tmp_path / "written.dat"
    rng = sb.make_rng(5)
    step = granularity.block

    def write(requests):
        result = sb.run_write(path, granularity, requests * step, rng)
        assert result.sample.request_count == requests

    def read(requests):
        result = sb.run_read(sources[requests], granularity)
        assert result.sample.request_count == requests

    sources = {}
    for requests in (1000, 3000):
        sources[requests] = tmp_path / f"read_{requests}.dat"
        sources[requests].write_bytes(rng.bytes(requests * step))
    assert _calls_per_request(write) <= write_budget
    assert _calls_per_request(read) <= 1.0


def test_line_reads_make_no_call_per_line(tmp_path):
    """The terminator is stripped in the loop: no Python frame per line read."""
    sources = {}
    for lines in (1000, 3000):
        sources[lines] = tmp_path / f"lines_{lines}.txt"
        sources[lines].write_bytes(b"".join(
            b"x" * (i % 80) + (b"\r\n", b"\n", b"\r\r\n", b"a\rb\n")[i % 4] for i in range(lines)
        ))

    def read(lines):
        result = sb.run_read(sources[lines], sb.LineAtATime())
        assert result.sample.request_count == lines

    assert _calls_per_request(read) <= 0.05


def test_byte_and_line_passes_make_no_python_call_per_request(tmp_path):
    """Byte reads and writes and line writes make their stream calls from C.

    A written line averages 40 bytes, so ``requests`` lines are about
    ``40 * requests`` bytes.
    """
    rng = sb.make_rng(5)
    sources = {}
    for requests in (1000, 3000):
        sources[requests] = tmp_path / f"read_{requests}.dat"
        sources[requests].write_bytes(rng.bytes(requests))

    def read(requests):
        assert sb.run_read(sources[requests], sb.ByteAtATime()).sample.request_count == requests

    def write(requests):
        result = sb.run_write(tmp_path / "bytes.dat", sb.ByteAtATime(), requests, rng)
        assert result.sample.request_count == requests

    def write_lines(requests):
        sb.run_write(tmp_path / "lines.txt", sb.LineAtATime(), 40 * requests, rng)

    assert _calls_per_request(read) <= 0.05
    assert _calls_per_request(write) <= 0.05
    assert _calls_per_request(write_lines) <= 0.05


def test_sort_file_costs_one_frame_per_write(tmp_path):
    """The same 3000 records written in 1000 or 3000 requests: only the writes differ."""
    records = 3000

    def run(writes):
        io_block = records * SORT_RECORD_BYTES // writes
        result = sb.write_sort_file(tmp_path / "sort.dat", records, sb.make_rng(3), io_block=io_block)
        assert result.sample.request_count == writes

    assert _calls_per_request(run) <= 1.0


def test_sort_file_makes_no_python_call_per_write_or_record(tmp_path):
    """The writes are views handed to the stream from C, and numpy builds the
    digits: neither a write nor a record costs a Python call."""
    records = 3000

    def writes(count):
        io_block = records * SORT_RECORD_BYTES // count
        result = sb.write_sort_file(tmp_path / "sort.dat", records, sb.make_rng(3), io_block=io_block)
        assert result.sample.request_count == count

    def records_of(count):
        sb.write_sort_file(tmp_path / "sort.dat", count, sb.make_rng(3), io_block=1 << 20)

    records_of(1)  # what a first run imports lazily falls in neither profiled run
    assert _calls_per_request(writes) <= 0.05
    assert _calls_per_request(records_of) <= 0.05


def test_extension_costs_no_frame_per_block(tmp_path):
    """Each block is an os.pwritev and an os.fsync, both called from the loop itself."""

    def run(blocks):
        result = sb.measure_extension(
            tmp_path / "grown.dat", blocks * 4096, 4096, sb.ExtensionMode.INCREMENTAL,
            trials=1, clock_ghz=1.0,
        )
        assert result.samples[0].request_count == blocks

    run(1)  # so that both measured runs find a file to delete
    assert _calls_per_request(run, small=100, large=300) <= 0.05


def test_aging_stays_within_its_call_budget_per_created_file(tmp_path):
    """Two quotas with the same 16-64 KiB files: the calls the larger run makes
    beyond the smaller, per file it creates beyond it.  A create or delete costs
    its write helpers and its event record; paths and the fill chunk cost none."""

    def run(quota):
        cfg = sb.FragConfig(root=tmp_path / f"aged_{quota}", min_file=16 << 10,
                            max_file=64 << 10, capacity_limit=quota, max_cycles=2, seed=7)
        return sb.run_cycles(cfg)

    run(1 << 20)
    (fewer, small), (more, large) = (_profiled_calls(run, quota) for quota in (8 << 20, 24 << 20))
    assert large.created_files > small.created_files
    assert _call_rate(fewer, more, large.created_files - small.created_files) <= 8


def test_a_collection_in_a_profiled_run_is_not_counted():
    """A gc.callbacks hook, like the one hypothesis installs, runs in every
    collection; the cycles made here would set off more collections in the
    larger run than in the smaller one."""

    def hook(phase, info):
        pass

    def run(requests):
        for _ in range(requests):
            cycle = []
            cycle.append(cycle)

    gc.callbacks.append(hook)
    try:
        rate = _calls_per_request(run)
    finally:
        gc.callbacks.remove(hook)
    assert rate == 0.0, rate


def test_a_call_budget_failure_names_the_functions_per_request():
    def culprit():
        pass

    def run(requests):
        for _ in range(requests):
            culprit()

    rate = _calls_per_request(run)
    assert rate == 1.0
    assert repr(rate).startswith("1 calls per request (")
    assert repr(rate).endswith(".<locals>.culprit 1)")


def test_async_4k_trial_stays_within_its_call_budget(tmp_path):
    """Depth 2: ticket runs, and no Python call per request."""
    cfg = _cfg(tmp_path, async_depth=2, max_requests=1)
    sb.run_measurement(cfg, trials=1, warmup=0, clock_ghz=1.0)  # creates the target

    def run(requests):
        pinned = dataclasses.replace(cfg, max_requests=requests)
        sample = sb.run_measurement(pinned, trials=1, warmup=0, clock_ghz=1.0).samples[0]
        assert sample.request_count == requests

    assert _calls_per_request(run) <= 0.05


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_copy_4k_stays_within_its_call_budget(tmp_path, depth):
    """At every depth the hook is the one Python call per block."""
    sources = {}
    for blocks in (1000, 3000):
        sources[blocks] = tmp_path / f"src_{blocks}"
        sources[blocks].write_bytes(sb.make_rng(blocks).bytes(blocks * 4096))

    def run(blocks):
        report = sb.copy_file(
            sources[blocks], tmp_path / f"dst_{blocks}", block=4096, depth=depth
        )
        assert report.write_requests == blocks
        (tmp_path / f"dst_{blocks}").unlink()

    assert _calls_per_request(run) <= 1.05


def test_depth_1_starts_no_thread(tmp_path, thread_starts):
    cfg = _cfg(tmp_path, async_depth=1, max_requests=300)
    assert sb.run_measurement(cfg, trials=1, warmup=0, clock_ghz=1.0).bytes_moved == 300 * 4096
    src = tmp_path / "src"
    src.write_bytes(sb.make_rng(1).bytes(10 * 4096))
    assert sb.copy_file(src, tmp_path / "dst", block=4096, depth=1).write_requests == 10
    assert thread_starts == []


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_depth_d_starts_d_minus_1_threads_once_and_later_calls_reuse_them(
    tmp_path, thread_starts, depth
):
    """The positive control of the thread-start spy: the first of three trials
    (a warm-up and two measured) starts a thread for each of slots 1..depth-1.
    The later trials and a copy, inside the park window, start none: they
    take those threads from the park."""
    cfg = _cfg(tmp_path, async_depth=depth, max_requests=64)
    sb.run_measurement(cfg, trials=2, warmup=1, clock_ghz=1.0)
    assert thread_starts == list(range(1, depth))
    thread_starts.clear()
    src = tmp_path / "src"
    src.write_bytes(sb.make_rng(1).bytes(10 * 4096))
    assert sb.copy_file(src, tmp_path / "dst", block=4096, depth=depth).write_requests == 10
    assert thread_starts == []


def test_depth_2_measurements_spaced_near_the_park_window_move_every_request(
    tmp_path, monkeypatch, deadline
):
    """With a window of 1 ms, depth-2 measurements spaced by sleeps near it: a
    parked thread is claimed, or has timed out, or times out as it is claimed.
    Every call still moves all of its requests."""
    monkeypatch.setattr(sb.engine, "_PARK_SECONDS", 0.001)
    cfg = _cfg(tmp_path, async_depth=2, max_requests=8)
    sb.run_measurement(cfg, trials=1, warmup=0)  # creates the target
    for call in range(200):
        time.sleep(0.0005 + call % 11 * 0.0001)  # 0.5 to 1.5 ms
        assert sb.run_measurement(cfg, trials=1, warmup=0).bytes_moved == 8 * 4096, call


def test_a_forked_child_starts_its_own_slot_threads(tmp_path, deadline):
    """A depth-2 trial leaves slot 1's thread parked, then the process forks.
    The child has no such thread, so its depth-2 trial starts one and exits 0."""
    cfg = _cfg(tmp_path, async_depth=2, max_requests=64)
    sb.run_measurement(cfg, trials=1, warmup=0)
    assert sb.engine._parked
    pid = os.fork()
    if pid == 0:  # the child: no pytest past this point
        code = 1
        try:
            code = int(sb.run_measurement(cfg, trials=1, warmup=0).bytes_moved != 64 * 4096)
        finally:
            os._exit(code)
    try:
        _, status = os.waitpid(pid, 0)
    except BaseException:  # the deadline: a child that hangs is killed, not left behind
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.parametrize("kind", ["profile", "trace"])
def test_hooks_set_with_threading_reach_every_slot(tmp_path, kind):
    """A depth-2 trial and a depth-2 copy, run under a profile or trace hook set
    with ``threading`` (and ``sys``, for the calling thread): the hook sees the
    slot function of both slots, slot 1 on a thread other than slot 0's."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "slot":
            seen.add((frame.f_code.co_qualname, frame.f_locals["index"], threading.get_ident()))

    cfg = _cfg(tmp_path, async_depth=2, max_requests=8)
    sb.run_measurement(cfg, trials=1, warmup=0, clock_ghz=1.0)  # creates the target
    src = tmp_path / "src"
    src.write_bytes(sb.make_rng(1).bytes(2 * 4096))
    setters = getattr(sys, f"set{kind}"), getattr(threading, f"set{kind}")
    previous = getattr(sys, f"get{kind}")(), getattr(threading, f"get{kind}")()
    for install in setters:
        install(hook)
    try:
        sb.run_measurement(cfg, trials=1, warmup=0, clock_ghz=1.0)
        sb.copy_file(src, tmp_path / "dst", block=4096, depth=2)
    finally:
        for install, earlier in zip(setters, previous):
            install(earlier)
    for name in ("_trial.<locals>.slot", "_copy_blocks.<locals>.slot"):
        threads = {index: ident for qualname, index, ident in seen if qualname == name}
        assert sorted(threads) == [0, 1], (name, seen)
        assert threads[0] == threading.get_ident() != threads[1]


# -- seeking trials: the positional loop at depth 1 ---------------------------------

@pytest.mark.parametrize("direction", [Direction.READ, Direction.WRITE])
def test_seeking_4k_trial_costs_one_frame_per_request(tmp_path, direction):
    """Positional requests in ticket runs; the one call left is the seek chain's resume."""
    cfg = _cfg(tmp_path, seek_pct=100, direction=direction)
    assert _calls_per_request(_pinned_trial(cfg)) <= 1.05


def test_seeking_trial_starts_no_thread(tmp_path, thread_starts):
    for direction in (Direction.READ, Direction.WRITE):
        cfg = _cfg(tmp_path, seek_pct=30, direction=direction, max_requests=300)
        assert sb.run_measurement(cfg, trials=1, warmup=0, clock_ghz=1.0).bytes_moved == 300 * 4096
    assert thread_starts == []


@pytest.mark.skipif(not os.path.exists("/proc/self/io"), reason="needs /proc/self/io")
@pytest.mark.parametrize("block", [4096, 512])
def test_seeking_trial_moves_only_the_bytes_it_reports(tmp_path, block):
    """A buffered seeking read reads its own bytes in one syscall per request.

    A stream buffer refilled after every seek would read 64 KiB per
    request: 16x the app bytes at 4 KiB and 128x at 512 B.
    """
    requests = 4096
    cfg = _cfg(tmp_path, file_size=8 << 20, block=block, seek_pct=100, max_requests=requests)
    cfg.path.write_bytes(sb.make_rng(3).bytes(cfg.file_size))  # the fill writes nothing
    before = proc_io()
    result = sb.run_measurement(cfg, trials=1, warmup=0, clock_ghz=1.0)
    after = proc_io()
    assert result.bytes_moved == requests * block
    assert (after["rchar"] - before["rchar"]) / result.bytes_moved <= 1.1
    assert (after["syscr"] - before["syscr"]) / requests <= 1.05


def test_seeking_read_trial_ends_on_a_short_read(tmp_path, faults, deadline):
    cfg = _cfg(tmp_path, seek_pct=30, max_requests=16)
    cfg.path.write_bytes(b"\xa5" * cfg.file_size)
    before = open_fds()
    with _short_then_zero(faults, "preadv"), pytest.raises(OSError, match="short read"):
        sb.run_measurement(cfg, trials=1, warmup=0)
    assert open_fds() == before


def test_seeking_write_trial_ends_on_a_full_disk(tmp_path, faults, deadline):
    cfg = _cfg(tmp_path, direction=Direction.WRITE, seek_pct=30, max_requests=1000)
    cfg.path.write_bytes(b"\xa5" * cfg.file_size)  # the fill writes nothing
    before = open_fds()
    with faults("pwritev", errno.ENOSPC, at=300), pytest.raises(OSError) as info:
        sb.run_measurement(cfg, trials=1, warmup=0)
    assert info.value.errno == errno.ENOSPC
    assert open_fds() == before


@pytest.mark.parametrize("block", [4096, 512])
@pytest.mark.parametrize("seek_pct", [1, 30, 100])
def test_seeking_trial_is_a_depth_1_overlapped_trial(tmp_path, deadline, block, seek_pct):
    """Without and with async_depth=1, a seeking write trial issues the same offsets
    and leaves the same file; the target starts as random bytes, so every
    block written shows where it landed."""
    content = sb.make_rng(9).bytes(1 << 20)
    results = []
    for depth in (None, 1):
        log = tmp_path / f"offsets_{depth}.txt"
        cfg = _cfg(tmp_path, path=tmp_path / f"target_{depth}.dat", direction=Direction.WRITE,
                   block=block, seek_pct=seek_pct, async_depth=depth, max_requests=700,
                   offset_log=log)
        cfg.path.write_bytes(content)
        before = open_fds()
        sb.run_measurement(cfg, trials=2, warmup=1, clock_ghz=1.0)
        assert open_fds() == before
        results.append((log.read_text(), cfg.path.read_bytes()))
    assert results[0] == results[1]
    assert results[0][1] != content


def test_direct_read_measurement(tmp_path, need_direct):
    cfg = _cfg(tmp_path, direct=True, block=65536, max_requests=8)
    result = sb.run_measurement(cfg, trials=1, warmup=0)
    assert result.bytes_moved == 8 * 65536


def test_direct_ragged_block_is_rejected(tmp_path, need_direct):
    cfg = _cfg(tmp_path, direct=True, block=1000, max_requests=4)
    with pytest.raises(sb.DirectRequestError):
        sb.run_measurement(cfg, trials=1, warmup=0)


def test_rejected_direct_async_trial_leaves_no_thread_behind(tmp_path, need_direct, deadline):
    cfg = _cfg(tmp_path, direct=True, block=1000, async_depth=3, max_requests=12)
    before = os_threads()
    with pytest.raises(sb.DirectRequestError):
        sb.run_measurement(cfg, trials=1, warmup=0)
    assert not lingering_threads(before)


@pytest.mark.parametrize(
    "direction, call, error",
    [(Direction.READ, "preadv", "short read"), (Direction.WRITE, "pwritev", "no progress")],
)
def test_async_trial_ends_when_a_transfer_stops_making_progress(
    tmp_path, faults, deadline, direction, call, error
):
    cfg = _cfg(tmp_path, direction=direction, async_depth=2, max_requests=16)
    with _short_then_zero(faults, call), pytest.raises(OSError, match=error):
        sb.run_measurement(cfg, trials=1, warmup=0)


def test_async_write_trial_ends_when_its_own_write_stops_making_progress(
    tmp_path, faults, deadline
):
    """The target is already full size, so the fill writes nothing and the fault hits the trial."""
    cfg = _cfg(tmp_path, direction=Direction.WRITE, async_depth=2, max_requests=16)
    cfg.path.write_bytes(b"\xa5" * cfg.file_size)
    with _short_then_zero(faults, "pwritev"), pytest.raises(OSError, match="no progress"):
        sb.run_measurement(cfg, trials=1, warmup=0)


def test_interrupted_async_write_trial_stops_every_slot_before_closing(
    tmp_path, monkeypatch, interrupt_after
):
    """An interrupt reaching the caller stops every slot before the trial's fd is closed.

    Each 1 MiB write waits 20 ms first, so a slot is mid-request when the
    interrupt comes.  A slot left running would write the 0xA5 pattern
    through the closed fd number, into whichever file opens next and
    reuses it.
    """
    cfg = _cfg(tmp_path, direction=Direction.WRITE, async_depth=2, duration=3.0,
               block=1 << 20, file_size=4 << 20)
    cfg.path.write_bytes(b"\xa5" * cfg.file_size)
    real = os.pwritev

    def slow(fd, buffers, offset):
        time.sleep(0.02)
        return real(fd, buffers, offset)

    monkeypatch.setattr(os, "pwritev", slow)
    before = os_threads()
    interrupt_after(0.3)
    with pytest.raises(Interrupt):
        sb.run_measurement(cfg, trials=1, warmup=0)
    bystander = tmp_path / "bystander"
    fd = os.open(bystander, os.O_RDWR | os.O_CREAT | os.O_EXCL)
    try:
        time.sleep(0.1)
    finally:
        os.close(fd)
    assert bystander.stat().st_size == 0
    assert not lingering_threads(before)


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_async_write_trial_ends_on_a_full_disk(tmp_path, faults, deadline, depth):
    cfg = _cfg(tmp_path, direction=Direction.WRITE, async_depth=depth, max_requests=1000)
    cfg.path.write_bytes(b"\xa5" * cfg.file_size)  # the fill writes nothing
    before = os_threads()
    with faults("pwritev", errno.ENOSPC, at=300), pytest.raises(OSError) as info:
        sb.run_measurement(cfg, trials=1, warmup=0)
    assert info.value.errno == errno.ENOSPC
    assert not lingering_threads(before)


# -- slot memory ------------------------------------------------------------------

@pytest.mark.parametrize(
    "overrides",
    [{}, {"seek_pct": 50}, {"direction": Direction.WRITE}, {"async_depth": 2}, {"direct": True}],
    ids=["sequential", "seek", "write", "depth2", "direct"],
)
def test_every_slot_is_page_aligned_and_pattern_filled_before_any_request(
    tmp_path, monkeypatch, request, overrides
):
    """Reads and writes, buffered and direct: one kind of slot memory, mapped by its fill."""
    if overrides.get("direct"):
        request.getfixturevalue("need_direct")
    cfg = _cfg(tmp_path, max_requests=8, **overrides)
    slots = []
    real = sb.bench._slot_view

    def spy(cfg, geometry):
        view = real(cfg, geometry)
        slots.append((np.frombuffer(view, np.uint8).ctypes.data, view.tobytes()))
        return view

    monkeypatch.setattr(sb.bench, "_slot_view", spy)
    sb.run_measurement(cfg, trials=1, warmup=0)
    assert len(slots) == (cfg.async_depth or 1)
    for address, held in slots:
        assert address % mmap.PAGESIZE == 0
        assert held == b"\xa5" * cfg.block


# -- ticket runs ------------------------------------------------------------------

@pytest.mark.parametrize("depth", [2, 4])
@pytest.mark.parametrize("requests", [257, 1000])
@pytest.mark.parametrize("seek_pct", [None, 30])
def test_async_trial_issues_exactly_max_requests_across_runs(
    tmp_path, depth, requests, seek_pct
):
    """At 4 KiB a run is 256 requests: 257 and 1000 end partway into one."""
    log = tmp_path / "offsets.txt"
    cfg = _cfg(tmp_path, async_depth=depth, max_requests=requests, seek_pct=seek_pct,
               offset_log=log)
    result = sb.run_measurement(cfg, trials=1, warmup=0, clock_ghz=1.0)
    assert result.samples[0].request_count == requests
    assert [int(line) for line in log.read_text().split()] == offset_chain(cfg, 0, requests)


def test_async_trial_issues_max_requests_even_below_its_depth(tmp_path):
    log = tmp_path / "offsets.txt"
    cfg = _cfg(tmp_path, async_depth=4, max_requests=2, seek_pct=30, offset_log=log)
    result = sb.run_measurement(cfg, trials=1, warmup=0, clock_ghz=1.0)
    assert result.samples[0].request_count == 2
    assert [int(line) for line in log.read_text().split()] == offset_chain(cfg, 0, 2)


@pytest.mark.parametrize("depth", [1, 2, 4])
@pytest.mark.parametrize("block", [1, 4096])
def test_duration_bounded_async_trial_overshoots_by_at_most_one_run_per_slot(
    tmp_path, monkeypatch, deadline, depth, block
):
    """A clock that advances 1 ms per read: the duration is worth 600 reads.

    The trial must reach them, and may go past them by one run per slot
    at most: 256 requests, 1 MiB at 4 KiB and no more at 1 byte.
    """
    cfg = _cfg(tmp_path, async_depth=depth, duration=0.6, block=block)
    sb.run_measurement(dataclasses.replace(cfg, max_requests=1), trials=1, warmup=0)
    real = os.preadv
    reads: list[None] = []

    def counted(fd, buffers, offset):
        reads.append(None)
        return real(fd, buffers, offset)

    monkeypatch.setattr(os, "preadv", counted)
    monkeypatch.setattr(time, "perf_counter", lambda: len(reads) * 1e-3)
    sample = sb.run_measurement(cfg, trials=1, warmup=0, clock_ghz=1.0).samples[0]
    assert 600 <= sample.request_count <= 600 + depth * 256


# -- one trial loop: buffered sequential trials take ticket runs too ------------------

@pytest.mark.parametrize("depth", [None, 2])
def test_a_trial_without_an_offset_log_keeps_no_offsets(tmp_path, depth):
    """200,000 requests: a list of their offsets alone would take about 8 MB."""
    cfg = _cfg(tmp_path, block=512, async_depth=depth, max_requests=200_000)
    sb.run_measurement(dataclasses.replace(cfg, max_requests=1), trials=1, warmup=0)
    tracemalloc.start()
    try:
        result = sb.run_measurement(cfg, trials=1, warmup=0, clock_ghz=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.samples[0].request_count == 200_000
    assert peak < 1 << 20, f"traced peak {peak} bytes"


def test_buffered_sequential_trial_reads_the_clock_once_per_run(tmp_path, monkeypatch):
    cfg = _cfg(tmp_path, max_requests=10_000)
    sb.run_measurement(dataclasses.replace(cfg, max_requests=1), trials=1, warmup=0)
    real = time.perf_counter
    reads: list[None] = []

    def counted():
        reads.append(None)
        return real()

    monkeypatch.setattr(time, "perf_counter", counted)
    sample = sb.run_measurement(cfg, trials=1, warmup=0, clock_ghz=1.0).samples[0]
    assert sample.request_count == 10_000
    assert len(reads) <= 10_000 / 100


@pytest.mark.parametrize("block", [1, 4096])
def test_duration_bounded_buffered_sequential_trial_overshoots_by_at_most_one_run(
    tmp_path, monkeypatch, deadline, block
):
    """A clock that advances 1 ms per read of the trial's stream: the duration is
    worth 600 reads, and a run is 256 requests at both sizes.  The stream is
    counted where open_file builds it, with ``io.open`` patched as the
    ``faults`` fixture patches it."""
    cfg = _cfg(tmp_path, duration=0.6, block=block)
    sb.run_measurement(dataclasses.replace(cfg, max_requests=1), trials=1, warmup=0)
    real = io.open
    reads: list[None] = []

    class Counted(io.BufferedReader):
        def readinto(self, buffer):
            reads.append(None)
            return super().readinto(buffer)

    def counting(file, mode="r", buffering=-1, *args, **kwargs):
        if not isinstance(file, int):
            return real(file, mode, buffering, *args, **kwargs)
        assert mode == "rb"
        return Counted(io.FileIO(file, "r"), buffering)

    monkeypatch.setattr(io, "open", counting)
    monkeypatch.setattr(time, "perf_counter", lambda: len(reads) * 1e-3)
    sample = sb.run_measurement(cfg, trials=1, warmup=0, clock_ghz=1.0).samples[0]
    assert 600 <= sample.request_count <= 600 + 256
    assert sample.request_count == len(reads)


@pytest.mark.parametrize("depth", [None, 3])
def test_direct_ragged_block_is_rejected_before_any_request_or_thread(
    tmp_path, monkeypatch, thread_starts, need_direct, deadline, depth
):
    cfg = _cfg(tmp_path, direct=True, block=1000, async_depth=depth, max_requests=12)
    sb.run_measurement(dataclasses.replace(cfg, direct=False), trials=1, warmup=0)
    thread_starts.clear()
    requests = []
    real_preadv = os.preadv

    def counted_preadv(fd, buffers, offset):
        requests.append(offset)
        return real_preadv(fd, buffers, offset)

    monkeypatch.setattr(os, "preadv", counted_preadv)
    before = os_threads()
    with pytest.raises(sb.DirectRequestError):
        sb.run_measurement(cfg, trials=1, warmup=0)
    assert requests == [] and thread_starts == []
    assert not lingering_threads(before)


@pytest.mark.parametrize("existing", [None, b"short"])
def test_a_direct_ragged_block_is_refused_before_the_target_is_filled(
    tmp_path, need_direct, existing
):
    """A missing target is not made, and a short one is not extended, before the
    trial would refuse the block."""
    cfg = _cfg(tmp_path, direct=True, block=1000, file_size=64 << 20)
    if existing is not None:
        cfg.path.write_bytes(existing)
    with pytest.raises(sb.DirectRequestError, match="ragged length 1000"):
        sb.run_measurement(cfg, trials=1, warmup=0)
    if existing is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert cfg.path.read_bytes() == existing


def test_a_volume_that_refuses_uncached_opens_gets_no_target(tmp_path, faults):
    cfg = _cfg(tmp_path, direct=True, file_size=64 << 20)
    with faults("open", errno.EINVAL, when=lambda path, flags, *rest: flags & os.O_DIRECT), \
            pytest.raises(sb.DirectIoUnsupportedError):
        sb.run_measurement(cfg, trials=1, warmup=0)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("block", [4096, 512])
def test_sequential_direct_write_trial_is_a_depth_1_trial(tmp_path, need_direct, deadline, block):
    """Without and with async_depth=1, a sequential direct write trial issues the same
    offsets, wrapping to 0, and leaves the same file; the target starts as random bytes."""
    size = 40 * block + 100
    content = sb.make_rng(11).bytes(size)
    results = []
    for depth in (None, 1):
        log = tmp_path / f"offsets_{depth}.txt"
        cfg = _cfg(tmp_path, path=tmp_path / f"target_{depth}.dat", direction=Direction.WRITE,
                   direct=True, file_size=size, block=block, async_depth=depth,
                   max_requests=100, offset_log=log)
        cfg.path.write_bytes(content)
        sb.run_measurement(cfg, trials=2, warmup=1, clock_ghz=1.0)
        results.append((log.read_text(), cfg.path.read_bytes()))
    assert results[0] == results[1]
    assert results[0][0].split()[40] == "0"
    assert results[0][1] != content


# -- measure_extension ------------------------------------------------------------

@pytest.mark.parametrize("mode", list(sb.ExtensionMode))
def test_extension_reaches_exact_length(tmp_path, mode):
    p = tmp_path / "grow.dat"
    result = sb.measure_extension(p, 1 << 20, 65536, mode, trials=2)
    assert p.stat().st_size == 1 << 20
    assert result.config is None
    for s in result.samples:
        assert s.bytes_moved == 1 << 20
        assert s.request_count == 16


def test_extension_ragged_tail(tmp_path):
    p = tmp_path / "grow.dat"
    result = sb.measure_extension(p, 100_000, 65536, sb.ExtensionMode.INCREMENTAL, trials=1)
    assert p.stat().st_size == 100_000
    assert result.samples[0].request_count == 2


def test_extension_starts_fresh_each_trial(tmp_path):
    p = tmp_path / "grow.dat"
    p.write_bytes(b"stale" * 100)
    sb.measure_extension(p, 65536, 65536, sb.ExtensionMode.PREALLOCATED, trials=1)
    assert p.stat().st_size == 65536
    assert b"stale" not in p.read_bytes()


@pytest.mark.parametrize("mode", list(sb.ExtensionMode))
@pytest.mark.parametrize("final_size", [5 * 4096, 5 * 4096 + 1000], ids=["whole", "ragged"])
def test_extension_writes_each_block_once_at_its_offset(tmp_path, monkeypatch, mode, final_size):
    """One pwritev per block, of the block (the last cut to the tail) at its
    offset, one fsync after each and one more at the end; nothing else writes."""
    block = 4096
    real_pwritev, real_fsync = os.pwritev, os.fsync
    writes, fsyncs = [], []

    def pwritev(fd, buffers, offset):
        writes.append((offset, [len(b) for b in buffers]))
        return real_pwritev(fd, buffers, offset)

    def fsync(fd):
        fsyncs.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "pwritev", pwritev)
    monkeypatch.setattr(os, "fsync", fsync)
    p = tmp_path / "grow.dat"
    result = sb.measure_extension(p, final_size, block, mode, trials=1)
    blocks = -(-final_size // block)
    assert writes == [
        (offset, [min(block, final_size - offset)]) for offset in range(0, final_size, block)
    ]
    assert len(fsyncs) == blocks + 1
    assert result.samples[0].request_count == blocks
    assert p.read_bytes() == b"\xa5" * final_size


def test_extension_rejects_bad_sizes(tmp_path):
    p = tmp_path / "grow.dat"
    with pytest.raises(ValueError):
        sb.measure_extension(p, 0, 4096, sb.ExtensionMode.INCREMENTAL)
    with pytest.raises(ValueError):
        sb.measure_extension(p, 4096, 0, sb.ExtensionMode.INCREMENTAL)
    with pytest.raises(sb.ConfigError, match="at least one trial, got 0"):
        sb.measure_extension(p, 4096, 4096, sb.ExtensionMode.INCREMENTAL, trials=0)
    with pytest.raises(sb.ConfigError, match="mode must be an ExtensionMode, got 'incremental'"):
        sb.measure_extension(p, 4096, 4096, "incremental")
    assert not p.exists()
