"""Measurement core: offsets, summaries, accounting, extension timing."""
import itertools
import math
import os
import statistics
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

import seqbench as sb
from seqbench.bench import CLOCK_ENV_VAR, IoConfig, ThroughputSample
from seqbench.core import Direction
from seqbench.engine import IoMode


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
    ],
)
def test_config_rejects_bad_values(tmp_path, overrides):
    with pytest.raises(sb.ConfigError):
        _cfg(tmp_path, **overrides)


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

def test_summarize_median_and_pstdev():
    med, dev = sb.summarize([1.0, 2.0, 3.0])
    assert med == 2.0
    assert dev == pytest.approx(statistics.pstdev([1.0, 2.0, 3.0]))
    med, dev = sb.summarize([1.0, 2.0, 3.0, 4.0])
    assert med == 2.5
    assert dev == pytest.approx(statistics.pstdev([1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(ValueError):
        sb.summarize([])


def test_per_byte_cost_example():
    sample = ThroughputSample(bytes_moved=10**9, wall_seconds=9.9, cpu_seconds=5.0, request_count=1)
    ns, cycles = sb.per_byte_cost(sample, 2.8)
    assert ns == pytest.approx(5.0)
    assert cycles == pytest.approx(14.0)


def test_per_byte_cost_without_clock_is_nan():
    sample = ThroughputSample(1000, 1.0, 0.5, 1)
    ns, cycles = sb.per_byte_cost(sample, None)
    assert ns == pytest.approx(5e5)
    assert math.isnan(cycles)


def test_per_byte_cost_rejects_zero_bytes():
    with pytest.raises(ValueError):
        sb.per_byte_cost(ThroughputSample(0, 1.0, 0.5, 0), 2.0)


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


def test_prepare_creates_and_fills_target(tmp_path):
    cfg = _cfg(tmp_path, max_requests=4)
    assert not cfg.path.exists()
    sb.run_measurement(cfg, trials=1, warmup=0)
    assert cfg.path.stat().st_size == cfg.file_size


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


def test_touch_mode_runs(tmp_path):
    cfg = _cfg(tmp_path, touch=True, max_requests=16)
    result = sb.run_measurement(cfg, trials=1, warmup=0)
    assert result.bytes_moved == 16 * 4096


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
    """Eight slots on a fast switch interval: a lost ticket or offset update breaks the chain."""
    logs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for depth in (None, 8):
            log = tmp_path / f"log_{depth}.txt"
            cfg = _cfg(tmp_path, seek_pct=30, async_depth=depth, max_requests=800, offset_log=log)
            result = sb.run_measurement(cfg, trials=1, warmup=0)
            assert result.samples[0].request_count == 800
            logs.append(log.read_text())
    finally:
        sys.setswitchinterval(interval)
    assert logs[0] == logs[1]


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
    before = threading.active_count()
    with pytest.raises(sb.DirectRequestError):
        sb.run_measurement(cfg, trials=1, warmup=0)
    assert threading.active_count() == before


def test_failed_async_trial_leaves_no_thread_behind(tmp_path, monkeypatch, deadline):
    cfg = _cfg(tmp_path, async_depth=3, max_requests=64)
    real = os.preadv
    calls = itertools.count()

    def failing(fd, buffers, offset):
        if next(calls) == 9:
            raise OSError("injected read failure")
        return real(fd, buffers, offset)

    monkeypatch.setattr(os, "preadv", failing)
    before = threading.active_count()
    with pytest.raises(OSError, match="injected read failure"):
        sb.run_measurement(cfg, trials=1, warmup=0)
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "direction, call, error",
    [(Direction.READ, "preadv", "short read"), (Direction.WRITE, "pwritev", "no progress")],
)
def test_async_trial_ends_when_a_transfer_stops_making_progress(
    tmp_path, short_then_zero, deadline, direction, call, error
):
    cfg = _cfg(tmp_path, direction=direction, async_depth=2, max_requests=16)
    short_then_zero(call)
    with pytest.raises(OSError, match=error):
        sb.run_measurement(cfg, trials=1, warmup=0)


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


def test_extension_rejects_bad_sizes(tmp_path):
    p = tmp_path / "grow.dat"
    with pytest.raises(ValueError):
        sb.measure_extension(p, 0, 4096, sb.ExtensionMode.INCREMENTAL)
    with pytest.raises(ValueError):
        sb.measure_extension(p, 4096, 0, sb.ExtensionMode.INCREMENTAL)
