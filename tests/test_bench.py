"""Measurement core: offsets, summaries, accounting, extension timing."""
import collections
import dataclasses
import errno
import gc
import itertools
import math
import os
import statistics
import sys
import threading
import time
import tracemalloc
import zlib

import pytest
from conftest import Interrupt, open_fds, proc_io
from hypothesis import given, settings, strategies as st

import seqbench as sb
from seqbench.bench import CLOCK_ENV_VAR, IoConfig, ThroughputSample
from seqbench.core import Direction
from seqbench.engine import FileHandle, IoMode
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


def test_prepare_keeps_existing_bytes_and_fills_the_rest_with_the_pattern(tmp_path):
    cfg = _cfg(tmp_path, file_size=(8 << 20) + 4096, max_requests=1)
    cfg.path.write_bytes(b"keep")
    sb.run_measurement(cfg, trials=1, warmup=0)
    assert cfg.path.read_bytes() == b"keep" + b"\xa5" * (cfg.file_size - 4)


def test_prepare_ends_when_a_fill_write_stops_making_progress(
    tmp_path, short_then_zero, deadline
):
    cfg = _cfg(tmp_path, max_requests=4)
    short_then_zero("pwritev")
    with pytest.raises(OSError, match="write made no progress"):
        sb.run_measurement(cfg, trials=1, warmup=0)


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


def test_a_failed_measurement_leaves_the_offsets_it_took(tmp_path, short_then_zero, deadline):
    """The fourth read of a seeking trial comes back empty, inside its first ticket run."""
    log = tmp_path / "offsets.txt"
    cfg = _cfg(tmp_path, seek_pct=50, max_requests=50, offset_log=log)
    sb.run_measurement(dataclasses.replace(cfg, offset_log=None), trials=1, warmup=0, clock_ghz=1.0)
    short_then_zero("preadv", step=4096)
    with pytest.raises(OSError, match="short read"):
        sb.run_measurement(cfg, trials=2, warmup=0, clock_ghz=1.0)
    assert [int(line) for line in log.read_text().split()] == _reference_chain(cfg, 0, 50)


def test_a_failed_trial_leaves_no_garbage_cycle(tmp_path, short_then_zero, deadline):
    """A cycle through the failed trial's frames would keep its seek-offset
    generator alive until the cyclic GC closed it, in whatever code ran then."""
    cfg = _cfg(tmp_path, seek_pct=50, max_requests=50)
    sb.run_measurement(cfg, trials=1, warmup=0, clock_ghz=1.0)
    short_then_zero("preadv", step=4096)
    gc.collect()
    with pytest.raises(OSError, match="short read"):
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
    assert [int(line) for line in logs[1].split()] == _reference_chain(cfg, 0, 9000)


# -- trial offsets against the next_offset reference ------------------------------

def _reference_chain(cfg, stream, count):
    """The first ``count`` offsets of a trial, built with ``next_offset`` alone."""
    rng = sb.make_rng(cfg.seed, stream)
    offsets = [0]
    while len(offsets) < count:
        offsets.append(sb.next_offset(offsets[-1], cfg, cfg.file_size, rng))
    return offsets


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
    assert got == _reference_chain(cfg, 0, 5000) + _reference_chain(cfg, 1, 5000)


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
    assert got == _reference_chain(cfg, 0, max(n, depth or 1))


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
    assert list(itertools.islice(chain, count)) == _reference_chain(cfg, 0, count)


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
    counts = []
    for requests in (small, large):
        calls = []

        def profile(frame, event, arg, record=calls.append):
            if event == "call":
                record(frame.f_code)

        gc.collect()
        gc.disable()
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            run(requests)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            gc.enable()
        counts.append(collections.Counter(
            f"{os.path.splitext(os.path.basename(code.co_filename))[0]}.{code.co_qualname}"
            for code in calls
        ))
    span = large - small
    by_function = {name: (counts[1][name] - counts[0][name]) / span for name in counts[1] | counts[0]}
    return _CallRate((counts[1].total() - counts[0].total()) / span, by_function)


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
        ({}, 1.1),
        ({"seek_pct": 100}, 3.0),
        ({"direction": Direction.WRITE}, 1.1),
    ],
    ids=["sequential-read", "seeking-read", "write"],
)
def test_buffered_4k_trial_costs_one_frame_per_request(tmp_path, overrides, budget):
    """read_block/write_block hand the trial's whole bytearray straight to the stream;
    a seeking read adds only the seek and the offset generator."""
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


def test_extension_costs_two_frames_per_block(tmp_path):
    """One write_block and one flush per block."""

    def run(blocks):
        result = sb.measure_extension(
            tmp_path / "grown.dat", blocks * 4096, 4096, sb.ExtensionMode.INCREMENTAL,
            trials=1, clock_ghz=1.0,
        )
        assert result.samples[0].request_count == blocks

    run(1)  # so that both measured runs find a file to delete
    assert _calls_per_request(run, small=100, large=300) <= 2.0


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


def test_depth_1_starts_no_thread(tmp_path, monkeypatch):
    started = []
    real = threading.Thread.start

    def counted(thread):
        started.append(thread)
        real(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    cfg = _cfg(tmp_path, async_depth=1, max_requests=300)
    assert sb.run_measurement(cfg, trials=1, warmup=0, clock_ghz=1.0).bytes_moved == 300 * 4096
    src = tmp_path / "src"
    src.write_bytes(sb.make_rng(1).bytes(10 * 4096))
    assert sb.copy_file(src, tmp_path / "dst", block=4096, depth=1).write_requests == 10
    assert started == []


# -- seeking trials: the positional loop at depth 1 ---------------------------------

@pytest.mark.parametrize("direction", [Direction.READ, Direction.WRITE])
def test_seeking_4k_trial_costs_one_frame_per_request(tmp_path, direction):
    """Positional requests in ticket runs; the one call left is the seek chain's resume."""
    cfg = _cfg(tmp_path, seek_pct=100, direction=direction)
    assert _calls_per_request(_pinned_trial(cfg)) <= 1.05


def test_seeking_trial_starts_no_thread(tmp_path, monkeypatch):
    started = []
    real = threading.Thread.start

    def counted(thread):
        started.append(thread)
        real(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    for direction in (Direction.READ, Direction.WRITE):
        cfg = _cfg(tmp_path, seek_pct=30, direction=direction, max_requests=300)
        assert sb.run_measurement(cfg, trials=1, warmup=0, clock_ghz=1.0).bytes_moved == 300 * 4096
    assert started == []


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


def test_seeking_read_trial_ends_on_a_short_read(tmp_path, short_then_zero, deadline):
    cfg = _cfg(tmp_path, seek_pct=30, max_requests=16)
    cfg.path.write_bytes(b"\xa5" * cfg.file_size)
    short_then_zero("preadv")
    before = open_fds()
    with pytest.raises(OSError, match="short read"):
        sb.run_measurement(cfg, trials=1, warmup=0)
    assert open_fds() == before


def test_seeking_write_trial_ends_when_a_write_stops_making_progress(
    tmp_path, short_then_zero, deadline
):
    cfg = _cfg(tmp_path, direction=Direction.WRITE, seek_pct=30, max_requests=16)
    cfg.path.write_bytes(b"\xa5" * cfg.file_size)  # the fill writes nothing
    short_then_zero("pwritev")
    before = open_fds()
    with pytest.raises(OSError, match="no progress"):
        sb.run_measurement(cfg, trials=1, warmup=0)
    assert open_fds() == before


def test_seeking_write_trial_ends_on_a_full_disk(tmp_path, enospc_at, deadline):
    cfg = _cfg(tmp_path, direction=Direction.WRITE, seek_pct=30, max_requests=1000)
    cfg.path.write_bytes(b"\xa5" * cfg.file_size)  # the fill writes nothing
    enospc_at(300)
    before = open_fds()
    with pytest.raises(OSError) as info:
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


def test_async_write_trial_ends_when_its_own_write_stops_making_progress(
    tmp_path, short_then_zero, deadline
):
    """The target is already full size, so the fill writes nothing and the fault hits the trial."""
    cfg = _cfg(tmp_path, direction=Direction.WRITE, async_depth=2, max_requests=16)
    cfg.path.write_bytes(b"\xa5" * cfg.file_size)
    short_then_zero("pwritev")
    with pytest.raises(OSError, match="no progress"):
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
    before = threading.active_count()
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
    assert threading.active_count() == before


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_async_write_trial_ends_on_a_full_disk(tmp_path, enospc_at, deadline, depth):
    cfg = _cfg(tmp_path, direction=Direction.WRITE, async_depth=depth, max_requests=1000)
    cfg.path.write_bytes(b"\xa5" * cfg.file_size)  # the fill writes nothing
    enospc_at(300)
    before = threading.active_count()
    with pytest.raises(OSError) as info:
        sb.run_measurement(cfg, trials=1, warmup=0)
    assert info.value.errno == errno.ENOSPC
    assert threading.active_count() == before


def test_buffered_write_trial_ends_on_a_full_disk(tmp_path, stream_enospc_at, deadline):
    cfg = _cfg(tmp_path, direction=Direction.WRITE, max_requests=1000)
    cfg.path.write_bytes(b"\xa5" * cfg.file_size)  # the fill writes nothing
    stream_enospc_at(3)  # the third 64 KiB stream flush, about request 49 of 1000
    before = open_fds()
    with pytest.raises(OSError) as info:
        sb.run_measurement(cfg, trials=1, warmup=0)
    assert info.value.errno == errno.ENOSPC
    assert open_fds() == before


def test_extension_ends_on_a_full_disk(tmp_path, stream_enospc_at, deadline):
    stream_enospc_at(5)  # every block is flushed, so this is block 5 of 32
    before = open_fds()
    with pytest.raises(OSError) as info:
        sb.measure_extension(
            tmp_path / "grown.dat", 32 * 4096, 4096, sb.ExtensionMode.INCREMENTAL, trials=1
        )
    assert info.value.errno == errno.ENOSPC
    assert open_fds() == before


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
    assert [int(line) for line in log.read_text().split()] == _reference_chain(cfg, 0, requests)


def test_async_trial_issues_depth_requests_even_below_max_requests(tmp_path):
    log = tmp_path / "offsets.txt"
    cfg = _cfg(tmp_path, async_depth=4, max_requests=2, seek_pct=30, offset_log=log)
    result = sb.run_measurement(cfg, trials=1, warmup=0, clock_ghz=1.0)
    assert result.samples[0].request_count == 4
    assert [int(line) for line in log.read_text().split()] == _reference_chain(cfg, 0, 4)


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
    """A clock that advances 1 ms per read_block: the duration is worth 600 reads,
    and a run is 256 requests at both sizes."""
    cfg = _cfg(tmp_path, duration=0.6, block=block)
    sb.run_measurement(dataclasses.replace(cfg, max_requests=1), trials=1, warmup=0)
    real = FileHandle.read_block
    reads: list[None] = []

    def counted(self, buffer, length=None):
        reads.append(None)
        return real(self, buffer, length)

    monkeypatch.setattr(FileHandle, "read_block", counted)
    monkeypatch.setattr(time, "perf_counter", lambda: len(reads) * 1e-3)
    sample = sb.run_measurement(cfg, trials=1, warmup=0, clock_ghz=1.0).samples[0]
    assert 600 <= sample.request_count <= 600 + 256
    assert sample.request_count == len(reads)


@pytest.mark.parametrize("depth", [None, 3])
def test_direct_ragged_block_is_rejected_before_any_request_or_thread(
    tmp_path, monkeypatch, need_direct, deadline, depth
):
    cfg = _cfg(tmp_path, direct=True, block=1000, async_depth=depth, max_requests=12)
    sb.run_measurement(dataclasses.replace(cfg, direct=False), trials=1, warmup=0)
    requests, started = [], []
    real_preadv, real_start = os.preadv, threading.Thread.start

    def counted_preadv(fd, buffers, offset):
        requests.append(offset)
        return real_preadv(fd, buffers, offset)

    def counted_start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(os, "preadv", counted_preadv)
    monkeypatch.setattr(threading.Thread, "start", counted_start)
    with pytest.raises(sb.DirectRequestError):
        sb.run_measurement(cfg, trials=1, warmup=0)
    assert requests == [] and started == []


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


def test_extension_rejects_bad_sizes(tmp_path):
    p = tmp_path / "grow.dat"
    with pytest.raises(ValueError):
        sb.measure_extension(p, 0, 4096, sb.ExtensionMode.INCREMENTAL)
    with pytest.raises(ValueError):
        sb.measure_extension(p, 4096, 0, sb.ExtensionMode.INCREMENTAL)
