"""Release acceptance checklist.

Each test here is one numbered contract the toolkit must satisfy, with its
own runtime budget, and prints a single PASS line (run with ``-s`` to see
them as a checklist).  Everything is property- or shape-based: absolute
throughput depends on hardware and is deliberately not asserted.  The two
tests that need special surroundings (a loopback scratch volume, a volume
accepting cache bypass) skip with a notice instead of failing where the
environment cannot provide them.
"""
import dataclasses
import hashlib
import itertools
import math
import statistics
import struct
import time
import zlib
from collections import namedtuple
from pathlib import Path

import pytest

import seqbench as sb
from seqbench.cli import parse_examples, parse_fragdisk, parse_iospeed
from conftest import golden_bytes, golden_text

_FakeBuffer = namedtuple("_FakeBuffer", "address capacity")


class _Budget:
    """Wall-clock budget for one criterion; asserts on exit and prints."""

    def __init__(self, number: int, label: str, seconds: float):
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            return False
        elapsed = time.perf_counter() - self.started
        assert elapsed < self.seconds, (
            f"criterion {self.number} took {elapsed:.1f}s, budget {self.seconds:.0f}s"
        )
        print(f"PASS criterion {self.number}: {self.label} ({elapsed:.1f}s)")
        return False


# -- 1: copy correctness against a plain sequential-read oracle -------------

def test_criterion_01_copy_oracle(tmp_path):
    with _Budget(1, "copy oracle over 200 randomized cases", 60.0):
        rng = sb.make_rng(4242)
        blob = rng.bytes(10 * 2**20 + 7)

        block, depth = 4096, 3
        cases = [(size, block, depth) for size in
                 (0, 1, block - 1, block, block + 1,
                  depth * block - 1, depth * block + 1)]
        cases.append((10 * 2**20 + 7, 65536, 4))
        while len(cases) < 200:
            case_block = int(rng.choice([1, 7, 512, 4096, 65536]))
            size = int(rng.integers(0, 30)) * case_block + int(rng.integers(0, case_block))
            cases.append((size, case_block, int(rng.integers(1, 9))))
        assert len(cases) == 200

        src = tmp_path / "src.dat"
        dst = tmp_path / "dst.dat"
        for size, case_block, case_depth in cases:
            src.write_bytes(blob[:size])
            report = sb.copy_file(src, dst, block=case_block, depth=case_depth)

            oracle = hashlib.sha256()
            with open(src, "rb") as stream:
                for chunk in iter(lambda: stream.read(1 << 16), b""):
                    oracle.update(chunk)
            got = hashlib.sha256(dst.read_bytes())
            assert got.digest() == oracle.digest(), (size, case_block, case_depth)
            assert report.bytes_copied == size
            dst.unlink()


# -- 2: schedule tiles [0, size) exactly -------------------------------------

def _assert_exact_tiling(size: int, block: int, depth: int) -> None:
    """Brute-force interval check: contiguous from 0, disjoint, complete."""
    plan = sb.plan_schedule(size, block, depth)
    covered = 0
    for index, (slot, offset, length) in enumerate(plan):
        assert offset == covered, (size, block, depth)
        assert 1 <= length <= block
        if index < len(plan) - 1:
            assert length == block
        assert slot == (offset // block) % depth
        covered += length
    assert covered == size, (size, block, depth)


def test_criterion_02_schedule_oracle():
    with _Budget(2, "schedule tiling oracle over 1000 random triples", 5.0):
        rng = sb.make_rng(7)
        for _ in range(1000):
            _assert_exact_tiling(
                int(rng.integers(0, 1_000_001)),
                int(rng.integers(1, 65537)),
                int(rng.integers(1, 17)),
            )


# -- 3: open-mode truth table -------------------------------------------------

def test_criterion_03_open_mode_truth_table(tmp_path):
    with _Budget(3, "open-mode truth table, 12 cells", 5.0):
        D = sb.OpenDisposition
        # (disposition, file exists?, expected error or expected length)
        table = [
            (D.OPEN, False, FileNotFoundError),
            (D.OPEN, True, 3),
            (D.CREATE, False, 0),
            (D.CREATE, True, 0),
            (D.CREATE_NEW, False, 0),
            (D.CREATE_NEW, True, FileExistsError),
            (D.OPEN_OR_CREATE, False, 0),
            (D.OPEN_OR_CREATE, True, 3),
            (D.APPEND, False, 0),
            (D.APPEND, True, 3),
            (D.TRUNCATE, False, FileNotFoundError),
            (D.TRUNCATE, True, 0),
        ]
        assert len(table) == 12
        for index, (disposition, exists, outcome) in enumerate(table):
            path = tmp_path / f"cell{index}.dat"
            if exists:
                path.write_bytes(b"old")
            direction = sb.Direction.READ if disposition is D.OPEN else sb.Direction.WRITE
            if isinstance(outcome, type):
                with pytest.raises(outcome):
                    sb.open_file(path, disposition, direction)
            else:
                with sb.open_file(path, disposition, direction) as handle:
                    assert handle.length == outcome, (disposition, exists)
                    if disposition is D.APPEND:
                        assert handle.position == handle.length


# -- 4: direct-I/O alignment guards -------------------------------------------

class _MisreportedBase:
    """Wraps a real aligned buffer but claims a bumped base address.

    Touching ``view`` would mean a transfer was attempted after the
    validator should already have refused the request.
    """

    def __init__(self, buffer, bump: int):
        self._buffer = buffer
        self._bump = bump

    @property
    def address(self):
        return self._buffer.address + self._bump

    @property
    def capacity(self):
        return self._buffer.capacity

    @property
    def view(self):
        raise AssertionError("transfer started despite a misaligned base")


def test_criterion_04_direct_io_guards(tmp_path):
    with _Budget(4, "direct-I/O alignment guards", 10.0):
        geometry = sb.SectorGeometry(logical_sector=512)
        sector = geometry.logical_sector
        for base_off, len_off, off_off in itertools.product((0, 1), repeat=3):
            probe = _FakeBuffer(address=8 * sector + base_off, capacity=4 * sector)
            violations = sb.validate_direct_request(
                geometry, probe, sector + len_off, 2 * sector + off_off)
            if base_off:
                assert any("address" in v for v in violations)
            if len_off:
                assert any("length" in v for v in violations)
            if off_off:
                assert any("offset" in v for v in violations)
            if not (base_off or len_off or off_off):
                assert violations == []

        if not sb.supports_direct_io(tmp_path):
            pytest.skip("notice: this volume refuses cache-bypass opens; "
                        "guards verified at the validator level only")

        path = tmp_path / "direct.dat"
        with sb.open_file(path, sb.OpenDisposition.CREATE, sb.Direction.WRITE,
                          sb.IoMode.DIRECT) as handle:
            sector = handle.geometry.logical_sector
            buffer = sb.AlignedBuffer(4 * sector, handle.geometry.recommended_alignment)
            buffer.view[:] = bytes(range(256)) * (4 * sector // 256)

            # every misaligned (base | length | offset) combination refused
            for base_off, len_off, off_off in itertools.product((0, 1), repeat=3):
                if not (base_off or len_off or off_off):
                    continue
                request = _MisreportedBase(buffer, base_off) if base_off else buffer
                handle.seek(2 * sector + off_off)
                before = handle.length
                with pytest.raises(sb.DirectRequestError) as failure:
                    handle.write_block(request, sector + len_off)
                assert failure.value.violations
                assert handle.position == 2 * sector + off_off  # nothing moved
                assert handle.length == before  # nothing written

            # the aligned combination succeeds end to end
            handle.seek(0)
            assert handle.write_block(buffer, 2 * sector) == 2 * sector
            handle.flush(sb.FlushLevel.OPERATING_SYSTEM_CACHE)

        with sb.open_file(path, sb.OpenDisposition.OPEN, sb.Direction.READ,
                          sb.IoMode.DIRECT) as handle:
            readback = sb.AlignedBuffer(4 * sector, handle.geometry.recommended_alignment)
            assert handle.read_block(readback, 2 * sector) == 2 * sector
            assert bytes(readback.view[:2 * sector]) == bytes(buffer.view[:2 * sector])


# -- 5: preallocation is exact -------------------------------------------------

def test_criterion_05_preallocation_exact_length(tmp_path):
    with _Budget(5, "preallocate(128 MiB) gives exactly 134,217,728 bytes", 5.0):
        path = tmp_path / "prealloc.dat"
        with sb.open_file(path, sb.OpenDisposition.CREATE, sb.Direction.WRITE) as handle:
            handle.preallocate(128 << 20)
            assert handle.length == 134_217_728
        assert path.stat().st_size == 134_217_728
        path.unlink()


# -- 6: request-size throughput and per-byte cost shapes -----------------------

def test_criterion_06_request_size_shape(tmp_path):
    with _Budget(6, "64 KiB requests beat 1 B requests 50x in MB/s, 10x in ns/byte", 60.0):
        base = Path("/dev/shm") if Path("/dev/shm").is_dir() else tmp_path
        path = base / "seqbench_shape_probe.dat"
        try:
            results = {}
            for block in (1, 65536):
                cfg = sb.IoConfig(path=path, direction=sb.Direction.READ,
                                  file_size=8 << 20, duration=2.0, block=block,
                                  seed=11)
                results[block] = sb.run_measurement(cfg, trials=1, warmup=1)
        finally:
            path.unlink(missing_ok=True)
        tiny, big = results[1], results[65536]
        assert big.mb_per_sec >= 50.0 * tiny.mb_per_sec, (
            f"64 KiB reads at {big.mb_per_sec:.1f} MB/s vs "
            f"1 B reads at {tiny.mb_per_sec:.3f} MB/s")
        assert big.per_byte_ns <= 0.1 * tiny.per_byte_ns, (
            f"64 KiB reads at {big.per_byte_ns:.3f} ns/B vs "
            f"1 B reads at {tiny.per_byte_ns:.1f} ns/B")


# -- 7: preallocation helps file extension on an aged volume -------------------

@pytest.mark.mounts
def test_criterion_07_preallocation_benefit_direction():
    with _Budget(7, "preallocated extension beats incremental on an aged volume", 600.0):
        problem = sb.volume_support_problem()
        if problem:
            pytest.skip(f"notice: needs a loopback scratch volume ({problem})")
        with sb.scratch_volume(1 << 30) as mount:
            aging = sb.FragConfig(
                root=mount / "age", min_file=64 << 10, max_file=256 << 10,
                files_per_cycle=10_000, max_cycles=2,
                fill_pct=90, keep_pct=50, seed=137)
            sb.run_cycles(aging)

            target = mount / "extend.dat"
            rates = {sb.ExtensionMode.INCREMENTAL: [],
                     sb.ExtensionMode.PREALLOCATED: []}
            for _ in range(5):
                for mode in rates:
                    result = sb.measure_extension(target, 128 << 20, 256 << 10,
                                                  mode, trials=1)
                    rates[mode].append(result.mb_per_sec)
                    target.unlink()
            incremental = statistics.median(rates[sb.ExtensionMode.INCREMENTAL])
            preallocated = statistics.median(rates[sb.ExtensionMode.PREALLOCATED])
            assert preallocated >= incremental, (
                f"preallocated {preallocated:.1f} MB/s vs incremental "
                f"{incremental:.1f} MB/s on the aged volume")


# -- 8: aging runs are reproducible and hit their occupancy targets ------------

def test_criterion_08_fragger_determinism(tmp_path):
    with _Budget(8, "seed-137 aging runs byte-identical, occupancy on target", 300.0):
        reports, logs = [], []
        for run in range(2):
            root = tmp_path / f"run{run}"
            root.mkdir()
            log = tmp_path / f"events{run}.log"
            cfg = sb.FragConfig.scaled(root, capacity_limit=32 << 20,
                                       seed=137, event_log=log)
            reports.append(sb.run_cycles(cfg))
            logs.append(log.read_bytes())

        assert logs[0] and logs[0] == logs[1]
        assert reports[0].events == reports[1].events
        assert reports[0].survivors == reports[1].survivors

        max_file = sb.FragConfig.scaled(tmp_path / "probe", 32 << 20).max_file
        boundaries = reports[0].boundaries
        assert boundaries, "runs recorded no phase boundaries"
        for boundary in boundaries:
            assert abs(boundary.occupancy - boundary.target) <= max_file, boundary


# -- 9: command-line contract table ---------------------------------------------

def test_criterion_09_cli_contract_table(tmp_path):
    with _Budget(9, "usage-page defaults and examples parse as documented", 5.0):
        # bare invocation is the fully spelled default line
        bare = parse_iospeed(["a.dat"])
        assert bare == parse_iospeed(["-t30", "-b64K", "-r1G", "-s0", "a.dat"])
        cfg = bare.config
        assert cfg.duration == 30.0
        assert cfg.block == 65536
        assert cfg.file_size == 1 << 30
        assert cfg.direction is sb.Direction.READ
        assert cfg.async_depth is None and cfg.seek_pct is None
        assert not (cfg.direct or cfg.touch or bare.quiet)
        assert bare.extension is None and bare.extension_size is None

        inv = parse_iospeed(["-t60", "-p100M", "a.dat"])
        assert inv.extension is sb.ExtensionMode.PREALLOCATED
        assert inv.extension_size == 100 << 20
        assert inv.config.duration == 60.0

        inv = parse_iospeed(["-t30", "-w100M", "-p", "a.dat"])
        assert inv.config.direction is sb.Direction.WRITE
        assert inv.extension is sb.ExtensionMode.PREALLOCATED
        assert inv.extension_size == 100 << 20  # bare -p borrows the -w size

        inv = parse_iospeed(["-a2", "-b256K", "a.dat"])
        assert inv.config.async_depth == 2
        assert inv.config.block == 256 * 1024
        assert inv.config.direction is sb.Direction.READ

        assert parse_iospeed(["-a", "a.dat"]).config.async_depth == 4
        assert parse_iospeed(["-s", "a.dat"]).config.seek_pct == 100
        assert parse_iospeed(["-s0", "a.dat"]).config.seek_pct is None
        flagged = parse_iospeed(["-d", "-c", "-q", "a.dat"])
        assert flagged.config.direct and flagged.config.touch and flagged.quiet

        # all ten aging-tool defaults, then the documented example override
        defaults = parse_fragdisk([str(tmp_path)])
        assert defaults.max_files == 100_000
        assert defaults.min_file == 1 << 20
        assert defaults.max_file == 256 << 20
        assert defaults.files_per_cycle == 1000
        assert defaults.max_files_per_dir == 100
        assert defaults.max_subdirs == 10
        assert defaults.max_cycles == 0
        assert defaults.keep_pct == 5
        assert defaults.fill_pct == 70
        assert defaults.seed == 137

        example = parse_fragdisk(["-f95", "-k10", str(tmp_path)])
        assert example == dataclasses.replace(defaults, fill_pct=95, keep_pct=10)

        with pytest.raises(sb.ConfigError, match="directory"):
            parse_fragdisk([])
        with pytest.raises(sb.ConfigError):
            parse_fragdisk(["-k70", "-f70", str(tmp_path)])

        inv = parse_examples([])
        assert inv.record_count == 1_000_000
        assert inv.path.name == "io_examples_temp.dat"
        assert parse_examples(["t.dat", "10000"]).record_count == 10_000
        with pytest.raises(sb.ConfigError):
            parse_examples(["t.dat", "-5"])


# -- 10: the workload tools agree with each other and with the stdlib ------------

def test_criterion_10_workload_equivalence(tmp_path):
    with _Budget(10, "workload checksums, typed round trip, line counts, sort layout", 30.0):
        rng = sb.make_rng(99)

        payload = rng.bytes(200_001)
        data = tmp_path / "payload.dat"
        data.write_bytes(payload)
        by_byte = sb.run_read(data, sb.ByteAtATime())
        by_block = sb.run_read(data, sb.BlockAtATime(65536))
        assert by_byte.checksum == by_block.checksum == zlib.adler32(payload, 1)
        assert by_byte.bytes_processed == by_block.bytes_processed == len(payload)

        values = []
        for _ in range(10_000):
            kind = int(rng.integers(0, 4))
            if kind == 0:
                values.append(("u32", int.from_bytes(rng.bytes(4), "little")))
            elif kind == 1:
                values.append(("i64", int.from_bytes(rng.bytes(8), "little", signed=True)))
            elif kind == 2:
                number = struct.unpack("<d", rng.bytes(8))[0]
                values.append(("f64", 0.0 if math.isnan(number) else number))
            else:
                length = int(rng.integers(0, 21))
                text = "".join(chr(int(c)) for c in rng.integers(32, 0x2FFF, size=length))
                values.append(("str", text))
        assert sb.typed_roundtrip(values, tmp_path / "typed.bin") == values

        for case in range(100):
            alphabet = b"word \r\n"
            raw = bytes(alphabet[i] for i in
                        rng.integers(0, len(alphabet), size=int(rng.integers(0, 2000))))
            text_file = tmp_path / "lines.txt"
            text_file.write_bytes(raw)
            naive = len(raw.split(b"\n")) - (1 if raw.endswith(b"\n") or not raw else 0)
            assert sb.run_read(text_file, sb.LineAtATime()).sample.request_count == naive, (case, raw[:40])

        for count in (0, 1, 17, 1000):
            sort_file = tmp_path / "sort.dat"
            sb.write_sort_file(sort_file, count, sb.make_rng(1))
            assert sort_file.stat().st_size == 100 * count


# -- 11: serialized output is byte-stable ----------------------------------------

def _pinned_series():
    return [
        sb.PlotSeries(label="buffered read",
                      points=((1, 2.5), (1024, 180.0), (65536, 360.0), (1 << 20, 362.5)),
                      stddev=(0.25, 4.0, 6.5, 5.0)),
        sb.PlotSeries(label="buffered write",
                      points=((1, 1.75), (1024, 150.0), (65536, 310.0), (1 << 20, 320.0))),
        sb.PlotSeries(label="direct read",
                      points=((512, 40.0), (65536, 300.0), (1 << 20, 355.0))),
    ]


def test_criterion_11_serialization_stability(tmp_path):
    with _Budget(11, "CSV and plot bytes identical across runs on pinned inputs", 5.0):
        reference = golden_text("reference_rows.csv")
        rows = sb.from_csv(reference)
        first = sb.to_csv(rows)
        second = sb.to_csv(sb.from_csv(first))
        assert first == second == reference

        renders = []
        for run in range(2):
            out = tmp_path / f"plot{run}.svg"
            sb.emit_plot(_pinned_series(), out, y_label="MB/s",
                         title="throughput against request size")
            renders.append(out.read_bytes())
        assert renders[0] == renders[1] == golden_bytes("reference_plot.svg")
