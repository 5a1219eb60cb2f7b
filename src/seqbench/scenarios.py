"""End-to-end flows: the one-page smoke scenario and figure regeneration.

summary_scenario is the micro end-to-end: create, write, rewind, re-read,
verify, delete, with every step named on failure.  regen_figures runs the
full measurement sweep (buffered and direct, read and write, plus the
file-extension experiment) and renders the result figures and a results
CSV into a directory.
"""
from __future__ import annotations

import contextlib
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .bench import (
    ExtensionMode,
    IoConfig,
    detect_clock_ghz,
    measure_extension,
    run_measurement,
)
from .core import Direction, OpenDisposition
from .engine import detect_sector_geometry, open_file, supports_direct_io
from .errors import GeometryProbeError, ScenarioError
from .report import PlotSeries, emit_plot, result_row, to_csv

__all__ = ["summary_scenario", "SweepScale", "QUICK", "FULL", "regen_figures"]


def summary_scenario(temp_dir: str | Path) -> None:
    """Create a file, write 100 bytes, rewind, read them back one at a
    time, close and delete, also after a failed step.  Raises ScenarioError
    naming the first failed step, from its failure; re-runnable: it
    truncates first, deletes last."""
    path = Path(temp_dir) / "summary_scenario.dat"
    one = b"a"

    def step(name, action):
        try:
            return action()
        except Exception as exc:
            raise ScenarioError(f"step {name!r} failed: {exc}") from exc

    def write():
        for _ in range(100):
            handle.write_block(one, 1)
        length = handle.length  # flushes the 100 bytes: a failed write-back fails this step
        if length != 100:
            raise ValueError(f"file length {length}, wanted 100")

    def read():
        buffer, back = bytearray(1), bytearray()
        while handle.read_block(buffer, 1):
            back += buffer
        if back != one * 100:
            raise ValueError(
                f"read back {len(back)} bytes, {back.count(one)} of them {one!r}; "
                f"wanted 100, all {one!r}"
            )

    handle = step("create", lambda: open_file(path, OpenDisposition.CREATE, Direction.WRITE))
    try:
        step("write", write)
        step("rewind", lambda: handle.seek(0))
        step("read", read)
    except BaseException:  # the first failure is the one raised; close and delete still run
        for cleanup in (handle.close, path.unlink):
            with contextlib.suppress(Exception):
                cleanup()
        raise
    step("close", handle.close)
    step("delete", path.unlink)


@dataclass(frozen=True)
class SweepScale:
    """How big a figure-regeneration run is.

    ``sizes`` are the request sizes swept, each point ``trials`` timed
    trials after one warm-up; extension runs use ``ext_blocks`` write
    sizes up to a file of ``ext_size`` bytes.
    """

    file_size: int
    duration: float
    trials: int
    sizes: tuple[int, ...]
    ext_size: int
    ext_blocks: tuple[int, ...]


_ALL_POWERS = tuple(2**p for p in range(23))  # 1 byte through 4 MiB

#: About two seconds of measurement per point; the whole run fits in a
#: coffee break and still shows every shape the full run shows.
QUICK = SweepScale(
    file_size=256 << 20,
    duration=0.5,
    trials=3,
    sizes=_ALL_POWERS,
    ext_size=32 << 20,
    ext_blocks=(64 << 10, 256 << 10, 1 << 20),
)

FULL = SweepScale(
    file_size=1 << 30,
    duration=5.0,
    trials=5,
    sizes=_ALL_POWERS,
    ext_size=128 << 20,
    ext_blocks=(64 << 10, 256 << 10, 1 << 20, 4 << 20),
)


def _sweep(target, sizes, scale, clock, rows, *, direct):
    """One (direction x size) grid; returns bandwidth and cost series."""
    bandwidth, cost = [], []
    for direction in (Direction.READ, Direction.WRITE):
        points, deviations, cost_points = [], [], []
        for block in sizes:
            cfg = IoConfig(
                path=target,
                direction=direction,
                file_size=scale.file_size,
                duration=scale.duration,
                block=block,
                direct=direct,
            )
            result = run_measurement(cfg, scale.trials, clock_ghz=clock)
            rows.append(result_row("sweep-direct" if direct else "sweep", result))
            points.append((block, result.mb_per_sec))
            deviations.append(result.stddev_mb_per_sec)
            cost_points.append((block, result.per_byte_cycles if clock else result.per_byte_ns))
        label = direction.value
        bandwidth.append(PlotSeries(label, tuple(points), tuple(deviations)))
        cost.append(PlotSeries(label, tuple(cost_points)))
    return bandwidth, cost


def _direct_sector(scratch: Path) -> int | None:
    """The sector size of direct sweeps in ``scratch``, or None after a
    notice of why it can have none."""
    try:
        if supports_direct_io(scratch):
            return detect_sector_geometry(scratch).logical_sector
        reason = "cannot do uncached I/O"
    except GeometryProbeError as exc:
        reason = f"has no sector size to align to ({exc})"
    print(f"notice: {scratch} {reason}; skipping fig4/fig5", file=sys.stderr)
    return None


def regen_figures(out_dir: str | Path, scale: SweepScale = QUICK) -> list[Path]:
    """Re-run the whole measurement suite and render its figures.

    Writes results.csv and fig2/fig3/fig4/fig5/fig8 SVGs into ``out_dir``
    (bandwidth and cost for buffered, cost and bandwidth for direct, and
    the extension comparison; the numbering leaves gaps for figures that
    only make sense as hardware surveys).  Cost is in cycles per byte
    with a known clock rate, else in ns per byte.  The measured files live
    in a fresh ``scratch_*`` directory in ``out_dir``, the only one it
    removes.  When that directory cannot do uncached I/O, or its sector
    size cannot be probed, the direct figures are skipped with a notice
    that says which.  Returns the paths written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    clock = detect_clock_ghz()
    cost_unit = "cycles per byte" if clock else "ns per byte"  # as _sweep picks cost points
    rows: list = []
    written: list[Path] = []

    def figure(name, series, y_label, title):
        path = out / name
        emit_plot(series, path, y_label=y_label, title=title)
        written.append(path)

    scratch = Path(tempfile.mkdtemp(prefix="scratch_", dir=out))
    target = scratch / "sweep.dat"
    try:
        bandwidth, cost = _sweep(target, scale.sizes, scale, clock, rows, direct=False)
        figure("fig2.svg", bandwidth, "MB/s", "Buffered throughput vs request size")
        figure("fig3.svg", cost, cost_unit, "Buffered CPU cost vs request size")

        sector = _direct_sector(scratch)
        if sector:
            direct_sizes = tuple(s for s in scale.sizes if s % sector == 0) or (sector,)
            d_bandwidth, d_cost = _sweep(target, direct_sizes, scale, clock, rows, direct=True)
            figure("fig4.svg", d_cost, cost_unit, "Uncached CPU cost vs request size")
            figure("fig5.svg", d_bandwidth, "MB/s", "Uncached throughput vs request size")

        extension_series = []
        for mode in (ExtensionMode.INCREMENTAL, ExtensionMode.PREALLOCATED):
            points, deviations = [], []
            for block in scale.ext_blocks:
                result = measure_extension(
                    scratch / "extend.dat", scale.ext_size, block, mode,
                    trials=scale.trials, clock_ghz=clock,
                )
                rows.append(result_row("extend", result, block_bytes=block))
                points.append((block, result.mb_per_sec))
                deviations.append(result.stddev_mb_per_sec)
            extension_series.append(PlotSeries(mode.value, tuple(points), tuple(deviations)))
        figure("fig8.svg", extension_series, "MB/s", "File extension: incremental vs preallocated")

        csv_path = out / "results.csv"
        csv_path.write_text(to_csv(rows))
        written.insert(0, csv_path)
        return written
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
