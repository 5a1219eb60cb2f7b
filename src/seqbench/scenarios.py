"""End-to-end flows: the one-page smoke scenario and figure regeneration.

summary_scenario is the micro end-to-end: create, write, rewind, re-read,
verify, delete, with every step named on failure.  regen_figures runs the
full measurement sweep (buffered and direct, read and write, plus the
file-extension experiment) and renders the result figures and a results
CSV into a directory.
"""
from __future__ import annotations

import shutil
import sys
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
from .errors import ScenarioError
from .report import PlotKind, PlotSeries, emit_plot, result_row, to_csv

__all__ = ["summary_scenario", "SweepScale", "QUICK", "FULL", "regen_figures"]


def summary_scenario(temp_dir: str | Path) -> None:
    """Create a file, write 100 bytes, rewind, read them back one at a
    time, close and delete.  Raises ScenarioError naming the failed step;
    re-runnable because it starts by truncating and ends by deleting."""
    path = Path(temp_dir) / "summary_scenario.dat"

    def step(name, action):
        try:
            return action()
        except ScenarioError:
            raise
        except Exception as exc:
            raise ScenarioError(f"step {name!r} failed: {exc}") from exc

    handle = step("create", lambda: open_file(path, OpenDisposition.CREATE, Direction.WRITE))
    try:
        one = b"a"
        step("write", lambda: [handle.write_block(one, 1) for _ in range(100)])
        if handle.length != 100:
            raise ScenarioError(f"step 'write' failed: file length {handle.length}, wanted 100")
        step("rewind", lambda: handle.seek(0))
        buffer = bytearray(1)
        reads = 0
        while True:
            got = step("read", lambda: handle.read_block(buffer, 1))
            if got == 0:
                break
            if bytes(buffer) != one:
                raise ScenarioError(f"step 'read' failed: byte {reads} is {bytes(buffer)!r}")
            reads += 1
        if reads != 100:
            raise ScenarioError(f"step 'read' failed: {reads} reads before end of file, wanted 100")
    finally:
        step("close", handle.close)
    step("delete", path.unlink)


@dataclass(frozen=True)
class SweepScale:
    """How big a figure-regeneration run is.

    ``sizes`` are the request sizes swept; extension runs use
    ``ext_blocks`` write sizes up to a file of ``ext_size`` bytes.
    """

    name: str
    file_size: int
    duration: float
    trials: int
    warmup: int
    sizes: tuple[int, ...]
    ext_size: int
    ext_blocks: tuple[int, ...]


_ALL_POWERS = tuple(2**p for p in range(23))  # 1 byte through 4 MiB

#: About two seconds of measurement per point; the whole run fits in a
#: coffee break and still shows every shape the full run shows.
QUICK = SweepScale(
    name="quick",
    file_size=256 << 20,
    duration=0.5,
    trials=3,
    warmup=1,
    sizes=_ALL_POWERS,
    ext_size=32 << 20,
    ext_blocks=(64 << 10, 256 << 10, 1 << 20),
)

FULL = SweepScale(
    name="full",
    file_size=1 << 30,
    duration=5.0,
    trials=5,
    warmup=1,
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
            result = run_measurement(cfg, scale.trials, warmup=scale.warmup, clock_ghz=clock)
            rows.append(result_row("sweep-direct" if direct else "sweep", result))
            points.append((block, result.mb_per_sec))
            deviations.append(result.stddev_mb_per_sec)
            cost_points.append(
                (block, result.per_byte_cycles if clock else result.per_byte_ns)
            )
        label = direction.value
        bandwidth.append(PlotSeries(label, tuple(points), tuple(deviations)))
        cost.append(PlotSeries(label, tuple(cost_points)))
    return bandwidth, cost


def regen_figures(out_dir: str | Path, scale: SweepScale = QUICK, *, scratch: str | Path | None = None) -> list[Path]:
    """Re-run the whole measurement suite and render its figures.

    Writes results.csv and fig2/fig3/fig4/fig5/fig8 SVGs into ``out_dir``
    (bandwidth and cost for buffered, cost and bandwidth for direct, and
    the extension comparison; the numbering leaves gaps for figures that
    only make sense as hardware surveys).  When the scratch volume cannot
    do uncached I/O the direct figures are skipped with a notice.  Returns
    the paths written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    own_scratch = scratch is None
    scratch = out / "scratch" if own_scratch else Path(scratch)
    scratch.mkdir(parents=True, exist_ok=True)

    clock = detect_clock_ghz()
    cost_label = None if clock else "ns per byte"
    target = scratch / "sweep.dat"
    rows: list = []
    written: list[Path] = []

    def figure(name, series, kind, title):
        path = out / name
        emit_plot(series, kind, path, title=title, y_label=cost_label if kind is PlotKind.COST_PER_BYTE else None)
        written.append(path)

    try:
        bandwidth, cost = _sweep(target, scale.sizes, scale, clock, rows, direct=False)
        figure("fig2.svg", bandwidth, PlotKind.BANDWIDTH, "Buffered throughput vs request size")
        figure("fig3.svg", cost, PlotKind.COST_PER_BYTE, "Buffered CPU cost vs request size")

        if supports_direct_io(scratch):
            sector = detect_sector_geometry(scratch).logical_sector
            direct_sizes = tuple(s for s in scale.sizes if s % sector == 0) or (sector,)
            d_bandwidth, d_cost = _sweep(target, direct_sizes, scale, clock, rows, direct=True)
            figure("fig4.svg", d_cost, PlotKind.COST_PER_BYTE, "Uncached CPU cost vs request size")
            figure("fig5.svg", d_bandwidth, PlotKind.BANDWIDTH, "Uncached throughput vs request size")
        else:
            print(
                f"notice: {scratch} cannot do uncached I/O; skipping fig4/fig5",
                file=sys.stderr,
            )

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
        figure("fig8.svg", extension_series, PlotKind.BANDWIDTH, "File extension: incremental vs preallocated")

        csv_path = out / "results.csv"
        csv_path.write_text(to_csv(rows))
        written.insert(0, csv_path)
        return written
    finally:
        if own_scratch:
            shutil.rmtree(scratch, ignore_errors=True)
        else:
            for name in ("sweep.dat", "extend.dat"):
                try:
                    (scratch / name).unlink()
                except OSError:
                    pass
