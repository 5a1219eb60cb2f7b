"""Result rows, the versioned CSV schema, and deterministic SVG plots.

Output formats here are part of the package's contract: the CSV column
order is fixed and versioned, and the plots are rendered byte-for-byte
identically for identical inputs (no timestamps, no library-dependent
pixel decisions), so both can be golden-tested and diffed across runs.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

from .core import format_size

__all__ = [
    "CSV_SCHEMA_VERSION",
    "CSV_COLUMNS",
    "ResultRow",
    "result_row",
    "to_csv",
    "from_csv",
    "PlotSeries",
    "emit_plot",
]


@dataclass(frozen=True)
class ResultRow:
    """One measurement, one line of CSV: schema v1, one column per field, in order.

    ``direct`` serializes as 1/0; absent optionals serialize as empty
    fields; rates are decimal megabytes (10**6 bytes) per second and
    ``stddev`` is the population standard deviation of the per-trial
    rates.
    """

    tool: str
    direction: str
    block_bytes: int
    direct: bool
    async_depth: int | None
    seek_pct: int | None
    trials: int
    bytes_moved: int
    wall_s: float
    cpu_s: float
    mb_per_sec: float
    ns_per_byte: float
    cycles_per_byte: float | None
    stddev: float


#: Bump when CSV_COLUMNS changes meaning or order.
CSV_SCHEMA_VERSION = 1

CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))

#: How from_csv reads a field back, by the field's annotation.
_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "bool": lambda text: text == "1",
    "int | None": lambda text: None if text == "" else int(text),
    "float | None": lambda text: None if text == "" else float(text),
}
_COLUMN_PARSERS = tuple(_PARSERS[f.type] for f in fields(ResultRow))


def result_row(tool: str, result, **overrides) -> ResultRow:
    """Build a ResultRow from a bench BenchmarkResult.

    Fields the result cannot know (or that the caller wants to restate,
    such as the tool name for an extension run) come in as overrides.  A
    result without a config (an extension run, a workload) defaults to a
    buffered, synchronous, sequential write of block size 0.
    """
    cfg = result.config
    values = dict(
        tool=tool,
        direction=cfg.direction.value if cfg else "write",
        block_bytes=cfg.block if cfg else 0,
        direct=cfg.direct if cfg else False,
        async_depth=cfg.async_depth if cfg else None,
        seek_pct=cfg.seek_pct if cfg else None,
        trials=len(result.samples),
        bytes_moved=result.bytes_moved,
        wall_s=result.wall_seconds,
        cpu_s=result.cpu_seconds,
        mb_per_sec=result.mb_per_sec,
        ns_per_byte=result.per_byte_ns,
        cycles_per_byte=result.per_byte_cycles,
        stddev=result.stddev_mb_per_sec,
    )
    values.update(overrides)
    return ResultRow(**values)


def _render_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def to_csv(rows: Iterable[ResultRow], *, header: bool = True) -> str:
    """Render rows as CSV text, deterministically.

    Quoting follows the usual CSV rules (only fields containing commas,
    quotes or newlines are quoted), numbers are locale-independent, and
    identical rows always produce identical bytes.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if header:
        writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(_render_field(getattr(row, name)) for name in CSV_COLUMNS)
    return out.getvalue()


def from_csv(text: str) -> list[ResultRow]:
    """Parse to_csv output back into rows (header line optional)."""
    rows = []
    for record in csv.reader(io.StringIO(text)):
        if not record:
            continue
        if record[0] == "tool" and tuple(record) == CSV_COLUMNS:
            continue
        if len(record) != len(CSV_COLUMNS):
            raise ValueError(
                f"CSV row has {len(record)} fields, schema v{CSV_SCHEMA_VERSION} "
                f"has {len(CSV_COLUMNS)}: {record!r}"
            )
        rows.append(ResultRow(*(parse(text) for parse, text in zip(_COLUMN_PARSERS, record))))
    return rows


# -- plotting -------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 720, 480
_LEFT, _RIGHT, _TOP, _BOTTOM = 76, 168, 44, 64


@dataclass(frozen=True)
class PlotSeries:
    """One labeled line: (request size, value) points, optional error bars."""

    label: str
    points: tuple[tuple[int, float], ...]
    stddev: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "points", tuple((int(s), float(v)) for s, v in self.points))
        if self.stddev is not None:
            object.__setattr__(self, "stddev", tuple(float(v) for v in self.stddev))
        if not self.points:
            raise ValueError(f"series {self.label!r} has no points")
        sizes = [s for s, _ in self.points]
        if sizes != sorted(set(sizes)):
            raise ValueError(f"series {self.label!r} sizes must be strictly increasing")
        if any(s < 1 for s in sizes):
            raise ValueError(f"series {self.label!r} has a size below 1 byte")
        if self.stddev is not None and len(self.stddev) != len(self.points):
            raise ValueError(f"series {self.label!r} stddev count does not match points")
        if not all(math.isfinite(value) and value >= 0 for _, value in self.points):
            raise ValueError(f"series {self.label!r} has a negative or non-finite value")
        if self.stddev is not None and not all(math.isfinite(bar) and bar >= 0 for bar in self.stddev):
            raise ValueError(f"series {self.label!r} has a negative or non-finite stddev")


# Not xml.sax.saxutils.escape: importing it loads urllib.request (about 7 MB
# resident) into every process that imports seqbench.
def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(value: float | int) -> str:
    """Coordinates: a computed float to two decimals, a fixed integer as is."""
    return f"{value:.2f}" if isinstance(value, float) else str(value)


def _line(x1, y1, x2, y2, stroke: str, width: int = 1) -> str:
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{stroke}" stroke-width="{width}"/>'
    )


def _text(x, y, content: str, size: int, *, anchor: str | None = "middle", rotate: bool = False) -> str:
    """A sans-serif label at (x, y), turned a quarter left about that point when ``rotate``."""
    anchor_attr = f' text-anchor="{anchor}"' if anchor else ""
    turn = f' transform="rotate(-90 {_fmt(x)} {_fmt(y)})"' if rotate else ""
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}"{anchor_attr} font-family="sans-serif" '
        f'font-size="{size}"{turn}>{_escape(content)}</text>'
    )


def emit_plot(
    series: Sequence[PlotSeries],
    out_path: str | Path,
    *,
    y_label: str,
    title: str | None = None,
) -> None:
    """Write an SVG line chart of value, in ``y_label``'s unit, against log2(request size).

    Hand-rendered with fixed geometry and fixed number formatting so the
    same input always produces the same bytes.  X ticks land on powers of
    two and are labeled with binary suffixes; error bars appear where a
    series carries stddev values.  A single-point series renders as a
    marker.  At least one series is required.
    """
    series = list(series)
    if not series:
        raise ValueError("need at least one series to plot")

    logs = [math.log2(s) for run in series for s, _ in run.points]
    tmin, tmax = min(logs), max(logs)
    tspan = tmax - tmin or 1.0
    top = max(value + (run.stddev[index] if run.stddev else 0.0)
              for run in series for index, (_, value) in enumerate(run.points))
    if top <= 0:
        top = 1.0

    plot_w = _WIDTH - _LEFT - _RIGHT
    plot_h = _HEIGHT - _TOP - _BOTTOM

    def x_at(size: int) -> float:
        return _LEFT + (math.log2(size) - tmin) / tspan * plot_w

    def y_at(value: float) -> float:
        return _HEIGHT - _BOTTOM - (value / top) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_LEFT}" y="{_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    if title:
        parts.append(_text(_WIDTH // 2, 24, title, 15))

    # y grid and labels
    for step in range(6):
        value = top * step / 5
        y = y_at(value)
        if step:
            parts.append(_line(_LEFT, y, _LEFT + plot_w, y, "#dddddd"))
        parts.append(_text(_LEFT - 8, y + 4, f"{value:.4g}", 11, anchor="end"))
    parts.append(_text(20, _TOP + plot_h // 2, y_label, 12, rotate=True))

    # x ticks at integer powers of two
    powers = [p for p in range(int(math.floor(tmin)), int(math.ceil(tmax)) + 1) if tmin - 1e-9 <= p <= tmax + 1e-9]
    stride = max(1, math.ceil(len(powers) / 12))
    for p in powers[::stride]:
        x = x_at(2**p)
        parts.append(_line(x, _TOP + plot_h, x, _TOP + plot_h + 5, "#444444"))
        parts.append(_text(x, _TOP + plot_h + 20, format_size(2**p), 11))
    parts.append(_text(_LEFT + plot_w // 2, _HEIGHT - 16, "request size", 12))

    for index, run in enumerate(series):
        color = _PALETTE[index % len(_PALETTE)]
        coords = [(x_at(s), y_at(v)) for s, v in run.points]
        if run.stddev is not None:
            for (x, _), (_, value), bar in zip(coords, run.points, run.stddev):
                if not bar:
                    continue
                y_lo, y_hi = y_at(max(value - bar, 0.0)), y_at(value + bar)
                parts.append(_line(x, y_hi, x, y_lo, color))
                for y_bar in (y_hi, y_lo):
                    parts.append(_line(x - 3, y_bar, x + 3, y_bar, color))
        if len(coords) > 1:
            path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in coords)
            parts.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="2"/>'
            )
        for x, y in coords:
            parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="{color}"/>')
        legend_y = _TOP + 10 + index * 18
        legend_x = _WIDTH - _RIGHT + 14
        parts.append(_line(legend_x, legend_y, legend_x + 22, legend_y, color, 2))
        parts.append(_text(legend_x + 28, legend_y + 4, run.label, 11, anchor=None))

    parts.append("</svg>")
    Path(out_path).write_text("\n".join(parts) + "\n")
