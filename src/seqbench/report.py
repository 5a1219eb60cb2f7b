"""Result rows, the versioned CSV schema, and deterministic SVG plots.

Output formats here are part of the package's contract: the CSV column
order is fixed and versioned, and the plots are rendered byte-for-byte
identically for identical inputs (no timestamps, no library-dependent
pixel decisions), so both can be golden-tested and diffed across runs.
"""
from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass
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
    "PlotKind",
    "PlotSeries",
    "emit_plot",
]

#: Bump when CSV_COLUMNS changes meaning or order.
CSV_SCHEMA_VERSION = 1

CSV_COLUMNS = (
    "tool",
    "direction",
    "block_bytes",
    "direct",
    "async_depth",
    "seek_pct",
    "trials",
    "bytes_moved",
    "wall_s",
    "cpu_s",
    "mb_per_sec",
    "ns_per_byte",
    "cycles_per_byte",
    "stddev",
)


@dataclass(frozen=True)
class ResultRow:
    """One measurement, one line of CSV: schema v1, columns as listed above.

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
    cycles_per_byte: float
    stddev: float


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


def _parse_optional_int(text: str) -> int | None:
    return None if text == "" else int(text)


def _parse_optional_float(text: str) -> float | None:
    return None if text == "" else float(text)


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
        rows.append(
            ResultRow(
                tool=record[0],
                direction=record[1],
                block_bytes=int(record[2]),
                direct=record[3] == "1",
                async_depth=_parse_optional_int(record[4]),
                seek_pct=_parse_optional_int(record[5]),
                trials=int(record[6]),
                bytes_moved=int(record[7]),
                wall_s=float(record[8]),
                cpu_s=float(record[9]),
                mb_per_sec=float(record[10]),
                ns_per_byte=float(record[11]),
                cycles_per_byte=_parse_optional_float(record[12]),
                stddev=float(record[13]),
            )
        )
    return rows


# -- plotting -------------------------------------------------------------

class PlotKind(enum.Enum):
    BANDWIDTH = "bandwidth"
    COST_PER_BYTE = "cost_per_byte"


_Y_LABELS = {
    PlotKind.BANDWIDTH: "MB/s",
    PlotKind.COST_PER_BYTE: "cycles per byte",
}

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
        for _, value in self.points:
            if not math.isfinite(value):
                raise ValueError(f"series {self.label!r} has a non-finite value")


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def emit_plot(
    series: Sequence[PlotSeries],
    kind: PlotKind,
    out_path: str | Path,
    *,
    title: str | None = None,
    y_label: str | None = None,
) -> None:
    """Write an SVG line chart of value against log2(request size).

    Hand-rendered with fixed geometry and fixed number formatting so the
    same input always produces the same bytes.  X ticks land on powers of
    two and are labeled with binary suffixes; error bars appear where a
    series carries stddev values.  A single-point series renders as a
    marker.  At least one series is required.
    """
    series = list(series)
    if not series:
        raise ValueError("need at least one series to plot")
    if not isinstance(kind, PlotKind):
        raise TypeError(f"kind must be a PlotKind, got {kind!r}")
    y_label = y_label if y_label is not None else _Y_LABELS[kind]

    logs = [math.log2(s) for run in series for s, _ in run.points]
    tmin, tmax = min(logs), max(logs)
    tspan = tmax - tmin or 1.0
    top = 0.0
    for run in series:
        for index, (_, value) in enumerate(run.points):
            bar = run.stddev[index] if run.stddev else 0.0
            top = max(top, value + bar)
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
        parts.append(
            f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{_escape(title)}</text>'
        )

    # y grid and labels
    for step in range(6):
        value = top * step / 5
        y = y_at(value)
        if step:
            parts.append(
                f'<line x1="{_LEFT}" y1="{_fmt(y)}" x2="{_LEFT + plot_w}" y2="{_fmt(y)}" '
                'stroke="#dddddd" stroke-width="1"/>'
            )
        parts.append(
            f'<text x="{_LEFT - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{value:.4g}</text>'
        )
    parts.append(
        f'<text x="20" y="{_TOP + plot_h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 20 {_TOP + plot_h // 2})">{_escape(y_label)}</text>'
    )

    # x ticks at integer powers of two
    powers = [p for p in range(int(math.floor(tmin)), int(math.ceil(tmax)) + 1) if tmin - 1e-9 <= p <= tmax + 1e-9]
    stride = max(1, math.ceil(len(powers) / 12))
    for p in powers[::stride]:
        x = _LEFT + (p - tmin) / tspan * plot_w
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_TOP + plot_h}" x2="{_fmt(x)}" '
            f'y2="{_TOP + plot_h + 5}" stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_TOP + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{format_size(2**p)}</text>'
        )
    parts.append(
        f'<text x="{_LEFT + plot_w // 2}" y="{_HEIGHT - 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">request size</text>'
    )

    for index, run in enumerate(series):
        color = _PALETTE[index % len(_PALETTE)]
        coords = [(x_at(s), y_at(v)) for s, v in run.points]
        if run.stddev is not None:
            for (x, _), (_, value), bar in zip(coords, run.points, run.stddev):
                if bar <= 0:
                    continue
                y_lo, y_hi = y_at(max(value - bar, 0.0)), y_at(value + bar)
                parts.append(
                    f'<line x1="{_fmt(x)}" y1="{_fmt(y_hi)}" x2="{_fmt(x)}" '
                    f'y2="{_fmt(y_lo)}" stroke="{color}" stroke-width="1"/>'
                )
                for y_bar in (y_hi, y_lo):
                    parts.append(
                        f'<line x1="{_fmt(x - 3)}" y1="{_fmt(y_bar)}" x2="{_fmt(x + 3)}" '
                        f'y2="{_fmt(y_bar)}" stroke="{color}" stroke-width="1"/>'
                    )
        if len(coords) > 1:
            path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in coords)
            parts.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="2"/>'
            )
        for x, y in coords:
            parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="{color}"/>')
        legend_y = _TOP + 10 + index * 18
        legend_x = _WIDTH - _RIGHT + 14
        parts.append(
            f'<line x1="{legend_x}" y1="{legend_y}" x2="{legend_x + 22}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 28}" y="{legend_y + 4}" font-family="sans-serif" '
            f'font-size="11">{_escape(run.label)}</text>'
        )

    parts.append("</svg>")
    Path(out_path).write_text("\n".join(parts) + "\n")
