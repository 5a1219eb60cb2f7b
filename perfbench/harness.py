"""Measurement plumbing for the seqbench benchmark.

Everything here belongs to the benchmark, not to seqbench: the span
recorder, paired floor/seqbench timing, the operation ledger, order
statistics, kernel I/O counters and the host fingerprint.
"""
from __future__ import annotations

import json
import math
import os
import platform
import re
import resource
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


# -- statistics ---------------------------------------------------------------

def summary(values) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and n.

    Percentiles use the nearest-rank definition.  ``tail_pct`` is None when
    there are too few samples for any percentile to have ten beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered) if n else None, "tail_pct": None, "tail": None,
           "n": n, "q1": None, "q3": None}
    if n >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(ordered, n=4)
    for pct in range(99, 0, -1):
        rank = max(math.ceil(pct * n / 100), 1)
        if n - rank >= 10:
            out["tail_pct"], out["tail"] = pct, ordered[rank - 1]
            break
    return out


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


SCALE = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}


def unit_of(label: str) -> str:
    """The time unit a metric name spells, as in engine.open_file_us."""
    words = label.replace(".", "_").split("_")
    return next((word for word in words if word in SCALE), "ns")


def stat(values, unit: str) -> dict:
    """A metric from samples: its value is their median."""
    out = summary(values)
    out["value"], out["unit"] = out["median"], unit
    return out


def timing(label: str, values_ns) -> dict:
    """Nanosecond samples as a metric in the unit its name spells."""
    unit = unit_of(label)
    return stat([v / SCALE[unit] for v in values_ns], unit)


def count(value, unit: str = "count") -> dict:
    """A metric with no samples behind it, such as a count or a difference."""
    return {"value": value, "unit": unit}


# -- tracing -------------------------------------------------------------------

@dataclass
class Span:
    span_id: int
    trial: int
    parent: int | None
    name: str
    layer: str
    start_ns: int
    end_ns: int = 0


class Tracer:
    """Records a span around each call the benchmark makes into a layer.

    Spans stay in memory until ``write``.  A span's trial id is the id of
    the outermost span open when it started, so every span of one row
    call shares it.  A disabled tracer hands out a null context and
    records nothing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, layer: str):
        if not self.enabled:
            return nullcontext()
        return self._span(name, layer)

    @contextmanager
    def _span(self, name: str, layer: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(
            span_id=len(self.spans),
            trial=parent.trial if parent else len(self.spans),
            parent=parent.span_id if parent else None,
            name=name,
            layer=layer,
            start_ns=time.perf_counter_ns(),
        )
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def self_ns(self) -> dict[str, int]:
        """Per layer: span durations minus the time their child spans cover."""
        child_ns: dict[int, int] = {}
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] = child_ns.get(s.parent, 0) + s.end_ns - s.start_ns
        totals: dict[str, int] = {}
        for s in self.spans:
            own = s.end_ns - s.start_ns - child_ns.get(s.span_id, 0)
            totals[s.layer] = totals.get(s.layer, 0) + own
        return totals

    def write(self, path: Path, workload: str) -> None:
        """Append the spans as JSON lines, each tagged with the workload."""
        with open(path, "a") as stream:
            for s in self.spans:
                stream.write(json.dumps({"workload": workload, **s.__dict__}) + "\n")


# -- operation ledger ------------------------------------------------------------

class Ledger:
    """Counts operations attempted and failed; keeps the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self._fail(f"check {label} failed{': ' + detail if detail else ''}")

    def call(self, label: str, fn: Callable):
        """Run ``fn``; an exception is a failed operation and yields None."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # the benchmark keeps going and reports it
            self._fail(f"{label} raised {type(exc).__name__}: {exc}")
            return None

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)


# -- kernel I/O counters -----------------------------------------------------------

class IoCounters:
    """Deltas of /proc/self/io around a call, net of reading the file itself.

    Each snapshot is one pread; the kernel charges that read to the
    counters after it has rendered them, so a delta includes the first
    snapshot's bytes and syscall, which are subtracted.  Without
    /proc/self/io every delta is None.
    """

    FIELDS = ("rchar", "wchar", "syscr", "syscw")

    def __init__(self):
        try:
            self._fd = os.open("/proc/self/io", os.O_RDONLY)
        except OSError:
            self._fd = None

    def snapshot(self):
        if self._fd is None:
            return None
        raw = os.pread(self._fd, 4096, 0)
        values = dict(line.split(": ") for line in raw.decode().splitlines())
        return {k: int(values[k]) for k in self.FIELDS}, len(raw)

    def delta(self, before, after) -> dict | None:
        if before is None or after is None:
            return None
        (b, own_bytes), (a, _) = before, after
        d = {k: a[k] - b[k] for k in self.FIELDS}
        d["rchar"] -= own_bytes
        d["syscr"] -= 1
        return d

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


# -- paired rows ------------------------------------------------------------------

@dataclass
class Sample:
    """One kept call of a row: times per unit, in wall and process CPU ns."""

    round: int
    traced: bool
    seq_ns: float
    seq_cpu_ns: float
    result: object
    floor_ns: float | None = None
    floor_cpu_ns: float | None = None
    io: dict | None = None

    @property
    def ratio(self) -> float:
        return self.seq_ns / self.floor_ns

    @property
    def cpu_ratio(self) -> float:
        return self.seq_cpu_ns / max(self.floor_cpu_ns, 1.0)


@dataclass
class Row:
    """One seqbench call and the raw floor that does the same transfers.

    ``units`` is what both calls are divided by: requests, or blocks for
    copies.  The floor runs ``floor_reps`` times per sample, so that it
    lasts about as long as the seqbench call and sees the same noise.
    ``check`` sees seqbench's return value outside the timed region and
    returns (label, ok, detail) triples.  ``reset`` runs after both calls,
    untimed, to remove what they left behind.  ``headline`` rows make up
    the workload's x_floor; the other rows, probes without a floor among
    them, run only when tracing.
    """

    name: str
    call: str  # the public seqbench call, "layer.function"
    units: int
    seq: Callable[[], object]
    floor: Callable[[], object] | None = None
    check: Callable[[object], list] | None = None
    reset: Callable[[], None] | None = None
    app_bytes: int = 0  # bytes the caller asked for per call
    headline: bool = True
    floor_reps: int = 1
    label: str | None = None  # metric name of seqbench's time per unit
    floor_label: str | None = None  # metric name of the floor's time per unit
    samples: list[Sample] = field(default_factory=list)

    @property
    def layer(self) -> str:
        return self.call.split(".", 1)[0]

    @property
    def paired(self) -> list[Sample]:
        return [s for s in self.samples if s.floor_ns is not None]


def timed(fn) -> tuple[int, int, object]:
    """Wall and process CPU nanoseconds of one call, and its result."""
    cpu, start = time.process_time_ns(), time.perf_counter_ns()
    out = fn()
    return time.perf_counter_ns() - start, time.process_time_ns() - cpu, out


def run_row(row: Row, round_no: int, floor_first: bool, tracer: Tracer, ledger: Ledger,
            counters: IoCounters | None, keep: bool = True) -> None:
    """Time the floor and the seqbench call back to back.

    Adjacent calls see the same host state, so their ratio is steadier
    than either time alone; the caller alternates which goes first.
    With ``keep`` false the call is a warm-up.
    """
    floor = seq = delta = None
    with tracer.span(f"row.{row.name}", "benchmark"):
        for side in ("floor", "seq") if floor_first else ("seq", "floor"):
            if side == "floor" and row.floor is not None:
                with tracer.span(f"floor.{row.name}", "floor"):
                    floor = timed(lambda: [row.floor() for _ in range(row.floor_reps)])
            elif side == "seq":
                before = counters.snapshot() if counters else None
                with tracer.span(row.call, row.layer):
                    seq = ledger.call(row.call, lambda: timed(row.seq))
                if counters:
                    delta = counters.delta(before, counters.snapshot())
                for label, ok, detail in row.check(seq[2]) if seq and row.check else ():
                    ledger.check(f"{row.name}.{label}", ok, detail)
        if row.reset is not None:
            row.reset()
    if not keep or seq is None:
        return
    sample = Sample(round_no, tracer.enabled, seq[0] / row.units, seq[1] / row.units, seq[2],
                    io=delta)
    if floor is not None:
        per_unit = row.units * row.floor_reps
        sample.floor_ns, sample.floor_cpu_ns = floor[0] / per_unit, floor[1] / per_unit
    row.samples.append(sample)


# -- process and host facts ----------------------------------------------------------

def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def clock_source(env_var: str) -> str | None:
    """Which source seqbench.detect_clock_ghz reads, by the same rules."""
    if os.environ.get(env_var) is not None:
        return "env"
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        return None
    if re.search(r"model name\s*:.*?@\s*([0-9.]+)\s*GHz", cpuinfo):
        return "model name"
    if re.search(r"cpu MHz\s*:\s*([0-9.]+)", cpuinfo):
        return "cpu MHz"
    return None


def filesystem_type(path: Path) -> str:
    """Type of the mount holding ``path``, from /proc/self/mounts.

    An ext4 mount backed by a loop device reads "loop ext4".
    """
    path = os.path.realpath(path)
    best, found = "", ("unknown", "")
    try:
        lines = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return found[0]
    for line in lines:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount_point = fields[1].replace("\\040", " ")
        inside = path == mount_point or path.startswith(mount_point.rstrip("/") + "/")
        if inside and len(mount_point) >= len(best):
            best, found = mount_point, (fields[2], fields[0])
    fs_type, device = found
    return f"loop {fs_type}" if device.startswith("/dev/loop") else fs_type


def host_fingerprint(seqbench, numpy) -> dict:
    return {
        "nproc": os.cpu_count(),
        "clock_ghz": seqbench.detect_clock_ghz(),
        "clock_source": clock_source(seqbench.bench.CLOCK_ENV_VAR),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
