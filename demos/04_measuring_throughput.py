"""
Measuring throughput and what each byte costs the CPU
=====================================================

The core measurement runs one configuration (direction, request size,
access pattern) for a fixed duration per trial and reports medians:
MB/s for bandwidth and ns/byte for CPU cost.  Request size is the knob
that matters most, so this demo sweeps it across four decades and then
saves the numbers in the two formats the tools share: a CSV table and
an SVG chart.
"""
import tempfile
from pathlib import Path

from seqbench import (
    Direction,
    IoConfig,
    PlotSeries,
    emit_plot,
    result_row,
    run_measurement,
    to_csv,
)

root = Path(tempfile.mkdtemp(prefix="seqbench_demo_"))
target = root / "probe.dat"

# Short trials keep the demo quick; real runs use longer durations and
# more trials (run_measurement defaults to five plus a warm-up).
sizes = (1, 512, 65536, 1 << 20)
rows, points = [], []
print(f"{'request':>9}  {'MB/s':>9}  {'ns/byte':>9}")
for block in sizes:
    cfg = IoConfig(path=target, direction=Direction.READ,
                   file_size=8 << 20, duration=0.4, block=block)
    result = run_measurement(cfg, trials=3, warmup=1)
    rows.append(result_row("iospeed", result))
    points.append((block, result.mb_per_sec))
    print(f"{block:>9}  {result.mb_per_sec:>9.1f}  {result.per_byte_ns:>9.3f}")

# The same numbers as the shared CSV schema (schema line, then rows) ...
csv_path = root / "results.csv"
csv_path.write_text(to_csv(rows))
print(f"\nCSV:\n{to_csv(rows)}")

# ... and as a chart of MB/s against log2(request size), one marker per
# measured point.
chart = root / "throughput.svg"
emit_plot([PlotSeries(label="buffered read", points=tuple(points))],
          chart, y_label="MB/s", title="Read throughput vs request size")
print(f"chart written to {chart}")

for path in (target, csv_path, chart):
    path.unlink()
root.rmdir()
