"""Result rows, CSV round trips, and deterministic SVG plot emission."""
import math
import xml.etree.ElementTree as ET

import pytest

import seqbench as sb
from seqbench.bench import BenchmarkResult, ThroughputSample

from conftest import golden_bytes, golden_text


def _row(**overrides):
    values = dict(
        tool="iospeed", direction="read", block_bytes=65536, direct=True,
        async_depth=4, seek_pct=None, trials=5, bytes_moved=10**9,
        wall_s=1.5, cpu_s=0.25, mb_per_sec=666.6666666666666,
        ns_per_byte=0.25, cycles_per_byte=0.525, stddev=1.25,
    )
    values.update(overrides)
    return sb.ResultRow(**values)


# -- schema ---------------------------------------------------------------

def test_schema_version_and_column_order():
    assert sb.CSV_SCHEMA_VERSION == 1
    assert sb.CSV_COLUMNS == (
        "tool", "direction", "block_bytes", "direct", "async_depth",
        "seek_pct", "trials", "bytes_moved", "wall_s", "cpu_s",
        "mb_per_sec", "ns_per_byte", "cycles_per_byte", "stddev",
    )


def test_header_only_for_empty_input():
    assert sb.to_csv([]) == ",".join(sb.CSV_COLUMNS) + "\n"
    assert sb.to_csv([], header=False) == ""


def test_field_rendering_rules():
    text = sb.to_csv([_row()], header=False)
    fields = text.strip().split(",")
    assert fields[3] == "1"          # bool True
    assert fields[5] == ""           # None
    assert fields[10] == repr(666.6666666666666)  # repr keeps full precision
    text = sb.to_csv([_row(direct=False)], header=False)
    assert text.strip().split(",")[3] == "0"


def test_round_trip_with_and_without_header():
    rows = [_row(), _row(tool="extend", direction="write", direct=False)]
    assert sb.from_csv(sb.to_csv(rows)) == rows
    assert sb.from_csv(sb.to_csv(rows, header=False)) == rows


def test_round_trip_preserves_nan_and_none():
    row = _row(ns_per_byte=float("nan"), cycles_per_byte=None, seek_pct=30)
    back = sb.from_csv(sb.to_csv([row]))[0]
    assert math.isnan(back.ns_per_byte)
    assert back.cycles_per_byte is None
    assert back.seek_pct == 30


def test_quoting_of_awkward_tool_names():
    rows = [_row(tool='sweep,"quoted"'), _row(tool="two\nlines")]
    text = sb.to_csv(rows)
    assert sb.from_csv(text) == rows


def test_from_csv_rejects_wrong_field_count():
    with pytest.raises(ValueError):
        sb.from_csv("a,b,c\n")


def test_from_csv_skips_blank_lines():
    rows = [_row()]
    text = sb.to_csv(rows) + "\n\n"
    assert sb.from_csv(text) == rows


def test_golden_csv_bytes_are_stable():
    rows = sb.from_csv(golden_text("reference_rows.csv"))
    assert sb.to_csv(rows) == golden_text("reference_rows.csv")


# -- result_row -----------------------------------------------------------

def test_result_row_pulls_config_fields():
    cfg = sb.IoConfig(path="x", file_size=1 << 20, block=65536, duration=1.0,
                      direct=True, async_depth=2, seek_pct=10)
    samples = [ThroughputSample(65536 * 4, 0.5, 0.25, 4)]
    result = BenchmarkResult.from_samples(samples, 2.0, config=cfg)
    row = sb.result_row("iospeed", result)
    assert row.tool == "iospeed"
    assert row.direction == "read"
    assert row.block_bytes == 65536
    assert row.direct is True
    assert row.async_depth == 2
    assert row.seek_pct == 10
    assert row.trials == 1
    assert row.bytes_moved == 65536 * 4


def test_result_row_extension_defaults_and_overrides():
    samples = [ThroughputSample(1 << 20, 0.5, 0.25, 16)]
    result = BenchmarkResult.from_samples(samples, None)  # no config
    row = sb.result_row("iospeed-extend", result, block_bytes=65536)
    assert row.direction == "write"
    assert row.block_bytes == 65536
    assert row.async_depth is None
    assert math.isnan(row.cycles_per_byte)


# -- plots -----------------------------------------------------------------

def _series():
    s1 = sb.PlotSeries(
        label="buffered read",
        points=((1, 2.5), (1024, 180.0), (65536, 360.0), (1 << 20, 362.5)),
        stddev=(0.25, 4.0, 6.5, 5.0),
    )
    s2 = sb.PlotSeries(
        label="buffered write",
        points=((1, 1.75), (1024, 150.0), (65536, 310.0), (1 << 20, 320.0)),
    )
    s3 = sb.PlotSeries(label="direct read", points=((512, 40.0), (65536, 300.0), (1 << 20, 355.0)))
    return [s1, s2, s3]


def test_series_validation():
    with pytest.raises(ValueError):
        sb.PlotSeries(label="x", points=())
    with pytest.raises(ValueError):
        sb.PlotSeries(label="x", points=((4, 1.0), (4, 2.0)))
    with pytest.raises(ValueError):
        sb.PlotSeries(label="x", points=((8, 1.0), (4, 2.0)))
    with pytest.raises(ValueError):
        sb.PlotSeries(label="x", points=((0, 1.0),))
    with pytest.raises(ValueError):
        sb.PlotSeries(label="x", points=((1, float("inf")),))
    with pytest.raises(ValueError):
        sb.PlotSeries(label="x", points=((1, 1.0), (2, 2.0)), stddev=(0.1,))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -5.0], ids=["nan", "inf", "negative"])
def test_series_refuses_a_value_that_is_negative_or_not_finite(value):
    """The y scale starts at 0: a negative value would draw below the canvas (cy="2276.00" at -5)."""
    with pytest.raises(ValueError, match="series 'neg' has a negative or non-finite value"):
        sb.PlotSeries(label="neg", points=((1, value), (2, 1.0)))


@pytest.mark.parametrize("bar", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "negative"])
def test_series_refuses_a_stddev_that_is_negative_or_not_finite(bar):
    """A NaN or infinite bar would put nan or inf coordinates in the SVG; a negative one would not draw."""
    with pytest.raises(ValueError, match="series 'direct read' has a negative or non-finite stddev"):
        sb.PlotSeries(label="direct read", points=((1, 1.0), (2, 2.0)), stddev=(0.5, bar))


def test_plot_golden_bytes_are_stable(tmp_path):
    out = tmp_path / "plot.svg"
    sb.emit_plot(_series(), out, y_label="MB/s", title="throughput against request size")
    assert out.read_bytes() == golden_bytes("reference_plot.svg")


#: (golden file, series, emit_plot keywords): the paths reference_plot.svg does not take.
_EDGE_PLOTS = [
    # a marker with no line, no title
    ("plot_single_point.svg", [sb.PlotSeries(label="solo", points=((64, 5.0),))],
     {"y_label": "cycles per byte"}),
    # every value 0: the y scale falls back to a top of 1
    ("plot_all_zero.svg",
     [sb.PlotSeries(label="idle", points=((512, 0.0), (4096, 0.0), (65536, 0.0)))],
     {"y_label": "MB/s", "title": "nothing moved"}),
    # another y label, and a stddev of 0 that draws no bar
    ("plot_y_label_and_zero_stddev.svg",
     [sb.PlotSeries(label="direct write", points=((4096, 120.0), (65536, 300.0), (1 << 20, 340.0)),
                    stddev=(2.0, 0.0, 7.5))],
     {"y_label": "ns per byte"}),
    ("plot_escaped_markup.svg",
     [sb.PlotSeries(label="a<b & c>d", points=((1, 1.0), (2, 2.0))),
      sb.PlotSeries(label="<&>", points=((1, 0.5), (2, 1.5)), stddev=(0.25, 0.5))],
     {"title": "x < y & z", "y_label": "MB/s <&>"}),
]


@pytest.mark.parametrize("golden, series, labels", _EDGE_PLOTS, ids=[case[0] for case in _EDGE_PLOTS])
def test_plot_edge_case_golden_bytes_are_stable(tmp_path, golden, series, labels):
    out = tmp_path / "plot.svg"
    sb.emit_plot(series, out, **labels)
    assert out.read_bytes() == golden_bytes(golden)


def test_plot_is_valid_xml_with_expected_structure(tmp_path):
    out = tmp_path / "plot.svg"
    sb.emit_plot(_series(), out, y_label="MB/s", title="demo")
    text = out.read_text()
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    # one polyline per multi-point series
    assert text.count("<polyline") == 3
    # whiskers: 3 lines per error bar with positive stddev, 4 bars in series 1
    # plus one legend line per series
    ns = {"svg": "http://www.w3.org/2000/svg"}
    lines = root.findall(".//svg:line", ns)
    assert len([l for l in lines]) >= 12
    texts = [t.text for t in root.findall(".//svg:text", ns)]
    assert "MB/s" in texts
    assert "demo" in texts
    assert "buffered read" in texts
    assert "64K" in texts  # power-of-two tick labeled with a binary suffix


def test_single_point_series_renders_marker_not_line(tmp_path):
    out = tmp_path / "plot.svg"
    sb.emit_plot(
        [sb.PlotSeries(label="solo", points=((64, 5.0),))],
        out, y_label="cycles per byte",
    )
    text = out.read_text()
    assert "<polyline" not in text
    assert "<circle" in text
    assert "cycles per byte" in text


def test_plot_y_label_override(tmp_path):
    out = tmp_path / "plot.svg"
    sb.emit_plot(_series()[:1], out, y_label="ns per byte")
    assert "ns per byte" in out.read_text()


def test_plot_escapes_markup_in_labels(tmp_path):
    out = tmp_path / "plot.svg"
    sb.emit_plot(
        [sb.PlotSeries(label="a<b & c>d", points=((1, 1.0), (2, 2.0)))],
        out, y_label="MB/s", title="x < y & z",
    )
    ET.fromstring(out.read_text())  # parses despite hostile labels


def test_plot_requires_at_least_one_series(tmp_path):
    with pytest.raises(ValueError):
        sb.emit_plot([], tmp_path / "x.svg", y_label="MB/s")

