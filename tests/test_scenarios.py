"""End-to-end flows: the 100-byte smoke scenario and figure regeneration."""
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from conftest import ZERO

import seqbench as sb
from seqbench import scenarios
from seqbench.scenarios import SweepScale, regen_figures, summary_scenario


# -- summary scenario ----------------------------------------------------------

def test_summary_scenario_leaves_nothing_behind(tmp_path):
    summary_scenario(tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_summary_scenario_is_rerunnable(tmp_path):
    summary_scenario(tmp_path)
    summary_scenario(tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_summary_scenario_names_the_failing_step(tmp_path):
    with pytest.raises(sb.ScenarioError) as info:
        summary_scenario(tmp_path / "missing_subdir")
    assert "create" in str(info.value)


def test_summary_scenario_names_a_write_that_did_not_land(tmp_path, monkeypatch):
    """A handle that reports each write done yet writes nothing fails the write step."""
    monkeypatch.setattr(sb.FileHandle, "write_block", lambda self, buffer, length=None: length)
    with pytest.raises(sb.ScenarioError) as info:
        summary_scenario(tmp_path)
    assert str(info.value) == "step 'write' failed: file length 0, wanted 100"
    assert list(tmp_path.iterdir()) == []


def test_summary_scenario_names_a_read_back_that_ends_early(tmp_path, faults):
    """A read that returns 0 at once is an early end of file: nothing comes back."""
    with faults("raw.readinto", ZERO), pytest.raises(sb.ScenarioError) as info:
        summary_scenario(tmp_path)
    assert str(info.value) == (
        "step 'read' failed: read back 0 bytes, 0 of them b'a'; wanted 100, all b'a'"
    )
    assert list(tmp_path.iterdir()) == []


# -- figure regeneration ---------------------------------------------------------

_TINY = SweepScale(
    file_size=4 << 20,
    duration=0.15,
    trials=3,
    sizes=(1, 64, 1024, 65536),
    ext_size=2 << 20,
    ext_blocks=(65536, 262144),
)


@pytest.fixture(scope="module")
def regen(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("figures")
    paths = regen_figures(out_dir, _TINY)
    return out_dir, paths


def test_regen_emits_csv_plus_five_figures(regen):
    out_dir, paths = regen
    names = sorted(p.name for p in paths)
    assert names == ["fig2.svg", "fig3.svg", "fig4.svg", "fig5.svg", "fig8.svg", "results.csv"]
    for p in paths:
        assert p.parent == out_dir
        assert p.stat().st_size > 0


def test_regen_figures_are_valid_svg(regen):
    _, paths = regen
    for p in paths:
        if p.suffix == ".svg":
            root = ET.fromstring(p.read_text())
            assert root.tag.endswith("svg")


def test_regen_csv_round_trips(regen):
    _, paths = regen
    csv_path = next(p for p in paths if p.suffix == ".csv")
    text = csv_path.read_text()
    rows = sb.from_csv(text)
    assert sb.to_csv(rows) == text
    tools = {r.tool for r in rows}
    assert "sweep" in tools
    assert "extend" in tools
    # one row per (direction, size) per mode plus one per extension block
    sweep_rows = [r for r in rows if r.tool == "sweep"]
    assert len(sweep_rows) == 2 * len(_TINY.sizes)
    extend_rows = [r for r in rows if r.tool == "extend"]
    assert len(extend_rows) == 2 * len(_TINY.ext_blocks)


def test_regen_rows_carry_sweep_settings(regen):
    _, paths = regen
    rows = sb.from_csv(next(p for p in paths if p.suffix == ".csv").read_text())
    for row in rows:
        if row.tool == "sweep":
            assert row.direct == False  # noqa: E712 - parsed field, not identity
            assert row.trials == _TINY.trials
            assert row.block_bytes in _TINY.sizes
        if row.tool == "sweep-direct":
            assert row.direct == True  # noqa: E712
        if row.tool == "extend":
            assert row.direction == "write"
            # bytes_moved sums the trials, each growing the file to ext_size
            assert row.bytes_moved == _TINY.ext_size * _TINY.trials


def test_quick_sweep_shape_invariants(regen):
    """The buffered read sweep shows the cached-file request-size shape:
    rates non-decreasing (within a noise band) from 1 B to 64 KiB, and
    per-byte CPU cost collapsing by 10x or more over the same span."""
    _, paths = regen
    rows = sb.from_csv(next(p for p in paths if p.suffix == ".csv").read_text())
    reads = {
        r.block_bytes: r
        for r in rows
        if r.tool == "sweep" and r.direction == "read"
    }
    assert set(reads) == {1, 64, 1024, 65536}
    for small, large in [(1, 64), (64, 1024), (1024, 65536)]:
        assert reads[large].mb_per_sec >= reads[small].mb_per_sec * 0.9
    assert reads[65536].ns_per_byte <= 0.1 * reads[1].ns_per_byte


_ONE_SIZE = SweepScale(
    file_size=1 << 20,
    duration=0.02,
    trials=1,
    sizes=(4096,),
    ext_size=1 << 20,
    ext_blocks=(65536,),
)


@pytest.mark.parametrize(
    "direct_io, reason",
    [(False, "cannot do uncached I/O"), (True, "no block device queue information")],
    ids=["direct-open-refused", "no-sector-geometry"],
)
def test_regen_skips_the_direct_figures_with_a_notice(tmp_path, monkeypatch, capsys, direct_io, reason):
    """The sector probe reads a queue that no device has."""
    monkeypatch.setattr(scenarios, "supports_direct_io", lambda path: direct_io)
    real = sb.engine._queue_sector
    monkeypatch.setattr(sb.engine, "_queue_sector", lambda device: real(f"{device}/none"))
    paths = regen_figures(tmp_path, _ONE_SIZE)
    assert sorted(p.name for p in paths) == ["fig2.svg", "fig3.svg", "fig8.svg", "results.csv"]
    notice = capsys.readouterr().err
    assert reason in notice and "skipping fig4/fig5" in notice
    rows = sb.from_csv((tmp_path / "results.csv").read_text())
    assert {r.tool for r in rows} == {"sweep", "extend"}


def _stub_result(block, clock, config=None):
    """A one-trial result whose rate and cost vary with the request size."""
    sample = sb.ThroughputSample(block << 10, 1e-3 * block.bit_length(), 1e-4 * (1 + block % 7), 1024)
    return sb.BenchmarkResult.from_samples([sample], clock, config)


@pytest.fixture
def stubbed_regen(monkeypatch):
    """regen_figures with no measurement run and no direct sweep: returns the
    paths the measurements were handed and, by figure name, the series and
    y label each figure was drawn from."""
    targets, plotted = [], {}
    real_plot = scenarios.emit_plot

    def measure(cfg, trials, *, clock_ghz):
        targets.append(Path(cfg.path))
        return _stub_result(cfg.block, clock_ghz, cfg)

    def extend(path, size, block, mode, *, trials, clock_ghz):
        targets.append(Path(path))
        return _stub_result(block, clock_ghz)

    def plot(series, out_path, **labels):
        plotted[Path(out_path).name] = (series, labels["y_label"])
        real_plot(series, out_path, **labels)

    monkeypatch.setattr(scenarios, "run_measurement", measure)
    monkeypatch.setattr(scenarios, "measure_extension", extend)
    monkeypatch.setattr(scenarios, "emit_plot", plot)
    monkeypatch.setattr(scenarios, "supports_direct_io", lambda path: False)
    return targets, plotted


def test_regen_measures_in_a_fresh_directory_and_removes_only_that(tmp_path, monkeypatch, stubbed_regen):
    """A directory named scratch in the output directory is the user's: its files
    are neither measured nor removed, whether the run passes or fails."""
    targets, _ = stubbed_regen
    mine = tmp_path / "scratch"
    mine.mkdir()
    (mine / "keep.txt").write_text("keep")
    (mine / "sweep.dat").write_bytes(b"x" * _ONE_SIZE.file_size)  # long enough to be a read target
    regen_figures(tmp_path, _ONE_SIZE)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fig2.svg", "fig3.svg", "fig8.svg", "results.csv", "scratch"
    ]
    assert sorted(p.name for p in mine.iterdir()) == ["keep.txt", "sweep.dat"]
    assert (mine / "keep.txt").read_text() == "keep"
    (measured,) = {path.parent for path in targets}
    assert measured.parent == tmp_path and measured.name.startswith("scratch_")

    monkeypatch.setattr(scenarios, "measure_extension", lambda *args, **kwargs: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        regen_figures(tmp_path, _ONE_SIZE)
    assert sorted(p.name for p in mine.iterdir()) == ["keep.txt", "sweep.dat"]
    assert not [p for p in tmp_path.iterdir() if p.name.startswith("scratch_")]


@pytest.mark.parametrize(
    "clock, unit, column",
    [(2.5, "cycles per byte", "cycles_per_byte"), (None, "ns per byte", "ns_per_byte")],
    ids=["clock", "no-clock"],
)
def test_regen_draws_cost_in_cycles_only_with_a_clock(tmp_path, monkeypatch, stubbed_regen, clock, unit, column):
    _, plotted = stubbed_regen
    monkeypatch.setattr(scenarios, "detect_clock_ghz", lambda: clock)
    regen_figures(tmp_path, _TINY)
    series, y_label = plotted["fig3.svg"]
    assert y_label == unit
    assert f">{unit}</text>" in (tmp_path / "fig3.svg").read_text()
    rows = sb.from_csv((tmp_path / "results.csv").read_text())
    assert [run.label for run in series] == ["read", "write"]
    for run in series:
        column_points = [(r.block_bytes, getattr(r, column)) for r in rows if r.tool == "sweep" and r.direction == run.label]
        assert list(run.points) == column_points
    assert plotted["fig2.svg"][1] == plotted["fig8.svg"][1] == "MB/s"


def test_presets_are_coherent():
    for scale in (sb.QUICK, sb.FULL):
        assert scale.sizes[0] == 1
        assert scale.sizes[-1] == 4 << 20
        assert all(b > a for a, b in zip(scale.sizes, scale.sizes[1:]))
        assert scale.trials >= 3
        assert scale.file_size >= 64 << 20
    assert sb.QUICK.duration <= 2.0  # quick caps time per point
