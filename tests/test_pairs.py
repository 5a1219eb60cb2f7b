"""tools/pairs.py: the paired statistics of two perfbench result files."""
import importlib.util
import itertools
import json
import math
import random
import statistics
from pathlib import Path

import pytest
from scipy import stats

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


@pytest.mark.parametrize("seed", range(20))
def test_the_sign_test_is_scipys_exact_binomial_test(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    lower = rng.randint(0, n)
    want = stats.binomtest(lower, n, 0.5, alternative="two-sided").pvalue
    assert pairs.sign_test(lower, n - lower) == pytest.approx(want, rel=1e-12)


def _brute_force_interval(diffs, confidence):
    """Walsh averages by pairs, and the cut from every sign pattern of the ranks."""
    walsh = sorted((a + b) / 2 for a, b in itertools.combinations_with_replacement(diffs, 2))
    n = len(diffs)
    sums = sorted(
        sum(rank for rank, positive in zip(range(1, n + 1), signs) if positive)
        for signs in itertools.product((False, True), repeat=n)
    )
    cut = 0
    while sum(t < cut + 1 for t in sums) / 2**n <= (1 - confidence) / 2:
        cut += 1
    if not cut:
        return statistics.median(walsh), None, None
    return statistics.median(walsh), walsh[cut - 1], walsh[len(walsh) - cut]


@pytest.mark.parametrize("seed", range(12))
def test_the_shift_and_its_interval_are_the_brute_force_walsh_ones(seed):
    rng = random.Random(seed)
    diffs = [rng.gauss(0.02, 0.05) for _ in range(rng.randint(1, 11))]
    for confidence in (0.9, 0.95):
        assert pairs.hodges_lehmann(diffs, confidence) == _brute_force_interval(diffs, confidence)


def test_the_interval_needs_six_pairs_at_95_percent():
    assert pairs.hodges_lehmann([0.1] * 5)[1:] == (None, None)
    assert pairs.hodges_lehmann([0.1] * 6) == pytest.approx((0.1, 0.1, 0.1))


def _run(workload, seed, metrics, failed=0):
    return {
        "workload": workload, "seed": seed, "trace": 0, "attempted": 10, "failed": failed,
        "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()},
    }


def _write(path, runs):
    path.write_text("".join(json.dumps(run) + "\n\n" for run in runs))
    return path


def test_fake_runs_give_the_documented_json(tmp_path, capsys):
    base = [_run("overlap", seed, {"cpu_x_floor": 2.0, "copy_1m_cpu_x_floor": 1.0, "rounds": 3})
            for seed in range(1, 7)]
    new = [_run("overlap", seed, {"cpu_x_floor": 1.8, "copy_1m_cpu_x_floor": 1.0 + seed / 100,
                                  "rounds": 9})
           for seed in reversed(range(1, 7))]  # pairs go by seed, not by line
    base.append({"workload": "aged-volume", "seed": 1, "trace": 0, "skipped": "no loop devices"})
    status = pairs.main([str(_write(tmp_path / "base.jsonl", base)),
                         str(_write(tmp_path / "new.jsonl", new))])
    assert status == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert out["confidence"] == 0.95 and out["pairs"] == {"overlap": 6}
    gated, row = out["rows"]
    assert gated == {
        "workload": "overlap", "metric": "cpu_x_floor", "unit": "x", "pairs": 6,
        "base_median": 2.0, "new_median": 1.8, "ratio_median": 0.9, "ratio_q1": 0.9,
        "ratio_q3": 0.9, "lower": 6, "sign_p": 2 / 64, "hl_ratio": pytest.approx(0.9),
        "hl_low": pytest.approx(0.9), "hl_high": pytest.approx(0.9),
        "bound": 0.2, "verdict": "within bound",
    }
    assert row["metric"] == "copy_1m_cpu_x_floor" and row["bound"] is row["verdict"] is None
    assert (row["lower"], row["sign_p"]) == (0, 2 / 64)
    assert row["ratio_median"] == pytest.approx(1.035)
    assert row["hl_ratio"] == pytest.approx(math.exp(statistics.median(
        (math.log(1 + a / 100) + math.log(1 + b / 100)) / 2
        for a, b in itertools.combinations_with_replacement(range(1, 7), 2))))
    assert row["hl_low"] == pytest.approx(1.01) and row["hl_high"] == pytest.approx(1.06)


def test_a_gated_metric_past_its_bound_is_named(tmp_path, capsys):
    base = [_run("small-requests", 1, {"setup_s": 0.1})]
    new = [_run("small-requests", 1, {"setup_s": 0.2})]
    pairs.main([str(_write(tmp_path / "b", base)), str(_write(tmp_path / "n", new))])
    (row,) = json.loads(capsys.readouterr().out.splitlines()[-1])["rows"]
    assert (row["verdict"], row["hl_low"], row["sign_p"]) == ("worse than bound", None, 1.0)


def test_a_line_that_failed_operations_exits_nonzero_and_is_named(tmp_path, capsys):
    base = _write(tmp_path / "base.jsonl", [_run("overlap", 1, {"cpu_x_floor": 1.0})])
    new = _write(tmp_path / "new.jsonl", [_run("overlap", 1, {"cpu_x_floor": 1.0}, failed=2)])
    assert pairs.main([str(base), str(new)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{new}:1: overlap seed 1 failed 2 of 10 operations" in err


def test_files_that_share_no_seed_exit_nonzero(tmp_path, capsys):
    base = _write(tmp_path / "base.jsonl", [_run("overlap", 1, {"cpu_x_floor": 1.0})])
    new = _write(tmp_path / "new.jsonl", [_run("overlap", 2, {"cpu_x_floor": 1.0})])
    assert pairs.main([str(base), str(new)]) == 1
    assert "no workload" in capsys.readouterr().err
