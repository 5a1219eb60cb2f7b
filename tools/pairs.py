"""Paired statistics for two sets of perfbench runs: did NEW move a metric?

    python tools/pairs.py BASE.jsonl NEW.jsonl

Each file holds the lines that ``perfbench/run.py --out`` appends, one
run a line.  They are read as ``run.load_results`` reads them: blank
lines and skipped workloads are left out, and traced runs are kept apart
from untraced ones.  Runs pair per workload by seed and order: the i-th
run of a seed in BASE with the i-th run of that seed in NEW, so runs made
in alternation, one seed per pair, pair as they were made.

For every end-to-end metric of BENCHMARK.json and every ``*_cpu_x_floor``
row, it prints:

* the median of each side;
* the median of the per-pair ratios NEW/BASE, with their quartiles;
* "lower in k of N": the pairs in which NEW is below BASE;
* the exact two-sided sign-test p of that count, ties left out;
* the Hodges-Lehmann shift of the log ratios (the median of their Walsh
  averages), shown as a ratio, with its distribution-free 95% interval
  from the exact signed-rank distribution (none below 6 pairs);
* for a gated metric, its bound and whether the median ratio breaks it.

The last line is one JSON object with the same content.  BENCHMARK.json
is read, never written.  A run line with ``failed`` above 0 in either
file is named on stderr and the status is 1, with no statistics: a run
that failed operations timed something other than the code.  So is a
pair of files that share no workload.  Only the standard library is used.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIDENCE = 0.95


def load_runs(path: Path) -> tuple[dict[str, list[dict]], list[str]]:
    """Runs by workload, as ``run.load_results`` keys them, and the lines that failed."""
    runs: dict[str, list[dict]] = {}
    failed = []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if line.strip():
            result = json.loads(line)
            if "skipped" not in result:
                if result["failed"]:
                    failed.append(f"{path}:{number}: {result['workload']} seed {result['seed']} "
                                  f"failed {result['failed']} of {result['attempted']} operations")
                key = result["workload"] + (" traced" if result["trace"] else "")
                runs.setdefault(key, []).append(result)
    return runs, failed


def pair_runs(base: dict[str, list[dict]], new: dict[str, list[dict]]) -> dict[str, list[tuple]]:
    """Per shared workload, (base run, new run) pairs: by seed, then by order within a seed."""
    pairs = {}
    for workload in sorted(base.keys() & new.keys()):
        by_seed: dict[int, tuple[list, list]] = {}
        for side, runs in enumerate((base[workload], new[workload])):
            for run in runs:
                by_seed.setdefault(run["seed"], ([], []))[side].append(run)
        pairs[workload] = [pair for b, n in by_seed.values() for pair in zip(b, n)]
    return pairs


def sign_test(lower: int, higher: int) -> float:
    """Exact two-sided sign-test p for ``lower`` pairs below and ``higher`` above."""
    n = lower + higher
    tail = sum(math.comb(n, i) for i in range(min(lower, higher) + 1))
    return min(1.0, 2 * tail / 2**n)


def signed_rank_counts(n: int) -> list[int]:
    """``counts[t]``: how many of the 2**n sign patterns of ranks 1..n sum to t."""
    counts = [1]
    for rank in range(1, n + 1):
        grown = counts + [0] * rank
        for total, count in enumerate(counts):
            grown[total + rank] += count
        counts = grown
    return counts


def hodges_lehmann(diffs: list[float], confidence: float = CONFIDENCE):
    """The median of the Walsh averages of ``diffs``, and its interval.

    The interval cuts c Walsh averages off each end, c the largest count
    with P(T < c) <= (1 - confidence) / 2 for the signed-rank statistic T
    of len(diffs) pairs; it is (None, None) when c is 0.
    """
    walsh = sorted((a + b) / 2 for i, a in enumerate(diffs) for b in diffs[i:])
    counts = signed_rank_counts(len(diffs))
    allowed = (1 - confidence) / 2 * 2 ** len(diffs)
    cut = below = 0
    while below + counts[cut] <= allowed:
        below += counts[cut]
        cut += 1
    shift = statistics.median(walsh)
    if not cut:
        return shift, None, None
    return shift, walsh[cut - 1], walsh[-cut]


def compare(pairs: dict[str, list[tuple]], spec: dict) -> list[dict]:
    """One row of statistics per workload and metric, gated metrics first."""
    bounds = {entry["name"]: entry for entry in spec["end_to_end"]}
    rows = []
    for workload, runs in pairs.items():
        if not runs:
            continue
        shared = set.intersection(*(set(run["metrics"]) for pair in runs for run in pair))
        keys = [k for k in bounds if k in shared]
        keys += sorted(k for k in shared if k.endswith("_cpu_x_floor"))
        for key in keys:
            base = [b["metrics"][key]["value"] for b, _ in runs]
            new = [n["metrics"][key]["value"] for _, n in runs]
            ratios = [n / b for b, n in zip(base, new)]
            q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
            median = statistics.median(ratios)
            lower = sum(n < b for b, n in zip(base, new))
            higher = sum(n > b for b, n in zip(base, new))
            shift, low, high = hodges_lehmann([math.log(r) for r in ratios])
            row = {
                "workload": workload, "metric": key, "unit": runs[0][0]["metrics"][key]["unit"],
                "pairs": len(runs), "base_median": statistics.median(base),
                "new_median": statistics.median(new), "ratio_median": median,
                "ratio_q1": q1, "ratio_q3": q3, "lower": lower,
                "sign_p": sign_test(lower, higher), "hl_ratio": math.exp(shift),
                "hl_low": None if low is None else math.exp(low),
                "hl_high": None if high is None else math.exp(high),
                "bound": None, "verdict": None,
            }
            if key in bounds:
                sign = 1 if bounds[key]["better"] == "lower" else -1
                row["bound"] = bounds[key]["bound"]
                worse = sign * (median - 1) > row["bound"]
                row["verdict"] = "worse than bound" if worse else "within bound"
            rows.append(row)
    return rows


def print_rows(rows: list[dict]) -> None:
    print(f"{'workload':<16} {'metric':<26} {'base':>9} {'new':>9}  {'ratio [q1, q3]':<22} "
          f"{'lower':<9} {'sign p':>7}  {'HL ratio [95% interval]':<24} bound")
    for r in rows:
        interval = "[none]" if r["hl_low"] is None else f"[{r['hl_low']:.3f}, {r['hl_high']:.3f}]"
        gate = "" if r["bound"] is None else f"{r['bound']:g} {r['verdict']}"
        print(f"{r['workload']:<16} {r['metric']:<26} {r['base_median']:>9.4g} "
              f"{r['new_median']:>9.4g}  {r['ratio_median']:.3f} "
              f"[{r['ratio_q1']:.3f}, {r['ratio_q3']:.3f}]   "
              f"{r['lower']:>2} of {r['pairs']:<3} {r['sign_p']:>7.3g}  "
              f"{r['hl_ratio']:.3f} {interval:<18} {gate}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, metavar="BASE.jsonl")
    parser.add_argument("new", type=Path, metavar="NEW.jsonl")
    args = parser.parse_args(argv)
    (base, base_failed), (new, new_failed) = load_runs(args.base), load_runs(args.new)
    if base_failed or new_failed:
        for line in base_failed + new_failed:
            print(f"pairs: a run failed operations: {line}", file=sys.stderr)
        return 1
    pairs = pair_runs(base, new)
    if not any(pairs.values()):
        print("pairs: no workload has a run of the same seed in both files", file=sys.stderr)
        return 1
    rows = compare(pairs, json.loads((ROOT / "BENCHMARK.json").read_text()))
    print_rows(rows)
    print(json.dumps({"confidence": CONFIDENCE,
                      "pairs": {workload: len(runs) for workload, runs in pairs.items()},
                      "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
