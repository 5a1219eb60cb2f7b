"""Benchmark driver for seqbench: one workload (or all) in one process.

    python3 perfbench/run.py --workload small-requests --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --out results.jsonl
    python3 perfbench/run.py --compare base.jsonl new.jsonl

Each run sets the workload up several times (setup_s is the median), warms
every row once, then repeats rounds of paired floor/seqbench calls until
--seconds have passed.  It prints every metric by name and unit, the host
fingerprint and the known-defect notes, and as its last line one JSON
object with the metrics BENCHMARK.json names: the end-to-end ones with
--trace 0, the per-layer ones with --trace 1.  --out appends the full
result as one JSON line; --compare reads two such files.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import harness
import suites
from harness import count, stat, timing

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
SETUPS = 5  # set-ups per run; setup_s is their median
MIN_ROUNDS = 4

NOTES = {
    "pipeline.peak_outstanding.64k": "known defect: assigned before any completion, so it always "
                                     "equals min(depth, blocks); it measures nothing",
    "pipeline.peak_outstanding.1m": "known defect: see pipeline.peak_outstanding.64k",
    "engine.kernel_bytes_per_app_byte.seek_read_4k": "known defect: the 64 KiB stream buffer "
                                                      "refills after every seek (about 16x)",
    "engine.kernel_bytes_per_app_byte.seek_read_512": "known defect: stream buffer refill after "
                                                       "every seek (about 128x)",
}


def load_seqbench():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import numpy
        import seqbench
        import seqbench.cli  # noqa: F401  (the examples row calls cli.main)
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import seqbench from {src}: {exc}")
    if Path(seqbench.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: seqbench was imported from {seqbench.__file__}, not from {src}")
    return seqbench, numpy


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        sys.exit(f"perfbench: cannot read {path}: {exc}")


# -- work area -------------------------------------------------------------------

def unmount_below(directory: Path) -> None:
    """Unmount everything mounted at or under ``directory``, deepest first."""
    prefix = str(directory)
    try:
        lines = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return
    points = [line.split()[1] for line in lines if len(line.split()) > 1]
    points = [p for p in points if p == prefix or p.startswith(prefix + "/")]
    for point in sorted(points, key=len, reverse=True):
        if subprocess.run(["umount", point], capture_output=True).returncode != 0:
            subprocess.run(["umount", "-l", point], capture_output=True)


@contextlib.contextmanager
def work_area():
    """A private tmpfs inside the checkout, or a plain directory there.

    Keeping every file of a run in RAM takes the disk out of what is
    measured.  Mounting needs root; without it the directory is used as
    it is and the fingerprint says which filesystem held the files.
    """
    unmount_below(WORK)  # left over from a run that was killed
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    mounted = False
    if os.geteuid() == 0:
        with contextlib.suppress(OSError):
            mounted = subprocess.run(
                ["mount", "-t", "tmpfs", "-o", "size=1g,mode=0700", "perfbench", str(WORK)],
                capture_output=True,
            ).returncode == 0
    try:
        (WORK / "tmp").mkdir()
        tempfile.tempdir = str(WORK / "tmp")
        yield WORK
    finally:
        tempfile.tempdir = None
        if mounted:
            unmount_below(WORK)
        shutil.rmtree(WORK, ignore_errors=True)


# -- one workload ------------------------------------------------------------------

def run_workload(sb, numpy, name: str, seed: int, seconds: float, trace: bool,
                 spans_path: Path | None) -> dict:
    spec = suites.WORKLOADS[name]
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if name == "aged-volume":
        problem = sb.volume_support_problem()
        if problem is not None:
            result["skipped"] = problem
            return result
        # scratch_volume would put its image in /dev/shm; keep it in the work area.
        sb.volumes._image_directory = lambda size: tempfile.gettempdir()
    directory = WORK / name
    ctx = suites.Context(sb, seed, directory)
    ledger = harness.Ledger()
    traced, untraced = harness.Tracer(True), harness.Tracer(False)
    counters = harness.IoCounters() if trace else None
    setup_s: list[float] = []
    rounds = 0
    try:
        for index in range(SETUPS):
            if index and spec.teardown:
                spec.teardown(ctx)
            shutil.rmtree(directory, ignore_errors=True)
            directory.mkdir()
            started = time.perf_counter()
            spec.setup(ctx)
            setup_s.append(time.perf_counter() - started)
        # Untraced runs time only the headline rows, so they fit more rounds.
        rows = [r for r in spec.rows(ctx) if trace or (r.headline and r.floor)]
        result["fingerprint"] = fingerprint(sb, numpy, ctx)
        for row in rows:
            harness.run_row(row, -1, True, untraced, ledger, counters, keep=False)
        deadline = time.perf_counter() + seconds
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            # Traced runs alternate traced and untraced rounds; both kinds
            # alternate which side of a pair goes first.
            tracer = traced if trace and rounds % 2 == 0 else untraced
            floor_first = (rounds // 2 if trace else rounds) % 2 == 0
            for row in rows:
                harness.run_row(row, rounds, floor_first, tracer, ledger, counters)
            rounds += 1
        if spec.final_checks:
            spec.final_checks(ctx, ledger)
    finally:
        if spec.teardown:
            spec.teardown(ctx)
        shutil.rmtree(directory, ignore_errors=True)
        if counters:
            counters.close()
    result.update(
        rounds=rounds,
        attempted=ledger.attempted,
        failed=ledger.failed,
        failures=ledger.messages,
        metrics=derive(spec, rows, ctx, setup_s, ledger, traced if trace else None, rounds),
    )
    if trace and spans_path is not None:
        traced.write(spans_path, name)
    return result


def fingerprint(sb, numpy, ctx) -> dict:
    facts = harness.host_fingerprint(sb, numpy)
    target = ctx.state.get("volume", ctx.dir)
    facts["target"] = str(target.relative_to(ROOT)) if target.is_relative_to(ROOT) else str(target)
    facts["target_fs"] = harness.filesystem_type(target)
    facts["direct_io"] = sb.supports_direct_io(target)
    return facts


# -- metrics -----------------------------------------------------------------------

def per_round_geomean(rows, attribute: str) -> list[float]:
    """Each round's geometric mean over the rows, for rounds every row has."""
    by_round = [{s.round: getattr(s, attribute) for s in row.paired} for row in rows]
    common = set.intersection(*(set(d) for d in by_round)) if by_round else set()
    return [harness.geomean(d[r] for d in by_round) for r in sorted(common)]


def derive(spec, rows, ctx, setup_s, ledger, tracer, rounds) -> dict:
    m: dict[str, dict] = {}
    by_name = {row.name: row for row in rows}
    headline = [row for row in rows if row.headline and row.paired]

    for key, attribute in (("x_floor", "ratio"), ("cpu_x_floor", "cpu_ratio")):
        per_round = per_round_geomean(headline, attribute)
        if per_round:
            m[key] = stat(per_round, "x")
    m["setup_s"] = stat(setup_s, "s")
    m["peak_rss_mb"] = count(harness.peak_rss_mb(), "MB")
    m["failed_share"] = count(ledger.failed / max(ledger.attempted, 1), "share")
    m["rounds"] = count(rounds)

    for row in rows:
        paired = row.paired
        if paired:
            m[f"{row.name}_x_floor"] = stat([s.ratio for s in paired], "x")
            m[f"{row.name}_cpu_x_floor"] = stat([s.cpu_ratio for s in paired], "x")
        if row.label and row.samples:
            m[row.label] = timing(row.label, [s.seq_ns for s in row.samples])
        if row.floor_label and paired:
            m[row.floor_label] = timing(row.floor_label, [s.floor_ns for s in paired])
        io = [s.io for s in row.samples if s.io is not None]
        if io and row.app_bytes:
            m[f"engine.kernel_bytes_per_app_byte.{row.name}"] = stat(
                [(d["rchar"] + d["wchar"]) / row.app_bytes for d in io], "B/B")
            m[f"engine.syscalls_per_request.{row.name}"] = stat(
                [(d["syscr"] + d["syscw"]) / row.units for d in io], "1/request")
        if row.call == "bench.run_measurement" and row.samples:
            m[f"bench.cpu_ns_per_byte.{row.name}"] = stat(
                [s.result.per_byte_ns for s in row.samples], "ns/B")

    m.update(spec.metrics(ctx, by_name))

    if tracer is not None:
        traced_rounds = (rounds + 1) // 2
        for layer, ns in sorted(tracer.self_ns().items()):
            m[f"self_ms_per_round.{layer}"] = count(ns / 1e6 / traced_rounds, "ms")
        m.update(layer_summary(rows, headline))
    return m


def layer_summary(rows, headline) -> dict:
    """The per-layer metrics BENCHMARK.json names; each exists on every workload."""
    med = statistics.median
    out = {
        "floor_ns_per_request": count(
            harness.geomean(med(s.floor_ns for s in r.paired) for r in headline), "ns"),
        "seqbench_ns_per_request": count(
            harness.geomean(med(s.seq_ns for s in r.paired) for r in headline), "ns"),
    }
    probes = [r for r in rows if r.layer == "engine" and r.floor is None and r.samples]
    out["engine_ns_per_call"] = count(
        harness.geomean(med(s.seq_ns for s in r.samples) for r in probes), "ns")
    with_io = [r for r in headline if r.app_bytes and any(s.io for s in r.samples)]
    out["kernel_bytes_per_app_byte"] = count(harness.geomean(
        med((s.io["rchar"] + s.io["wchar"]) / r.app_bytes for s in r.samples if s.io)
        for r in with_io), "B/B")
    out["syscalls_per_request"] = count(harness.geomean(
        med((s.io["syscr"] + s.io["syscw"]) / r.units for s in r.samples if s.io)
        for r in with_io), "1/request")
    overhead = []
    for r in headline:
        on = [s.seq_ns for s in r.samples if s.traced]
        off = [s.seq_ns for s in r.samples if not s.traced]
        if on and off:
            overhead.append(med(on) / med(off))
    if overhead:
        out["trace_overhead_share"] = count(harness.geomean(overhead) - 1, "share")
    return out


# -- output ------------------------------------------------------------------------

def print_report(result: dict) -> None:
    head = f"# workload {result['workload']}, seed {result['seed']}, {result['seconds']:g} s, " \
           f"trace {result['trace']}"
    if "skipped" in result:
        print(f"{head}: skipped, {result['skipped']}")
        return
    fp = result["fingerprint"]
    print(head)
    print(f"# host: nproc {fp['nproc']}, clock {fp['clock_ghz']} GHz from {fp['clock_source']}, "
          f"kernel {fp['kernel']}, python {fp['python']}, numpy {fp['numpy']}")
    print(f"# target: {fp['target']} on {fp['target_fs']}, direct I/O "
          f"{'accepted' if fp['direct_io'] else 'refused'}")
    print(f"# {result['rounds']} rounds, {result['attempted']} operations attempted, "
          f"{result['failed']} failed")
    for message in result["failures"]:
        print(f"# failure: {message}")
    for key, metric in result["metrics"].items():
        line = f"{key:<52} {metric['value']:>14.6g} {metric['unit']:<10}"
        if "n" in metric:
            tail = "" if metric["tail_pct"] is None else \
                f"  p{metric['tail_pct']} {metric['tail']:.6g}"
            line += f" n={metric['n']}{tail}"
        if key in NOTES:
            line += f"  [{NOTES[key]}]"
        print(line)


def contract_line(result: dict, spec: dict) -> dict:
    wanted = spec["per_layer" if result["trace"] else "end_to_end"]
    metrics = {}
    for entry in wanted:
        metric = result["metrics"].get(entry["name"])
        if metric is None:
            raise SystemExit(f"perfbench: metric {entry['name']} was not measured")
        metrics[entry["name"]] = {"value": metric["value"], "unit": entry["unit"]}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


# -- compare -----------------------------------------------------------------------

def load_results(path: Path) -> dict[str, list[dict]]:
    """Runs by workload; traced runs are kept apart from untraced ones."""
    runs: dict[str, list[dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            result = json.loads(line)
            if "skipped" not in result:
                key = result["workload"] + (" traced" if result["trace"] else "")
                runs.setdefault(key, []).append(result)
    return runs


def spread(runs: list[dict], key: str) -> float | None:
    """Quartile distance over median: across runs, or within the one run."""
    values = [r["metrics"][key]["value"] for r in runs]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / statistics.median(values)
    metric = runs[0]["metrics"][key]
    if metric.get("q1") is None:
        return None
    return (metric["q3"] - metric["q1"]) / metric["median"]


def compare(base_path: Path, new_path: Path, spec: dict) -> int:
    bounds = {e["name"]: e for e in spec["end_to_end"]}
    base, new = load_results(base_path), load_results(new_path)
    print(f"{'workload':<16} {'metric':<48} {'base':>12} {'new':>12} {'delta':>8}  verdict")
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = base[workload], new[workload]
        shared = set(b_runs[0]["metrics"]).intersection(*(r["metrics"] for r in b_runs + n_runs))
        for key in sorted(shared, key=lambda k: (k not in bounds, k)):
            b_vals = [r["metrics"][key]["value"] for r in b_runs]
            n_vals = [r["metrics"][key]["value"] for r in n_runs]
            b_med, n_med = statistics.median(b_vals), statistics.median(n_vals)
            delta = (n_med - b_med) / b_med if b_med else 0.0
            verdict = "-"
            if key in bounds:
                sign = 1 if bounds[key]["better"] == "lower" else -1
                worse_by, bound = sign * delta, bounds[key]["bound"]
                wide = spread(b_runs, key)
                all_better = min(sign * v for v in b_vals) > max(sign * v for v in n_vals)
                if wide is not None and wide > bound and not all_better:
                    verdict = f"unresolved (spread {wide:.1%} > bound {bound:.0%})"
                elif worse_by > bound:
                    verdict = f"worse than bound {bound:.0%}"
                elif worse_by < -bound:
                    verdict = "better"
                else:
                    verdict = "within bound"
            print(f"{workload:<16} {key:<48} {b_med:>12.6g} {n_med:>12.6g} {delta:>+8.1%}  "
                  f"{verdict}")
    return 0


# -- entry point ---------------------------------------------------------------------

def parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*suites.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=137)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the full result as a JSON line")
    parser.add_argument("--spans", type=Path, help="write the traced run's spans here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.seed < 0 or (args.seconds is not None and args.seconds <= 0):
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    sb, numpy = load_seqbench()
    seconds = args.seconds or spec["run_seconds"]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so clean-up runs
    names = list(suites.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    with work_area():
        for name in names:
            results.append(run_workload(sb, numpy, name, args.seed, seconds,
                                        bool(args.trace), args.spans))
    for result in results:
        print_report(result)
        if args.out is not None:
            with open(args.out, "a") as stream:
                stream.write(json.dumps(result) + "\n")
    measured = [r for r in results if "skipped" not in r]
    if not measured:
        print("perfbench: nothing measured: " + "; ".join(r["skipped"] for r in results),
              file=sys.stderr)
        return 3
    lines = [contract_line(r, spec) for r in measured]
    if len(lines) == 1:
        print(json.dumps(lines[0]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {f"{r['workload']}.{k}": v
                        for r, line in zip(measured, lines) for k, v in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
