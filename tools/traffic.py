"""Print the lines of src/seqbench that the package's own programs never run.

    python tools/traffic.py

linemap.py maps the lines the test suite runs; this maps the lines that
real use runs, so that a line only a test reaches shows up.  It runs in
this process, under linemap's hook (``lines_run``), in a fresh temp
directory that it removes at the end:

* the four tools at small sizes: an iospeed buffered read, a 4 KiB
  write, a seeking read at ``-a2``, ``-x`` and ``-p`` with ``-c``;
  ``fragdisk -n1`` held to one 64 KiB file; ``examples`` with 2,000
  records; and ``asynccopy -z8M``;
* demos 01-07, with the temp directory as their ``tempfile`` root.
  Demo 06 builds a loop-mounted volume where ``volume_support_problem``
  finds nothing in the way (as root, with loop devices), as the demo
  itself does; elsewhere it skips that part.

It then prints each module's unreached lines as ranges and the total,
as linemap does.  The output of the runs is kept back unless a run
fails; a failed run (an exception, or a tool's nonzero exit) is named
with its output, and the exit status is then 1.  An unreached line is a
finding, not a failure: otherwise the status is 0.  Only the standard
library is used, and there are no flags.
"""
from __future__ import annotations

import contextlib
import io
import runpy
import sys
import tempfile
import traceback
from pathlib import Path

from linemap import ROOT, lines_run, print_map

DEMOS = ROOT / "demos"


def runs(work: Path) -> list[tuple[str, object]]:
    """(name, callable returning an exit status) of every run, in order."""
    from seqbench import cli

    target, grown = str(work / "io.dat"), str(work / "grown.dat")
    commands = [
        ["iospeed", "-t0.05", "-b64K", "-r1M", target],
        ["iospeed", "-t0.05", "-b4K", "-w1M", target],
        ["iospeed", "-t0.05", "-b4K", "-r1M", "-s", "-a2", target],
        ["iospeed", "-t0.05", "-b64K", "-x1M", "-c", grown],
        ["iospeed", "-t0.05", "-b64K", "-p1M", "-c", grown],
        ["fragdisk", "-n1", "-m1", "-c1", "-Fm64K", "-FM64K", "-f99", "-k1", str(work / "aged")],
        ["examples", str(work / "examples.dat"), "2000"],
        ["asynccopy", "-z8M", str(work)],
    ]
    found = [(" ".join(argv), lambda argv=argv: cli.main(argv)) for argv in commands]
    found += [(demo.name, lambda demo=demo: run_demo(demo)) for demo in sorted(DEMOS.glob("0[1-7]_*.py"))]
    return found


def run_demo(path: Path) -> int:
    runpy.run_path(str(path), run_name="__main__")
    return 0


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    failed = []
    previous = tempfile.tempdir
    with tempfile.TemporaryDirectory(prefix="traffic_") as work, lines_run() as ran:
        tempfile.tempdir = work
        try:
            for name, run in runs(Path(work)):
                output = io.StringIO()
                with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
                    try:
                        status = run()
                    except Exception:
                        traceback.print_exc()
                        status = 1
                print(f"{'ok  ' if status == 0 else 'FAIL'} {name}")
                if status != 0:
                    failed.append(name)
                    print(output.getvalue())
        finally:
            tempfile.tempdir = previous
    print_map(ran, "none of the runs")
    if failed:
        print(f"{len(failed)} run(s) failed: {', '.join(failed)}")
    return int(bool(failed))


if __name__ == "__main__":
    sys.exit(main())
