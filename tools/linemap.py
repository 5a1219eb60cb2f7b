"""Print the lines of src/seqbench that the test suite never runs.

    python tools/linemap.py [pytest arguments]

The suite runs in this process (by default ``-q -m "not mounts" tests``)
under a ``sys.settrace`` hook that records every line run in a frame of a
src/seqbench module.  Every thread started while it runs has the hook
before its first line: ``threading``'s through ``threading.settrace``, and
bare ``_thread`` threads (``engine.run_slots`` starts its slots with
``_thread.start_new_thread``) through a wrapper around that function.  A
line counts when it belongs to a function (lambdas and comprehensions
included), as the function's code objects report it through ``co_lines``;
module and class bodies run at import and are left out.  The map then lists each module's
unreached lines as ranges, and the total.  Tests that fail under the
tracer are listed too, after the map: a test that only fails when traced
still ran its lines, so it is named rather than hidden.  The exit status
is pytest's when that is not 0, and otherwise 1 when a line is unreached,
so the map's 0 can be checked by exit status alone.

Only the standard library is used.  A traced run takes about twice as
long as the plain suite, so this is a tool, not a test.
"""
from __future__ import annotations

import _thread
import inspect
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "seqbench"
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", "-m", "not mounts", str(ROOT / "tests")]


def function_lines(path: Path) -> set[int]:
    """The lines of ``path`` that some function's code can run."""
    lines: set[int] = set()
    pending = [compile(path.read_text(), str(path), "exec")]
    while pending:
        code = pending.pop()
        pending.extend(const for const in code.co_consts if inspect.iscode(const))
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function, not a module or class body
            lines.update(line for _, _, line in code.co_lines() if line is not None)
    return lines


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]], list[str]]:
    """Run pytest with ``args`` under the hook: (exit status, lines run per file, failed tests)."""
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}
    failed: list[str] = []

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    class Failures:
        @staticmethod
        def pytest_runtest_logreport(report):
            if report.failed:
                failed.append(f"{report.nodeid} ({report.when})")

    start_new_thread = _thread.start_new_thread

    def traced_start(function, *rest):
        def run(*args, **kwargs):
            sys.settrace(tracer)
            return function(*args, **kwargs)

        return start_new_thread(run, *rest)

    threading.settrace(tracer)
    sys.settrace(tracer)
    _thread.start_new_thread = traced_start
    try:
        status = pytest.main(args, plugins=[Failures()])
    finally:
        _thread.start_new_thread = start_new_thread
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran, failed


def ranges(lines) -> str:
    """``[1, 2, 3, 7]`` as ``1-3, 7``."""
    spans: list[list[int]] = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    status, ran, failed = traced_run(argv or DEFAULT_ARGS)
    total = unreached_total = 0
    print("\nlines of src/seqbench functions that no test ran:")
    for path in sorted(PACKAGE.glob("*.py")):
        lines = function_lines(path)
        unreached = lines - ran.get(str(path), set())
        total += len(lines)
        unreached_total += len(unreached)
        if unreached:
            print(f"  {path.name}: {len(unreached)}: {ranges(unreached)}")
    print(f"total: {unreached_total} of {total} lines unreached")
    if failed:
        print(f"{len(failed)} test(s) failed under the tracer:")
        for name in failed:
            print(f"  {name}")
    return status or int(unreached_total > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
