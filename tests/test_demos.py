"""The narrative demos still run against the package they document.

Each demo runs in its own interpreter with a temporary working and temp
directory, so a renamed or deleted public name fails here instead of only
breaking a script nobody runs.  Left out, because they do not fit a
quick unprivileged suite: 04 (times several configurations, about 7 s),
06 (needs root and loop devices to build an aged volume) and 07
(regenerates every figure, minutes of measurement).
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqbench as sb

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SOURCE = Path(sb.__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "name",
    [
        "01_open_write_read.py",
        "02_cache_bypass.py",
        "03_overlapped_copy.py",
        "05_byte_line_block_records.py",
    ],
)
def test_demo_runs(tmp_path, name):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
