"""The narrative demos still run against the package they document.

Each demo runs in its own interpreter with a temporary working and temp
directory, so a renamed or deleted public name fails here instead of only
breaking a script nobody runs.  Left out, because they do not fit a
quick unprivileged suite: 04 (times several configurations, about 7 s),
06 (needs root and loop devices to build an aged volume) and 07
(regenerates every figure, about 8 s).  Every demo, those three among
them, is also read without running it: each name it imports from
seqbench must exist, and each keyword it passes to one of those names
must be in that callable's signature.  Each ```python block of README.md
is read the same way.
"""
import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import seqbench as sb

DEMOS = Path(__file__).resolve().parent.parent / "demos"
README = DEMOS.parent / "README.md"
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


def _sources() -> list:
    """(source, name) of every demo and of every ```python block of README.md."""
    sources = [pytest.param(path.read_text(), str(path), id=path.name) for path in sorted(DEMOS.glob("*.py"))]
    readme = README.read_text()
    for match in re.finditer(r"^```python\n(.*?)^```", readme, re.M | re.S):
        name = f"README.md:{readme.count(chr(10), 0, match.start()) + 1}"
        sources.append(pytest.param(match.group(1), name, id=name))
    return sources


@pytest.mark.parametrize("source, name", _sources())
def test_demo_imports_and_keywords_exist(source, name):
    tree = ast.parse(source, name)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.partition(".")[0] == "seqbench":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module} has no {alias.name}"
                imported[alias.asname or alias.name] = getattr(module, alias.name)
    assert imported, f"{name} imports nothing from seqbench"
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in imported:
            params = inspect.signature(imported[node.func.id]).parameters
            for keyword in node.keywords:
                assert keyword.arg is None or keyword.arg in params, (
                    f"line {node.lineno}: {node.func.id} takes no keyword {keyword.arg!r}")
