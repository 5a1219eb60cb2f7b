"""Every module-level import in the package is used, every export list
names what its module binds, and no module reaches into another object's
private attributes (a stand-in for a linter)."""
import ast
import importlib
import sys
from pathlib import Path

import pytest

import seqbench

#: The package's ``__init__`` imports are its public names, so it is left out.
SOURCES = sorted(
    path for path in Path(seqbench.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's top-level imports, with their line numbers."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_no_unused_module_level_import(source):
    tree = ast.parse(source.read_text(), filename=str(source))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{source.name}: unused imports {unused}"


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_every_exported_name_is_bound(source):
    exported = _exported_names(ast.parse(source.read_text(), filename=str(source)))
    if exported:  # a module without __all__ (such as __main__) is not imported
        module = importlib.import_module(f"seqbench.{source.stem}")
        missing = sorted(name for name in exported if not hasattr(module, name))
        assert not missing, f"{source.name}: __all__ names unbound {missing}"


def test_the_package_imports_only_exported_names():
    package = Path(seqbench.__file__).parent
    stray = []
    for node in ast.parse((package / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = _exported_names(ast.parse((package / f"{node.module}.py").read_text()))
            stray += [f"{node.module}.{alias.name}" for alias in node.names if alias.name not in exported]
    assert not stray, f"seqbench/__init__.py imports names missing from __all__: {stray}"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


@pytest.mark.parametrize(
    "source", sorted(Path(seqbench.__file__).parent.glob("*.py")), ids=lambda path: path.name
)
def test_no_private_attribute_of_another_object_is_read(source):
    """``obj._name`` only on ``self`` or ``cls``: a buffered handle's stream, for
    one, is reached through its public ``stream``, never ``handle._stream``."""
    tree = ast.parse(source.read_text(), filename=str(source))
    reached = [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and _is_private(node.attr)
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]
    assert not reached, f"{source.name} reads private attributes: {reached}"


def test_engine_imports_only_the_standard_library_and_the_package():
    """The OS layer needs no third-party module: its aligned buffers are
    ``bytearray`` memory whose address ctypes reads."""
    source = Path(seqbench.__file__).parent / "engine.py"
    outside = []
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        outside += [name for name in modules if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, f"engine.py imports from outside the standard library: {outside}"
