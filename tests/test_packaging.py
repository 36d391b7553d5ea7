"""The package runs on the standard library alone, and its checks also
run under python -O.

Every absolute import in src/braidcensus must name a standard-library
module that every platform has, and pyproject.toml must declare no
runtime dependency, so a re-added third-party or POSIX-only import fails
here even where no test reaches it.
No assert statement may remain in src/braidcensus: -O strips them, and
an internal check must raise InternalError instead.
"""

import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "braidcensus"
PYPROJECT = ROOT / "pyproject.toml"
# standard-library modules that exist on POSIX systems only
POSIX_ONLY = {"fcntl", "termios", "pwd", "grp", "resource", "posix"}


def _absolute_imports(path: pathlib.Path):
    """(line, top-level module) of every absolute import in one file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 1
    foreign = [
        f"{path.name}:{line} imports {module}"
        for path in sources
        for line, module in _absolute_imports(path)
        if module not in sys.stdlib_module_names or module in POSIX_ONLY
    ]
    assert foreign == []


def test_package_has_no_assert_statement():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project.get("dependencies", []) == []
