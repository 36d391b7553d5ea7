"""The package runs on the standard library alone, and its checks also
run under python -O.

Every absolute import in src/braidcensus must name a standard-library
module that every platform has, and pyproject.toml must declare no
runtime dependency, so a re-added third-party or POSIX-only import fails
here even where no test reaches it.
No assert statement may remain in src/braidcensus: -O strips them, and
an internal check must raise InternalError instead.
Every public name has a recorded reason to be public (public_names.py),
and no top-level public function or class of src/braidcensus serves the
tests alone: test helpers live under tests/.
"""

import ast
import pathlib
import sys

import pytest

import braidcensus
from public_names import PUBLIC_NAMES, REASONS

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "braidcensus"
PYPROJECT = ROOT / "pyproject.toml"
# read, never changed: code the package serves besides its own modules
CALLERS = [*sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]
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


def test_every_public_name_has_a_recorded_reason():
    public = set(braidcensus.__all__)
    assert sorted(public - set(PUBLIC_NAMES)) == [], "public without a reason"
    assert sorted(set(PUBLIC_NAMES) - public) == [], "reason for a name not public"
    assert {reason for reason, _ in PUBLIC_NAMES.values()} <= set(REASONS)


def _names_read(nodes) -> set[str]:
    """Every name the nodes read: bare names, attributes, and names
    imported from a module."""
    found = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                found.update(alias.name for alias in node.names)
    return found


def test_no_public_definition_serves_only_the_tests():
    # a use in the defining module counts, the definition itself does not
    bodies = {path: ast.parse(path.read_text(), filename=str(path)).body
              for path in [*sorted(PACKAGE.glob("*.py")), *CALLERS]}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        elsewhere = set().union(*(_names_read(body) for other, body in bodies.items()
                                  if other != path))
        for node in bodies[path]:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or node.name in PUBLIC_NAMES):
                continue
            here = _names_read(other for other in bodies[path] if other is not node)
            if node.name not in elsewhere | here:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []
