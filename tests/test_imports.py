"""The library, the benchmark, `tools/` and the tests import the standard
library only, with `pytest` for the tests: CI installs nothing else, and
the benchmark runs on interpreters that have nothing else.  Each module is
parsed, not imported, so an import inside a function counts too."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src/arraycodes", "tools", "perfbench", "tests")
MODULES = sorted(path for d in DIRS for path in (ROOT / d).rglob("*.py"))


def imported_names(path):
    """(line, top-level name) of each absolute import in the module."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module.partition(".")[0]


def test_every_directory_has_modules_to_scan():
    for d in DIRS:
        assert any(path.is_relative_to(ROOT / d) for path in MODULES), d


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_imports_only_the_standard_library(path):
    """Allowed: the standard library, `arraycodes`, `pytest`, and the
    modules beside this one (`conftest`, the benchmark's own modules)."""
    allowed = {*sys.stdlib_module_names, "arraycodes", "pytest",
               *(sibling.stem for sibling in path.parent.glob("*.py"))}
    foreign = [(line, name) for line, name in imported_names(path) if name not in allowed]
    assert not foreign, f"{path.relative_to(ROOT)} imports {foreign}"
