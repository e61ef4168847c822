"""Every name the package or its tests import is used in the file that
imports it."""

import ast
from pathlib import Path

import spechtbranch

PACKAGE_DIR = Path(spechtbranch.__file__).parent
TESTS_DIR = Path(__file__).parent


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a re-export counts as a use
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


def test_scanner_flags_an_unused_import():
    source = "from fractions import Fraction\nimport numpy as np\nnp.zeros(1)\n"
    assert _unused_imports(source) == ["line 1: Fraction"]
    assert _unused_imports("from x import y\n__all__ = ['y']\n") == []


def _unused_by_file(directory: Path) -> dict:
    files = sorted(directory.glob("*.py"))
    assert files
    unused = {path.name: _unused_imports(path.read_text()) for path in files}
    return {name: found for name, found in unused.items() if found}


def test_package_has_no_unused_imports():
    assert _unused_by_file(PACKAGE_DIR) == {}


def test_tests_have_no_unused_imports():
    assert _unused_by_file(TESTS_DIR) == {}
