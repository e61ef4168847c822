"""Every name the package or its tests import is used in the file that
imports it, every name the package exports is bound, every private top-level function or class of the package,
and every private method of its classes, is referenced somewhere in the
package, and no cache of the package is unbounded."""

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


def test_star_import_binds_every_exported_name():
    """from spechtbranch import * binds each name of __all__, and __all__
    names each once, so a deleted function cannot stay exported."""
    names = spechtbranch.__all__
    assert len(set(names)) == len(names)
    namespace = {}
    exec("from spechtbranch import *", namespace)
    assert sorted(set(names) - set(namespace)) == []


def _unused_by_file(directory: Path) -> dict:
    files = sorted(directory.glob("*.py"))
    assert files
    unused = {path.name: _unused_imports(path.read_text()) for path in files}
    return {name: found for name, found in unused.items() if found}


def test_package_has_no_unused_imports():
    assert _unused_by_file(PACKAGE_DIR) == {}


def test_tests_have_no_unused_imports():
    assert _unused_by_file(TESTS_DIR) == {}


def _private(node) -> bool:
    return (isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__"))


def _unused_private_definitions(sources: dict) -> list[str]:
    """Module-level _private functions and classes, and _private methods of
    module-level classes, that no source names.

    sources maps file names to their text; a definition counts as used when
    its name appears in any of them as a name, an attribute or an import.
    """
    defined = []
    used = set()
    for name, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if _private(node):
                defined.append((name, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(name, f"{node.name}.{meth.name}", meth.name)
                            for meth in node.body if _private(meth)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(f"{name}: {definition}" for name, definition, key in defined
                  if key not in used)


def test_scanner_flags_an_unused_private_definition():
    sources = {
        "a.py": "def _dead():\n    pass\n\nclass _Gone:\n    pass\n\n"
                "def _called():\n    pass\n\ndef _imported():\n    pass\n\n"
                "def public():\n    return _called()\n",
        "b.py": "from .a import _imported\n\n"
                "class Basis:\n    def __init__(self):\n        self._grow()\n\n"
                "    def _grow(self):\n        pass\n\n"
                "    def _leftover(self):\n        pass\n",
    }
    assert _unused_private_definitions(sources) == [
        "a.py: _Gone", "a.py: _dead", "b.py: Basis._leftover"]


def test_package_has_no_unused_private_definitions():
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert _unused_private_definitions(sources) == []


def _unbounded_caches(source: str) -> list[str]:
    """Each ``functools.cache`` and each ``lru_cache`` whose maxsize is None."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [node.lineno for alias in node.names if alias.name == "cache"]
        elif (isinstance(node, ast.Attribute) and node.attr == "cache"
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            found.append(node.lineno)
        elif isinstance(node, ast.Call) and getattr(
                node.func, "attr", getattr(node.func, "id", None)) == "lru_cache":
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if any(isinstance(v, ast.Constant) and v.value is None for v in sizes):
                found.append(node.lineno)
    return [f"line {line}" for line in sorted(found)]


def test_scanner_flags_an_unbounded_cache():
    source = ("import functools\nfrom functools import cache, lru_cache\n\n"
              "@lru_cache(maxsize=None)\ndef a(): pass\n\n"
              "@functools.lru_cache(None)\ndef b(): pass\n\n"
              "@functools.cache\ndef c(): pass\n\n"
              "@lru_cache(maxsize=64)\ndef d(): pass\n\n"
              "@lru_cache\ndef e(): pass\n\n"
              "@functools.lru_cache(8)\ndef f(): pass\n")
    assert _unbounded_caches(source) == ["line 2", "line 4", "line 7", "line 10"]


def test_package_has_no_unbounded_cache():
    found = {path.name: _unbounded_caches(path.read_text())
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
