"""Every name a library module imports is used in that module, every name
a module exports exists, and the package exports exactly the modules' names.

pyflakes is not a dependency, so this walks the syntax tree with the
standard library's ``ast``.  ``__init__.py`` is skipped by the unused-import
scan: its imports are the package's re-exports.
"""

import ast
import importlib
import pathlib

import pytest

import stablekern
from stablekern import errors, estimator, grid, kernels, maxent, process, structure

MODULES = sorted(p for p in pathlib.Path(stablekern.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # Names listed in __all__ are exported, which is a use.
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom typing import List, Optional\nx: List[int] = []\n") == [
        (1, "os"), (2, "Optional")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_export_resolves():
    # A public name removed from a module but left in __all__ fails here,
    # not at a caller's `from stablekern import *`.
    assert [name for name in stablekern.__all__ if not hasattr(stablekern, name)] == []
    assert len(set(stablekern.__all__)) == len(stablekern.__all__)


def test_package_exports_are_the_module_exports():
    # Each module's __all__ is the one declaration of its public names.
    assert stablekern.__all__ == ["__version__", *errors.__all__, *grid.__all__, *kernels.__all__,
                                  *structure.__all__, *maxent.__all__, *process.__all__, *estimator.__all__]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_exports_exist(path):
    module = importlib.import_module(f"stablekern.{path.stem}")
    assert [name for name in getattr(module, "__all__", []) if not hasattr(module, name)] == []
