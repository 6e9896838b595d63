"""The library imports only the standard library, numpy and itself, and
exports only names that exist.

scipy and other packages may be installed next to it, so a stray import
would pass every other test; this one reads the sources instead.
"""
import ast
import importlib
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "adiabat"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "adiabat"}


def imported_modules(tree):
    """Top-level names of every absolute import in a module's syntax tree,
    at any depth (functions and conditional blocks included)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


SOURCES = sorted(SRC.glob("*.py"))


def test_sources_found():
    assert {"__init__.py", "runner.py", "generators.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_stdlib_numpy_or_package(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = sorted(set(imported_modules(tree)) - ALLOWED)
    assert not foreign, f"{path.name} imports {foreign}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_all_names_resolve(path):
    # a stale entry breaks only ``from adiabat.<module> import *``
    module = importlib.import_module(
        "adiabat" if path.stem == "__init__" else f"adiabat.{path.stem}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{path.name} exports {missing}"


def test_foreign_import_detected():
    tree = ast.parse("import numpy as np\nfrom . import linalg\n"
                     "def f():\n    from scipy.linalg import expm\n")
    assert set(imported_modules(tree)) - ALLOWED == {"scipy"}
