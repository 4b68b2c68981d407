"""Source hygiene: no module of the package imports a name it never uses,
and none imports anything outside the standard library."""

import ast
import pathlib
import sys

import pytest

import qbh

SOURCES = sorted(pathlib.Path(qbh.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list:
    """Names bound by an import statement and read nowhere else."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_plain_and_from_imports():
    src = "from __future__ import annotations\nimport os, sys as system\nfrom . import a, b\nb(os)\n"
    assert unused_imports(src) == [(2, "system"), (3, "a")]


def absolute_imports(source: str) -> set:
    """Top-level names of the modules an ``import`` or absolute ``from`` reads."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    assert sorted(absolute_imports(path.read_text()) - sys.stdlib_module_names) == []


def test_stdlib_check_sees_third_party_imports():
    src = ("from __future__ import annotations\nimport numpy.linalg, itertools\n"
           "from hypothesis import given\nfrom . import gf\nfrom .gf import field_make\n"
           "def f():\n    import sympy\n")
    assert absolute_imports(src) - sys.stdlib_module_names == {"numpy", "hypothesis", "sympy"}
