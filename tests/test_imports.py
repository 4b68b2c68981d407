"""Source hygiene: no module of the package imports a name it never uses."""

import ast
import pathlib

import pytest

import qbh

MODULES = sorted(p for p in pathlib.Path(qbh.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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
