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


# The state-vector oracle must not lean on the symplectic one.
SYMPLECTIC = {"symp_ip", "symp_ip_int", "mul", "centralizer_basis", "sympl_matrix"}


def referenced_names(source: str, root: str) -> set:
    """Names read by the module-level function ``root`` and by every
    function or class of the module that it reaches, with imported names
    under the name they have where they are defined, and attributes of
    imported names by their own name."""
    tree = ast.parse(source)
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    origin = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            origin.update((alias.asname or alias.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            origin.update((alias.asname or alias.name.split(".")[0],) * 2 for alias in node.names)
    names, seen, todo = set(), set(), [root]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name):
                names.add(origin.get(node.id, node.id))
                if node.id in defs:
                    todo.append(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in origin):
                names.add(node.attr)
    return names


# Every function of the state-vector certification path.  stab_of_span is
# left out: its group self-check multiplies Paulis on purpose.
STATEVEC_PATH = ["fix_dim", "apply", "is_fixed", "phi", "big_phi", "big_phi_from_matrix",
                 "tensor", "inner", "state_make"]


@pytest.mark.parametrize("root", STATEVEC_PATH)
def test_statevec_path_reads_no_symplectic_algebra(root):
    source = (pathlib.Path(qbh.__file__).parent / "statevec.py").read_text()
    assert referenced_names(source, root) & SYMPLECTIC == set()


def test_symplectic_check_follows_helpers_aliases_and_modules():
    src = ("from .pauli import mul as pauli_mul\nfrom . import construct\n"
           "def helper(x):\n    return pauli_mul(x, x)\n"
           "def other(x):\n    return construct.centralizer_basis(x)\n"
           "def fix_dim(s):\n    return helper(s) + s.field.mul(1, 1)\n")
    assert referenced_names(src, "fix_dim") & SYMPLECTIC == {"mul"}
    assert referenced_names(src, "other") & SYMPLECTIC == {"centralizer_basis"}
