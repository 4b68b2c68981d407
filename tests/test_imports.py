"""Source hygiene: no module of the package or of the tests imports a
name it never uses, no package module imports anything outside the
standard library, every public name is read by the package or the
benchmark or kept for a listed reason, the package has one work budget
and every refusal passes its counts as values, and the CLI loads the
state and matrix modules only for the commands that run them."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import qbh

SOURCES = sorted(pathlib.Path(qbh.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
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


# The state-vector oracle must not lean on the symplectic one: neither on
# its products and pairings nor on the pairing rows and checks of
# ``construct``.  Both may share the F_p primitives of ``linalg``.
SYMPLECTIC = {"symp_ip", "symp_ip_int", "mul", "centralizer_basis", "sympl_matrix",
              "_pairings", "_pairing_lanes", "_pairing_row", "_dot_trace", "verify_generators"}


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


# Every function of the state-vector certification path and every state
# constructor, with the slot-array helpers they reach.  stab_of_span is
# on it too: its trials and generators stay lane-packed and act through
# ``_act``, and its self-check pairs the generators, and its walk
# multiplies them, on their own (a | b) rows, not through the products
# of ``pauli``.
STATEVEC_PATH = ["fix_dim", "apply", "is_fixed", "phi", "big_phi", "big_phi_from_matrix",
                 "tensor", "equal_sum_states", "inner", "state_make", "stab_of_span"]


@pytest.mark.parametrize("root", STATEVEC_PATH)
def test_statevec_path_reads_no_symplectic_algebra(root):
    source = (pathlib.Path(qbh.__file__).parent / "statevec.py").read_text()
    assert referenced_names(source, root) & SYMPLECTIC == set()


# One code-state path: phi, big_phi and big_phi_from_matrix build their
# states by one fold on a shared product basis, never as a chain of
# tensor products.
FOLD_CHAIN = {"tensor", "reduce"}


@pytest.mark.parametrize("root", ["phi", "big_phi", "big_phi_from_matrix"])
def test_code_states_are_built_by_one_fold(root):
    source = (pathlib.Path(qbh.__file__).parent / "statevec.py").read_text()
    assert referenced_names(source, root) & FOLD_CHAIN == set()


def test_fold_check_sees_a_tensor_chain_behind_helpers():
    src = ("import functools\nfrom functools import reduce as fold\n"
           "def tensor(v, w):\n    return v\n"
           "def _chain(blocks):\n    return functools.reduce(tensor, blocks)\n"
           "def big_phi(w):\n    return _chain(w)\n"
           "def phi(w):\n    return fold(max, w)\n")
    assert referenced_names(src, "big_phi") & FOLD_CHAIN == {"tensor", "reduce"}
    assert referenced_names(src, "phi") & FOLD_CHAIN == {"reduce"}


def all_names(tree) -> set:
    """Every name, attribute and imported name anywhere under ``tree``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    return names


def test_slot_arrays_read_no_symplectic_algebra():
    # the slot arrays and bases that every state and fix_dim run on
    tree = ast.parse((pathlib.Path(qbh.__file__).parent / "slots.py").read_text())
    assert all_names(tree) & SYMPLECTIC == set()


# The state oracle's packed forms: the trace form of a Z part, the
# packed form ``statevec.apply`` keeps on each Pauli element, and the
# action core that reads it.
PACKED = {"_trace_form", "_trace_rep", "_trace_pattern", "_packed", "_act"}


def test_symplectic_oracle_reads_no_packed_form():
    package = pathlib.Path(qbh.__file__).parent
    assert all_names(ast.parse((package / "construct.py").read_text())) & PACKED == set()
    defs = {node.name: node for node in ast.parse((package / "pauli.py").read_text()).body
            if isinstance(node, ast.FunctionDef)}
    for name in ("symp_ip", "symp_ip_int", "_dot_trace"):
        assert all_names(defs[name]) & PACKED == set()
    # the check sees a slot read through any object
    assert all_names(ast.parse("def f(e):\n    return e._packed\n")) & PACKED == {"_packed"}


def test_symplectic_check_follows_helpers_aliases_and_modules():
    src = ("from .pauli import mul as pauli_mul\nfrom . import construct\n"
           "def helper(x):\n    return pauli_mul(x, x)\n"
           "def other(x):\n    return construct.centralizer_basis(x)\n"
           "def fix_dim(s):\n    return helper(s) + s.field.mul(1, 1)\n")
    assert referenced_names(src, "fix_dim") & SYMPLECTIC == {"mul"}
    assert referenced_names(src, "other") & SYMPLECTIC == {"centralizer_basis"}


# The module-level caches of the state modules, each keyed by ints.  Work
# on a code, table or state lives on that object (``LinearCode._products``,
# ``FunctionalTable._state_parts``, ``PauliElement._packed``); a cache that
# kept such objects by value would let one benchmark job reuse the work of
# another, and would keep them alive after their job.
STATE_CACHES = {"_ring": ("int",), "_trace_rep": ("int", "int"),
                "_trace_pattern": ("int", "int", "int"), "_slots": ("int", "int", "int")}


def module_caches(source: str) -> tuple:
    """(cached, stores) for one module: each function anywhere under a
    decorator that names a cache, with the annotation of each argument;
    and the line of each binding that outlives a call, an assignment at
    module or class level of anything but a constant or a tuple of
    constants, or a ``global`` statement."""
    tree = ast.parse(source)
    cached = {node.name: tuple(a.annotation and ast.unparse(a.annotation) for a in node.args.args)
              for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
              and any("cache" in ast.unparse(d) for d in node.decorator_list)}
    bodies = [tree.body] + [node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]

    def constant(value):
        items = value.elts if isinstance(value, ast.Tuple) else [value]
        return all(isinstance(x, ast.Constant) for x in items)

    stores = [node.lineno for body in bodies for node in body
              if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
              and not (node.value and constant(node.value))]
    stores += [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)]
    return cached, sorted(stores)


def test_state_modules_cache_only_by_ints():
    package = pathlib.Path(qbh.__file__).parent
    found = [module_caches((package / name).read_text()) for name in ("statevec.py", "slots.py")]
    assert {name: args for cached, _ in found for name, args in cached.items()} == STATE_CACHES
    assert [stores for _, stores in found] == [[], []]


def test_cache_check_sees_decorators_containers_and_globals():
    src = ("import functools\nfrom functools import lru_cache\nLIMIT = 4\n_STATES = {}\n"
           "@functools.cache\ndef _ring(p: int):\n    return p\n"
           "@lru_cache(maxsize=None)\ndef _product(code, m: int):\n    return code\n"
           "class Basis:\n    __slots__ = ('rows',)\n    seen = []\n"
           "    @functools.cache\n    def labels(self):\n        return []\n"
           "def keep(code):\n    global LAST\n    LAST = code\n"
           "_fold = functools.cache(keep)\n")
    assert module_caches(src) == (
        {"_ring": ("int",), "_product": (None, "int"), "labels": (None,)}, [4, 13, 18, 20])


# Every public top-level name of the package is read by the package itself
# or by the benchmark, or it is listed here with why it stays.
UNREAD_BY_DESIGN = {
    "bh.normalize": "paper object: the normalized BH matrix the converse scrambles (acceptance 08)",
    "functional.f_eval": "paper object: the functional f_lam on a codeword (test_functional)",
    "functional.project_zero_coordinates":
        "paper object: D projected off its zero coordinates, as validate_d asks",
    "functional.table_matrix": "paper object: the BH matrix [f_lam(c)] (acceptance 02)",
    "lincode.code_to_text": "writer of the code format that qbh construct reads",
    "lincode.weight": "paper object: the Hamming weight wt (test_lincode)",
    "pauli.commutes": "paper object: commutation of two Pauli elements (test_pauli)",
    "pauli.detectable": "paper object: error detectability (acceptance 10)",
    "pauli.identity": "paper object: the identity of the Pauli group (test_pauli)",
    "pauli.mul": "paper object: the Pauli group product (test_pauli, oracles.group_closure)",
    "pauli.psi": "paper object: the symplectic image psi (test_pauli)",
    "pauli.swt": "paper object: the symplectic weight swt (acceptance 10)",
    "pauli.symp_ip": "paper object: the trace symplectic inner product (test_pauli)",
    "pauli.x_op": "paper object: the X(a) operator (test_pauli)",
    "pauli.z_op": "paper object: the Z(b) operator (test_pauli, test_lemmas)",
    "statevec.equal_sum_states": "state-vector oracle: the equal-sum states (acceptance 06)",
    "statevec.span_equal": "state-vector oracle: span equality (acceptance 06 and 07)",
    "statevec.state_make": "state-vector oracle: the readable state constructor (test_lemmas)",
    "statevec.tensor": "the general product of two states, read by the lemma tests and by"
                       " the oracle of the code-state fold (test_statevec)",
}
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def package_reads(source: str, package: str = "qbh") -> set:
    """(module, name) for each name of a package module that ``source``
    imports from it or reads as an attribute of an imported module."""
    tree = ast.parse(source)
    modules, out = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif node.module == package or (node.module or "").startswith(package + "."):
                module = node.module[len(package) + 1:] or None
            else:
                continue
            for alias in node.names:
                if module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    out.add((module, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.startswith(package + "."):
                    modules[alias.asname] = alias.name[len(package) + 1:]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            out.add((modules[node.value.id], node.attr))
    return out


def unread_definitions(modules: dict, others) -> set:
    """'module.name' for each public top-level function or class of
    ``modules`` (module name -> source, ``__init__`` left out) that no
    other module, no other top-level statement of its own module and no
    source in ``others`` reads."""
    read = set().union(*map(package_reads, [*modules.values(), *others]))
    out = set()
    for module, source in modules.items():
        body = ast.parse(source).body
        for node in body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or (module, node.name) in read):
                continue
            if not any(isinstance(n, ast.Name) and n.id == node.name
                       for other in body if other is not node for n in ast.walk(other)):
                out.add(f"{module}.{node.name}")
    return out


def test_every_public_name_is_read_or_kept_for_a_reason():
    modules = {path.stem: path.read_text() for path in MODULES}
    others = [path.read_text() for path in sorted(PERFBENCH.rglob("*.py"))]
    assert unread_definitions(modules, others) == set(UNREAD_BY_DESIGN)


def test_unread_check_sees_modules_aliases_and_outside_readers():
    modules = {
        "a": ("def used():\n    pass\ndef lonely():\n    pass\ndef rec():\n    return rec()\n"
              "def _private():\n    pass\nclass Kept:\n    pass\nDEFAULT = Kept\n"
              "def by_alias():\n    pass\ndef outside():\n    pass\n"),
        "b": "from .a import used\nfrom . import a as aa\ndef f():\n    return used(), aa.by_alias\n",
    }
    others = ["import qbh.b as bb\nfrom qbh.a import outside\nbb.f()\n",
              "from other.a import lonely\nimport other.a as a\na.rec()\n"]
    assert unread_definitions(modules, others) == {"a.lonely", "a.rec"}


def limits(source: str) -> tuple:
    """(assigned, budgets, unstructured) for one module: the *_BUDGET and
    *_LIMIT names it assigns, the *_BUDGET names it assigns or imports
    (under any alias), and the line of each ``BudgetExceeded`` call that does not
    pass what, requested and limit as separate values: a call with fewer
    than three positional arguments, an f-string among them, or a string
    for the count or the limit."""
    assigned, budgets, unstructured = set(), set(), []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            assigned |= {n for n in names if n.endswith(("_BUDGET", "_LIMIT"))}
            budgets |= {n for n in names if n.endswith("_BUDGET")}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            budgets |= {a.name for a in node.names if a.name.endswith("_BUDGET")}
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", getattr(node.func, "attr", None)) == "BudgetExceeded"):
            args = node.args[:3]
            if (len(args) < 3 or any(isinstance(a, ast.JoinedStr) for a in args)
                    or any(isinstance(a, ast.Constant) and isinstance(a.value, str)
                           for a in args[1:])):
                unstructured.append(node.lineno)
    return assigned, budgets, unstructured


def test_one_budget_and_structured_refusals():
    found = {path.stem: limits(path.read_text()) for path in SOURCES}
    assert {(m, n) for m, (assigned, _, _) in found.items() for n in assigned} == {
        ("errors", "DEFAULT_BUDGET"), ("gf", "FIELD_SIZE_LIMIT"), ("bh", "KRON_ORDER_LIMIT")}
    assert set().union(*(budgets for _, budgets, _ in found.values())) == {"DEFAULT_BUDGET"}
    assert {m: lines for m, (_, _, lines) in found.items() if lines} == {}


def test_limit_check_sees_new_budgets_and_preformatted_messages():
    src = ("from .errors import DEFAULT_BUDGET, WALK_BUDGET as W\n"
           "ROW_BUDGET = 1 << 16\nSIZE_LIMIT: int = 4\n"
           "def f(n):\n"
           "    raise BudgetExceeded(f'{n} labels exceed budget {ROW_BUDGET}')\n"
           "    raise errors.BudgetExceeded('walk', '16 words', 8)\n"
           "    raise BudgetExceeded(f'walk of {n}', n, W)\n"
           "    raise BudgetExceeded('walk words', n, W, flag=None)\n")
    assert limits(src) == ({"ROW_BUDGET", "SIZE_LIMIT"},
                           {"DEFAULT_BUDGET", "WALK_BUDGET", "ROW_BUDGET"}, [5, 6, 7])


LAZY_CHECK = """
import sys
from qbh.cli import main
c, d, out = sys.argv[1:]
loaded = lambda: [m for m in ("qbh.statevec", "qbh.slots", "qbh.bh") if m in sys.modules]
assert main(["construct", "-c", c, "-d", d, "-o", out]) == 0
assert main(["distance", out, "--brute"]) == 0
print(loaded(), file=sys.stderr)
assert main(["verify", out, "--statevec"]) == 0
print(loaded(), file=sys.stderr)
"""


def test_construct_and_distance_load_no_state_or_matrix_module(tmp_path):
    # A fresh interpreter, so that the suite's own imports cannot hide one.
    for name in ("c.txt", "d.txt"):
        (tmp_path / name).write_text("2 1 3 1\n1 1 1\n")
    src = str(pathlib.Path(qbh.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", LAZY_CHECK, *(str(tmp_path / n) for n in ("c.txt", "d.txt", "out.stab"))],
        env=env, capture_output=True, text=True, check=True,
    )
    lines = run.stderr.splitlines()
    assert lines[0] == "[]"
    # verify --statevec does load them, so the check can see a loaded module
    assert lines[-1] == "['qbh.statevec', 'qbh.slots']"
