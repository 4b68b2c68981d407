"""List the lines of ``src/qbh`` that the Tier-1 suite never runs.

    python tests/linereport.py [PYTEST ARGS ...]

Run from the repository root.  The script runs the Tier-1 suite in this
process through ``pytest.main`` (any arguments are passed on), with a
line tracer installed by ``sys.settrace`` and ``threading.settrace``.
A module's executable lines are the line numbers of its code objects
(``co_lines``), nested ones included.  A line marked
``# pragma: no cover`` is skipped, and so are the lines indented below
it, the block it opens.  The report follows the suite's own output: a
``--- lines never run`` header, one ``path:line: source`` entry per
line, and the count.  Tests that run qbh in a subprocess are not
traced, so a line only they reach is listed too.  The tracer slows the
suite about fourfold.  The exit status is pytest's.

Stdlib only, apart from pytest, which runs the suite.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PRAGMA = "# pragma: no cover"


def executable_lines(path: Path) -> set:
    """Line numbers of every code object compiled from ``path``."""
    out, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        out.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return out


def excluded_lines(source: list) -> set:
    """Lines marked with the pragma, with the lines indented below each."""
    out = set()
    for i, text in enumerate(source):
        if PRAGMA not in text:
            continue
        indent = len(text) - len(text.lstrip())
        out.add(i + 1)
        for j in range(i + 1, len(source)):
            below = source[j]
            if below.strip() and len(below) - len(below.lstrip()) <= indent:
                break
            out.add(j + 1)
    return out


def tracer_for(files: dict):
    """A global trace function recording the lines run in ``files``
    ({real path: set of line numbers}); frames elsewhere are not traced."""
    local_of, by_name = {}, {}

    def make_local(hit):
        def local(frame, event, arg):
            hit.add(frame.f_lineno)
            return local
        return local

    for path, hit in files.items():
        local_of[path] = make_local(hit)

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        local = by_name.get(name, False)
        if local is False:
            local = by_name[name] = local_of.get(os.path.realpath(name))
        if local is not None:
            local(frame, event, arg)
        return local

    return trace


def main(argv: list) -> int:
    sys.path.insert(0, str(SRC))
    paths = sorted((SRC / "qbh").glob("*.py"))
    files = {os.path.realpath(p): set() for p in paths}
    import pytest  # before tracing starts, so that no qbh module is imported untraced

    trace = tracer_for(files)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = []
    for path in paths:
        source = path.read_text().splitlines()
        never = executable_lines(path) - files[os.path.realpath(path)] - excluded_lines(source)
        rel = path.relative_to(ROOT)
        missed += [f"{rel}:{n}: {source[n - 1].strip()}" for n in sorted(never)]
    print("--- lines never run")
    print("\n".join(missed))
    print(f"{len(missed)} lines of src/qbh never run by the suite "
          "(tests that run qbh in a subprocess are not traced)")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
