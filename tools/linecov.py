"""List the library statements that a pytest run never executes.

    python tools/linecov.py                          # src/glra under the default suite
    python tools/linecov.py src/glra -- -q tests     # pytest arguments after --

Runs pytest in this process under a ``sys.settrace`` line tracer limited
to the files below the given package directory, then prints each
statement of those files that never ran as ``path:line: source``.  A
statement is an ``ast`` statement other than a def, a class, an import,
a docstring, ``try``, ``global`` and ``nonlocal``, which execute nothing
of their own; it counts as run when a line of its own (for a compound
statement, its header) was traced.  The package's parent directory goes
first on ``sys.path``, so the traced files are the ones imported.

Only code run in this process is seen: the statements that tests reach
through a subprocess (``python -m glra.cli``, say) are listed as never run.
Standard library only, as ``coverage`` is not installed; the exit status
is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
from collections import defaultdict
from typing import Callable

import pytest

_NO_CODE = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.Import,
    ast.ImportFrom,
    ast.Try,
    ast.Global,
    ast.Nonlocal,
)


def _docstrings(tree: ast.AST) -> set[ast.stmt]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    found.add(first)
    return found


def statements(source: str) -> dict[int, range]:
    """The statements of a module: first line -> the lines of its own code.

    A compound statement owns its header, the lines before its body; any
    other statement owns all of its lines.
    """
    tree = ast.parse(source)
    skipped = _docstrings(tree)
    owned = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _NO_CODE) or node in skipped:
            continue
        body = getattr(node, "body", None)
        end = max(body[0].lineno, node.lineno + 1) if body else node.end_lineno + 1
        owned[node.lineno] = range(node.lineno, end)
    return owned


def never_ran(source: str, hits: set[int]) -> list[int]:
    """First lines of the statements none of whose own lines is in hits."""
    return sorted(
        line for line, own in statements(source).items() if not any(n in hits for n in own)
    )


def run_traced(root: str, fn: Callable[[], object]) -> tuple[object, dict[str, set[int]]]:
    """fn() under a line tracer: its result and the lines run per file below root."""
    root = os.path.abspath(root) + os.sep
    hits: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def scope(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(root) else None

    previous = sys.gettrace()
    sys.settrace(scope)
    try:
        result = fn()
    finally:
        sys.settrace(previous)
    return result, hits


def main(argv: list[str]) -> int:
    if "--" in argv:
        split = argv.index("--")
        argv, pytest_args = argv[:split], argv[split + 1 :]
    else:
        pytest_args = ["-q"]
    package = os.path.abspath(argv[0] if argv else os.path.join("src", "glra"))
    sys.path.insert(0, os.path.dirname(package))
    status, hits = run_traced(package, lambda: pytest.main(pytest_args))
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames.sort()
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            for line in never_ran("\n".join(lines), hits.get(path, set())):
                print(f"{os.path.relpath(path)}:{line}: {lines[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
