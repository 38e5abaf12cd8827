"""Count source lines: lines that are not blank, comments or docstrings.

    python tools/sloc.py src/glra          # per-file counts and the total
    python tools/sloc.py src/glra/cli.py   # one file

A line counts when a token other than a comment, a newline or an
indentation change touches it; a string that spans several lines counts
every line it covers.  Docstrings of modules, classes and functions, as
``ast`` finds them, do not count.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_source(text: str) -> int:
    """The number of lines of ``text`` that are not blank, comments or docstrings."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(text)))


def _python_files(path: str) -> list[str]:
    if os.path.isfile(path):
        return [path]
    return sorted(
        os.path.join(root, name)
        for root, _, names in os.walk(path)
        for name in names
        if name.endswith(".py")
    )


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/sloc.py FILE_OR_DIRECTORY", file=sys.stderr)
        return 2
    total = 0
    for path in _python_files(argv[0]):
        with open(path, encoding="utf-8") as fh:
            n = count_source(fh.read())
        print(f"{n:6d}  {path}")
        total += n
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
