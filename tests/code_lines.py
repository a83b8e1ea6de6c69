"""Print the code lines of each module of a package, and their total.

A code line is non-blank and is neither a comment nor part of a docstring: a
comment line starts with ``#`` after its indent, and a docstring is the
string literal that opens a module, class or function body.  Run from the
repository root::

    python tests/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/abtaut``.  The script only reports; it never
fails on a count.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docstrings
    )


def main(argv: list[str]) -> None:
    package = Path(argv[0] if argv else "src/abtaut")
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total ({package})")


if __name__ == "__main__":
    main(sys.argv[1:])
