"""Count the code lines of each module of ``src/sktsim`` and their total.

A code line is a line that holds at least one token of code.  Blank lines,
comments and docstrings (the leading string of a module, class or
function) do not count; every line that a multi-line expression or string
literal spans does.  Only the standard library is used.

    python tests/code_lines.py [package-dir]

The package directory defaults to ``src/sktsim`` beside this file's
``tests`` directory.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Code lines of the Python source file ``path``."""
    with path.open("rb") as source:
        tokens = list(tokenize.tokenize(source.readline))
    lines = set()
    for token in tokens:
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(path.read_bytes())))


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "sktsim"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.stem:<12} {count:5d}")
    print(f"{'total':<12} {total:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
