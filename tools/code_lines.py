"""Code lines per module: the lines that are neither blank, comment nor
docstring.

From the repository root:

    python tools/code_lines.py src/orbandit
    python tools/code_lines.py src/orbandit/policy.py tools

Each argument is a Python file or a directory, whose ``*.py`` files are
counted, not those of its subdirectories. A line counts when some token
other than a comment or an indentation or line break covers it, so a
comment after code and every line of a multi-line string that is not a
docstring count; a docstring is the string that opens a module, class or
function body (``ast.get_docstring``'s rule). The script prints one line
per file and the total, and writes no file.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that are neither blank, comment
    nor docstring."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", type=Path, help="Python files or directories")
    args = parser.parse_args(argv)
    files = [file for path in args.paths
             for file in (sorted(path.glob("*.py")) if path.is_dir() else [path])]
    total = 0
    for file in files:
        count = code_lines(file.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {file}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
