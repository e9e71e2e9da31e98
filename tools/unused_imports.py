"""List module-level imports that a Python file never uses.

From the repository root:

    python tools/unused_imports.py src tests tools

Each argument is a file or a directory searched for ``*.py`` files. An
import is module-level when it sits in the module body, or in a ``try``
or ``if`` block there. A name it binds counts as used when the module
reads it anywhere, in code or in a string annotation, or lists it in a
literal ``__all__``. Star imports and ``from __future__`` imports are not
checked. Prints one ``path:line: name`` line per unused import and exits 1
if there is any, else 0.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _module_imports(body: list) -> list:
    """The import statements of a module body, through ``try`` and ``if``."""
    found = []
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody, *(h.body for h in node.handlers)):
                found += _module_imports(block)
        elif isinstance(node, ast.If):
            found += _module_imports(node.body) + _module_imports(node.orelse)
    return found


def _bound(node) -> list[str]:
    """The names an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0]
            for alias in node.names if alias.name != "*"]


def _annotations(tree: ast.Module):
    """The annotations of the module, functions' arguments and returns too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            yield node.annotation
        elif isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns


def _names(tree: ast.AST) -> set[str]:
    """Names the tree reads, in code or in string annotations."""
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    used |= _names(ast.parse(node.value, mode="eval"))
                except SyntaxError:
                    pass
    return used


def _exported(tree: ast.Module) -> set[str]:
    """The strings of a literal ``__all__`` list or tuple."""
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            exported |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return exported


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each module-level import of ``path`` it never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _names(tree) | _exported(tree)
    return [(node.lineno, name) for node in _module_imports(tree.body)
            for name in _bound(node) if name not in used]


def main(argv: list[str]) -> int:
    files = []
    for arg in argv:
        root = Path(arg)
        files += sorted(root.rglob("*.py")) if root.is_dir() else [root]
    problems = [f"{path}:{line}: {name} imported but unused"
                for path in files for line, name in unused_imports(path)]
    print("\n".join(problems) if problems else f"{len(files)} files, no unused imports")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
