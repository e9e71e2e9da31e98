"""The code-line counter that CI runs over the package."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

MODULE = '''\
"""Module docstring,
over two lines."""

# A comment on its own line.
import math  # a comment after code


class Shape:
    """Class docstring."""

    SIDES = 4


def area(r):
    """Function docstring,

    with a blank line inside."""
    label = """a multi-line string
that is no docstring"""
    return math.pi * r**2, label
'''


def test_counts_lines_that_are_neither_blank_comment_nor_docstring(tmp_path, capsys):
    """Counted: the import with its trailing comment, the class and its
    attribute, the def, both lines of the assigned string and the return."""
    assert code_lines.code_lines(MODULE) == 7
    (tmp_path / "module.py").write_text(MODULE)
    (tmp_path / "empty.py").write_text("# only a comment\n\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out] == [
        ["0", str(tmp_path / "empty.py")], ["7", str(tmp_path / "module.py")], ["7", "total"]]
