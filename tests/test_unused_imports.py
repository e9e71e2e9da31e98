"""The unused-import check that CI runs over src, tests and tools."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("unused_imports", ROOT / "tools" / "unused_imports.py")
unused_imports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unused_imports)

MODULE = '''\
from __future__ import annotations

import csv
import json as js
import os.path
from typing import Mapping, Sequence
from math import *

try:
    import numpy as np
except ImportError:
    np = None

__all__ = ["Sequence"]


def f(x: "Mapping[str, int]") -> None:
    import re
    return os.path.join(x)
'''


def test_reports_each_unused_module_level_import(tmp_path):
    """Unused: csv, js and np. Used: os (through os.path), Mapping in a
    string annotation, Sequence through ``__all__``. Not checked: the
    star import, ``__future__`` and the function's own import."""
    path = tmp_path / "module.py"
    path.write_text(MODULE)
    assert unused_imports.unused_imports(path) == [(3, "csv"), (4, "js"), (10, "np")]
    assert unused_imports.main([str(tmp_path)]) == 1


def test_the_checked_trees_have_no_unused_imports(capsys):
    assert unused_imports.main([str(ROOT / name) for name in ("src", "tests", "tools")]) == 0
    assert "no unused imports" in capsys.readouterr().out
