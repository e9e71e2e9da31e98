"""The report of ``tools/gates.py``: paired tests of the margins and the
JSON record, on made-up records (running the gates takes minutes)."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("gates", ROOT / "tools" / "gates.py")
gates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gates)

BLOCKS = 8


def records(shift):
    """Every gate on blocks 0..``BLOCKS``: gate 06's ``odds/full`` margin
    is 1 + block / 100 plus ``shift``, and every other margin is the
    block."""
    out = []
    for block in range(BLOCKS + 1):
        for gate in gates.GATES:
            margins = ({"odds/full": 1.0 + block / 100 + shift, "max/min": 1.1} if gate == "06"
                       else {"margin": float(block)})
            out.append({"gate": gate, "block": block, "seed": gates.BLOCK_STRIDE * block,
                        "values": {"value": 1.0}, "margins": margins, "passed": True})
    return out


def test_two_trees_report_a_paired_test_of_each_margin(capsys, tmp_path):
    """A margin that moves up on every block gets the exact two-sided
    p-value of eight positive changes, 2 / 2⁸; one that never moves is
    reported identical; and the JSON file holds both trees' records."""
    trees = [tmp_path / "parent", tmp_path / "change"]
    results = [records(0.0), records(0.01)]
    gates.report(trees, results, BLOCKS)
    out = capsys.readouterr().out
    assert f"paired: odds/full median change 0.01 over {BLOCKS} blocks, Wilcoxon p = 0.00781" in out
    assert f"paired: max/min identical on {BLOCKS} blocks" in out
    assert out.count(f"paired: margin identical on {BLOCKS} blocks") == 3
    path = tmp_path / "gates.json"
    gates.write_json(path, trees, results, BLOCKS)
    written = json.loads(path.read_text())
    assert written["blocks"] == BLOCKS and written["stride"] == gates.BLOCK_STRIDE
    assert [tree["tree"] for tree in written["trees"]] == [str(tree) for tree in trees]
    assert [tree["records"] for tree in written["trees"]] == results


def test_one_tree_reports_no_paired_test(capsys, tmp_path):
    gates.report([tmp_path], [records(0.0)], BLOCKS)
    assert "paired" not in capsys.readouterr().out


def test_json_needs_a_directory(tmp_path):
    with pytest.raises(SystemExit):
        gates.main(["--blocks", "0", "--json", str(tmp_path / "missing" / "gates.json")])
