"""Tiny runs of every workload emit exactly the metrics BENCHMARK.json names."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_tiny_run_emits_every_metric(workload, trace, section):
    result = harness.run_workload(workload, seed=3, seconds=0.2, trace=trace, tiny=True)
    assert result.problems == []
    assert result.correct and result.attempted >= 1
    assert set(result.metrics) == {m["name"] for m in SPEC[section]}
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    for name, metric in result.metrics.items():
        assert metric["unit"] == units[name]
        assert metric["value"] == metric["value"], name  # not NaN


def test_without_package_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
