"""BENCHMARK.json, the metric tables in the code, and the result line agree."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from jobs import WORKLOADS
from run import END_TO_END_UNITS
from spans import LAYER_METRICS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_the_workloads_and_metrics_the_code_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in LAYER_METRICS
    ]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def _run(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "interactive", "--seed", "3", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line(trace):
    proc = _run(ROOT, "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
