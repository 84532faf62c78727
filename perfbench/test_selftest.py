"""Self-test of the benchmark (a few minutes): python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, EXACT_COUNTERS, PER_LAYER, ROOT, UNITS, WORKLOAD_NAMES  # noqa: E402


def _run(*args: str, cwd: Path = ROOT, hashseed: str = "0") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONHASHSEED": hashseed},
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_counters_repeat_between_runs(workload):
    """Two processes with different string hashing report the same counts."""
    runs = [
        _result(_run("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "1",
                     hashseed=hashseed))
        for hashseed in ("1", "2")
    ]
    for result in runs:
        assert list(result["metrics"]) == list(PER_LAYER)
    first, second = ({k: r["metrics"][k]["value"] for k in EXACT_COUNTERS} for r in runs)
    assert first == second
    if workload == "deep_chain":
        assert first["regulator.reevals"] == 0


def test_end_to_end_result_line():
    result = _result(_run("--workload", "deep_chain", "--seed", "3", "--seconds", "0", "--trace", "0"))
    assert list(result["metrics"]) == list(END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == UNITS[name]
        assert metric["value"] > 0


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and perfbench/ present: non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "results", ".work", "__pycache__"))
    done = _run("--workload", "calibrated", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
