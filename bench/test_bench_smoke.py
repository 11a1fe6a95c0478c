"""Smoke test of the benchmark: each workload at tiny sizes with its checks."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run


@pytest.mark.parametrize("workload", ["grid-recon", "risk-mc", "kernel-tab"])
def test_workload_smoke(workload, tmp_path):
    record = run.run_workload(workload, 2, 0.0, True, smoke=True,
                              results_dir=tmp_path / "results", work_root=tmp_path / "work")
    result = record["result"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0, [op for op in record["ops"] if op["error"]]
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert record["absent_metrics"] == [] and record["absent_targets"] == []


def test_lb_fixture_smoke():
    # one lb-verify costs seconds and 2 GB at any size: run it once, untraced,
    # in a child process so that the memory is returned when it exits
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", "lb-fixture", "--smoke",
         "--seed", "2", "--seconds", "0", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] == 1 and result["failed"] == 0 and result["correct"] is True
    assert set(result["metrics"]) == set(run.END_TO_END)
