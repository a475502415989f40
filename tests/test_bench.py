"""The benchmark harness still finds every traced function and cache."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_bench_self_test_passes():
    proc = subprocess.run(
        # -B: leave no bytecode behind in bench/
        [sys.executable, "-B", str(ROOT / "bench" / "run.py"), "--self-test"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test passed" in proc.stdout


@pytest.mark.parametrize("workload", ["paper", "scan", "orbits", "lp"])
def test_bench_workload_passes_its_frozen_checks(workload):
    # a short run replays every operation's frozen check, so drift between
    # the library and bench/workloads.py fails here, not only in a benchmark;
    # the environment keeps child processes from writing bytecode, but the
    # isolated (-I) set-up probes ignore it and still compile hostclock
    proc = subprocess.run(
        [sys.executable, "-B", str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.2"],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=ROOT,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["correct"] and result["failed"] == 0, proc.stdout + proc.stderr
