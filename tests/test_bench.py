"""The benchmark harness still finds every traced function and cache."""

import subprocess
import sys
from pathlib import Path

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
