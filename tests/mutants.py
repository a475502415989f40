"""Run the committed mutant register, ``tests/mutants.json``.

Each entry names a file, an exact old text that occurs once in it, the new
text that replaces it, and the tests expected to fail.  For every entry the
runner copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory, applies the replacement there, and runs pytest on the named tests
alone.  A mutant is caught when pytest reports a failed test; it survives
when every named test passes.  Any other outcome (a named test that does not
exist, a collection error, a run past its time limit) is an error.  The
checkout itself is never modified.

    python tests/mutants.py

Exit status: 0 when every mutant is caught, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REGISTER = ROOT / "tests" / "mutants.json"
TIMEOUT_S = 600  # per mutant: a mutant that makes the simplex loop forever is an error


def load_register() -> list[dict]:
    return json.loads(REGISTER.read_text())


def mutated(entry: dict, root: Path) -> str:
    """The text of the entry's file under root with the replacement applied;
    ValueError unless the old text occurs exactly once."""
    text = (root / entry["file"]).read_text()
    count = text.count(entry["old"])
    if count != 1:
        raise ValueError(f"{entry['id']}: old text occurs {count} times in {entry['file']}")
    return text.replace(entry["old"], entry["new"])


def run_mutant(entry: dict) -> tuple[str, str]:
    """(verdict, pytest summary line) for one entry: caught, survived or error."""
    with tempfile.TemporaryDirectory(prefix="bioqm-mutant-") as tmp:
        work = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", work)
        (work / entry["file"]).write_text(mutated(entry, work))
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                   *entry["tests"]]
        try:
            proc = subprocess.run(command, cwd=work, env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "error", f"no result within {TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else proc.stderr.strip()[-200:]
    verdict = {0: "survived", 1: "caught"}.get(proc.returncode, "error")
    return verdict, summary


def main() -> int:
    entries = load_register()
    bad = 0
    for entry in entries:
        start = time.perf_counter()
        verdict, summary = run_mutant(entry)
        bad += verdict != "caught"
        print(f"{verdict:8s} {entry['id']} ({time.perf_counter() - start:.1f} s): {summary}",
              flush=True)
    print(f"{len(entries) - bad}/{len(entries)} mutants caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
