"""Golden CLI outputs: every report kind and layout branch, byte for byte.

``cli_golden.json`` maps each invocation to its exit code, the sha256 of its
standard output, its standard error and the kind of report it printed (null
for a usage error).  Record it again only when an output change is intended:
``PYTHONPATH=src python tests/test_cli_golden.py``, which prints the keys
whose entries changed, were added or were removed.
"""

import contextlib
import functools
import hashlib
import io
import json
from pathlib import Path

import pytest

from bioqm import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")
FORMATS = ("markdown", "json", "csv")
FIELDS = (("--p", "3", "--degree", "1"), ("--p", "3", "--degree", "2"))

# run over GF(3) and GF(9); a command a field lacks the state for is a usage error
FIELD_COMMANDS = (
    ("tables",),
    ("census",),
    ("chsh", "--state", "S", "--axes", "1331"),
    ("chsh", "--state", "U", "--axes", "1331"),
    ("chsh", "--state", "T", "--scan"),
    ("chsh", "--scan"),
    ("chsh", "--bound"),
    ("chsh",),
    ("chsh", "--state", "X"),
    ("groups",),
    ("groups", "--classes"),
    ("groups", "--iso"),
    ("groups", "--classes", "--iso"),
    ("orbits", "--mode", "global"),
    ("orbits", "--mode", "local"),
    ("orbits", "--min-size", "999"),
    ("infer", "--state", "a", "--observable", "3"),
    ("infer", "--state", "T", "--observable", "33"),
    ("infer", "--state", "U", "--observable", "33", "--marginals"),
    ("infer", "--state", "S", "--observable", "11", "--marginals"),
    ("infer", "--state", "a", "--observable", "33"),
    ("infer", "--state", "a", "--observable", "3", "--marginals"),
    # the default observable: one axis digit for a single state, two for a pair
    ("infer", "--state", "a"),
    ("infer", "--state", "T"),
    ("mimic", "--state", "S"),
    ("mimic", "--state", "U"),
    ("mimic", "--state", "T", "--marginals"),
    ("mimic", "--state", "S", "--axes", "11"),
    ("canonical", "--table4"),
    ("canonical", "--correspondence"),
)
# commands that pick their own field, or none
OTHER_COMMANDS = (
    ("verify-phi", "--p", "3"),
    ("verify-phi", "--p", "7"),
    ("verify-phi", "--p", "11"),
    ("verify-phi", "--p", "19"),
    ("verify-phi", "--p", "5"),
    ("tables", "--p", "5"),
    (),
) + tuple(
    # orbits past GF(3)/GF(9): the prime fields GF(7), GF(11), GF(19) and
    # GF(23), the largest whose one-particle states fit the letter labels
    ("orbits", "--mode", mode, "--p", p, "--degree", "1")
    for p in ("7", "11", "19", "23")
    for mode in ("local", "global")
) + tuple(
    # conjugacy classes and identification over the prime fields
    ("groups", "--classes", "--iso", "--p", p, "--degree", "1")
    for p in ("7", "11", "19", "23")
) + (
    # GF(49)'s one-particle states outnumber the letter labels: exit 2
    ("groups", "--classes", "--iso", "--p", "7", "--degree", "2"),
) + tuple(
    # the CHSH bound over the prime fields GF(7), GF(11) and GF(19)
    ("chsh", "--bound", "--p", p, "--degree", "1")
    for p in ("7", "11", "19")
) + (
    # the named-state CHSH reports over GF(49)
    ("chsh", "--scan", "--p", "7", "--degree", "2"),
    ("chsh", "--state", "U", "--axes", "1221", "--p", "7", "--degree", "2"),
) + tuple(
    # the census over the prime fields GF(7), GF(11), GF(19) and over GF(49)
    ("census", "--p", p, "--degree", degree)
    for p, degree in (("7", "1"), ("11", "1"), ("19", "1"), ("7", "2"))
)


def matrix() -> list[tuple[tuple[str, ...], ...]]:
    """Each command with its invocation in every format, in a fixed order."""
    commands = [c + f for c in FIELD_COMMANDS for f in FIELDS] + list(OTHER_COMMANDS)
    return [tuple(c + ("--format", fmt) for fmt in FORMATS) for c in commands]


def observe(argv: tuple[str, ...]) -> tuple[dict, str]:
    """The golden entry of one in-process run (without its kind), and its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    return {"exit": code, "stdout_sha256": digest, "stderr": err.getvalue()}, out.getvalue()


def record() -> dict:
    golden = {}
    for invocations in matrix():
        seen = [observe(argv) for argv in invocations]
        entry, stdout = seen[FORMATS.index("json")]
        kind = json.loads(stdout)["kind"] if entry["exit"] == 0 else None
        for argv, (entry, _) in zip(invocations, seen):
            golden[" ".join(argv)] = dict(entry, kind=kind)
    return golden


KEYS = [" ".join(argv) for invocations in matrix() for argv in invocations]


@functools.cache
def _load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_exactly_the_matrix():
    assert sorted(_load()) == sorted(KEYS)
    assert len(KEYS) == 267
    # both orbit modes over GF(7), GF(11), GF(19) and GF(23), in every format
    past_gf9 = [k for k in KEYS if k.startswith("orbits --mode ") and " --p 3 " not in k]
    assert sorted({tuple(k.split()[2:7:2]) for k in past_gf9}) == [
        (mode, p, "1") for mode in ("global", "local") for p in ("11", "19", "23", "7")]
    assert len(past_gf9) == 4 * 2 * len(FORMATS)
    # classes and identification over GF(7), GF(11), GF(19) and GF(23)
    prime_groups = [k for k in KEYS
                    if k.startswith("groups --classes --iso --p ") and k.split()[4] != "3"
                    and k.split()[6] == "1"]
    assert sorted({k.split()[4] for k in prime_groups}) == ["11", "19", "23", "7"]
    assert len(prime_groups) == 4 * len(FORMATS)
    # the letter refusal over GF(49)
    gf49_groups = [k for k in KEYS if k.startswith("groups") and " --p 7 --degree 2 " in k]
    assert len(gf49_groups) == len(FORMATS)
    # the CHSH bound over GF(7), GF(11), GF(19); scan and value over GF(49)
    bounds = [k for k in KEYS
              if k.startswith("chsh --bound --p ") and k.split()[3] != "3"]
    assert sorted({k.split()[3] for k in bounds}) == ["11", "19", "7"]
    assert len(bounds) == 3 * len(FORMATS)
    gf49 = [k for k in KEYS if k.startswith("chsh") and " --p 7 --degree 2 " in k]
    assert len(gf49) == 2 * len(FORMATS)
    # the census over GF(7), GF(11), GF(19) and GF(49)
    censuses = [k for k in KEYS
                if k.startswith("census --p ") and k.split()[2] != "3"]
    assert sorted({tuple(k.split()[2:5:2]) for k in censuses}) == [
        ("11", "1"), ("19", "1"), ("7", "1"), ("7", "2")]
    assert len(censuses) == 4 * len(FORMATS)


def test_every_layout_has_golden_entries_in_every_format():
    covered = {(e["kind"], key.split()[-1]) for key, e in _load().items() if e["exit"] == 0}
    assert [(k, f) for k in cli.LAYOUTS for f in FORMATS if (k, f) not in covered] == []


@pytest.mark.parametrize("key", KEYS)
def test_cli_output_matches_golden(key):
    expected = dict(_load()[key])
    del expected["kind"]
    assert observe(tuple(key.split()))[0] == expected


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    new = record()
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) != new.get(key):
            print(key)
