"""The command line front end: formats, determinism, and exit codes."""

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import bioqm
from bioqm import FieldConfig, cli
from bioqm.cli import run
from bioqm.entangle import CHSHRecord
from bioqm.gf import PRIME_TEST_BOUND
from bioqm.inference import CorrespondenceEntry, CorrespondenceReport, InferenceResult, Table4Row

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tables_markdown_frozen(capsys):
    code, out, err = invoke(capsys, ["tables", "--p", "3", "--degree", "1"])
    assert code == 0 and err == ""
    assert out == (
        "| state | σ1 | Δσ1 | σ3 | Δσ3 |\n"
        "|---|---|---|---|---|\n"
        "| a | 0 | 1 | 1 | 0 |\n"
        "| b | 0 | 1 | -1 | 0 |\n"
        "| c | 1 | 0 | 0 | 1 |\n"
        "| d | -1 | 0 | 0 | 1 |\n"
    )


def test_table4_markdown_frozen(capsys):
    code, out, err = invoke(capsys, ["canonical", "--table4"])
    assert code == 0
    assert out == (
        "| state | ++ | +- | -+ | -- | E.V. |\n"
        "|---|---|---|---|---|---|\n"
        "| S | 0 | 1/2 | 1/2 | 0 | -1 |\n"
        "| T | 1/4 | 0 | 1/2 | 1/4 | 0 |\n"
        "| U | 1/4 | 0 | 1/4 | 1/2 | 1/2 |\n"
    )


def test_chsh_bound_is_a_bare_number(capsys):
    code, out, _ = invoke(capsys, ["chsh", "--p", "3", "--degree", "2", "--bound"])
    assert code == 0
    assert out.strip() == "4"
    code, out, _ = invoke(capsys, ["chsh", "--p", "3", "--degree", "1", "--bound"])
    assert code == 0
    assert out.strip() == "2"


def test_verify_phi_first_line(capsys):
    code, out, _ = invoke(capsys, ["verify-phi", "--p", "11"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "unique: true"
    assert "kernel: 1, 3, 4, 5, 9" in lines


def test_options_work_before_or_after_the_subcommand(capsys):
    _, before, _ = invoke(capsys, ["--p", "3", "--degree", "1", "census"])
    _, after, _ = invoke(capsys, ["census", "--p", "3", "--degree", "1"])
    assert before == after


def test_json_output_is_byte_deterministic(capsys):
    _, first, _ = invoke(capsys, ["census", "--format", "json"])
    _, second, _ = invoke(capsys, ["census", "--format", "json"])
    assert first == second


def test_json_defaults_to_the_extension_field(capsys):
    _, out, _ = invoke(capsys, ["census", "--format", "json"])
    payload = json.loads(out)
    assert payload["kind"] == "census"
    assert payload["field"] == {"p": 3, "degree": 2, "order": 9}
    assert payload["counts"]["states"] == 820


def test_census_csv_parses(capsys):
    _, out, _ = invoke(capsys, ["census", "--format", "csv"])
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["quantity", "count"]
    counts = {name: int(value) for name, value in rows[1:]}
    assert counts["states"] == 820
    assert counts["entangled_physical"] == 504


def test_chsh_value_json(capsys):
    _, out, _ = invoke(capsys, ["chsh", "--state", "U", "--axes", "1331", "--format", "json"])
    payload = json.loads(out)
    assert payload["kind"] == "chsh_value"
    assert payload["value"] == -4
    assert payload["correlators"] == {"11": -1, "13": -1, "31": 1, "33": -1}


def test_chsh_scan_json(capsys):
    _, out, _ = invoke(capsys, ["chsh", "--state", "T", "--scan", "--format", "json"])
    payload = json.loads(out)
    assert payload["kind"] == "chsh_scan"
    row = payload["rows"][0]
    assert row["state"] == "T"
    assert row["histogram"] == {"0": 6, "1": 18, "2": 6, "3": 6, "4": 0}


def test_infer_json_fractions(capsys):
    _, out, _ = invoke(
        capsys, ["infer", "--state", "T", "--observable", "33", "--format", "json"]
    )
    payload = json.loads(out)
    assert payload["status"] == "indeterminate"
    assert payload["ranges"] == [
        [{"den": 1, "num": 0}, {"den": 2, "num": 1}] for _ in range(4)
    ]
    assert [identity["text"] for identity in payload["identities"]] == [
        "P(++) + P(--) = 1/2",
        "P(+-) + P(-+) = 1/2",
    ]


def test_mimic_json_reports_infeasibility(capsys):
    _, out, _ = invoke(capsys, ["mimic", "--state", "U", "--format", "json"])
    payload = json.loads(out)
    assert payload["kind"] == "mimic"
    assert payload["feasible"] is False
    assert payload["witness"] is None
    assert payload["certificate"] is not None


def test_groups_json_sections(capsys):
    _, out, _ = invoke(capsys, ["groups", "--iso", "--format", "json"])
    payload = json.loads(out)
    assert payload["kind"] == "groups"
    assert payload["order"] == 24
    assert payload["isomorphism"]["name"] == "S4"
    assert "elements" not in payload


def test_orbits_json(capsys):
    _, out, _ = invoke(
        capsys, ["orbits", "--p", "3", "--degree", "1", "--mode", "global", "--format", "json"]
    )
    payload = json.loads(out)
    assert payload["total_orbits"] == 5
    assert payload["burnside"] == 5
    assert sorted(o["size"] for o in payload["orbits"]) == [1, 1, 2, 2, 2]


def test_orbit_min_size_filter_keeps_totals(capsys):
    _, out, _ = invoke(
        capsys,
        ["orbits", "--mode", "local", "--min-size", "100", "--format", "json"],
    )
    payload = json.loads(out)
    assert payload["total_orbits"] == 3
    assert sorted(o["size"] for o in payload["orbits"]) == [192, 288]


def test_orbit_min_size_can_empty_the_listing(capsys):
    code, out, _ = invoke(
        capsys, ["orbits", "--p", "3", "--degree", "1", "--min-size", "999"]
    )
    assert code == 0
    assert "(no orbits listed)" in out


@pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")
def test_json_payloads_validate_against_the_shipped_schema(capsys):
    from importlib import resources

    schema = json.loads(
        resources.files("bioqm").joinpath("data/report_schema.json").read_text()
    )
    commands = [
        ["tables", "--format", "json"],
        ["census", "--p", "3", "--degree", "1", "--format", "json"],
        ["chsh", "--state", "S", "--format", "json"],
        ["chsh", "--state", "U", "--scan", "--format", "json"],
        ["chsh", "--bound", "--format", "json"],
        ["groups", "--format", "json"],
        ["orbits", "--mode", "global", "--format", "json"],
        ["infer", "--state", "U", "--observable", "33", "--format", "json"],
        ["infer", "--state", "a", "--observable", "1", "--format", "json"],
        ["mimic", "--state", "S", "--format", "json"],
        ["mimic", "--state", "T", "--marginals", "--format", "json"],
        ["canonical", "--table4", "--format", "json"],
        ["canonical", "--correspondence", "--format", "json"],
        ["verify-phi", "--p", "7", "--format", "json"],
    ]
    for argv in commands:
        code = run(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        jsonschema.validate(json.loads(out), schema)


@pytest.mark.parametrize(
    "argv, path, result_type",
    [
        (["chsh", "--state", "U"], (), CHSHRecord),
        (["canonical", "--table4"], ("rows", 0), Table4Row),
        (["canonical", "--correspondence"], (), CorrespondenceReport),
        (["canonical", "--correspondence"], ("entries", 0), CorrespondenceEntry),
        (["infer", "--state", "T"], (), InferenceResult),
        (["infer", "--state", "T", "--marginals"], (), InferenceResult),
    ],
    ids=["chsh", "table4", "correspondence", "correspondence-entry", "infer", "infer-infeasible"],
)
def test_every_result_field_is_a_report_key(capsys, argv, path, result_type):
    # one name per reported quantity: the payload is the result type's asdict,
    # with infer's certificate rows folded into its certificate
    code, out, _ = invoke(capsys, [*argv, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    for key in path:
        payload = payload[key]
    names = {field.name for field in dataclasses.fields(result_type)} - {"certificate_rows"}
    assert names <= payload.keys()


def test_output_file_matches_stdout(tmp_path, capsys):
    _, stdout_text, _ = invoke(capsys, ["census", "--format", "json"])
    target = tmp_path / "census.json"
    code = run(["census", "--format", "json", "--output", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_text() == stdout_text


def test_exit_codes_for_user_errors(capsys):
    cases = [
        ["chsh", "--state", "X"],
        ["chsh"],
        ["tables", "--p", "5"],
        ["infer", "--state", "T", "--p", "3", "--degree", "1"],
        ["mimic", "--state", "S", "--axes", "11"],
        ["infer", "--state", "a", "--observable", "33"],
    ]
    for argv in cases:
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.err.startswith("error:"), argv


@pytest.mark.parametrize("p", ["7", "11", "19"])
def test_full_groups_report_is_refused_past_gf3_and_gf9(capsys, p):
    code, out, err = invoke(capsys, ["groups", "--p", p, "--degree", "1"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--classes" in err and "--iso" in err
    code, out, err = invoke(capsys, ["groups", "--p", p, "--degree", "1", "--classes", "--iso"])
    assert code == 0 and err == ""
    assert out.startswith("order ")


def test_argparse_errors_keep_their_exit_code(capsys):
    assert run(["census", "--format", "yaml"]) == 2
    capsys.readouterr()
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


def test_chsh_bound_and_scan_are_mutually_exclusive(capsys):
    # one report per run: the pair is a usage error, not a silent --bound
    for argv in (["chsh", "--bound", "--scan"], ["chsh", "--scan", "--state", "S", "--bound"]):
        code, out, err = invoke(capsys, argv)
        assert code == 2 and out == "", argv
        assert "not allowed with argument" in err, argv


def test_run_builds_its_parser_once(capsys):
    cli._parser.cache_clear()
    first = invoke(capsys, ["census", "--p", "3", "--degree", "1"])
    usage = invoke(capsys, ["census", "--format", "yaml"])
    again = invoke(capsys, ["census", "--p", "3", "--degree", "1"])
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    # a usage error on the shared parser leaves later runs unchanged
    assert usage[0] == 2 and "invalid choice" in usage[2]
    assert again == first and first[0] == 0
    assert cli.build_parser() is not cli.build_parser()


def test_bare_invocation_needs_a_subcommand(capsys):
    assert run([]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err


def _seed_check(*flags):
    # the child imports the same bioqm as this process, whatever the
    # caller's PYTHONPATH
    src = str(Path(bioqm.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *flags, "-m", "bioqm.cli", "--seed-check"],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_seed_check_subprocess_passes_everything():
    proc = _seed_check()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "13/13 criteria passed" in proc.stdout
    assert proc.stdout.count("PASS") == 13


def test_seed_check_under_python_o_passes_nothing():
    # -O strips the assert statements every criterion checks with, so no
    # criterion may report PASS there
    proc = _seed_check("-B", "-O")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.startswith("FAIL") and "-O" in line for line in lines[:-1]] == [True] * 13
    assert lines[-1] == "0/13 criteria passed"


def test_chsh_value_over_a_large_prime_builds_no_residue_table(capsys):
    # the sign map is Euler's criterion: no set or tuple of the p residues
    tracemalloc.start()
    try:
        code, out, err = invoke(
            capsys, ["chsh", "--state", "S", "--p", "10000019", "--degree", "1"]
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and err == ""
    assert out.startswith("C_1331(S) = -2\n")
    assert peak < 16 * 2**20


def test_chsh_value_over_an_18_digit_prime_is_prompt(capsys):
    # primality is decided by Miller-Rabin, not trial division up to sqrt(p)
    start = time.perf_counter()
    code, out, err = invoke(
        capsys, ["chsh", "--state", "S", "--p", "1000000000000000003", "--degree", "1"])
    assert time.perf_counter() - start < 1
    assert code == 0 and err == "" and out.startswith("C_1331(S) = -2\n")


def test_prime_past_the_exact_primality_bound_is_refused(capsys):
    p = str(PRIME_TEST_BOUND + 2)
    for argv in (["chsh", "--state", "S", "--p", p], ["verify-phi", "--p", p]):
        code, out, err = invoke(capsys, argv)
        assert code == 2 and out == "", argv
        assert "exact primality test" in err, argv


@pytest.mark.parametrize(
    "argv", [["tables"], ["census"], ["chsh", "--bound"]], ids=lambda a: " ".join(a)
)
def test_huge_field_is_refused_before_any_table_is_built(capsys, monkeypatch, argv):
    built = []

    def recording_config(p, degree):
        config = FieldConfig(p, degree)
        built.append(config)
        return config

    monkeypatch.setattr("bioqm.cli.FieldConfig", recording_config)
    code, out, err = invoke(capsys, argv + ["--p", "100003", "--degree", "2"])
    assert code == 2 and out == ""
    assert "exceeds guard" in err
    # the field interns only the elements it produced, never all p^2 of them
    assert len(built) == 1
    assert len(built[0]._interned) <= 16
