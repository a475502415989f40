"""The acceptance gate: one test per frozen criterion, with time budgets.

Each parametrized line below is the pass/fail verdict for one criterion;
run_criterion folds a blown time budget into the failure itself.
"""

import pytest

from bioqm import FieldConfig, acceptance, bracket, dot, phi_map
from bioqm.gf import is_prime, preserves_products, residue_sign
from bioqm.acceptance import CRITERIA, run_criterion
from bioqm.cli import run


@pytest.mark.parametrize(
    "number",
    range(1, len(CRITERIA) + 1),
    ids=[f"{k:02d}-{name.replace(' ', '-')}" for k, (name, _, _) in enumerate(CRITERIA, 1)],
)
def test_criterion(number):
    result = run_criterion(number)
    assert result.passed, result.line()
    assert result.elapsed <= result.limit, result.line()


def test_criterion_count():
    assert len(CRITERIA) == 13


def test_a_criterion_that_raises_fails_alone(monkeypatch, capsys):
    def broken():
        raise RuntimeError("boom")

    name, limit, _ = CRITERIA[5]
    monkeypatch.setattr(acceptance, "CRITERIA", (*CRITERIA[:5], (name, limit, broken), *CRITERIA[6:]))
    assert run(["--seed-check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 14 and lines[-1] == "12/13 criteria passed"
    failed = [line for line in lines[:13] if not line.startswith("PASS")]
    assert len(failed) == 1 and failed[0].startswith(f"FAIL  6. {name} (")
    assert failed[0].endswith("): error: RuntimeError: boom")


def test_property_suite_computes_each_reference_bracket_once(monkeypatch):
    # each object-path reference value is computed once per run and read by
    # every check that needs it (593 bracket calls, against 4,250 when each
    # check computes its own), and every identity is still asserted, from
    # the same 11,476 dot calls
    calls, dots = [], []

    def counting(*args):
        calls.append(args)
        return bracket(*args)

    def counting_dot(*args):
        dots.append(args)
        return dot(*args)

    monkeypatch.setattr(acceptance, "bracket", counting)
    monkeypatch.setattr(acceptance, "dot", counting_dot)
    result = run_criterion(13)
    assert result.passed, result.line()
    assert result.detail == "11806 property checks passed"
    assert len(calls) <= 600
    assert len(dots) == 11476


def _preserves_products_by_pairs(p, signs):
    """The reference for ``gf.preserves_products``: phi(ab) against
    phi(a) phi(b) for every pair a, b in GF(p)."""
    return all(signs[a * b % p] == signs[a] * signs[b] for a in range(p) for b in range(p))


def _phi_table(p):
    # criterion 12 checks the residue_sign table, so it must be phi_map's
    config = FieldConfig(p, 1)
    signs = [phi_map(config.element(x)) for x in range(p)]
    assert signs == [residue_sign(x, p) for x in range(p)], p
    return signs


PRODUCT_PRIMES = [p for p in range(3, acceptance.PRODUCT_CHECK_LIMIT + 1, 4) if is_prime(p)]


def test_generator_product_check_agrees_with_every_pair():
    assert len(PRODUCT_PRIMES) == 24
    for p in PRODUCT_PRIMES:
        signs = _phi_table(p)
        assert preserves_products(p, signs), p
        assert _preserves_products_by_pairs(p, signs), p


@pytest.mark.parametrize("p", [7, 199])
def test_one_flipped_unit_fails_both_product_checks(p):
    signs = _phi_table(p)
    for unit in range(1, p):
        flipped = signs[:unit] + [-signs[unit]] + signs[unit + 1:]
        assert not preserves_products(p, flipped), unit
        assert not _preserves_products_by_pairs(p, flipped), unit
