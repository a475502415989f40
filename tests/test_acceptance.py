"""The acceptance gate: one test per frozen criterion, with time budgets.

Each parametrized line below is the pass/fail verdict for one criterion;
run_criterion folds a blown time budget into the failure itself.
"""

import pytest

from bioqm import acceptance, bracket
from bioqm.acceptance import CRITERIA, run_criterion


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


def test_property_suite_computes_each_reference_bracket_once(monkeypatch):
    # each object-path reference value is computed once per run and read by
    # every check that needs it (593 bracket calls, against 4,250 when each
    # check computes its own), and every identity is still asserted
    calls = []

    def counting(*args):
        calls.append(args)
        return bracket(*args)

    monkeypatch.setattr(acceptance, "bracket", counting)
    result = run_criterion(13)
    assert result.passed, result.line()
    assert result.detail == "11806 property checks passed"
    assert len(calls) <= 600
