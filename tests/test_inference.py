"""Probability inference, hidden-variable tests, and the rational cross-check."""

from dataclasses import dataclass
from fractions import Fraction

import pytest

from bioqm import (
    ConstraintSystem,
    FieldConfig,
    canonical_correlator,
    correspondence_check,
    hv_feasibility,
    infer_probabilities,
    representative_states,
)
from bioqm.exactlp import verify_farkas
from bioqm.inference import (
    PAIR_OUTCOMES,
    canonical_pair_probabilities,
    moment_system,
    pair_measurement_system,
    single_measurement_system,
    state_correlator_constraints,
    state_marginal_constraints,
    table4_report,
)

F = Fraction
GF3 = FieldConfig(3, 1)
GF9 = FieldConfig(3, 2)


def test_make_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        ConstraintSystem.make(("+", "-"), [("E", [1, -1, 1], 0)])


def test_full_rows_prepend_normalization():
    system = ConstraintSystem.make(("+", "-"), [("E(1)", [1, -1], 0)])
    rows, rhs, labels = system.full_rows()
    assert labels[0] == "normalization"
    assert rows[0] == [F(1), F(1)]
    assert rhs[0] == F(1)
    assert labels[1:] == ["E(1)"]


def test_single_measurement_is_uniform():
    system = single_measurement_system(GF3, "a", 1)
    result = infer_probabilities(system)
    assert result.status == "unique"
    assert result.outcomes == ("+", "-")
    assert result.solution == (F(1, 2), F(1, 2))
    assert result.rank == 2
    assert [identity.text for identity in result.identities] == [
        "P(+) = 1/2",
        "P(-) = 1/2",
    ]
    assert result.forced_zero == ()


def test_single_measurement_on_eigenstate_is_deterministic():
    system = single_measurement_system(GF9, "e", 2)
    result = infer_probabilities(system)
    assert result.status == "unique"
    assert result.solution == (F(1), F(0))


# -- the indeterminate pair systems ------------------------------------------------


def test_t_pair_system_is_indeterminate():
    state = representative_states(GF9)["T"]
    system = pair_measurement_system(state, 3, 3)
    result = infer_probabilities(system)
    assert result.status == "indeterminate"
    assert result.outcomes == PAIR_OUTCOMES
    assert result.solution is None
    assert [identity.text for identity in result.identities] == [
        "P(++) + P(--) = 1/2",
        "P(+-) + P(-+) = 1/2",
    ]
    assert result.forced_zero == ()
    assert result.ranges == ((F(0), F(1, 2)),) * 4
    # the witness satisfies every constraint exactly
    rows, rhs, _ = system.full_rows()
    for row, target in zip(rows, rhs):
        assert sum(c * w for c, w in zip(row, result.witness)) == target
    assert all(w >= 0 for w in result.witness)


def test_u_pair_system_forces_two_zeros():
    state = representative_states(GF9)["U"]
    system = pair_measurement_system(state, 3, 3)
    result = infer_probabilities(system)
    assert result.status == "indeterminate"
    assert [identity.text for identity in result.identities] == [
        "P(++) + P(--) = 0",
        "P(+-) + P(-+) = 1",
    ]
    assert result.forced_zero == ("++", "--")
    assert result.ranges == (
        (F(0), F(0)),
        (F(0), F(1)),
        (F(0), F(1)),
        (F(0), F(0)),
    )


def test_identity_coefficients_replay_against_any_witness():
    state = representative_states(GF9)["T"]
    result = infer_probabilities(pair_measurement_system(state, 3, 3))
    for identity in result.identities:
        value = sum(c * w for c, w in zip(identity.coeffs, result.witness))
        assert value == identity.rhs


def test_pair_system_with_marginals_is_infeasible_for_t_and_u():
    for label in ("T", "U"):
        state = representative_states(GF9)[label]
        system = pair_measurement_system(state, 3, 3, include_marginals=True)
        result = infer_probabilities(system)
        assert result.status == "infeasible"
        assert result.certificate is not None
        rows, rhs, row_labels = system.full_rows()
        assert verify_farkas(rows, rhs, result.certificate)
        assert tuple(row_labels) == (
            "normalization",
            "E(3x3)",
            "E(3 on side 1)",
            "E(3 on side 2)",
        )
        assert result.certificate_rows == tuple(row_labels)


def test_t_marginal_certificate_frozen():
    state = representative_states(GF9)["T"]
    system = pair_measurement_system(state, 3, 3, include_marginals=True)
    result = infer_probabilities(system)
    assert result.certificate == (F(-1), F(1), F(1), F(-1))


def test_singlet_pair_system_is_indeterminate_without_marginals():
    state = representative_states(GF9)["S"]
    result = infer_probabilities(pair_measurement_system(state, 3, 3))
    assert result.status == "indeterminate"
    assert [identity.text for identity in result.identities] == [
        "P(++) + P(--) = 0",
        "P(+-) + P(-+) = 1",
    ]
    assert result.forced_zero == ("++", "--")


def test_singlet_pair_system_with_marginals_becomes_unique():
    state = representative_states(GF9)["S"]
    result = infer_probabilities(
        pair_measurement_system(state, 3, 3, include_marginals=True)
    )
    assert result.status == "unique"
    assert result.solution == (F(0), F(1, 2), F(1, 2), F(0))
    assert result.forced_zero == ("++", "--")


def test_forced_zeros_that_only_a_row_combination_forces():
    # r1 + r2 reads P(w) + P(x) = 0, so both are 0 in every solution, but
    # each reduced row with a zero right side has a negative coefficient
    system = ConstraintSystem.make(
        ("v", "w", "x", "y", "z"),
        [("r1", [0, 1, 0, 1, -1], 0), ("r2", [0, 0, 1, -1, 1], 0)],
    )
    result = infer_probabilities(system)
    assert result.status == "indeterminate"
    assert result.ranges[1:3] == ((F(0), F(0)), (F(0), F(0)))
    assert result.forced_zero == ("w", "x")


def test_forced_zeros_of_a_unique_system_are_its_zero_outcomes():
    # no reduced row has a zero right side, yet the one solution has two zeros
    system = ConstraintSystem.make(
        ("a", "b", "c", "d"),
        [("r1", [1, 0, 1, -1], 0), ("r2", [0, 1, -1, 1], 0)],
    )
    result = infer_probabilities(system)
    assert result.status == "unique"
    assert result.solution == (F(0), F(0), F(1, 2), F(1, 2))
    assert result.forced_zero == ("a", "b")


# -- moments ------------------------------------------------------------------------


def test_moment_system_of_a_spin_pair():
    report = moment_system([1, -1, -1, 1], 4)
    assert len(report.outcome_values) == 4
    assert report.rank == 2
    assert report.indeterminacy == 2


def test_moment_system_distinct_values_resolve():
    assert moment_system([1, -1], 2).rank == 2
    assert moment_system([1, 0, -1], 2).rank == 3
    assert moment_system([1, 0, -1], 2).indeterminacy == 0


def test_moment_system_never_beats_distinct_value_count():
    report = moment_system([1, -1, -1, 1], 10)
    assert report.rank == 2  # only two distinct outcome values


def test_moment_system_rejects_zero_powers():
    with pytest.raises(ValueError):
        moment_system([1, -1], 0)


# -- hidden-variable feasibility ------------------------------------------------------


def test_hv_singlet_is_locally_mimicable():
    state = representative_states(GF9)["S"]
    report = hv_feasibility(state_correlator_constraints(state, (1, 3)))
    assert report.feasible
    assert report.result.status == "indeterminate"
    assert len(report.outcomes) == 16
    rows, rhs, _ = report.system.full_rows()
    witness = report.result.witness
    for row, target in zip(rows, rhs):
        assert sum(c * w for c, w in zip(row, witness)) == target
    # support sits on the four fully anti-correlated assignments
    support = {
        label for label, w in zip(report.outcomes, witness) if w > 0
    }
    assert support <= {"+,+;-,-", "+,-;-,+", "-,+;+,-", "-,-;+,+"}


def test_hv_singlet_with_marginals_is_the_uniform_anticorrelated_mix():
    state = representative_states(GF3)["S"]
    report = hv_feasibility(
        state_correlator_constraints(state, (1, 3)),
        marginals=state_marginal_constraints(state, (1, 3)),
    )
    assert report.result.status == "unique"
    solution = dict(zip(report.outcomes, report.result.solution))
    quarter = {"+,+;-,-", "+,-;-,+", "-,+;+,-", "-,-;+,+"}
    for label, value in solution.items():
        assert value == (F(1, 4) if label in quarter else F(0))


HV_CERT_ROWS_T = (
    "normalization",
    "E(1x1) = -1",
    "E(1x3) = -1",
    "E(3x1) = 1",
    "E(3x3) = 0",
)


def test_hv_t_is_infeasible_with_frozen_certificate():
    state = representative_states(GF9)["T"]
    report = hv_feasibility(state_correlator_constraints(state, (1, 3)))
    assert not report.feasible
    result = report.result
    assert result.certificate == (F(-2), F(-1), F(-1), F(1), F(-1))
    assert result.certificate_rows == HV_CERT_ROWS_T
    rows, rhs, _ = report.system.full_rows()
    assert verify_farkas(rows, rhs, result.certificate)


def test_hv_u_is_infeasible_with_frozen_certificate():
    state = representative_states(GF9)["U"]
    report = hv_feasibility(state_correlator_constraints(state, (1, 3)))
    assert not report.feasible
    result = report.result
    assert result.certificate == (F(-2), F(-1), F(-1), F(1), F(-1))
    assert result.certificate_rows == (
        "normalization",
        "E(1x1) = -1",
        "E(1x3) = -1",
        "E(3x1) = 1",
        "E(3x3) = -1",
    )
    rows, rhs, _ = report.system.full_rows()
    assert verify_farkas(rows, rhs, result.certificate)


def test_hv_infeasibility_tracks_the_chsh_bound():
    # |CHSH| > 2 on some quadruple forces infeasibility; the converse pins S
    from bioqm import axis_quadruples, chsh

    reps = representative_states(GF9)
    for label in ("T", "U"):
        state = reps[label]
        assert any(
            abs(chsh(state, *quad).value) > 2 for quad in axis_quadruples(GF9)
        )
        assert not hv_feasibility(
            state_correlator_constraints(state, (1, 3))
        ).feasible


def test_state_constraint_builders():
    state = representative_states(GF9)["U"]
    corr = dict(state_correlator_constraints(state, (1, 3)))
    assert corr == {(1, 1): -1, (1, 3): -1, (3, 1): 1, (3, 3): -1}
    marg = dict(state_marginal_constraints(state, (1, 3)))
    assert marg == {(1, 1): -1, (1, 3): 1, (2, 1): -1, (2, 3): 0}


# -- rational quantum cross-check ------------------------------------------------------


@dataclass(frozen=True)
class GaussianRational:
    """A complex number with exact rational real and imaginary parts: the
    arithmetic of the reference oracle below."""

    re: Fraction
    im: Fraction = Fraction(0)

    @staticmethod
    def of(re, im=0):
        return GaussianRational(Fraction(re), Fraction(im))

    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self):
        return GaussianRational(self.re, -self.im)

    def abs2(self):
        return self.re * self.re + self.im * self.im

    @property
    def is_real(self):
        return self.im == 0


_GR0, _GR1, _GRI = GaussianRational.of(0), GaussianRational.of(1), GaussianRational.of(0, 1)

REFERENCE_PAULI = {
    1: ((_GR0, _GR1), (_GR1, _GR0)),
    2: ((_GR0, GaussianRational.of(0, -1)), (_GRI, _GR0)),
    3: ((_GR1, _GR0), (_GR0, GaussianRational.of(-1))),
}

REFERENCE_STATES = {
    "S": (_GR0, _GR1, GaussianRational.of(-1), _GR0),
    "T": (_GR1, _GR0, GaussianRational.of(1, 1), _GR1),
    "U": (_GR1, _GR0, _GR1, GaussianRational.of(1, 1)),
}


def reference_kron(a, b):
    return tuple(
        tuple(a[ra][ca] * b[rb][cb] for ca in range(2) for cb in range(2))
        for ra in range(2)
        for rb in range(2)
    )


def reference_bracket(psi, m):
    # the Gaussian-rational oracle: every product and sum over Fraction
    n = len(psi)
    norm = sum((c.abs2() for c in psi), Fraction(0))
    acc = _GR0
    for r in range(n):
        for c in range(n):
            acc = acc + psi[r].conj() * m[r][c] * psi[c]
    return GaussianRational(acc.re / norm, acc.im / norm)


def reference_correlator(label, i, j):
    m = reference_kron(REFERENCE_PAULI[i], REFERENCE_PAULI[j])
    value = reference_bracket(REFERENCE_STATES[label], m)
    assert value.is_real
    return value.re


def reference_pair_probabilities(label):
    psi = REFERENCE_STATES[label]
    norm = sum((c.abs2() for c in psi), Fraction(0))
    return tuple(c.abs2() / norm for c in psi)


def test_gaussian_rational_arithmetic():
    a = GaussianRational.of(1, 2)
    b = GaussianRational.of(3, 4)
    assert a * b == GaussianRational.of(-5, 10)
    assert a + b == GaussianRational.of(4, 6)
    assert a.conj() == GaussianRational.of(1, -2)
    assert a.abs2() == F(5)
    assert not a.is_real
    assert (a * a.conj()).is_real
    assert GaussianRational.of(F(1, 2)).re == F(1, 2)


def test_integer_oracle_matches_the_fraction_reference():
    for label in ("S", "T", "U"):
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                value = canonical_correlator(label, i, j)
                assert value == reference_correlator(label, i, j), (label, i, j)
                assert type(value) is Fraction
        assert canonical_pair_probabilities(label) == reference_pair_probabilities(label)


CANONICAL = {
    ("S", 1, 1): F(-1),
    ("S", 2, 2): F(-1),
    ("S", 3, 3): F(-1),
    ("S", 1, 3): F(0),
    ("T", 1, 1): F(1, 2),
    ("T", 2, 2): F(-1, 2),
    ("T", 3, 3): F(0),
    ("T", 1, 3): F(1, 2),
    ("T", 3, 1): F(-1, 2),
    ("U", 1, 1): F(1, 2),
    ("U", 2, 2): F(-1, 2),
    ("U", 3, 3): F(1, 2),
}


def test_canonical_correlators_frozen():
    for (label, i, j), value in CANONICAL.items():
        assert canonical_correlator(label, i, j) == value


def test_canonical_pair_probabilities():
    assert canonical_pair_probabilities("S") == (F(0), F(1, 2), F(1, 2), F(0))
    assert canonical_pair_probabilities("T") == (F(1, 4), F(0), F(1, 2), F(1, 4))
    assert canonical_pair_probabilities("U") == (F(1, 4), F(0), F(1, 4), F(1, 2))


def test_table4_frozen():
    rows = {row.state: row for row in table4_report()}
    assert set(rows) == {"S", "T", "U"}
    assert rows["S"].probabilities == (F(0), F(1, 2), F(1, 2), F(0))
    assert rows["S"].expectation == F(-1)
    assert rows["T"].probabilities == (F(1, 4), F(0), F(1, 2), F(1, 4))
    assert rows["T"].expectation == F(0)
    assert rows["U"].probabilities == (F(1, 4), F(0), F(1, 4), F(1, 2))
    assert rows["U"].expectation == F(1, 2)
    for row in table4_report():
        assert sum(row.probabilities) == 1


def test_correspondence_check():
    report = correspondence_check()
    assert report.ok
    assert len(report.entries) == 27
    assert all(entry.matched for entry in report.entries)
    by_key = {(e.state, e.axes): e for e in report.entries}
    t22 = by_key[("T", (2, 2))]
    assert t22.sign == 1
    assert t22.canonical == F(-1, 2)
    u12 = by_key[("U", (1, 2))]
    assert u12.sign == -1
    assert u12.canonical == F(1, 2)
    s33 = by_key[("S", (3, 3))]
    assert s33.sign == -1
    assert s33.canonical == F(-1)


def test_correspondence_sign_rule():
    # the singlet matches its canonical correlator outright; T and U go
    # through -1 <-> +1/2, +1 <-> -1/2, 0 <-> 0
    half = F(1, 2)
    for entry in correspondence_check().entries:
        if entry.state == "S":
            assert entry.canonical == F(entry.sign)
        else:
            assert entry.canonical == {1: -half, -1: half, 0: F(0)}[entry.sign]


def test_correspondence_rejects_other_fields():
    with pytest.raises(ValueError):
        correspondence_check(FieldConfig(7, 1))
