"""Probability inference from sign-mapped moments, and the exact comparison
against ordinary complex quantum mechanics.

Measured data in the Galois setting consists of sign-mapped moments; the
probabilities behind them satisfy exact linear constraints with rational
coefficients.  ``infer_probabilities`` decides, over the simplex of
probability vectors, whether those constraints pin a unique distribution,
leave a family (with the implied linear identities reported), or admit no
distribution at all (with a replayable Farkas certificate).  Forced zeros
are read from the exact coordinate ranges: the outcomes whose maximum is 0.

``hv_feasibility`` asks the same question for a local deterministic
hidden-variable model: the unknowns are probabilities of complete outcome
assignments, one +-1 value per axis per side, constrained by the observed
correlators (and optionally single-side expectations).

The canonical side (ordinary quantum mechanics) is computed over the
Gaussian integers: the Pauli matrices and the unnormalized states have
integer real and imaginary parts, every bracket is an integer sum, and
``Fraction`` appears only at the boundary, where the sum is divided once by
<psi|psi>.  No square roots are ever needed and all comparisons are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Sequence

from .gf import FieldConfig, phi_map
from .biortho import bracket, expectation, named_states, spin_axes, spin_observable
from .entangle import (
    REPRESENTATIVES,
    TwoParticleState,
    correlator,
    correlator_grid,
    product_spin,
    representative_states,
    single_spin,
)
from .exactlp import LPSystem, rref

PAIR_OUTCOMES = ("++", "+-", "-+", "--")
PAIR_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


# -- constraint systems ---------------------------------------------------------


@dataclass(frozen=True)
class Constraint:
    label: str
    coeffs: tuple[Fraction, ...]
    rhs: Fraction


@dataclass(frozen=True)
class ConstraintSystem:
    """Equality constraints over outcome probabilities.

    Normalization (coefficients all 1, right side 1) and nonnegativity are
    imposed implicitly on top of the listed rows.
    """

    outcomes: tuple[str, ...]
    constraints: tuple[Constraint, ...]

    @staticmethod
    def make(
        outcomes: Sequence[str], rows: Sequence[tuple[str, Sequence, object]]
    ) -> ConstraintSystem:
        built = []
        for label, coeffs, rhs in rows:
            coeffs = tuple(Fraction(x) for x in coeffs)
            if len(coeffs) != len(outcomes):
                raise ValueError("constraint length does not match outcomes")
            built.append(Constraint(label=label, coeffs=coeffs, rhs=Fraction(rhs)))
        return ConstraintSystem(outcomes=tuple(outcomes), constraints=tuple(built))

    def full_rows(self) -> tuple[list[list[Fraction]], list[Fraction], list[str]]:
        n = len(self.outcomes)
        rows = [[Fraction(1)] * n]
        rhs = [Fraction(1)]
        labels = ["normalization"]
        for c in self.constraints:
            rows.append(list(c.coeffs))
            rhs.append(c.rhs)
            labels.append(c.label)
        return rows, rhs, labels


@dataclass(frozen=True)
class Identity:
    """An implied equality: coeffs . P = rhs."""

    coeffs: tuple[Fraction, ...]
    rhs: Fraction
    text: str


def _identity_text(outcomes: Sequence[str], coeffs: Sequence[Fraction], rhs: Fraction) -> str:
    parts = []
    for name, c in zip(outcomes, coeffs):
        if c == 0:
            continue
        if c == 1:
            term = f"P({name})"
        elif c == -1:
            term = f"-P({name})"
        else:
            term = f"{c}*P({name})"
        parts.append(term if not parts else (f"+ {term}" if c > 0 else f"- {term.lstrip('-')}"))
    left = " ".join(parts) if parts else "0"
    return f"{left} = {rhs}"


@dataclass(frozen=True)
class InferenceResult:
    status: str  # 'unique', 'indeterminate' or 'infeasible'
    outcomes: tuple[str, ...]
    rank: int
    solution: tuple[Fraction, ...] | None  # exact distribution when unique
    witness: tuple[Fraction, ...] | None  # some feasible distribution otherwise
    identities: tuple[Identity, ...]
    forced_zero: tuple[str, ...]
    ranges: tuple[tuple[Fraction, Fraction], ...] | None  # exact [min, max] per outcome
    certificate: tuple[Fraction, ...] | None  # Farkas row multipliers when infeasible
    certificate_rows: tuple[str, ...] | None


def infer_probabilities(system: ConstraintSystem) -> InferenceResult:
    """Decide what the constraints say about the outcome distribution.

    Status is 'unique' exactly when the feasible polytope is a single point
    (decided by the exact coordinate ranges of ``LPSystem.ranges``, whose
    feasible point is the witness), 'infeasible' when it is empty (with a
    Farkas certificate over the listed rows plus normalization), and
    'indeterminate' otherwise.  The reduced equality rows are reported as
    implied identities, and the outcomes whose exact maximum is 0 as forced
    zeros, whatever combination of rows forces them.  The LPs finish before
    the row reduction starts, so the two never hold working rows at once.
    """
    rows, rhs, labels = system.full_rows()
    feas, ranges = LPSystem(rows, rhs, len(system.outcomes)).ranges()
    reduced = rref(rows, rhs)
    identities = tuple(
        Identity(coeffs=row, rhs=value, text=_identity_text(system.outcomes, row, value))
        for row, value in zip(reduced.rows, reduced.rhs)
    )
    # an infeasible system has no solution or ranges, only its certificate;
    # a feasible one has its verified point and no certificate
    infeasible = ranges is None
    unique = not infeasible and all(lo == hi for lo, hi in ranges)
    return InferenceResult(
        status="infeasible" if infeasible else "unique" if unique else "indeterminate",
        outcomes=system.outcomes,
        rank=reduced.rank,
        solution=feas.solution if unique else None,
        witness=feas.solution,
        identities=identities,
        forced_zero=tuple(name for name, (_, hi) in zip(system.outcomes, ranges or ()) if hi == 0),
        ranges=ranges,
        certificate=feas.certificate,
        certificate_rows=tuple(labels) if infeasible else None,
    )


# -- moment systems ---------------------------------------------------------------


@dataclass(frozen=True)
class MomentReport:
    outcome_values: tuple[Fraction, ...]
    rows: tuple[tuple[Fraction, ...], ...]  # moment coefficient matrix, k = 0..N
    rank: int
    indeterminacy: int  # unknowns minus rank


def moment_system(values: Sequence, max_power: int) -> MomentReport:
    """The linear system tying outcome probabilities to moments E(A^k).

    Row k holds the k-th powers of the outcome values (k = 0 is
    normalization).  Repeated values and small power ranges leave the system
    rank-deficient; the indeterminacy dimension counts the unknowns that no
    amount of re-measuring the same observable can pin down.
    """
    if max_power < 1:
        raise ValueError("need at least the first moment")
    vals = tuple(Fraction(v) for v in values)
    rows = tuple(
        tuple(v**k for v in vals) for k in range(max_power + 1)
    )
    rank = rref(rows, [Fraction(0)] * len(rows)).rank
    return MomentReport(
        outcome_values=vals,
        rows=rows,
        rank=rank,
        indeterminacy=len(vals) - rank,
    )


# -- deterministic hidden-variable feasibility --------------------------------------


@dataclass(frozen=True)
class HVReport:
    axes: tuple[int, ...]
    outcomes: tuple[str, ...]  # one label per deterministic assignment
    system: ConstraintSystem
    result: InferenceResult

    @property
    def feasible(self) -> bool:
        return self.result.status != "infeasible"


def hv_outcome_labels(axes: Sequence[int]) -> tuple[tuple[str, ...], tuple[dict, ...]]:
    """Deterministic assignments: one sign per axis per side."""
    k = len(axes)
    labels = []
    assignments = []
    for signs in iter_product((1, -1), repeat=2 * k):
        side1 = dict(zip(axes, signs[:k]))
        side2 = dict(zip(axes, signs[k:]))
        fmt = lambda side: ",".join("+" if side[a] > 0 else "-" for a in axes)
        labels.append(f"{fmt(side1)};{fmt(side2)}")
        assignments.append({1: side1, 2: side2})
    return tuple(labels), tuple(assignments)


def hv_feasibility(
    correlators: Sequence[tuple[tuple[int, int], int]],
    axes: Sequence[int] = (1, 3),
    marginals: Sequence[tuple[tuple[int, int], int]] = (),
) -> HVReport:
    """Can a local deterministic hidden-variable model match the data?

    ``correlators`` lists ((axis_i, axis_j), value) pairs meaning
    E(axis_i on side 1 times axis_j on side 2) = value; ``marginals`` lists
    ((side, axis), value) single-side expectations.  The unknowns are the
    probabilities of complete deterministic assignments.
    """
    axes = tuple(axes)
    labels, assignments = hv_outcome_labels(axes)
    rows: list[tuple[str, list[int], int]] = []
    for (i, j), value in correlators:
        coeffs = [asn[1][i] * asn[2][j] for asn in assignments]
        rows.append((f"E({i}x{j}) = {value}", coeffs, value))
    for (side, axis), value in marginals:
        coeffs = [asn[side][axis] for asn in assignments]
        rows.append((f"E({axis} on side {side}) = {value}", coeffs, value))
    system = ConstraintSystem.make(labels, rows)
    return HVReport(
        axes=axes, outcomes=labels, system=system, result=infer_probabilities(system)
    )


def state_correlator_constraints(
    state: TwoParticleState, axes: Sequence[int] | None = None
) -> list[tuple[tuple[int, int], int]]:
    """The sign-mapped correlator of every axis pair for a state."""
    axes = tuple(axes) if axes is not None else spin_axes(state.config)
    grid = correlator_grid(state, axes, axes)
    return [((i, j), grid[i, j]) for i in axes for j in axes]


def state_marginal_constraints(
    state: TwoParticleState, axes: Sequence[int] | None = None
) -> list[tuple[tuple[int, int], int]]:
    axes = tuple(axes) if axes is not None else spin_axes(state.config)
    return [
        ((side, axis), single_spin(state, side, axis))
        for side in (1, 2)
        for axis in axes
    ]


# -- measurement-outcome systems for concrete states ---------------------------------


def pair_measurement_system(
    state: TwoParticleState, i: int, j: int, include_marginals: bool = False
) -> ConstraintSystem:
    """Constraints on the four outcome probabilities of measuring a spin pair.

    Always includes the sign-mapped correlator; optionally also the two
    single-side expectations (which can render the system infeasible, a
    finding reported rather than suppressed).
    """
    rows: list[tuple[str, list[int], int]] = []
    corr = [s1 * s2 for s1, s2 in PAIR_SIGNS]
    rows.append((f"E({i}x{j})", corr, correlator(state, i, j)))
    if include_marginals:
        rows.append(
            (f"E({i} on side 1)", [s1 for s1, _ in PAIR_SIGNS], single_spin(state, 1, i))
        )
        rows.append(
            (f"E({j} on side 2)", [s2 for _, s2 in PAIR_SIGNS], single_spin(state, 2, j))
        )
    return ConstraintSystem.make(PAIR_OUTCOMES, rows)


def single_measurement_system(config: FieldConfig, state_label: str, axis: int) -> ConstraintSystem:
    """Constraints on the two outcome probabilities of one spin measurement."""
    state = named_states(config)[state_label]
    meas = expectation(state, spin_observable(config, axis))
    return ConstraintSystem.make(
        ("+", "-"),
        [(f"E({axis})", [1, -1], meas.expectation)],
    )


# -- the canonical (complex quantum mechanics) side ----------------------------------


# Gaussian integers are (re, im) int pairs.  The Pauli matrices and the
# unnormalized ``REPRESENTATIVES`` have integer entries; every bracket is
# divided by <psi|psi> once, as the last step, so the 1/sqrt(2) and 1/2
# prefactors never need to be written down.
_CANONICAL_PAULI: dict[int, tuple[tuple[tuple[int, int], ...], ...]] = {
    1: (((0, 0), (1, 0)), ((1, 0), (0, 0))),
    2: (((0, 0), (0, -1)), ((0, 1), (0, 0))),
    3: (((1, 0), (0, 0)), ((0, 0), (-1, 0))),
}


def _canonical_norm(psi: tuple[tuple[int, int], ...]) -> int:
    return sum(re * re + im * im for re, im in psi)


def canonical_correlator(label: str, i: int, j: int) -> Fraction:
    """<psi| sigma_i x sigma_j |psi> in ordinary quantum mechanics, exactly.

    The row-major Kronecker product sends psi to w with
    w[2ra + rb] = sum of sigma_i[ra][ca] sigma_j[rb][cb] psi[2ca + cb];
    conj(psi) . w and the norm are Gaussian-integer sums, divided once.
    """
    psi = REPRESENTATIVES[label]
    a, b = _CANONICAL_PAULI[i], _CANONICAL_PAULI[j]
    total_re = total_im = 0
    for r, (ur, ui) in enumerate(psi):
        row_a, row_b = a[r // 2], b[r % 2]
        wr = wi = 0
        for c, (vr, vi) in enumerate(psi):
            (xr, xi), (yr, yi) = row_a[c // 2], row_b[c % 2]
            mr, mi = xr * yr - xi * yi, xr * yi + xi * yr
            wr += mr * vr - mi * vi
            wi += mr * vi + mi * vr
        total_re += ur * wr + ui * wi
        total_im += ur * wi - ui * wr
    if total_im:
        raise AssertionError("correlator came out complex")
    return Fraction(total_re, _canonical_norm(psi))


def canonical_pair_probabilities(label: str) -> tuple[Fraction, ...]:
    """Outcome probabilities of the axis-3 pair measurement (Born rule)."""
    psi = REPRESENTATIVES[label]
    norm = _canonical_norm(psi)
    return tuple(Fraction(re * re + im * im, norm) for re, im in psi)


@dataclass(frozen=True)
class Table4Row:
    state: str
    probabilities: tuple[Fraction, ...]  # ++, +-, -+, --
    expectation: Fraction


def table4_report() -> tuple[Table4Row, ...]:
    """Axis-3 pair outcome probabilities for the canonical representatives."""
    out = []
    for label in ("S", "T", "U"):
        probs = canonical_pair_probabilities(label)
        ev = sum(
            (Fraction(s1 * s2) * p for (s1, s2), p in zip(PAIR_SIGNS, probs)),
            Fraction(0),
        )
        if ev != canonical_correlator(label, 3, 3):
            raise AssertionError("Born-rule expectation disagrees with the bracket")
        out.append(Table4Row(state=label, probabilities=probs, expectation=ev))
    return tuple(out)


# -- Galois <-> canonical correspondence ----------------------------------------------


@dataclass(frozen=True)
class CorrespondenceEntry:
    state: str
    axes: tuple[int, int]
    galois: str  # the bracket's field value as text
    sign: int  # its sign-mapped value
    canonical: Fraction
    matched: bool


@dataclass(frozen=True)
class CorrespondenceReport:
    entries: tuple[CorrespondenceEntry, ...]
    ok: bool


def correspondence_check(config: FieldConfig | None = None) -> CorrespondenceReport:
    """Match Galois correlator brackets against canonical correlators.

    For the singlet the sign-mapped bracket equals the canonical value
    exactly.  For T and U the field values correspond through
    -1 <-> +1/2, +1 <-> -1/2, 0 <-> 0, across all nine axis pairs.
    """
    config = config or FieldConfig(3, 2)
    if not config.is_extension or config.p != 3:
        raise ValueError("the correspondence is defined against GF(9)")
    reps = representative_states(config)
    half = Fraction(1, 2)
    entries = []
    for label in ("S", "T", "U"):
        state = reps[label]
        for i in spin_axes(config):
            for j in spin_axes(config):
                value = bracket(state.state, product_spin(config, i, j))
                sign = phi_map(value)
                canonical = canonical_correlator(label, i, j)
                if label == "S":
                    matched = canonical == Fraction(sign)
                else:
                    matched = canonical == {1: -half, -1: half, 0: Fraction(0)}[sign]
                entries.append(CorrespondenceEntry(
                    state=label, axes=(i, j), galois=str(value), sign=sign,
                    canonical=canonical, matched=matched))
    return CorrespondenceReport(entries=tuple(entries), ok=all(e.matched for e in entries))
