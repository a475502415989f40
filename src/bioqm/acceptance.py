"""Reproduction checks for the package's headline results.

Each criterion recomputes one claim from scratch through the public API and
compares it against frozen reference values; the reference tables below were
derived by hand evaluation of the defining brackets and by independent
enumeration before being recorded here.  ``run_all`` times every criterion
against its stated wall-clock budget.  The command line exposes this as
``bioqm --seed-check``.
"""

from __future__ import annotations

import random
import sys
import time
from functools import cache, partial
from fractions import Fraction
from typing import Callable

from .gf import (FieldConfig, Record, is_prime, phi_map, preserves_products, residue_sign,
                 verify_phi_uniqueness)
from .linear import StateVector, canonicalize, dot, mat_neg
from .biortho import (
    bracket,
    expectation,
    named_states,
    physical_states,
    spin_axes,
    spin_observable,
    table_report,
)
from .entangle import (
    axis_quadruples,
    census,
    chsh,
    chsh_bound,
    chsh_scan,
    correlator_grid,
    from_product,
    product_spin,
    representative_states,
)
from .exactlp import verify_farkas
from .groups import (
    burnside_count,
    conjugacy_classes,
    enumerate_group,
    orbits,
    verify_isomorphism,
)
from .inference import (
    correspondence_check,
    hv_feasibility,
    infer_probabilities,
    moment_system,
    pair_measurement_system,
    state_correlator_constraints,
    table4_report,
)

# -- frozen reference values --------------------------------------------------------

# (expectation, variance) per axis, axes in the order reported by spin_axes
TABLE1_EXPECTED = {
    "a": ((0, 1), (1, 0)),
    "b": ((0, 1), (-1, 0)),
    "c": ((1, 0), (0, 1)),
    "d": ((-1, 0), (0, 1)),
}
TABLE2_EXPECTED = {
    "a": ((0, 1), (0, 1), (1, 0)),
    "b": ((0, 1), (0, 1), (-1, 0)),
    "c": ((1, 0), (0, 1), (0, 1)),
    "d": ((-1, 0), (0, 1), (0, 1)),
    "e": ((0, 1), (1, 0), (0, 1)),
    "f": ((0, 1), (-1, 0), (0, 1)),
}

CHSH_1331_EXPECTED = {"S": -2, "T": -3, "U": -4}

SCAN_EXPECTED = {
    "S": {0: 6, 1: 24, 2: 6, 3: 0, 4: 0},
    "T": {0: 6, 1: 18, 2: 6, 3: 6, 4: 0},
    "U": {0: 12, 1: 12, 2: 4, 3: 4, 4: 4},
}

BOUND_EXPECTED = {(3, 1): 2, (3, 2): 4}
PHYSICAL_PAIR_COUNT = {(3, 1): 24, (3, 2): 540}

CENSUS_EXPECTED = {
    (3, 1): {
        "states": 40,
        "product": 16,
        "product_physical": 16,
        "product_self_orthogonal": 0,
        "entangled": 24,
        "entangled_physical": 8,
        "entangled_self_orthogonal": 16,
    },
    (3, 2): {
        "states": 820,
        "product": 100,
        "product_physical": 36,
        "product_self_orthogonal": 64,
        "entangled": 720,
        "entangled_physical": 504,
        "entangled_self_orthogonal": 216,
    },
}

# label -> matrix rows; entries are re or (re, im), projective scale free
ORDER8_REFERENCE = {
    "e": ((1, 0), (0, 1)),
    "(ab)": ((0, 1), (1, 0)),
    "(cd)": ((1, 0), (0, -1)),
    "(ab)(cd)": ((0, -1), (1, 0)),
    "(ac)(bd)": ((1, 1), (1, -1)),
    "(ad)(bc)": ((-1, 1), (1, 1)),
    "(acbd)": ((1, -1), (1, 1)),
    "(adbc)": ((1, 1), (-1, 1)),
}
ORDER8_SIGNS = {
    "e": 1,
    "(ab)": 1,
    "(cd)": 1,
    "(ab)(cd)": 1,
    "(ac)(bd)": -1,
    "(ad)(bc)": -1,
    "(acbd)": -1,
    "(adbc)": -1,
}

ORDER24_REFERENCE = {
    "e": ((1, 0), (0, 1)),
    "(ab)(ef)": ((0, 1), (1, 0)),
    "(cd)(ef)": ((1, 0), (0, -1)),
    "(ab)(cd)": ((0, -1), (1, 0)),
    "(acbd)": ((1, -1), (1, 1)),
    "(ac)(bd)(ef)": ((1, 1), (1, -1)),
    "(adbc)": ((1, 1), (-1, 1)),
    "(ad)(bc)(ef)": ((-1, 1), (1, 1)),
    "(aebf)": ((1, (0, 1)), ((0, 1), 1)),
    "(ae)(bf)(cd)": ((1, (0, -1)), ((0, 1), -1)),
    "(afbe)": ((1, (0, -1)), ((0, -1), 1)),
    "(af)(be)(cd)": ((1, (0, 1)), ((0, -1), -1)),
    "(cedf)": ((1, 0), (0, (0, 1))),
    "(ab)(ce)(df)": ((0, (0, -1)), (1, 0)),
    "(cfde)": ((1, 0), (0, (0, -1))),
    "(ab)(cf)(de)": ((0, (0, 1)), (1, 0)),
    "(ace)(bdf)": ((1, (0, -1)), (1, (0, 1))),
    "(adf)(bce)": ((1, (0, 1)), (-1, (0, 1))),
    "(acf)(bde)": ((1, (0, 1)), (1, (0, -1))),
    "(ade)(bcf)": ((-1, (0, 1)), (1, (0, 1))),
    "(aec)(bfd)": ((1, 1), ((0, 1), (0, -1))),
    "(afd)(bec)": ((-1, 1), ((0, 1), (0, 1))),
    "(aed)(bfc)": ((1, -1), ((0, 1), (0, 1))),
    "(afc)(bed)": ((1, 1), ((0, -1), (0, 1))),
}
ORDER24_POSITIVE = {
    "e",
    "(ab)(ef)",
    "(cd)(ef)",
    "(ab)(cd)",
    "(cedf)",
    "(cfde)",
    "(ab)(ce)(df)",
    "(ab)(cf)(de)",
}

GLOBAL_ORBIT_SIZES = {24: 17, 12: 4, 8: 4, 6: 2, 3: 1, 1: 1}
LOCAL_ORBIT_SIZES = {24, 192, 288}

SINGLET_MIMIC_SUPPORT = ("+,+;-,-", "+,-;-,+", "-,+;+,-", "-,-;+,+")

PAIR_IDENTITIES_EXPECTED = {
    "T": ("P(++) + P(--) = 1/2", "P(+-) + P(-+) = 1/2"),
    "U": ("P(++) + P(--) = 0", "P(+-) + P(-+) = 1"),
}
FORCED_ZERO_EXPECTED = {"T": (), "U": ("++", "--")}

TABLE4_EXPECTED = {
    "S": ((0, Fraction(1, 2), Fraction(1, 2), 0), Fraction(-1)),
    "T": ((Fraction(1, 4), 0, Fraction(1, 2), Fraction(1, 4)), Fraction(0)),
    "U": ((Fraction(1, 4), 0, Fraction(1, 4), Fraction(1, 2)), Fraction(1, 2)),
}

UNIQUENESS_PRIMES = (3, 7, 11, 19)
PRODUCT_CHECK_LIMIT = 199


# -- criteria -----------------------------------------------------------------------


def _check_table(config: FieldConfig, expected) -> str:
    report = table_report(config)
    assert len(report.rows) == len(expected), "unexpected number of physical states"
    for row in report.rows:
        cells = tuple((m.expectation, m.variance) for m in row.cells)
        assert cells == expected[row.label], f"state {row.label}: {cells}"
    return f"{len(report.rows)} states x {len(report.axes)} observables match"


def _criterion_1() -> str:
    return _check_table(FieldConfig(3, 1), TABLE1_EXPECTED)


def _criterion_2() -> str:
    return _check_table(FieldConfig(3, 2), TABLE2_EXPECTED)


def _criterion_3() -> str:
    reps = representative_states(FieldConfig(3, 2))
    values = {}
    for label, state in sorted(reps.items()):
        record = chsh(state, 1, 3, 3, 1, label=label)
        assert record.value == CHSH_1331_EXPECTED[label], f"{label}: {record.value}"
        values[label] = record.value
    return "C_1331: " + " ".join(f"{k}={v}" for k, v in sorted(values.items()))


def _criterion_4() -> str:
    reps = representative_states(FieldConfig(3, 2))
    for label, state in reps.items():
        hist = chsh_scan(state)
        assert hist == SCAN_EXPECTED[label], f"{label}: {hist}"
    return "histograms match for " + ", ".join(sorted(reps))


def _criterion_5() -> str:
    pieces = []
    for degree in (1, 2):
        config = FieldConfig(3, degree)
        result = chsh_bound(config)
        key = (3, degree)
        assert result.bound == BOUND_EXPECTED[key], f"GF({3 ** degree}): {result.bound}"
        assert result.states_scanned == PHYSICAL_PAIR_COUNT[key], (
            f"GF({3 ** degree}) scanned {result.states_scanned} states"
        )
        pieces.append(f"GF({3 ** degree})={result.bound} over {result.states_scanned} states")
    return "; ".join(pieces)


def _criterion_6() -> str:
    for degree in (1, 2):
        counts = census(FieldConfig(3, degree)).counts()
        assert counts == CENSUS_EXPECTED[(3, degree)], f"degree {degree}: {counts}"
    return "both censuses match"


def _criterion_7() -> str:
    details = []
    for degree, reference, signs, classes_expected, name in (
        (1, ORDER8_REFERENCE, ORDER8_SIGNS, (1, 1, 2, 2, 2), "D4"),
        (2, ORDER24_REFERENCE, None, (1, 3, 6, 6, 8), "S4"),
    ):
        config = FieldConfig(3, degree)
        group = enumerate_group(config)
        assert group.order == len(reference), f"order {group.order}"
        assert set(group.by_label) == set(reference), "label set mismatch"
        for label, rows in reference.items():
            want = canonicalize(StateVector.make(config, [*rows[0], *rows[1]])).rep.components
            assert sum(group.by_label[label].matrix, ()) == want, f"matrix for {label}"
        if signs is None:
            signs = {
                label: (1 if label in ORDER24_POSITIVE else -1) for label in reference
            }
        for label, sign in signs.items():
            assert group.by_label[label].sign == sign, f"sign for {label}"
        sizes = tuple(sorted(len(c) for c in conjugacy_classes(group)))
        assert sizes == classes_expected, f"class sizes {sizes}"
        report = verify_isomorphism(group)
        assert report.name == name and report.verified, report
        details.append(f"order {group.order} = {name}")
    return "; ".join(details)


def _criterion_8() -> str:
    config = FieldConfig(3, 2)
    local = orbits(config, "local")
    assert {o.size for o in local} == LOCAL_ORBIT_SIZES, sorted(o.size for o in local)
    global_ = orbits(config, "global")
    sizes = {}
    for orbit in global_:
        sizes[orbit.size] = sizes.get(orbit.size, 0) + 1
    assert sizes == GLOBAL_ORBIT_SIZES, sizes
    for mode, found in (("local", local), ("global", global_)):
        assert burnside_count(config, mode) == len(found), mode
        for orbit in found:
            assert orbit.stabilizer_order * orbit.size == orbit.acting_order, orbit
    return f"local sizes {sorted(o.size for o in local)}, {len(global_)} global orbits"


def _criterion_9() -> str:
    config = FieldConfig(3, 2)
    reps = representative_states(config)
    half = Fraction(1, 2)

    singlet = hv_feasibility(state_correlator_constraints(reps["S"], (1, 3)))
    assert singlet.feasible, "singlet mimic should exist"
    witness = dict(zip(singlet.outcomes, singlet.result.witness))
    for row in singlet.system.constraints:
        total = sum(c * w for c, w in zip(row.coeffs, singlet.result.witness))
        assert total == row.rhs, f"witness violates {row.label}"
    for outcome, mass in witness.items():
        if outcome not in SINGLET_MIMIC_SUPPORT:
            assert mass == 0, f"mass outside anti-correlated support: {outcome}"
    assert witness["+,+;-,-"] + witness["-,-;+,+"] == half
    assert witness["+,-;-,+"] + witness["-,+;+,-"] == half

    for label in ("T", "U"):
        rep = hv_feasibility(state_correlator_constraints(reps[label], (1, 3)))
        assert not rep.feasible, f"{label} mimic should not exist"
        rows, rhs, _ = rep.system.full_rows()
        assert rep.result.certificate is not None
        assert verify_farkas(rows, rhs, rep.result.certificate), label
    return "singlet mimic found; T and U certificates verified"


def _criterion_10() -> str:
    config = FieldConfig(3, 2)
    reps = representative_states(config)
    for label in ("T", "U"):
        result = infer_probabilities(pair_measurement_system(reps[label], 3, 3))
        assert result.status == "indeterminate", f"{label}: {result.status}"
        texts = tuple(identity.text for identity in result.identities)
        assert texts == PAIR_IDENTITIES_EXPECTED[label], f"{label}: {texts}"
        assert result.forced_zero == FORCED_ZERO_EXPECTED[label], label
    moments = moment_system([1, -1, -1, 1], max_power=4)
    assert moments.indeterminacy == 2, moments.indeterminacy
    return "T and U indeterminate with the expected identities; moment gap 2"


def _criterion_11() -> str:
    for row in table4_report():
        probs, value = TABLE4_EXPECTED[row.state]
        assert row.probabilities == tuple(Fraction(x) for x in probs), row
        assert row.expectation == value, row
    report = correspondence_check()
    assert report.ok and len(report.entries) == 27
    return "probability table exact; 27 correspondence entries consistent"


def _criterion_12() -> str:
    for p in UNIQUENESS_PRIMES:
        report = verify_phi_uniqueness(p)
        assert report.unique and report.matches_phi_map, f"p={p}: {report}"
        assert report.generator_independent, f"p={p}"
    primes = list(filter(is_prime, range(3, PRODUCT_CHECK_LIMIT + 1, 4)))  # all 3 mod 4
    for p in primes:
        assert preserves_products(p, [residue_sign(x, p) for x in range(p)]), p
    return f"uniqueness at p in {UNIQUENESS_PRIMES}; products preserved for {len(primes)} primes"


def signed_correlator(state, first, second) -> int:
    """The correlator of signed axes (sign, axis) on each side, by the object path.

    A side whose sign is -1 measures the negated spin observable.  This goes
    through ``bracket`` on the 4x4 product matrix, independent of the
    integer-residue kernel behind ``correlator`` and ``chsh``.
    """
    (sign1, i), (sign2, j) = first, second
    matrix = product_spin(state.config, i, j)
    if sign1 * sign2 < 0:
        matrix = mat_neg(matrix)
    return phi_map(bracket(state.state, matrix))


def signed_chsh(correlate, A, a, B, b) -> int:
    """CHSH from signed axes (sign, axis) in each slot: E(A,B) + E(A,b) +
    E(a,B) - E(a,b) with E = correlate, a function of two signed axes."""
    return correlate(A, B) + correlate(A, b) + correlate(a, B) - correlate(a, b)


def _random_vector(config: FieldConfig, rng: random.Random, dim: int = 2) -> StateVector:
    while True:
        entries = [
            (rng.randrange(config.p), rng.randrange(config.p) if config.is_extension else 0)
            for _ in range(dim)
        ]
        v = StateVector.make(config, entries)
        if not v.is_zero:
            return v


def _physical_pool(config: FieldConfig, rng: random.Random, count: int):
    pool = []
    while len(pool) < count:
        v = _random_vector(config, rng)
        if not dot(v, v).is_zero:
            pool.append(v)
    return pool


def _single_signs(config: FieldConfig, vectors) -> list[dict[int, int]]:
    """phi(<x|spin_i|x>) for each vector x, keyed by axis i, by the object path."""
    observables = {i: spin_observable(config, i) for i in spin_axes(config)}
    return [{i: phi_map(bracket(x, obs)) for i, obs in observables.items()} for x in vectors]


def _criterion_13() -> str:
    rng = random.Random(20240816)
    checks = 0

    for p, degree in ((3, 1), (3, 2), (7, 1), (11, 1)):
        config = FieldConfig(p, degree)
        exhaustive = p == 3
        if exhaustive:
            scalars = list(config.elements())
            vectors = [
                StateVector.make(config, [x, y])
                for x in config.elements()
                for y in config.elements()
                if not (x.is_zero and y.is_zero)
            ]
            sample = vectors if degree == 1 else vectors[:40]
        else:
            scalars = [config.element(rng.randrange(p)) for _ in range(6)]
            sample = [_random_vector(config, rng) for _ in range(25)]

        # conjugate symmetry and sesquilinearity of the dot product; each
        # vector's scalings, each pair's dot(a, b) and each conj(alpha) are
        # computed once
        alphas = scalars[:3]
        conj_alphas = [alpha.frobenius() for alpha in alphas]
        scaled = [[v.scale(alpha) for alpha in alphas] for v in sample]
        half = len(sample) // 2 or 1
        for a, a_scaled in zip(sample, scaled):
            for b, b_scaled in zip(sample[:half], scaled):
                ab = dot(a, b)
                assert ab == dot(b, a).frobenius()
                checks += 1
                for alpha, conj_alpha, a_alpha, b_alpha in zip(alphas, conj_alphas, a_scaled,
                                                                b_scaled):
                    assert dot(a_alpha, b) == conj_alpha * ab
                    assert dot(a, b_alpha) == alpha * ab
                    checks += 2

        # Frobenius is an involution fixing the prime subfield
        for x in (config.elements() if exhaustive else scalars):
            assert x.frobenius().frobenius() == x
            checks += 1

        # phase invariance of brackets, zero variance on eigenstates
        axes = spin_axes(config)
        for axis in axes:
            obs = spin_observable(config, axis)
            for state in physical_states(config):
                value = bracket(state, obs)
                for c in scalars:
                    if c.is_zero:
                        continue
                    assert bracket(state.rep.scale(c), obs) == value
                    checks += 1
        for label, state in named_states(config).items():
            for axis in axes:
                meas = expectation(state, spin_observable(config, axis))
                if abs(meas.expectation) == 1:
                    assert meas.variance == 0, (label, axis)
                checks += 1

    # CHSH sign identities, then factorization of product correlators:
    # exhaustive over GF(3) and GF(9), on random pairs for larger primes.
    # Each object-path reference value (a signed correlator per
    # representative and signed axis pair, a single-particle sign per vector
    # and axis) is computed once and read by every check that needs it.
    for config in (FieldConfig(3, 1), FieldConfig(3, 2)):
        for state in representative_states(config).values():
            correlate = cache(partial(signed_correlator, state))
            for A, a, B, b in axis_quadruples(config):
                base = chsh(state, A, a, B, b).value
                assert base == signed_chsh(correlate, (1, A), (1, a), (1, B), (1, b))
                assert base == signed_chsh(correlate, (1, A), (-1, a), (1, b), (1, B))
                assert base == -signed_chsh(correlate, (-1, A), (1, a), (1, b), (1, B))
                assert base == signed_chsh(correlate, (1, a), (1, A), (1, B), (-1, b))
                assert base == -signed_chsh(correlate, (1, a), (1, A), (-1, B), (1, b))
                checks += 5

    for p, degree in ((3, 1), (3, 2), (7, 1), (11, 1)):
        config = FieldConfig(p, degree)
        axes = spin_axes(config)
        if p == 3:
            lefts = rights = [s.rep for s in physical_states(config)]
        else:
            lefts = _physical_pool(config, rng, 10)
            rights = lefts[:5]
        signs = _single_signs(config, lefts)
        for x, x_signs in zip(lefts, signs):
            for y, y_signs in zip(rights, signs):
                grid = correlator_grid(from_product(x, y), axes, axes)
                for i in axes:
                    for j in axes:
                        assert grid[i, j] == x_signs[i] * y_signs[j], (i, j)
                        checks += 1

    return f"{checks} property checks passed"


# -- runner -------------------------------------------------------------------------


class CriterionResult(Record):
    number: int
    name: str
    passed: bool
    elapsed: float
    limit: float
    detail: str

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (
            f"{mark} {self.number:2d}. {self.name}"
            f" ({self.elapsed:.2f}s / limit {self.limit:.0f}s): {self.detail}"
        )


CRITERIA: tuple[tuple[str, float, Callable[[], str]], ...] = (
    ("expectation table over GF(3)", 1.0, _criterion_1),
    ("expectation table over GF(9)", 1.0, _criterion_2),
    ("named CHSH correlators", 1.0, _criterion_3),
    ("CHSH scan histograms", 1.0, _criterion_4),
    ("CHSH bounds by exhaustive scan", 120.0, _criterion_5),
    ("two-particle state censuses", 60.0, _criterion_6),
    ("projective group structure", 5.0, _criterion_7),
    ("orbit decompositions", 120.0, _criterion_8),
    ("hidden-variable mimicry", 5.0, _criterion_9),
    ("probability indeterminacy", 1.0, _criterion_10),
    ("reference probability table", 1.0, _criterion_11),
    ("sign-map uniqueness", 10.0, _criterion_12),
    ("algebraic property suite", 120.0, _criterion_13),
)


def run_criterion(number: int) -> CriterionResult:
    name, limit, func = CRITERIA[number - 1]
    if sys.flags.optimize:  # -O strips every assert a criterion checks with
        return CriterionResult(number=number, name=name, passed=False, elapsed=0.0,
                               limit=limit, detail="not run: python -O strips its assert checks")
    start = time.perf_counter()
    try:
        detail = func()
        passed = True
    except AssertionError as exc:
        detail = f"assertion failed: {exc}"
        passed = False
    except Exception as exc:  # one broken criterion fails alone; the rest still run
        detail = f"error: {type(exc).__name__}: {exc}"
        passed = False
    elapsed = time.perf_counter() - start
    if passed and elapsed > limit:
        passed = False
        detail += f" (exceeded {limit:.0f}s budget)"
    return CriterionResult(
        number=number,
        name=name,
        passed=passed,
        elapsed=elapsed,
        limit=limit,
        detail=detail,
    )


def run_all(numbers=None) -> list[CriterionResult]:
    chosen = numbers or range(1, len(CRITERIA) + 1)
    return [run_criterion(n) for n in chosen]
