"""Exact rational row reduction and the small simplex solver."""

import copy
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from bioqm import FieldConfig, exactlp, representative_states
from bioqm.exactlp import (
    LPResult,
    LPSystem,
    rref,
    solve_lp,
    verify_farkas,
)
from bioqm.inference import (
    ConstraintSystem,
    hv_feasibility,
    infer_probabilities,
    pair_measurement_system,
    state_correlator_constraints,
    state_marginal_constraints,
)

F = Fraction


def test_rref_identity_like_system():
    result = rref([[1, 2], [3, 4]], [5, 6])
    assert result.rank == 2
    assert result.consistent
    assert result.pivots == (0, 1)
    assert result.rows == ((F(1), F(0)), (F(0), F(1)))
    assert result.rhs == (F(-4), F(9, 2))  # x = -4, y = 9/2


def test_rref_detects_inconsistency():
    result = rref([[1, 1], [2, 2]], [1, 3])
    assert not result.consistent
    assert result.rank == 1


def test_rref_drops_redundant_rows():
    result = rref([[1, 1], [2, 2]], [1, 2])
    assert result.consistent
    assert result.rank == 1
    assert result.rows == ((F(1), F(1)),)
    assert result.rhs == (F(1),)


def test_rref_with_fraction_input():
    result = rref([[F(1, 2), F(1, 3)]], [F(1, 6)])
    assert result.rows == ((F(1), F(2, 3)),)
    assert result.rhs == (F(1, 3),)  # 1/6 divided by 1/2


def test_solve_lp_known_minimum():
    # minimize x + y with x + y = 1: any vertex gives 1
    result = solve_lp([1, 1], [[1, 1]], [1])
    assert result.status == "optimal"
    assert result.objective == 1
    assert sum(result.solution) == 1
    assert all(x >= 0 for x in result.solution)


def test_solve_lp_picks_the_cheap_vertex():
    # minimize 2x + y with x + y = 1: put everything on y
    result = solve_lp([2, 1], [[1, 1]], [1])
    assert result.objective == 1
    assert result.solution == (F(0), F(1))


def test_solve_lp_maximize():
    # maximize x subject to x + y = 1, x - y = 0: forces x = 1/2
    result = solve_lp([1, 0], [[1, 1], [1, -1]], [1, 0], maximize=True)
    assert result.status == "optimal"
    assert result.objective == F(1, 2)
    assert result.solution == (F(1, 2), F(1, 2))


def test_solve_lp_range_of_a_coordinate():
    # with only normalization on three variables each coordinate spans [0, 1]
    rows, rhs = [[1, 1, 1]], [1]
    low = solve_lp([1, 0, 0], rows, rhs)
    high = solve_lp([1, 0, 0], rows, rhs, maximize=True)
    assert (low.objective, high.objective) == (F(0), F(1))


def test_infeasible_with_verified_certificate():
    # x + y = 1 and x + y = 2 cannot both hold
    rows, rhs = [[1, 1], [1, 1]], [1, 2]
    result = solve_lp([0, 0], rows, rhs)
    assert result.status == "infeasible"
    assert result.solution is None
    assert verify_farkas(rows, rhs, result.certificate)


def test_infeasible_by_sign_obstruction():
    # x + y = -1 has no nonnegative solution
    rows, rhs = [[1, 1]], [-1]
    result = solve_lp([0, 0], rows, rhs)
    assert result.status == "infeasible"
    assert verify_farkas(rows, rhs, result.certificate)


def test_tampered_certificate_fails_replay():
    rows, rhs = [[1, 1], [1, 1]], [1, 2]
    result = solve_lp([0, 0], rows, rhs)
    y = list(result.certificate)
    y[0] = y[0] + 1 if y[0] <= 0 else -y[0]
    bad = tuple(y)
    assert verify_farkas(rows, rhs, result.certificate)
    assert not verify_farkas(rows, rhs, bad)
    # zeroing the certificate kills the strict inequality y . b > 0
    assert not verify_farkas(rows, rhs, (F(0), F(0)))


def test_feasible_point_replays():
    rows = [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0]]
    rhs = [F(1, 2), F(1, 2), F(1, 4)]
    result = solve_lp([0, 0, 0, 0], rows, rhs)
    assert result.status == "optimal"
    for row, target in zip(rows, rhs):
        assert sum(F(a) * x for a, x in zip(row, result.solution)) == target
    assert all(x >= 0 for x in result.solution)


def test_redundant_rows_are_harmless():
    rows = [[1, 1], [2, 2], [1, 1]]
    rhs = [1, 2, 1]
    result = solve_lp([1, 0], rows, rhs)
    assert result.status == "optimal"
    assert result.objective == 0
    assert result.solution == (F(0), F(1))


def test_unbounded_direction_is_reported():
    # maximize x + y with the single constraint x - y = 0: x = y = t grows
    result = solve_lp([1, 1], [[1, -1]], [0], maximize=True)
    assert result.status == "unbounded"
    assert result.objective is None


def test_solve_lp_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        solve_lp([1], [[1, 1]], [1])


def test_solve_lp_rejects_row_rhs_mismatch():
    # a short rhs must not silently drop the second constraint
    with pytest.raises(ValueError, match="row/rhs length mismatch"):
        solve_lp([1, 0], [[1, 1], [1, 0]], [1])
    with pytest.raises(ValueError, match="row/rhs length mismatch"):
        LPSystem([[1, 1]], [1, 2], 2)


def test_certificate_needs_one_multiplier_per_row():
    rows, rhs = [[1, 1], [1, 1]], [1, 2]
    assert verify_farkas(rows, rhs, (F(-1), F(1)))
    assert not verify_farkas(rows, rhs, (F(-1), F(1), F(99)))
    assert not verify_farkas(rows, rhs, (F(-1),))


@pytest.mark.parametrize(
    "rows, rhs, y", [([[1, 1]], [1, 2], [1]), ([[-1], [-1]], [1], [1, 1])], ids=["long", "short"]
)
def test_certificate_replay_rejects_a_rhs_of_the_wrong_length(rows, rhs, y):
    # a short rhs must not drop a row's right side from y.b and pass the replay
    with pytest.raises(ValueError, match="row/rhs length mismatch"):
        verify_farkas(rows, rhs, y)


def test_lp_system_answers_each_objective_from_one_phase1():
    lp = LPSystem([[1, 1, 1]], [1], 3)
    results = [lp.solve(c) for c in ([1, 0, 0], [-1, 0, 0], [0, 2, 1])]
    assert [r.objective for r in results] == [F(0), F(-1), F(0)]
    assert results[2].solution == (F(1), F(0), F(0))
    lp = LPSystem([[1, 1], [1, 1]], [1, 2], 2)
    infeasible = [lp.solve(c) for c in ([1, 0], [0, 1])]
    assert [r.status for r in infeasible] == ["infeasible"] * 2
    assert infeasible[0] == infeasible[1]


def test_lp_system_ranges_without_a_normalization_row():
    # x0 and x1 are twins; no row is a multiple of the all-ones row
    feasible, ranges = LPSystem([[1, 1, 2]], [2], 3).ranges()
    assert feasible.solution == (F(2), F(0), F(0))
    assert ranges == ((F(0), F(2)), (F(0), F(2)), (F(0), F(1)))
    # the total is 1 here, but x2 >= 1 - 1/2 - 1/2 = 0 leaves x2's min LP to run
    _, ranges = LPSystem([[2, 2, 2], [1, 1, 0]], [2, F(1, 2)], 3).ranges()
    assert ranges == ((F(0), F(1, 2)), (F(0), F(1, 2)), (F(1, 2), F(1, 2)))
    with pytest.raises(ValueError, match="unbounded"):
        LPSystem([[1, -1]], [0], 2).ranges()


def test_integer_row_scales_only_by_the_fraction_denominators():
    assert exactlp._integer_row([1, F(1, 2), -3, F(2, 3)]) == ([6, 3, -18, 4], 6)
    assert exactlp._integer_row([2, F(-4, 2), "1/3"]) == ([6, -6, 1], 3)
    row = [1, -1, 0]
    ints, scale = exactlp._integer_row(row)
    assert ints == row and ints is not row and scale == 1


def test_a_solve_leaves_the_callers_int_rows_alone():
    # the second row's right side is negative, so phase 1 negates its copy
    rows, rhs, objective = [[1, 1, 1], [1, -1, 0]], [1, -1], [1, 0, 2]
    before = copy.deepcopy((rows, rhs, objective))
    lp = LPSystem(rows, rhs, 3)
    lp.ranges()
    lp.solve(objective)
    lp.reduction()
    solve_lp(objective, rows, rhs, maximize=True)
    rref(rows, rhs)
    assert (rows, rhs, objective) == before


def test_reduction_reads_the_rows_as_given():
    # phase 1 negates the second row, whose right side is negative; the
    # reduction eliminates on the rows as given, as rref does
    lp = LPSystem([[1, 1], [1, -1]], [1, -1], 2)
    work, pivots = lp.reduction()
    assert pivots == [0, 1] and work == [[-1, 0, 0], [0, -1, -1]]
    exact = rref([[1, 1], [1, -1]], [1, -1])
    assert [[F(a, row[col]) for a in row] for row, col in zip(work, pivots)] == [
        [*r, b] for r, b in zip(exact.rows, exact.rhs)
    ]


# -- reference: Gauss-Jordan over Fraction --------------------------------------


def reference_rref(rows, rhs):
    work = [[F(x) for x in row] for row in rows]
    b = [F(x) for x in rhs]
    n_cols = len(work[0]) if work else 0
    pivots = []
    rank = 0
    for col in range(n_cols):
        pivot_row = next(
            (r for r in range(rank, len(work)) if work[r][col] != 0), None
        )
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        b[rank], b[pivot_row] = b[pivot_row], b[rank]
        inv = 1 / work[rank][col]
        work[rank] = [x * inv for x in work[rank]]
        b[rank] *= inv
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
                b[r] -= f * b[rank]
        pivots.append(col)
        rank += 1
    return exactlp.RREFResult(
        rows=tuple(tuple(work[r]) for r in range(rank)),
        rhs=tuple(b[:rank]),
        pivots=tuple(pivots),
        rank=rank,
        consistent=all(b[r] == 0 for r in range(rank, len(work))),
    )


# -- reference: one phase 1 per objective, reduced costs summed per column scan ---


class _ReferenceTableau:
    def __init__(self, rows, b, n_real):
        self.m = len(rows)
        self.n_real = n_real
        self.t = [
            rows[i] + [F(int(i == j)) for j in range(self.m)] + [b[i]]
            for i in range(self.m)
        ]
        self.basis = [n_real + i for i in range(self.m)]

    def copy(self):
        twin = copy.copy(self)
        twin.t = self.t[:]  # rows are replaced by pivots, never changed in place
        twin.basis = self.basis[:]
        return twin

    def pivot(self, row, col):
        inv = 1 / self.t[row][col]
        self.t[row] = [x * inv for x in self.t[row]]
        for r in range(self.m):
            if r != row and self.t[r][col] != 0:
                f = self.t[r][col]
                self.t[r] = [a - f * p for a, p in zip(self.t[r], self.t[row])]
        self.basis[row] = col

    def reduced_cost(self, costs, j):
        return costs[j] - sum(
            costs[self.basis[i]] * self.t[i][j] for i in range(self.m)
        )

    def run(self, costs, columns):
        while True:
            entering = next(
                (j for j in columns if self.reduced_cost(costs, j) < 0), None
            )
            if entering is None:
                return "optimal"
            leaving, best = None, None
            for i in range(self.m):
                coeff = self.t[i][entering]
                if coeff > 0:
                    ratio = self.t[i][-1] / coeff
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and self.basis[i] < self.basis[leaving])
                    ):
                        best, leaving = ratio, i
            if leaving is None:
                return "unbounded"
            self.pivot(leaving, entering)

    def objective_value(self, costs):
        return sum(costs[self.basis[i]] * self.t[i][-1] for i in range(self.m))

    def solution(self):
        x = [F(0)] * self.n_real
        for i in range(self.m):
            if self.basis[i] < self.n_real:
                x[self.basis[i]] = self.t[i][-1]
        return x


def reference_phase1(rows, rhs, n):
    """The reference tableau after phase 1, its row sign flips and phase-1 costs."""
    a = [[F(x) for x in row] for row in rows]
    b = [F(x) for x in rhs]
    flips = [-1 if bi < 0 else 1 for bi in b]
    a = [[x * f for x in row] for row, f in zip(a, flips)]
    b = [x * f for x, f in zip(b, flips)]
    m = len(a)
    tab = _ReferenceTableau(a, b, n)
    phase1_costs = [F(0)] * n + [F(1)] * m + [F(0)]
    assert tab.run(phase1_costs, list(range(n + m))) == "optimal"
    return tab, flips, phase1_costs


def reference_feasible(rows, rhs, n):
    """The infeasible result, or the reference tableau after phase 1 and the drive-out."""
    m = len(rows)
    tab, flips, phase1_costs = reference_phase1(rows, rhs, n)
    if tab.objective_value(phase1_costs) > 0:
        lam = [phase1_costs[tab.basis[i]] for i in range(m)]
        y = [
            sum(lam[r] * tab.t[r][n + i] for r in range(m)) * flips[i]
            for i in range(m)
        ]
        return LPResult("infeasible", None, None, tuple(y))
    for i in range(m):
        if tab.basis[i] >= n:
            col = next((j for j in range(n) if tab.t[i][j] != 0), None)
            if col is not None:
                tab.pivot(i, col)
    return tab


def reference_phase2(feasible, objective):
    """One objective's phase 2 on a copy of ``reference_feasible``'s tableau.

    An infeasible result is returned before the objective is read.
    """
    if isinstance(feasible, LPResult):
        return feasible
    tab, c = feasible.copy(), [F(x) for x in objective]
    if tab.run(c + [F(0)] * (tab.m + 1), list(range(tab.n_real))) == "unbounded":
        return LPResult("unbounded", None, None, None)
    x = tab.solution()
    return LPResult("optimal", sum(ci * xi for ci, xi in zip(c, x)), tuple(x), None)


def range_objectives(n):
    """A zero objective, then min and max (as min of the negation) per coordinate."""
    objectives = [[F(0)] * n]
    for j in range(n):
        objectives += [
            [F(int(i == j)) for i in range(n)],
            [F(-int(i == j)) for i in range(n)],
        ]
    return objectives


def assert_matches_reference(objectives, rows, rhs):
    lp = LPSystem(rows, rhs, len(objectives[0]))
    shared = [lp.solve(c) for c in objectives]
    # the reference runs its phase 1 once and each phase 2 on a copy
    feasible = reference_feasible(rows, rhs, len(objectives[0]))
    reference = [reference_phase2(feasible, c) for c in objectives]
    assert shared == reference
    # an infeasible system gives every objective the same certificate
    if reference[0].status == "infeasible":
        assert_replay_matches_reference(rows, rhs, reference[0].certificate)
    return reference


# -- reference: the certificate replay over Fraction ------------------------------


def reference_verify_farkas(rows, rhs, y):
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    if len(y) != len(rows):
        return False
    work = [[F(x) for x in row] for row in rows]
    b = [F(x) for x in rhs]
    n = len(work[0]) if work else 0
    combo = [sum(y[i] * work[i][j] for i in range(len(work))) for j in range(n)]
    value = sum(y[i] * b[i] for i in range(len(b)))
    return all(c <= 0 for c in combo) and value > 0


def assert_replay_matches_reference(rows, rhs, y):
    """Both replays accept y and agree on every tampered copy of it.

    Negating one multiplier may or may not break the certificate, so only
    agreement is asserted; moving one entry of a row with a nonzero
    multiplier so that column's y.A becomes 1 must be rejected by both.
    Returns how many negated copies were rejected.
    """
    assert verify_farkas(rows, rhs, y) and reference_verify_farkas(rows, rhs, y)
    rejected = 0
    for i, c in enumerate(y):
        if not c:
            continue
        negated = [*y[:i], -c, *y[i + 1:]]
        verdict = verify_farkas(rows, rhs, negated)
        assert verdict == reference_verify_farkas(rows, rhs, negated)
        rejected += not verdict
        column = sum(y[k] * F(rows[k][0]) for k in range(len(rows)))
        moved = [list(row) for row in rows]
        moved[i][0] = F(moved[i][0]) + (1 - column) / c
        assert not verify_farkas(moved, rhs, y)
        assert not reference_verify_farkas(moved, rhs, y)
    return rejected


def hv_report(label, axes, marginals):
    state = representative_states(FieldConfig(3, 2))[label]
    extra = state_marginal_constraints(state, axes) if marginals else ()
    return hv_feasibility(state_correlator_constraints(state, axes), axes, extra)


@pytest.mark.parametrize("marginals", [False, True], ids=["corr", "marg"])
@pytest.mark.parametrize("axes", [(1, 3), (1, 2, 3)], ids=["axes13", "axes123"])
@pytest.mark.parametrize("label", ["S", "T", "U"])
def test_shared_phase1_matches_reference_on_hv_systems(label, axes, marginals):
    report = hv_report(label, axes, marginals)
    rows, rhs, _ = report.system.full_rows()
    reference = assert_matches_reference(range_objectives(len(report.outcomes)), rows, rhs)
    if reference[0].status == "infeasible":
        assert assert_replay_matches_reference(rows, rhs, reference[0].certificate) > 0
    if reference[0].status == "optimal":
        assert report.result.witness == reference[0].solution
        assert report.result.ranges == tuple(
            (lo.objective, -hi.objective)
            for lo, hi in zip(reference[1::2], reference[2::2])
        )
    else:
        assert report.result.certificate == reference[0].certificate


@pytest.mark.parametrize("marginals", [False, True], ids=["corr", "marg"])
@pytest.mark.parametrize("axes", [(1, 3), (1, 2, 3)], ids=["axes13", "axes123"])
@pytest.mark.parametrize("label", ["S", "T", "U"])
def test_rref_matches_reference_on_hv_systems(label, axes, marginals):
    rows, rhs, _ = hv_report(label, axes, marginals).system.full_rows()
    assert rref(rows, rhs) == reference_rref(rows, rhs)


INTEGERS = st.integers(-3, 3)
RATIONALS = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def small_systems(draw, entry=INTEGERS, max_rows=3):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, max_rows))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    rhs = draw(st.lists(entry, min_size=m, max_size=m))
    objectives = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=4))
    return objectives, rows, rhs


@seed(20121)
@settings(max_examples=300, deadline=None)
@given(small_systems())
def test_shared_phase1_matches_reference_on_small_systems(system):
    assert_matches_reference(*system)


@seed(20122)
@settings(max_examples=300, deadline=None)
@given(small_systems(RATIONALS))
def test_shared_phase1_matches_reference_on_rational_systems(system):
    assert_matches_reference(*system)


@seed(20123)
@settings(max_examples=300, deadline=None)
@given(small_systems(RATIONALS, max_rows=5))
def test_rref_matches_reference_on_rational_systems(system):
    _, rows, rhs = system
    assert rref(rows, rhs) == reference_rref(rows, rhs)


def test_phase1_tableau_is_integer_and_matches_reference(monkeypatch):
    # snapshot the tableau as phase 1 leaves it, before the drive-out
    snapshots = []
    original = exactlp._Tableau.run

    def recording_run(self, costs):
        status = original(self, costs)
        if len(self.z) > self.n_real + 1:  # the artificial columns are there
            snapshots.append(([row[:] for row in self.t], self.basis[:], self.z[:], self.zd))
        return status

    monkeypatch.setattr(exactlp._Tableau, "run", recording_run)
    report = hv_report("S", (1, 2, 3), False)
    ((t, basis, z, zd),) = snapshots
    assert all(type(x) is int for row in t for x in row)
    assert all(type(x) is int for x in z) and type(zd) is int and zd > 0
    # each row is a primitive positive multiple of the exact row, the
    # multiple being its basic entry; the exact rows are the reference's
    rows, rhs, _ = report.system.full_rows()
    n, m = len(rows[0]), len(rows)
    ref, _, phase1_costs = reference_phase1(rows, rhs, n)
    assert basis == ref.basis
    for row, j, exact in zip(t, basis, ref.t):
        assert row[j] > 0 and gcd(*row) == 1
        assert [F(x, row[j]) for x in row] == exact
    assert [F(x, zd) for x in z[:-1]] == [
        ref.reduced_cost(phase1_costs, j) for j in range(n + m)
    ]
    assert F(-z[-1], zd) == ref.objective_value(phase1_costs)


@pytest.mark.parametrize("scales", [(1, 1, 1), (F(1, 3), F(3, 2), F(2, 3))],
                         ids=["integer", "rational"])
def test_drive_out_on_a_negative_coefficient_matches_reference(monkeypatch, scales):
    # -2 x2 = 0 leaves an artificial basic at zero after phase 1, and the
    # drive-out pivots it out on the -2
    pivot_entries = []
    original = exactlp._Tableau.pivot

    def recording_pivot(self, row, col):
        pivot_entries.append(self.t[row][col])
        return original(self, row, col)

    monkeypatch.setattr(exactlp._Tableau, "pivot", recording_pivot)
    base_rows, base_rhs = [[0, -2], [1, -1], [1, 0]], [0, 1, 1]
    rows = [[s * x for x in row] for row, s in zip(base_rows, scales)]
    rhs = [s * b for b, s in zip(base_rhs, scales)]
    assert_matches_reference(range_objectives(2) + [[F(1, 2), 3]], rows, rhs)
    assert any(q < 0 for q in pivot_entries)


def test_one_phase1_per_inference(monkeypatch):
    phase1_runs = []
    original = exactlp._Tableau.run

    def counting_run(self, costs):
        if len(self.z) > self.n_real + 1:  # the artificial columns are there
            phase1_runs.append(self.n_real)
        return original(self, costs)

    monkeypatch.setattr(exactlp._Tableau, "run", counting_run)
    reps = representative_states(FieldConfig(3, 2))
    cases = [
        (pair_measurement_system(reps["S"], 3, 3, include_marginals=True), "unique"),
        (pair_measurement_system(reps["S"], 3, 3), "indeterminate"),
        (pair_measurement_system(reps["T"], 3, 3, include_marginals=True), "infeasible"),
        (hv_feasibility(state_correlator_constraints(reps["S"], (1, 3))).system,
         "indeterminate"),
    ]
    for system, status in cases:
        phase1_runs.clear()
        assert infer_probabilities(system).status == status
        assert phase1_runs == [len(system.outcomes)]


# -- coordinate ranges against one reference LP per objective ------------------------


@st.composite
def twin_systems(draw):
    """A small system with one of its columns planted once or twice more.

    Half the draws take the right sides from a point of the simplex, so they
    are feasible and often unique, which makes the min LPs run.
    """
    k = draw(st.integers(1, 3))
    m = draw(st.integers(0, 3))
    columns = draw(st.lists(st.lists(INTEGERS, min_size=m, max_size=m), min_size=k, max_size=k))
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
        rhs = [F(sum(w * c[i] for w, c in zip(weights, columns)), sum(weights)) for i in range(m)]
    else:
        rhs = draw(st.lists(INTEGERS, min_size=m, max_size=m))
    twin = columns[draw(st.integers(0, k - 1))]
    for _ in range(draw(st.integers(1, 2))):
        columns.insert(draw(st.integers(0, len(columns))), twin)
    rows = [(f"r{i}", [c[i] for c in columns], rhs[i]) for i in range(m)]
    return ConstraintSystem.make([f"x{j}" for j in range(len(columns))], rows)


def unit(n, j, sign):
    return [sign * int(i == j) for i in range(n)]


@seed(20124)
@settings(max_examples=300, deadline=None)
@given(twin_systems())
# unique, with a zero twin pair beside two singletons that no vertex sets to 0
@example(ConstraintSystem.make(
    ("a", "b", "c", "c'"), [("A", [1, 0, 0, 0], F(1, 2)), ("B", [0, 1, 0, 0], F(1, 2))]))
# unique without twins: the min LPs of the singlet's axis-3 pair with marginals
@example(pair_measurement_system(
    representative_states(FieldConfig(3, 2))["S"], 3, 3, include_marginals=True))
# phase 1 leaves the twin b basic, so the narrowed tableau must keep b
@example(ConstraintSystem.make(("a", "b", "b'", "c"), [("A", [0, 1, 1, 0], F(1, 2))]))
# x2's minimum 3/22 is below its value at every max LP's vertex, so its min LP runs
@example(ConstraintSystem.make(
    ("x0", "x1", "x2", "x3", "x4"),
    [("A", [2, -1, -2, -1, 0], F(-8, 11)), ("B", [-1, 0, -1, 1, -1], F(-6, 11))]))
# beside the twins x4 and x4', x2's minimum 1/6 is below every verified value 1/5
@example(ConstraintSystem.make(
    ("x0", "x1", "x2", "x3", "x4", "x4'"),
    [("A", [3, 1, -2, 1, 2, 2], 1), ("B", [0, 2, -2, 1, 0, 0], 0)]))
# three rows: x0's minimum 41/352 is below every verified value 51/352
@example(ConstraintSystem.make(
    ("x0", "x1", "x2", "x3", "x4", "x5"),
    [("A", [3, 3, 2, 3, 2, -1], F(24, 11)), ("B", [-3, 0, 3, -1, 1, -3], F(1, 11)),
     ("C", [-1, 1, -2, 3, -1, -1], F(-6, 11))]))
# x3's minimum is 0, yet no verified vertex puts it below 1/30
@example(ConstraintSystem.make(
    ("x0", "x1", "x2", "x3", "x4", "x0'"),
    [("A", [2, -1, 0, -2, 0, 2], F(-1, 15)), ("B", [-1, -1, -3, 1, 0, -1], F(-13, 15))]))
# a duplicated row keeps an artificial basic through the drive-out
@example(ConstraintSystem.make(
    ("a", "b", "c"), [("A", [1, 0, 0], F(1, 2)), ("A again", [1, 0, 0], F(1, 2))]))
def test_coordinate_ranges_match_reference_on_twin_systems(system):
    rows, rhs, _ = system.full_rows()
    n = len(system.outcomes)
    result = infer_probabilities(system)
    feasible = reference_feasible(rows, rhs, n)
    first = reference_phase2(feasible, [0] * n)
    if first.status == "infeasible":
        assert result.status == "infeasible"
        assert result.certificate == first.certificate
        return
    ranges = tuple(
        (reference_phase2(feasible, unit(n, j, 1)).objective,
         -reference_phase2(feasible, unit(n, j, -1)).objective)
        for j in range(n)
    )
    assert result.witness == first.solution
    assert result.ranges == ranges
    assert result.status == ("unique" if all(lo == hi for lo, hi in ranges) else "indeterminate")


@pytest.mark.parametrize(
    "label, axes, marginals, most, most_pivots",
    [("S", (1, 2, 3), False, 33, 53), ("S", (1, 2, 3), True, 65, None),
     ("S", (1, 3), False, 9, None), ("S", (1, 3), True, 17, None), ("T", (1, 2, 3), False, 0, 0)],
    ids=["S-axes123", "S-axes123-marg", "S-axes13", "S-axes13-marg", "T-axes123"],
)
def test_coordinate_ranges_solve_only_uncertified_lps(
    monkeypatch, label, axes, marginals, most, most_pivots
):
    # the feasible point, one max LP per twin class, and no min LP where a
    # verified vertex already sits on 0 or on the normalization bound; an
    # infeasible system runs no phase 2 at all.  Each run counts its pivots.
    runs, pivots = [], []
    phase2, pivot = exactlp._phase2, exactlp._Tableau.pivot

    def counting_phase2(*args):
        before = len(pivots)
        result = phase2(*args)
        runs.append(len(pivots) - before)
        return result

    monkeypatch.setattr(exactlp, "_phase2", counting_phase2)
    monkeypatch.setattr(exactlp._Tableau, "pivot",
                        lambda self, *args: pivots.append(1) or pivot(self, *args))
    report = hv_report(label, axes, marginals)
    assert report.feasible == (most > 0)
    assert len(runs) <= most
    if most_pivots is not None:
        assert sum(runs) <= most_pivots
