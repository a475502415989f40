"""Exact rational linear algebra: row reduction and a tiny simplex solver.

Everything runs on fractions.Fraction, so results are exact and certificates
can be replayed by direct substitution.  The systems handled here are tiny
(at most a few dozen variables), so dense tableaus with Bland's rule are
plenty; Bland's rule also guarantees termination.

Feasibility problems have the standard form  A x = b, x >= 0.  When no
solution exists the solver produces a Farkas certificate: a row-combination
vector y with  y.A <= 0 componentwise and y.b > 0, which contradicts any
nonnegative solution on contraction.

Phase 1 (finding a feasible basis, or the certificate) depends only on the
system, so ``solve_lps`` runs it once per system and gives each objective
its own copy of the resulting tableau for phase 2; ``solve_lp`` is the
one-objective case.  The tableau carries the reduced-cost row and updates it
on every pivot instead of re-summing a column's reduced cost at each scan.
Bland's rule decides from exact values, so each objective takes the same
pivots as a solve of its own would.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Sequence

Row = tuple[Fraction, ...]


def _as_system(rows: Sequence[Sequence], rhs: Sequence) -> tuple[list[list[Fraction]], list]:
    """[rows | rhs] over Fraction; an rhs without one entry per row raises."""
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    return [[Fraction(x) for x in row] for row in rows], [Fraction(x) for x in rhs]


@dataclass(frozen=True)
class RREFResult:
    rows: tuple[Row, ...]  # nonzero reduced rows, pivot coefficient 1
    rhs: tuple[Fraction, ...]
    pivots: tuple[int, ...]
    rank: int
    consistent: bool


def rref(rows: Sequence[Sequence], rhs: Sequence) -> RREFResult:
    """Reduced row echelon form of [rows | rhs]."""
    work, b = _as_system(rows, rhs)
    n_cols = len(work[0]) if work else 0
    pivots: list[int] = []
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
    consistent = all(b[r] == 0 for r in range(rank, len(work)))
    return RREFResult(
        rows=tuple(tuple(work[r]) for r in range(rank)),
        rhs=tuple(b[:rank]),
        pivots=tuple(pivots),
        rank=rank,
        consistent=consistent,
    )


@dataclass(frozen=True)
class LPResult:
    status: str  # 'optimal', 'infeasible' or 'unbounded'
    objective: Fraction | None
    solution: tuple[Fraction, ...] | None
    certificate: tuple[Fraction, ...] | None  # Farkas y when infeasible


def verify_farkas(
    rows: Sequence[Sequence], rhs: Sequence, y: Sequence[Fraction]
) -> bool:
    """Replay a Farkas certificate: y.A <= 0 componentwise and y.b > 0.

    A certificate needs exactly one multiplier per row; any other length
    fails the replay.  A system whose rhs length differs from its row count
    raises ``ValueError``.
    """
    work, b = _as_system(rows, rhs)
    if len(y) != len(work):
        return False
    n = len(work[0]) if work else 0
    combo = [sum(y[i] * work[i][j] for i in range(len(work))) for j in range(n)]
    value = sum(y[i] * b[i] for i in range(len(b)))
    return all(c <= 0 for c in combo) and value > 0


class _Tableau:
    """Dense simplex tableau over Fractions with Bland's anticycling rule.

    ``z`` is the reduced-cost row of the objective being run, computed once
    when ``run`` starts and then updated by every pivot like a constraint
    row; its last entry is minus the objective value.
    """

    def __init__(self, rows: list[list[Fraction]], b: list[Fraction], n_real: int):
        self.m = len(rows)
        self.n_real = n_real
        # columns: n_real structural + m artificial + 1 rhs
        self.t = [
            rows[i] + [Fraction(int(i == j)) for j in range(self.m)] + [b[i]]
            for i in range(self.m)
        ]
        self.basis = [n_real + i for i in range(self.m)]
        self.z = [Fraction(0)] * (n_real + self.m + 1)

    def copy(self) -> _Tableau:
        twin = copy.copy(self)
        twin.t = [row[:] for row in self.t]
        twin.basis = self.basis[:]
        return twin

    def pivot(self, row: int, col: int) -> None:
        inv = 1 / self.t[row][col]
        pivot_row = self.t[row] = [x * inv for x in self.t[row]]
        for r in range(self.m):
            if r != row and self.t[r][col] != 0:
                f = self.t[r][col]
                self.t[r] = [a - f * p for a, p in zip(self.t[r], pivot_row)]
        if self.z[col] != 0:
            f = self.z[col]
            self.z = [a - f * p for a, p in zip(self.z, pivot_row)]
        self.basis[row] = col

    def run(self, costs: list[Fraction], columns: list[int]) -> str:
        z = list(costs)
        for i in range(self.m):
            cb = costs[self.basis[i]]
            if cb != 0:
                z = [a - cb * p for a, p in zip(z, self.t[i])]
        self.z = z
        while True:
            entering = next((j for j in columns if self.z[j] < 0), None)
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

    def solution(self) -> list[Fraction]:
        x = [Fraction(0)] * self.n_real
        for i in range(self.m):
            if self.basis[i] < self.n_real:
                x[self.basis[i]] = self.t[i][-1]
        return x


def solve_lps(
    objectives: Sequence[Sequence], rows: Sequence[Sequence], rhs: Sequence
) -> Iterator[LPResult]:
    """Minimize each objective . x subject to rows . x = rhs, x >= 0, exactly.

    Phase 1 depends only on the system, so it runs once, in this call: an
    infeasible system gives its replayed Farkas result for every objective,
    and a feasible one gives a tableau that each objective copies for its
    own phase 2.  Results come in objective order, each phase 2 running when
    the iterator reaches it, so a caller need not hold all of them at once.
    """
    a, b = _as_system(rows, rhs)
    n = len(objectives[0]) if objectives else len(a[0]) if a else 0
    if any(len(row) != n for row in a) or any(len(c) != n for c in objectives):
        raise ValueError("objective/row length mismatch")

    flips = [-1 if bi < 0 else 1 for bi in b]
    m = len(a)
    tab = _Tableau(
        [[x * f for x in row] for row, f in zip(a, flips)],
        [x * f for x, f in zip(b, flips)],
        n,
    )

    # phase 1: minimize the artificial total
    phase1_costs = [Fraction(0)] * n + [Fraction(1)] * m + [Fraction(0)]
    status = tab.run(phase1_costs, list(range(n + m)))
    if status != "optimal":
        raise AssertionError("phase-1 objective is bounded below by zero")
    artificial_total = -tab.z[-1]
    if artificial_total > 0:
        # Farkas multipliers are the phase-1 simplex multipliers, read off
        # the artificial columns: y_i = 1 - z(artificial_i)
        y = [(1 - tab.z[n + i]) * flips[i] for i in range(m)]
        if not verify_farkas(a, b, y):
            raise AssertionError("extracted Farkas certificate failed replay")
        infeasible = LPResult(
            status="infeasible", objective=None, solution=None, certificate=tuple(y)
        )
        return iter([infeasible] * len(objectives))

    # drive leftover zero-value artificials out of the basis; a row whose
    # structural coefficients are all zero is redundant and can be ignored
    for i in range(m):
        if tab.basis[i] >= n:
            col = next((j for j in range(n) if tab.t[i][j] != 0), None)
            if col is not None:
                tab.pivot(i, col)

    return (
        _phase2(tab.copy(), [Fraction(x) for x in c], a, b) for c in objectives
    )


def _phase2(
    tab: _Tableau, c: list[Fraction], a: list[list[Fraction]], b: list[Fraction]
) -> LPResult:
    # rows still carrying an artificial basis variable are redundant:
    # freeze them by excluding artificial columns from entering
    status = tab.run(c + [Fraction(0)] * (tab.m + 1), list(range(tab.n_real)))
    if status == "unbounded":
        return LPResult(
            status="unbounded", objective=None, solution=None, certificate=None
        )
    x = tab.solution()
    # nonbasic columns are exactly zero, so only basic ones enter the check
    basic = [j for j in tab.basis if j < tab.n_real]
    for row, target in zip(a, b):
        if sum(row[j] * x[j] for j in basic) != target:
            raise AssertionError("simplex solution fails the constraints")
    if any(xj < 0 for xj in x):
        raise AssertionError("simplex solution is not nonnegative")
    return LPResult(
        status="optimal",
        objective=sum(ci * xi for ci, xi in zip(c, x)),
        solution=tuple(x),
        certificate=None,
    )


def solve_lp(
    objective: Sequence, rows: Sequence[Sequence], rhs: Sequence, maximize: bool = False
) -> LPResult:
    """Optimize objective . x subject to rows . x = rhs, x >= 0, exactly."""
    sign = -1 if maximize else 1
    (result,) = solve_lps([[sign * Fraction(x) for x in objective]], rows, rhs)
    if maximize and result.objective is not None:
        result = replace(result, objective=-result.objective)
    return result


def feasible_point(rows: Sequence[Sequence], rhs: Sequence) -> LPResult:
    """Find any nonnegative solution of rows . x = rhs, or certify none exists."""
    n = len(rows[0]) if rows else 0
    return solve_lp([Fraction(0)] * n, rows, rhs)
