"""Exact rational linear algebra: row reduction and a tiny simplex solver.

Results are exact rationals, so certificates can be replayed by direct
substitution.  The systems handled here are tiny (at most a few dozen
variables), so dense tableaus with Bland's rule are plenty; Bland's rule also
guarantees termination.

The arithmetic is fraction-free.  Each input row [a_i | b_i] is multiplied by
the least common multiple of its denominators, which leaves its solutions
alone, and every working row is then a list of Python ints.  The invariant is
that a stored row is a nonzero integer multiple of the exact row it stands
for, kept primitive by dividing out the gcd of its entries after each update.
In the simplex tableau the multiple is positive, and it is the row's entry in
its basic column, which is 1 in the exact row B^-1 [A | I | b]; a pivot on a
negative entry negates the pivot row to keep it so.  The reduced-cost row is
stored the same way with its positive multiple ``zd`` beside it.  Signs, zero
tests and the ratio test (by cross-multiplication within each row) read the
same from the multiples as from the exact values, so Bland's rule takes the
pivots it would take over exact fractions.  ``Fraction`` appears only at the
boundary: in reading the input, in the ``RREFResult`` and ``LPResult`` fields
(reduced rows, solutions, objectives and Farkas multipliers), and in
``verify_farkas``, which reads a certificate's multipliers and then replays
it over ints on the caller's own rows.

Feasibility problems have the standard form  A x = b, x >= 0.  When no
solution exists the solver produces a Farkas certificate: a row-combination
vector y with  y.A <= 0 componentwise and y.b > 0, which contradicts any
nonnegative solution on contraction.

Phase 1 (finding a feasible basis, or the certificate) depends only on the
system, so ``LPSystem`` runs it once.  Every phase 2 runs on a narrowed
copy of the feasible tableau, without the artificial columns, which cannot
enter after phase 1, or the redundant rows they leave basic.
``LPSystem.solve`` answers one objective at a time, each on its own copy
of all n structural columns, so each objective takes the same pivots as a
solve of its own would; ``solve_lp`` is the one-objective case.  The
tableau carries the reduced-cost row and updates it on every pivot instead
of re-summing a column's reduced cost at each scan.

``LPSystem.ranges`` finds every coordinate's exact [min, max] on one
narrowed tableau.  Twins (coordinates with identical columns) trade mass
without changing any row, so each has minimum 0 and all share the maximum
of their total: the tableau keeps one column per class of twins.  Each
range LP starts from the previous one's optimum, which is still feasible;
Bland's rule still terminates, and an optimum value does not depend on the
start.  Every phase 2 checks its solution, lifted back to all coordinates,
against the rows and for x >= 0, so a value a returned solution gives a
coordinate is attained.  A singleton's min LP is skipped when such a value
meets a proven lower bound: 0, or, with a normalization row sum x = t,
t - sum over k != j of max x_k.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Row = tuple[Fraction, ...]

_ZERO = Fraction(0)


def _integer_row(entries: Sequence) -> tuple[list[int], int]:
    """(entries times s, s) for s the least common multiple of their denominators."""
    exact = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in entries]
    scale = lcm(*(x.denominator for x in exact))
    if scale == 1:
        return [x.numerator for x in exact], 1
    return [x.numerator * (scale // x.denominator) for x in exact], scale


def _integer_system(rows: Sequence[Sequence], rhs: Sequence) -> list[tuple[list[int], int]]:
    """(s_i [row_i | rhs_i] over int, s_i) per row; an rhs without one entry per row raises."""
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    return [_integer_row([*row, b]) for row, b in zip(rows, rhs)]


def _combine(row: list[int], q: int, f: int, pivot_row: list[int]) -> list[int]:
    """q * row - f * pivot_row with the gcd of its entries divided out."""
    new = [a * q - f * p for a, p in zip(row, pivot_row)]
    g = gcd(*new)
    return [a // g for a in new] if g > 1 else new


def _combine_costs(
    z: list[int], zd: int, q: int, f: int, pivot_row: list[int]
) -> tuple[list[int], int]:
    """(q z - f pivot_row, q zd): the cost row z/zd less f/q pivot rows, kept primitive."""
    *z, zd = _combine([*z, zd], q, f, [*pivot_row, 0])
    return z, zd


@dataclass(frozen=True)
class RREFResult:
    rows: tuple[Row, ...]  # nonzero reduced rows, pivot coefficient 1
    rhs: tuple[Fraction, ...]
    pivots: tuple[int, ...]
    rank: int
    consistent: bool


def rref(rows: Sequence[Sequence], rhs: Sequence) -> RREFResult:
    """Reduced row echelon form of [rows | rhs].

    Gauss-Jordan elimination on integer multiples of the rows, taking the
    same pivots as over fractions; each pivot row is divided by its pivot
    entry once, at the end.
    """
    work = [row for row, _ in _integer_system(rows, rhs)]
    n_cols = len(work[0]) - 1 if work else 0
    pivots: list[int] = []
    rank = 0
    for col in range(n_cols):
        pivot_row = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        prow = work[rank]
        q = prow[col]
        for r, other in enumerate(work):
            f = other[col]
            if f and r != rank:
                work[r] = _combine(other, q, f, prow)
        pivots.append(col)
        rank += 1
    reduced = [
        [Fraction(a, row[col]) if a else _ZERO for a in row]
        for row, col in zip(work, pivots)
    ]
    return RREFResult(
        rows=tuple(tuple(row[:-1]) for row in reduced),
        rhs=tuple(row[-1] for row in reduced),
        pivots=tuple(pivots),
        rank=rank,
        consistent=all(work[r][-1] == 0 for r in range(rank, len(work))),
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

    The replay runs over ints on the caller's rows.  Row i with a nonzero
    multiplier enters as s_i [a_i | b_i] over int, so it counts with the
    weight y_i / s_i; one positive common denominator D clears every weight,
    and the sums come out D times the exact y.A and y.b, with the same signs.
    """
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    if len(y) != len(rows):
        return False
    used = []  # (y_i / s_i, s_i [a_i | b_i]) for each nonzero y_i
    for c, row, b in zip(y, rows, rhs):
        if c:
            ints, s = _integer_row([*row, b])
            used.append((Fraction(c) / s, ints))
    scale = lcm(*(w.denominator for w, _ in used))
    total = [0] * (len(rows[0]) + 1 if rows else 1)
    for w, ints in used:
        k = w.numerator * (scale // w.denominator)
        total = [t + k * a for t, a in zip(total, ints)]
    *combo, value = total
    return all(c <= 0 for c in combo) and value > 0


class _Tableau:
    """Dense simplex tableau over ints with Bland's anticycling rule.

    Row i of ``t`` is a positive multiple of the exact row i of
    B^-1 [A | I | b], the multiple being its entry ``t[i][basis[i]]``.  ``z``
    is ``zd`` > 0 times the reduced-cost row of the objective being run,
    computed once when ``run`` starts and then updated by every pivot like a
    constraint row; its last entry is minus the objective value.
    """

    def __init__(self, rows: list[list[int]], scales: list[int], n_real: int):
        """``rows[i]`` is s_i [a_i | b_i] over int, with ``scales[i]`` = s_i > 0."""
        m = len(rows)
        self.n = self.n_real = n_real
        self.columns = list(range(n_real))  # the coordinate of each structural column
        # columns: n_real structural + m artificial + 1 rhs; scaling the whole
        # row, identity part included, leaves the exact tableau unchanged
        self.t = [
            row[:-1] + [s if i == j else 0 for j in range(m)] + row[-1:]
            for i, (row, s) in enumerate(zip(rows, scales))
        ]
        self.basis = [n_real + i for i in range(m)]
        self.z = [0] * (n_real + m + 1)
        self.zd = 1

    def narrowed(self, keep: Sequence[int]) -> _Tableau:
        """A copy on the structural columns ``keep`` alone, in their order.

        ``keep`` holds every basic structural column.  The artificial columns
        go, and so do the rows whose basic column is artificial: after the
        drive-out such a row has no nonzero structural entry and a zero right
        side, so no pivot reads or changes it.
        """
        narrow = copy.copy(self)
        position = {j: k for k, j in enumerate(keep)}
        rows = [(row, j) for row, j in zip(self.t, self.basis) if j < self.n_real]
        narrow.t = [[row[j] for j in keep] + row[-1:] for row, _ in rows]
        narrow.basis = [position[j] for _, j in rows]
        narrow.n_real = len(keep)
        narrow.columns = [self.columns[j] for j in keep]
        narrow.z, narrow.zd = [0] * (len(keep) + 1), 1
        return narrow

    def pivot(self, row: int, col: int) -> None:
        t = self.t
        pivot_row = t[row]
        q = pivot_row[col]
        if q < 0:  # the new basic entry is the row's multiple: keep it positive
            pivot_row = t[row] = [-a for a in pivot_row]
            q = -q
        for r, other in enumerate(t):
            f = other[col]
            if f and r != row:
                t[r] = _combine(other, q, f, pivot_row)
        f = self.z[col]
        if f:
            self.z, self.zd = _combine_costs(self.z, self.zd, q, f, pivot_row)
        self.basis[row] = col

    def run(self, costs: list[int]) -> str:
        """Minimize; ``costs`` is any positive int multiple of the objective, one per column."""
        z, zd = list(costs), 1
        for row, j in zip(self.t, self.basis):
            if costs[j]:  # z/zd less costs[j] exact rows, the exact row being row/row[j]
                z, zd = _combine_costs(z, zd, row[j], costs[j] * zd, row)
        self.z, self.zd = z, zd
        while True:
            entering = next((j for j, c in enumerate(self.z[:-1]) if c < 0), None)
            if entering is None:
                return "optimal"
            # least rhs/coeff over positive coeffs, as products: rows' multiples cancel
            leaving, best_rhs, best_coeff = None, 0, 1
            for i, row in enumerate(self.t):
                coeff = row[entering]
                if coeff > 0:
                    lhs, rhs = row[-1] * best_coeff, best_rhs * coeff
                    if (
                        leaving is None
                        or lhs < rhs
                        or (lhs == rhs and self.basis[i] < self.basis[leaving])
                    ):
                        leaving, best_rhs, best_coeff = i, row[-1], coeff
            if leaving is None:
                return "unbounded"
            self.pivot(leaving, entering)

    def basic_values(self) -> list[tuple[int, int, int]]:
        """(j, v, s) per basic structural column j, whose value is v/s."""
        return [
            (j, row[-1], row[j]) for row, j in zip(self.t, self.basis) if j < self.n_real
        ]


class LPSystem:
    """The system rows . x = rhs, x >= 0 after its one phase 1, run here.

    ``infeasible`` is the replayed Farkas result when no solution exists and
    None otherwise.  ``solve`` minimizes one objective, given as ints or
    rationals over the n unknowns: each call runs its phase 2 on a narrowed
    copy of the feasible tableau, and on an infeasible system returns ``infeasible``.
    ``ranges`` gives a feasible point and every coordinate's exact range.
    """

    def __init__(self, rows: Sequence[Sequence], rhs: Sequence, n: int):
        system = _integer_system(rows, rhs)
        if any(len(row) != n + 1 for row, _ in system):
            raise ValueError("objective/row length mismatch")
        self.n = n
        self._system = system
        flips = [-1 if row[-1] < 0 else 1 for row, _ in system]
        m = len(system)
        tab = _Tableau(
            [[x * f for x in row] for (row, _), f in zip(system, flips)],
            [s for _, s in system],
            n,
        )

        # phase 1: minimize the artificial total
        status = tab.run([0] * n + [1] * m + [0])
        if status != "optimal":
            raise AssertionError("phase-1 objective is bounded below by zero")
        self.infeasible = None
        if tab.z[-1] < 0:  # the artificial total -z[-1]/zd is positive
            # Farkas multipliers are the phase-1 simplex multipliers, read off
            # the artificial columns: y_i = 1 - z(artificial_i)
            y = [Fraction((tab.zd - tab.z[n + i]) * flips[i], tab.zd) for i in range(m)]
            if not verify_farkas(rows, rhs, y):
                raise AssertionError("extracted Farkas certificate failed replay")
            self.infeasible = LPResult(
                status="infeasible", objective=None, solution=None, certificate=tuple(y)
            )
            return

        # drive leftover zero-value artificials out of the basis; a row whose
        # structural coefficients are all zero is redundant and can be ignored
        for i in range(m):
            if tab.basis[i] >= n:
                col = next((j for j in range(n) if tab.t[i][j] != 0), None)
                if col is not None:
                    tab.pivot(i, col)
        self._tableau = tab

    def solve(self, objective: Sequence) -> LPResult:
        if len(objective) != self.n:
            raise ValueError("objective/row length mismatch")
        if self.infeasible is not None:
            return self.infeasible
        return _phase2(self._tableau.narrowed(range(self.n)), objective, self._system)

    def ranges(self) -> tuple[LPResult, tuple[tuple[Fraction, Fraction], ...] | None]:
        """A feasible point and the exact [min, max] of every coordinate.

        The feasible point is phase 1's vertex, found before any range LP.
        One max LP per class of twins gives the class maximum, and a min LP
        runs only for a singleton no verified solution has put on a proven
        lower bound (see the module docstring).  An infeasible system gives
        its Farkas result and no ranges; an unbounded coordinate raises
        ``ValueError``.
        """
        if self.infeasible is not None:
            return self.infeasible, None
        n, system = self.n, self._system
        classes: dict[tuple[int, ...], list[int]] = {}
        for j in range(n):
            classes.setdefault(tuple(row[j] for row, _ in system), []).append(j)
        # each class stands on its first member, the only one phase 1 and the
        # drive-out can make basic: both take the lowest of equal columns
        kept = list(classes.values())
        tab = self._tableau.narrowed([js[0] for js in kept])
        feas = _phase2(tab, [0] * len(kept), system)
        # each singleton's least value in a verified solution
        least = {k: feas.solution[js[0]] for k, js in enumerate(kept) if len(js) == 1}

        def optimum(k: int, sign: int) -> Fraction:
            result = _phase2(tab, [sign * (i == k) for i in range(len(kept))], system)
            if result.status != "optimal":
                raise ValueError("a coordinate is unbounded")
            for i, x in least.items():
                least[i] = min(x, result.solution[kept[i][0]])
            return result.objective

        low, high = [_ZERO] * n, [_ZERO] * n
        for k, js in enumerate(kept):
            top = -optimum(k, -1)
            for j in js:
                high[j] = top
        total = next((Fraction(row[-1], row[0]) for row, _ in system
                      if len(set(row[:-1])) == 1 and row[0] > 0), None)
        spare = None if total is None else total - sum(high)
        for k, x in least.items():
            j = kept[k][0]
            floor = _ZERO if spare is None else max(_ZERO, spare + high[j])
            low[j] = x if x == floor else optimum(k, 1)
        return feas, tuple(zip(low, high))


def _phase2(
    tab: _Tableau, objective: Sequence, system: list[tuple[list[int], int]]
) -> LPResult:
    """Minimize ``objective``, one entry per structural column of ``tab``.

    The tableau moves to the optimum.  The solution is lifted to every
    coordinate, 0 off the tableau's columns, and checked against the
    system's rows and for x >= 0.
    """
    c, c_scale = _integer_row(objective)
    status = tab.run(c + [0])
    if status == "unbounded":
        return LPResult(
            status="unbounded", objective=None, solution=None, certificate=None
        )
    basic = tab.basic_values()
    # over the common denominator d, basic x_j = v/s is X_j/d; nonbasic
    # columns are exactly zero, so only basic ones enter the checks
    d = lcm(*(s for _, _, s in basic))
    scaled = [(j, v * (d // s)) for j, v, s in basic]
    columns = tab.columns
    for row, _ in system:
        if sum(row[columns[j]] * xj for j, xj in scaled) != row[-1] * d:
            raise AssertionError("simplex solution fails the constraints")
    if any(xj < 0 for _, xj in scaled):
        raise AssertionError("simplex solution is not nonnegative")
    x = [_ZERO] * tab.n
    for j, v, s in basic:
        x[columns[j]] = Fraction(v, s) if v else _ZERO
    return LPResult(
        status="optimal",
        objective=Fraction(sum(c[j] * xj for j, xj in scaled), c_scale * d),
        solution=tuple(x),
        certificate=None,
    )


def solve_lp(
    objective: Sequence, rows: Sequence[Sequence], rhs: Sequence, maximize: bool = False
) -> LPResult:
    """Optimize objective . x subject to rows . x = rhs, x >= 0, exactly."""
    sign = -1 if maximize else 1
    result = LPSystem(rows, rhs, len(objective)).solve([sign * Fraction(x) for x in objective])
    if maximize and result.objective is not None:
        result = replace(result, objective=-result.objective)
    return result
