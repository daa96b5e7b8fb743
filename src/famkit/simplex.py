"""Exact rational linear feasibility and optimization.

A two-phase simplex over ``Fraction`` entries with Bland's pivoting rule
(guaranteed termination, deterministic output).  The tableau holds the
equality rows first, then one ``<=`` row per interval end, each with its
own slack column.  A pivot updates only the columns where the normalised
pivot row is nonzero, and only the rows with a nonzero in the pivot column.
The artificial block is implicit: no artificial column ever enters, so none
is stored, and the Farkas vector of an infeasible system, one multiplier per
row, comes from one exact solve of ``y B = c_B`` for the final phase-1
basis.  The independent Fourier-Motzkin verifier lives in
:mod:`famkit.oracle` and shares no pivoting code with this module.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CapExceededError, FamkitError

#: Guard on tableau size (rows * columns).
TABLEAU_CAP = 2_000_000


@dataclass(frozen=True)
class FeasibilitySystem:
    """``A w = b`` with ``w >= 0`` plus optional interval rows ``lo <= c.w <= hi``.

    One variable per atom of the generated algebra; all coefficients exact
    rationals.
    """

    n_vars: int
    equalities: tuple[tuple[tuple[Fraction, ...], Fraction], ...] = ()
    intervals: tuple[tuple[tuple[Fraction, ...], Fraction | None, Fraction | None], ...] = ()

    def __post_init__(self):
        for coeffs, _ in self.equalities:
            if len(coeffs) != self.n_vars:
                raise FamkitError("equality row has wrong arity")
        for coeffs, lo, hi in self.intervals:
            if len(coeffs) != self.n_vars:
                raise FamkitError("interval row has wrong arity")
            if lo is None and hi is None:
                raise FamkitError("vacuous interval row")


@dataclass
class SimplexOutcome:
    feasible: bool
    solution: tuple[Fraction, ...] | None = None
    #: Farkas certificate: one multiplier per row, such that the
    #: nonnegative combination sum(y_r * row_r) has all coefficients <= 0
    #: but a positive right-hand side.  Only produced for pure-equality
    #: systems.
    farkas: tuple[Fraction, ...] | None = None


class _Tableau:
    """Phase-1/phase-2 simplex tableau (rows of Fractions).

    Columns are ``vars | slacks | rhs``.  Each row also has an artificial
    variable, with unit column ``e_i``, that starts basic; basis index
    ``art0 + i`` stands for row ``i``'s artificial.  No artificial column
    ever enters (both phases let only columns below ``art0`` in), so their
    entries are never read and are not stored.
    """

    def __init__(self, system: FeasibilitySystem):
        self.n = system.n_vars
        rows: list[list[Fraction]] = []
        rhs: list[Fraction] = []
        signs: list[int] = []  # +1 if the row kept its orientation

        for coeffs, b in system.equalities:
            rows.append(list(coeffs))
            rhs.append(Fraction(b))
        for coeffs, lo, hi in system.intervals:
            if lo is not None:
                rows.append([-c for c in coeffs])
                rhs.append(-Fraction(lo))
            if hi is not None:
                rows.append(list(coeffs))
                rhs.append(Fraction(hi))

        self.m = len(rows)
        first = len(system.equalities)
        self.n_slacks = self.m - first
        self.art0 = self.n + self.n_slacks
        self.width = self.art0 + 1
        # the cap counts the artificial block as well, as if it were stored
        if self.m * (self.width + self.m) > TABLEAU_CAP:
            raise CapExceededError("feasibility system exceeds the solver size cap")

        # interval rows arrive as inequalities c.w <= rhs; add slack columns
        for i in range(self.m):
            rows[i].extend([Fraction(0)] * self.n_slacks)
            if i >= first:
                rows[i][self.n + i - first] = Fraction(1)
            rows[i].append(rhs[i])

        # normalize b >= 0, remembering orientation for the certificate
        for i in range(self.m):
            if rhs[i] < 0:
                rows[i] = [-c for c in rows[i]]
                signs.append(-1)
            else:
                signs.append(1)

        self.rows = rows
        #: the rows before any pivot, for the Farkas solve; pivots replace
        #: rows and never mutate one, so this shares the lists
        self.start = list(rows)
        self.basis = [self.art0 + i for i in range(self.m)]
        self.signs = signs

    def _pivot(self, row: int, col: int, obj: list[Fraction]) -> None:
        rows = self.rows
        piv = rows[row][col]
        pivot_row = [c / piv for c in rows[row]]
        rows[row] = pivot_row
        nonzeros = [(j, b) for j, b in enumerate(pivot_row) if b]
        for i, r in enumerate(rows):
            if i != row and r[col]:
                f = r[col]
                r = list(r)
                for j, b in nonzeros:
                    r[j] -= f * b
                rows[i] = r
        if obj[col]:
            f = obj[col]
            for j, b in nonzeros:
                obj[j] -= f * b
        self.basis[row] = col

    def _run(self, obj: list[Fraction], allowed: int) -> None:
        """Bland's rule: entering = lowest negative reduced cost, leaving by
        minimal ratio with lowest basis index tie-break."""
        while True:
            enter = -1
            for j in range(allowed):
                if obj[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return
            leave = -1
            best: Fraction | None = None
            for i in range(self.m):
                a = self.rows[i][enter]
                if a > 0:
                    ratio = self.rows[i][-1] / a
                    if best is None or ratio < best or (ratio == best and self.basis[i] < self.basis[leave]):
                        best = ratio
                        leave = i
            if leave < 0:
                raise FamkitError("unbounded direction in a bounded system")
            self._pivot(leave, enter, obj)

    def phase1(self) -> Fraction:
        # reduced costs for min sum(artificials) with artificial basis: each
        # artificial costs 1, so a column's reduced cost is minus its sum
        obj = [Fraction(0)] * self.width
        for row in self.rows:
            obj = [a - b for a, b in zip(obj, row)]
        self._run(obj, self.art0)
        return -obj[-1]

    def farkas(self) -> tuple[Fraction, ...]:
        # the phase-1 duals y = c_B B^-1 of the final basis, from the starting
        # rows: y.e_i = 1 for a basic artificial i, y.A_j = 0 for a basic
        # column j < art0.  Then y.A <= 0 on variable columns while y.b equals
        # the positive optimum; unnegate flipped rows.
        eqs = []
        for j in self.basis:
            if j >= self.art0:
                eq = [Fraction(0)] * self.m + [Fraction(1)]
                eq[j - self.art0] = Fraction(1)
            else:
                eq = [row[j] for row in self.start] + [Fraction(0)]
            eqs.append(eq)
        raw = _solve(eqs)
        return tuple(self.signs[i] * raw[i] for i in range(self.m))

    def drive_out_artificials(self) -> None:
        for i in range(self.m):
            if self.basis[i] >= self.art0:
                for j in range(self.art0):
                    if self.rows[i][j]:
                        self._pivot(i, j, [Fraction(0)] * self.width)
                        break
                # an all-zero row is redundant; its artificial stays basic at 0

    def phase2(self, objective: Sequence[Fraction]) -> Fraction:
        obj = [Fraction(0)] * self.width
        for j, c in enumerate(objective):
            obj[j] = Fraction(c)
        for i, j in enumerate(self.basis):
            # a basic artificial costs 0 in phase 2
            c = obj[j] if j < self.art0 else 0
            if c:
                obj = [a - c * b for a, b in zip(obj, self.rows[i])]
                obj[j] = Fraction(0)
        self._run(obj, self.art0)
        return -obj[-1]

    def fork(self) -> _Tableau:
        """An independent copy that shares row lists with this tableau.

        Sharing is safe because ``_pivot`` replaces a row with a new list and
        never mutates one in place; every other method only reads rows.
        """
        twin = copy.copy(self)
        twin.rows = list(self.rows)
        twin.basis = list(self.basis)
        return twin

    def solution(self) -> tuple[Fraction, ...]:
        x = [Fraction(0)] * self.n
        for i, j in enumerate(self.basis):
            if j < self.n:
                x[j] = self.rows[i][-1]
        return tuple(x)


def _solve(eqs: list[list[Fraction]]) -> list[Fraction]:
    """The solution of a square nonsingular system, rows ``[a_1 .. a_m | b]``,
    by exact Gauss-Jordan elimination."""
    m = len(eqs)
    for c in range(m):
        p = next(i for i in range(c, m) if eqs[i][c])
        eqs[c], eqs[p] = eqs[p], eqs[c]
        piv = eqs[c][c]
        pivot_eq = [v / piv for v in eqs[c]]
        eqs[c] = pivot_eq
        for i in range(m):
            if i != c and eqs[i][c]:
                f = eqs[i][c]
                eqs[i] = [a - f * b for a, b in zip(eqs[i], pivot_eq)]
    return [eq[-1] for eq in eqs]


def solve_feasibility(system: FeasibilitySystem) -> SimplexOutcome:
    """Decide feasibility; deterministic first basic solution under Bland order."""
    tab = _Tableau(system)
    if tab.phase1() != 0:
        farkas = tab.farkas() if not system.intervals else None
        return SimplexOutcome(feasible=False, farkas=farkas)
    return SimplexOutcome(feasible=True, solution=tab.solution())


def optimize(
    system: FeasibilitySystem, objectives: Sequence[Sequence[Fraction]]
) -> list[tuple[Fraction, tuple[Fraction, ...]]] | None:
    """Exact minimum of each ``objective . w`` over the system, with a
    minimizing solution, or None if the system is infeasible.

    Phase 1 runs once; each objective's phase 2 starts from a copy of the
    feasible basis it found.  A maximum is the negated minimum of the
    negated objective.  The feasible regions built by famkit always include
    a total-mass row, so they are bounded and the optimum is attained.
    """
    tab = _Tableau(system)
    if tab.phase1() != 0:
        return None
    tab.drive_out_artificials()
    results = []
    for objective in objectives:
        run = tab.fork()
        value = run.phase2(objective)
        results.append((value, run.solution()))
    return results
