"""Exact bounded-variable simplex over the integers.

Two phases with artificial variables, Bland's rule for anti-cycling, no
tolerances anywhere.  The pivot loop touches Python ints only: the tableau
and the basic values share one common denominator, |det B| of the current
basis, and pivot by the fraction-free elimination of Bareiss (every division
is exact); the ratio test compares steps by cross-multiplication.  Rational
data is scaled to integers first, rows by one common factor, costs by another
and bounds by a third; none changes a pivot.  Values become rationals only
when the solution is read off.  Structural variables need finite bounds
(instances here always carry boxes); the solver returns a basic feasible
solution, so the basis columns are invertible and every non-basic variable
sits at a bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .linalg import Matrix, forward_eliminate


class SolverError(Exception):
    """Internal solver invariant violation."""


@dataclass
class SolveStats:
    pivots: int = 0
    nodes: int = 0
    continuous_branches: int = 0  # branch and bound branches past the first z columns


@dataclass
class SolveResult:
    """Outcome of an exact solve."""

    status: str  # optimal | infeasible
    x: Optional[tuple[Fraction, ...]] = None
    objective: Optional[Fraction] = None
    basis: Optional[tuple[int, ...]] = None
    stats: SolveStats = field(default_factory=SolveStats)


def reduce_rows(a: Matrix, b: Sequence[Fraction]) -> Optional[tuple[Matrix, tuple[Fraction, ...]]]:
    """Drop linearly dependent rows; None when a dependent row is inconsistent.

    Returns the surviving rows in their original (untransformed) form.
    """
    work = [list(a.row(i)) + [Fraction(b[i])] for i in range(a.rows)]
    keep: list[int] = []
    for i, pivot in forward_eliminate(work, a.cols):
        if pivot is not None:
            keep.append(i)
        elif work[i][a.cols] != 0:
            return None  # 0 = nonzero: inconsistent system
    return a.submatrix(keep, range(a.cols)), tuple(Fraction(b[i]) for i in keep)


def _over_common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Ints k and the least d > 0 with values[i] == k[i] / d."""
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


IntRows = tuple[tuple[int, ...], ...]

# the last (a, b) handed to _integer_rows and its result: branch and bound
# solves every node LP over one matrix and right-hand side
_last_rows: Optional[tuple[Matrix, tuple[Fraction, ...], Optional[IntRows]]] = None


def _integer_rows(a: Matrix, b: tuple[Fraction, ...]) -> Optional[IntRows]:
    """``reduce_rows(a, b)`` as int rows (coefficients, then the rhs), all
    scaled by one common factor; None when the system is inconsistent.

    The last call is remembered: a Matrix is immutable, so the same object
    with an equal b reduces to the same rows.
    """
    global _last_rows
    if _last_rows is not None and _last_rows[0] is a and _last_rows[1] == b:
        return _last_rows[2]
    reduced = reduce_rows(a, b)
    rows = None
    if reduced is not None:
        red, rhs = reduced
        w = a.cols + 1
        flat, _ = _over_common_denominator([v for i in range(red.rows)
                                            for v in (*red.row(i), rhs[i])])
        rows = tuple(tuple(flat[i * w:(i + 1) * w]) for i in range(red.rows))
    _last_rows = (a, b, rows)
    return rows


class _BoundedSimplex:
    """Tableau simplex with variable bounds and an artificial basis.

    Everything is an int over one positive common denominator ``den`` =
    |det B| for the current basis B.  Row i of ``tableau`` is ``den`` times
    row i of B^-1 A, then one more column ``beta``: ``den * scale`` times the
    value of the i-th basic variable, where ``scale`` clears every bound
    denominator.  Every tableau entry is a minor of (A | I), so every pivot
    divides exactly (Bareiss); the beta column is pivoted with the rest.
    Only the structural columns are kept, because an artificial column never
    enters.  ``lo`` and ``up`` hold ``scale`` times the structural bounds.
    """

    def __init__(self, rows: IntRows, lo: list[Fraction], up: list[Fraction],
                 stats: SolveStats, pivot_cap: int):
        self.n = n = len(lo)
        self.m = len(rows)
        self.stats = stats
        self.pivot_cap = pivot_cap

        # scaling the rows multiplies only the artificials, and scaling the
        # bounds multiplies every value by scale, so no pivot choice changes
        self.scale = math.lcm(*(v.denominator for v in (*lo, *up)))
        self.lo = [v.numerator * (self.scale // v.denominator) for v in lo]
        self.up = [v.numerator * (self.scale // v.denominator) for v in up]
        self.tableau = []
        self.den = 1
        # start every structural variable at its lower bound; flip row signs
        # so the artificial basis starts nonnegative
        for row in rows:
            beta = row[n] * self.scale - sum(v * l for v, l in zip(row, self.lo) if v != 0)
            sign = -1 if beta < 0 else 1
            self.tableau.append([sign * v for v in row[:n]] + [sign * beta])
        self.basis = list(range(n, n + self.m))
        self.at_upper = [False] * (n + self.m)
        self.is_basic = [False] * n + [True] * self.m

    def _bound(self, j: int) -> int:
        """scale times the value of non-basic j; artificials sit at 0."""
        if j >= self.n:
            return 0
        return self.up[j] if self.at_upper[j] else self.lo[j]

    def value_of(self, j: int) -> Fraction:
        if self.is_basic[j]:
            return Fraction(self.tableau[self.basis.index(j)][self.n], self.den * self.scale)
        return Fraction(self._bound(j), self.scale)

    def infeasible(self) -> bool:
        """Some basic artificial is nonzero (all are >= 0 throughout)."""
        return any(row[self.n] for k, row in zip(self.basis, self.tableau) if k >= self.n)

    def iterate(self, costs: list[int]) -> None:
        """Pivot to optimality; only structural columns may enter (Bland).

        Costs are ints; a positive multiple of the costs prices alike.
        """
        n = self.n
        lo, up = self.lo, self.up
        while True:
            if self.stats.pivots > self.pivot_cap:
                raise SolverError("pivot cap exceeded")
            priced = [(costs[k], row) for k, row in zip(self.basis, self.tableau)
                      if costs[k] != 0]
            entering = -1
            direction = 0
            for j in range(n):
                if self.is_basic[j] or lo[j] == up[j]:
                    continue
                # den times the reduced cost; den > 0 keeps its sign
                rc = costs[j] * self.den - sum(cb * row[j] for cb, row in priced if row[j] != 0)
                if not self.at_upper[j] and rc < 0:
                    entering, direction = j, 1
                    break
                if self.at_upper[j] and rc > 0:
                    entering, direction = j, -1
                    break
            if entering < 0:
                return

            # candidate steps of the entering variable, each held as num / dl
            # = scale times the step and compared by cross-multiplication: its
            # own range first (a bound flip), then each basic variable
            # hitting one of its bounds
            best_num, best_dl = up[entering] - lo[entering], 1
            leave_row = -1
            cand_var = entering
            leave_to_upper = False
            den = self.den
            for i, row in enumerate(self.tableau):
                delta = -direction * row[entering]
                if delta == 0:
                    continue
                k = self.basis[i]
                if delta > 0:
                    if k >= n:  # artificials have no upper bound
                        continue
                    num, dl = den * up[k] - row[n], delta
                else:
                    num, dl = row[n] - (den * lo[k] if k < n else 0), -delta
                lhs, rhs = num * best_dl, best_num * dl
                if lhs < rhs or (lhs == rhs and k < cand_var):
                    best_num, best_dl = num, dl
                    leave_row = i
                    cand_var = k
                    leave_to_upper = delta > 0

            self.stats.pivots += 1
            if leave_row < 0:
                # the entering variable crosses its whole range
                span = direction * (up[entering] - lo[entering])
                for row in self.tableau:
                    if row[entering] != 0:
                        row[n] -= span * row[entering]
                self.at_upper[entering] = direction == 1
                continue
            self._exchange(leave_row, entering, leave_to_upper)

    def _exchange(self, row: int, col: int, to_upper: bool) -> None:
        """Variable col enters the basis at row; the leaving one goes to its
        upper bound when to_upper, else to its lower bound.

        The beta column is first rewritten for the new non-basic values (col
        leaves its bound, the leaving variable takes one); the pivot then
        carries it over to the new basis.
        """
        n = self.n
        out = self.basis[row]
        enter_from = self._bound(col)
        if enter_from != 0:
            for r in self.tableau:
                if r[col] != 0:
                    r[n] += enter_from * r[col]
        self.at_upper[out] = to_upper
        self.tableau[row][n] -= self._bound(out) * self.den
        self._pivot(row, col)
        self.is_basic[out] = False
        self.basis[row] = col
        self.is_basic[col] = True

    def _pivot(self, row: int, col: int) -> None:
        """Fraction-free pivot: the pivot entry becomes the denominator."""
        pivot_row = self.tableau[row]
        p = pivot_row[col]
        if p < 0:  # keep den positive
            pivot_row = self.tableau[row] = [-v for v in pivot_row]
            p = -p
        den = self.den
        for i, r in enumerate(self.tableau):
            if i == row:
                continue
            f = r[col]
            if f != 0:
                self.tableau[i] = [(p * v - f * w) // den for v, w in zip(r, pivot_row)]
            elif p != den:
                self.tableau[i] = [p * v // den for v in r]
        self.den = p

    def drive_out_artificials(self) -> None:
        """Degenerate pivots replacing zero-valued basic artificials."""
        for i in range(self.m):
            if self.basis[i] < self.n:
                continue
            piv_col = next((j for j in range(self.n) if self.tableau[i][j] != 0), None)
            if piv_col is None:
                raise SolverError("dependent row survived reduction")
            self._exchange(i, piv_col, False)


def lp_solve_exact(a: Matrix, b: Sequence, lower: Sequence, upper: Sequence,
                   c: Sequence, pivot_cap: int = 1_000_000) -> SolveResult:
    """min c.x s.t. a x = b, lower <= x <= upper, all arithmetic exact.

    Bounds must be finite, so the optimum exists whenever the system is
    feasible.  Returns an optimal basic feasible solution or the infeasible
    status.  Consecutive calls with the same ``a`` object and an equal ``b``
    (the node LPs of one branch and bound) reduce the rows once.
    """
    n = a.cols
    lo = [Fraction(v) for v in lower]
    up = [Fraction(v) for v in upper]
    cv = [Fraction(v) for v in c]
    if len(lo) != n or len(up) != n or len(cv) != n:
        raise ValueError("bound/objective length mismatch")
    if any(l > u for l, u in zip(lo, up)):
        return SolveResult(status="infeasible")

    rows = _integer_rows(a, tuple(Fraction(v) for v in b))
    if rows is None:
        return SolveResult(status="infeasible")
    stats = SolveStats()
    sx = _BoundedSimplex(rows, lo, up, stats, pivot_cap)

    sx.iterate([0] * n + [1] * sx.m)
    if sx.infeasible():
        return SolveResult(status="infeasible", stats=stats)
    sx.drive_out_artificials()
    sx.iterate(_over_common_denominator(cv)[0] + [0] * sx.m)

    x = tuple(sx.value_of(j) for j in range(n))
    objective = sum((cv[j] * x[j] for j in range(n)), Fraction(0))
    return SolveResult(status="optimal", x=x, objective=objective,
                       basis=tuple(sorted(sx.basis)), stats=stats)
