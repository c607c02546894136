"""Exact bounded-variable simplex over rationals.

Two phases with artificial variables, Bland's rule for anti-cycling, no
tolerances anywhere.  Structural variables need finite bounds (instances here
always carry boxes); the solver returns a basic feasible solution, so the
basis columns are invertible and every non-basic variable sits at a bound.
"""

from __future__ import annotations

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


@dataclass
class SolveResult:
    """Outcome of an exact solve."""

    status: str  # optimal | infeasible | unbounded
    x: Optional[tuple[Fraction, ...]] = None
    objective: Optional[Fraction] = None
    basis: Optional[tuple[int, ...]] = None
    stats: SolveStats = field(default_factory=SolveStats)

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


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


class _BoundedSimplex:
    """Tableau simplex with variable bounds and an artificial basis."""

    def __init__(self, a: Matrix, b: Sequence[Fraction], lo: list[Fraction],
                 up: list[Fraction], stats: SolveStats, pivot_cap: int):
        self.n = a.cols
        self.m = a.rows
        self.lo = lo
        self.up = up
        self.stats = stats
        self.pivot_cap = pivot_cap

        rows = [list(a.row(i)) for i in range(self.m)]
        rhs = [Fraction(v) for v in b]
        # start every structural variable at its lower bound; flip row signs
        # so the artificial basis starts nonnegative
        for i in range(self.m):
            r = rhs[i] - sum(rows[i][j] * lo[j] for j in range(self.n) if rows[i][j] != 0)
            if r < 0:
                rows[i] = [-x for x in rows[i]]
                rhs[i] = -rhs[i]
        self.tableau = [rows[i] + [Fraction(int(k == i)) for k in range(self.m)]
                        for i in range(self.m)]
        self.basis = list(range(self.n, self.n + self.m))
        self.at_upper = [False] * (self.n + self.m)
        self.is_basic = [False] * self.n + [True] * self.m
        self.xb = [rhs[i] - sum(self.tableau[i][j] * lo[j]
                                for j in range(self.n) if self.tableau[i][j] != 0)
                   for i in range(self.m)]

    # artificials are [0, +inf); structural bounds are finite
    def _lower(self, j: int) -> Fraction:
        return self.lo[j] if j < self.n else Fraction(0)

    def _upper(self, j: int) -> Optional[Fraction]:
        return self.up[j] if j < self.n else None

    def value_of(self, j: int) -> Fraction:
        if self.is_basic[j]:
            return self.xb[self.basis.index(j)]
        if self.at_upper[j]:
            return self._upper(j)
        return self._lower(j)

    def iterate(self, costs: list[Fraction]) -> str:
        """Pivot to optimality; only structural columns may enter (Bland)."""
        m, n = self.m, self.n
        while True:
            if self.stats.pivots > self.pivot_cap:
                raise SolverError("pivot cap exceeded")
            cb = [costs[self.basis[i]] for i in range(m)]
            entering = -1
            direction = 0
            for j in range(n):
                if self.is_basic[j] or self.lo[j] == self.up[j]:
                    continue
                rc = costs[j] - sum(cb[i] * self.tableau[i][j] for i in range(m)
                                    if cb[i] != 0 and self.tableau[i][j] != 0)
                if not self.at_upper[j] and rc < 0:
                    entering, direction = j, 1
                    break
                if self.at_upper[j] and rc > 0:
                    entering, direction = j, -1
                    break
            if entering < 0:
                return "optimal"

            d = [self.tableau[i][entering] for i in range(m)]
            # candidate steps: the entering variable's own range, then each
            # basic variable hitting one of its bounds
            t_best: Optional[Fraction] = self.up[entering] - self.lo[entering]
            leave_row = -1  # -1 encodes the bound flip of the entering variable
            cand_var = entering
            leave_to_upper = False
            for i in range(m):
                delta = -direction * d[i]
                if delta == 0:
                    continue
                k = self.basis[i]
                if delta > 0:
                    uk = self._upper(k)
                    if uk is None:
                        continue
                    ratio = (uk - self.xb[i]) / delta
                    hits_upper = True
                else:
                    ratio = (self.xb[i] - self._lower(k)) / (-delta)
                    hits_upper = False
                if t_best is None or ratio < t_best or (ratio == t_best and k < cand_var):
                    t_best = ratio
                    leave_row = i
                    cand_var = k
                    leave_to_upper = hits_upper
            if t_best is None:
                return "unbounded"

            self.stats.pivots += 1
            for i in range(m):
                self.xb[i] += -direction * d[i] * t_best
            if leave_row < 0:
                self.at_upper[entering] = direction == 1
                continue
            enter_value = (self.lo[entering] + t_best if direction == 1
                           else self.up[entering] - t_best)
            out = self.basis[leave_row]
            self._pivot(leave_row, entering)
            self.is_basic[out] = False
            self.at_upper[out] = leave_to_upper
            self.basis[leave_row] = entering
            self.is_basic[entering] = True
            self.xb[leave_row] = enter_value

    def _pivot(self, row: int, col: int) -> None:
        piv = self.tableau[row][col]
        self.tableau[row] = [x / piv for x in self.tableau[row]]
        for i in range(self.m):
            if i != row and self.tableau[i][col] != 0:
                f = self.tableau[i][col]
                self.tableau[i] = [x - f * y for x, y in zip(self.tableau[i], self.tableau[row])]

    def drive_out_artificials(self) -> None:
        """Degenerate pivots replacing zero-valued basic artificials."""
        for i in range(self.m):
            if self.basis[i] < self.n:
                continue
            piv_col = next((j for j in range(self.n) if self.tableau[i][j] != 0), None)
            if piv_col is None:
                raise SolverError("dependent row survived reduction")
            out = self.basis[i]
            value = self.value_of(piv_col)
            self._pivot(i, piv_col)
            self.is_basic[out] = False
            self.at_upper[out] = False
            self.basis[i] = piv_col
            self.is_basic[piv_col] = True
            self.xb[i] = value


def lp_solve_exact(a: Matrix, b: Sequence, lower: Sequence, upper: Sequence,
                   c: Sequence, pivot_cap: int = 1_000_000) -> SolveResult:
    """min c.x s.t. a x = b, lower <= x <= upper, all arithmetic exact.

    Bounds must be finite.  Returns an optimal basic feasible solution, the
    infeasible status, or (defensively, unreachable under finite boxes) the
    unbounded status.
    """
    n = a.cols
    lo = [Fraction(v) for v in lower]
    up = [Fraction(v) for v in upper]
    cv = [Fraction(v) for v in c]
    if len(lo) != n or len(up) != n or len(cv) != n:
        raise ValueError("bound/objective length mismatch")
    if any(l > u for l, u in zip(lo, up)):
        return SolveResult(status="infeasible")

    reduced = reduce_rows(a, [Fraction(v) for v in b])
    if reduced is None:
        return SolveResult(status="infeasible")
    a, bvec = reduced
    stats = SolveStats()
    sx = _BoundedSimplex(a, bvec, lo, up, stats, pivot_cap)

    phase1 = [Fraction(0)] * n + [Fraction(1)] * sx.m
    if sx.iterate(phase1) != "optimal":
        raise SolverError("phase 1 cannot be unbounded")
    infeasibility = sum((sx.value_of(j) for j in range(n, n + sx.m)), Fraction(0))
    if infeasibility != 0:
        return SolveResult(status="infeasible", stats=stats)
    sx.drive_out_artificials()

    phase2 = cv + [Fraction(0)] * sx.m
    if sx.iterate(phase2) == "unbounded":
        return SolveResult(status="unbounded", stats=stats)

    x = tuple(sx.value_of(j) for j in range(n))
    objective = sum((cv[j] * x[j] for j in range(n)), Fraction(0))
    return SolveResult(status="optimal", x=x, objective=objective,
                       basis=tuple(sorted(sx.basis)), stats=stats)
