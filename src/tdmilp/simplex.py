"""Exact bounded-variable simplex over rationals.

Two phases with artificial variables, Bland's rule for anti-cycling, no
tolerances anywhere.  The tableau is integer-preserving: it holds Python ints
over one common denominator, |det B| of the current basis, and pivots by the
fraction-free elimination of Bareiss (every division is exact).  Rational data
is scaled to integers first, rows by one common factor and costs by another;
neither changes a pivot.  Only the basic values and the ratio-test steps are
rationals.  Structural variables need finite bounds (instances here always
carry boxes); the solver returns a basic feasible solution, so the basis
columns are invertible and every non-basic variable sits at a bound.
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

    status: str  # optimal | infeasible | unbounded
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


class _BoundedSimplex:
    """Tableau simplex with variable bounds and an artificial basis.

    The tableau holds ints over one positive common denominator: row i of
    ``tableau`` is ``den`` times row i of B^-1 A for the current basis B, with
    ``den`` = |det B|, so every entry is a minor of (A | I) and every pivot
    divides exactly (Bareiss).  Only the structural columns are kept, because an
    artificial column never enters.  The basic values ``xb`` stay rationals.
    """

    def __init__(self, a: Matrix, b: Sequence[Fraction], lo: list[Fraction],
                 up: list[Fraction], stats: SolveStats, pivot_cap: int):
        self.n = a.cols
        self.m = a.rows
        self.lo = lo
        self.up = up
        self.stats = stats
        self.pivot_cap = pivot_cap

        # one factor clears every denominator of a and b; the scaled rows hold
        # the same x with every artificial multiplied by it, so each pivot
        # choice and each step of x stays the same
        w = self.n + 1
        flat, _ = _over_common_denominator(
            [v for i in range(self.m) for v in (*a.row(i), b[i])])
        lo_num, lo_den = _over_common_denominator(lo)
        self.tableau = []
        self.xb = []
        self.den = 1
        # start every structural variable at its lower bound; flip row signs
        # so the artificial basis starts nonnegative
        for i in range(self.m):
            row = flat[i * w:i * w + self.n]
            r = flat[i * w + self.n] * lo_den - sum(v * lo_num[j] for j, v in enumerate(row)
                                                    if v != 0)
            if r < 0:
                row = [-v for v in row]
                r = -r
            self.tableau.append(row)
            self.xb.append(Fraction(r, lo_den))
        self.basis = list(range(self.n, self.n + self.m))
        self.at_upper = [False] * (self.n + self.m)
        self.is_basic = [False] * self.n + [True] * self.m

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

    def iterate(self, costs: list[int]) -> str:
        """Pivot to optimality; only structural columns may enter (Bland).

        Costs are ints; a positive multiple of the costs prices alike.
        """
        m, n = self.m, self.n
        while True:
            if self.stats.pivots > self.pivot_cap:
                raise SolverError("pivot cap exceeded")
            priced = [(costs[k], row) for k, row in zip(self.basis, self.tableau)
                      if costs[k] != 0]
            entering = -1
            direction = 0
            for j in range(n):
                if self.is_basic[j] or self.lo[j] == self.up[j]:
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
                return "optimal"

            d = [row[entering] for row in self.tableau]  # den times the column
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
                    ratio = (uk - self.xb[i]) * self.den / delta
                    hits_upper = True
                else:
                    ratio = (self.xb[i] - self._lower(k)) * self.den / -delta
                    hits_upper = False
                if t_best is None or ratio < t_best or (ratio == t_best and k < cand_var):
                    t_best = ratio
                    leave_row = i
                    cand_var = k
                    leave_to_upper = hits_upper
            if t_best is None:
                return "unbounded"

            self.stats.pivots += 1
            step = direction * t_best / self.den
            for i in range(m):
                if d[i] != 0:
                    self.xb[i] -= d[i] * step
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

    phase1 = [0] * n + [1] * sx.m
    if sx.iterate(phase1) != "optimal":
        raise SolverError("phase 1 cannot be unbounded")
    infeasibility = sum((sx.value_of(j) for j in range(n, n + sx.m)), Fraction(0))
    if infeasibility != 0:
        return SolveResult(status="infeasible", stats=stats)
    sx.drive_out_artificials()

    phase2 = _over_common_denominator(cv)[0] + [0] * sx.m
    if sx.iterate(phase2) == "unbounded":
        return SolveResult(status="unbounded", stats=stats)

    x = tuple(sx.value_of(j) for j in range(n))
    objective = sum((cv[j] * x[j] for j in range(n)), Fraction(0))
    return SolveResult(status="optimal", x=x, objective=objective,
                       basis=tuple(sorted(sx.basis)), stats=stats)
