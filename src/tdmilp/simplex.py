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
sits at a bound.  The returned values are in the library's scalar form: an
int where a value is integral, else a Fraction.

Besides the tableau rows the state carries the reduced-cost row of the
current phase, times the common denominator, and every pivot updates it by
the same Bareiss step as the rows: phase 1, phase 2 and the dual simplex all
price from that one row, recomputed from scratch only when phase 2 begins.
Every optimum, cold or warm, is checked against a fresh row on the way out.

Warm start: an optimal result carries its final tableau, and a later call
with ``start=`` that result and new bounds (same a, b and c) copies it, moves
the non-basic values onto the new bounds and runs a dual simplex from there,
skipping both phases.  Branch and bound children only tighten a bound, so
the parent basis stays dual feasible; when it is not (a fixed variable was
freed against its reduced cost), the call solves cold.  The dual simplex
follows Bland's rule too: the leaving row is the one whose basic variable,
lowest-indexed, lies outside its bounds; the entering column has the least
ratio |d_j| / |alpha_rj| over the columns that move that variable towards
the violated bound, ties to the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .linalg import Matrix, clear_denominators, forward_eliminate, rational

PIVOT_CAP = 1_000_000  # most pivots one solve may take before SolverError


class SolverError(Exception):
    """Internal solver invariant violation."""


@dataclass
class SolveStats:
    pivots: int = 0
    nodes: int = 0


@dataclass
class SolveResult:
    """Outcome of an exact solve; each entry of ``x``, and the objective, is
    an int where the value is integral, else a Fraction."""

    status: str  # optimal | infeasible
    x: Optional[tuple[int | Fraction, ...]] = None
    objective: Optional[int | Fraction] = None
    basis: Optional[tuple[int, ...]] = None
    stats: SolveStats = field(default_factory=SolveStats)
    # the optimal tableau of lp_solve_exact, read only by its start=
    final: Optional[_BoundedSimplex] = field(default=None, compare=False, repr=False)


def reduce_rows(a: Matrix, b: Sequence[int | Fraction]
                ) -> Optional[tuple[Matrix, tuple[int | Fraction, ...]]]:
    """Drop linearly dependent rows; None when a dependent row is inconsistent.

    Returns the surviving rows in their original (untransformed) form.
    """
    work = [list(a.row(i)) + [rational(b[i])] for i in range(a.rows)]
    keep: list[int] = []
    for i, pivot in forward_eliminate(work, a.cols):
        if pivot is not None:
            keep.append(i)
        elif work[i][a.cols] != 0:
            return None  # 0 = nonzero: inconsistent system
    return a.submatrix(keep, range(a.cols)), tuple(rational(b[i]) for i in keep)


IntRows = tuple[tuple[int, ...], ...]


def _integer_rows(a: Matrix, b: tuple[int | Fraction, ...]) -> Optional[IntRows]:
    """``reduce_rows(a, b)`` as int rows (coefficients, then the rhs), all
    scaled by one common factor; None when the system is inconsistent."""
    reduced = reduce_rows(a, b)
    if reduced is None:
        return None
    red, rhs = reduced
    w = a.cols + 1
    flat, _ = clear_denominators([v for i in range(red.rows) for v in (*red.row(i), rhs[i])])
    return tuple(tuple(flat[i * w:(i + 1) * w]) for i in range(red.rows))


class _BoundedSimplex:
    """Tableau simplex with variable bounds and an artificial basis.

    Everything is an int over one positive common denominator ``den`` =
    |det B| for the current basis B.  Row i of ``tableau`` is ``den`` times
    row i of B^-1 A, then one more column ``beta``: ``den * scale`` times the
    value of the i-th basic variable, where ``scale`` clears every bound
    denominator.  Every tableau entry is a minor of (A | I), so every pivot
    divides exactly (Bareiss); the beta column is pivoted with the rest.
    Only the structural columns are kept, because an artificial column never
    enters.  ``lo`` and ``up`` hold ``scale`` times the structural bounds;
    ``costs`` is ``cden`` times the phase-2 costs of the structural columns,
    and ``rc`` is ``den`` times the reduced costs of the current phase on
    them, a row of minors pivoted like the others: phase 1 costs 1 per
    artificial and nothing else, phase 2 costs ``costs``.  ``problem`` is
    the (a, b, c) solved, for checking a warm start.
    """

    def __init__(self, rows: IntRows, lo: list[int | Fraction], up: list[int | Fraction],
                 c: Sequence[int | Fraction], problem: tuple, stats: SolveStats):
        self.n = n = len(lo)
        self.m = len(rows)
        self.stats = stats
        self.problem = problem
        self.costs, self.cden = clear_denominators(c)

        # scaling the rows multiplies only the artificials, and scaling the
        # bounds multiplies every value by scale, so no pivot choice changes
        bounds, self.scale = clear_denominators([*lo, *up])
        self.lo, self.up = bounds[:n], bounds[n:]
        self.tableau = []
        self.den = 1
        # start every structural variable at its lower bound; flip row signs
        # so the artificial basis starts nonnegative
        for row in rows:
            beta = row[n] * self.scale - sum(v * l for v, l in zip(row, self.lo) if v != 0)
            sign = -1 if beta < 0 else 1
            self.tableau.append([sign * v for v in row[:n]] + [sign * beta])
        # the phase-1 row: each basic artificial costs 1
        self.rc = [-sum(row[j] for row in self.tableau) for j in range(n)]
        self.basis = list(range(n, n + self.m))
        self.at_upper = [False] * (n + self.m)
        self.is_basic = [False] * n + [True] * self.m

    def _bound(self, j: int) -> int:
        """scale times the value of non-basic j; artificials sit at 0."""
        if j >= self.n:
            return 0
        return self.up[j] if self.at_upper[j] else self.lo[j]

    def infeasible(self) -> bool:
        """Some basic artificial is nonzero (all are >= 0 throughout)."""
        return any(row[self.n] for k, row in zip(self.basis, self.tableau) if k >= self.n)

    def reduced_costs(self) -> list[int]:
        """den times the phase-2 reduced cost of each structural column (0
        on the basic ones), from scratch; den > 0 keeps the signs.  No
        artificial may be basic."""
        costs = self.costs
        rc = [cj * self.den for cj in costs]
        for k, row in zip(self.basis, self.tableau):
            cb = costs[k]
            if cb != 0:
                rc = [r - cb * v for r, v in zip(rc, row)]
        return rc

    def can_move(self, j: int) -> bool:
        """Non-basic j with room between its bounds."""
        return not self.is_basic[j] and self.lo[j] != self.up[j]

    def improves(self, j: int) -> bool:
        """j can move and its carried reduced cost has the wrong sign for
        its bound: < 0 at its lower bound or > 0 at its upper one."""
        rc = self.rc[j]
        return (rc > 0 if self.at_upper[j] else rc < 0) and self.can_move(j)

    def iterate(self) -> None:
        """Pivot to optimality on the carried row; only structural columns
        may enter, the lowest-indexed improving one first (Bland)."""
        n = self.n
        lo, up = self.lo, self.up
        while True:
            if self.stats.pivots > PIVOT_CAP:
                raise SolverError("pivot cap exceeded")
            entering = next((j for j in range(n) if self.improves(j)), -1)
            if entering < 0:
                return
            direction = -1 if self.at_upper[entering] else 1

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

        def step(r: list[int]) -> list[int]:
            f = r[col]
            if f != 0:
                return [(p * v - f * w) // den for v, w in zip(r, pivot_row)]
            return [p * v // den for v in r] if p != den else r

        self.tableau = [pivot_row if i == row else step(r) for i, r in enumerate(self.tableau)]
        self.rc = step(self.rc)  # zip stops before the beta column
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

    def dual_feasible(self, cols: Iterable[int]) -> bool:
        """No column in cols improves: each prices out on the carried row."""
        return not any(self.improves(j) for j in cols)

    def warm(self, lower: Sequence[int | Fraction], upper: Sequence[int | Fraction],
             stats: SolveStats) -> Optional[_BoundedSimplex]:
        """A copy of this final state with the bounds (as ``rational``
        returns them) replaced and each non-basic value moved onto its new
        bound; None when the basis is not dual feasible for them.  This state
        is left as it is."""
        n = self.n
        bounds, scale = clear_denominators([*lower, *upper], base=self.scale)
        lo, up = bounds[:n], bounds[n:]
        f = scale // self.scale
        sx = _BoundedSimplex.__new__(_BoundedSimplex)
        sx.n, sx.m, sx.stats, sx.problem = n, self.m, stats, self.problem
        sx.cden, sx.costs, sx.rc = self.cden, self.costs, self.rc[:]
        sx.scale, sx.lo, sx.up = scale, lo, up
        sx.tableau = [row[:] for row in self.tableau]
        sx.den = self.den
        sx.basis = self.basis[:]
        sx.at_upper = self.at_upper[:]
        sx.is_basic = self.is_basic[:]
        if f != 1:
            for row in sx.tableau:
                row[n] *= f
        moved = [j for j, (l, u, pl, pu) in enumerate(zip(lo, up, self.lo, self.up))
                 if l != f * pl or u != f * pu]
        # a reduced cost has the sign its bound needs unless the column was
        # fixed (lo == up), which the parent never priced
        freed = [j for j in moved if self.lo[j] == self.up[j]]
        if freed and not sx.dual_feasible(freed):
            return None
        for j in moved:
            if sx.is_basic[j]:
                continue
            shift = (up[j] - f * self.up[j]) if sx.at_upper[j] else (lo[j] - f * self.lo[j])
            if shift != 0:
                for row in sx.tableau:
                    if row[j] != 0:
                        row[n] -= shift * row[j]
        return sx

    def dual_iterate(self) -> bool:
        """Dual simplex from a dual feasible basis to a feasible one, which is
        then optimal; False when a row shows the bounds cannot be met.

        The basic variable of row r is beta_r - sum_j T[r][j] x_j over den
        and scale, so non-basic j moves it towards the violated bound when
        T[r][j] has the sign of that move's direction; only structural
        columns with lo < up can move.
        """
        n = self.n
        lo, up = self.lo, self.up
        while True:
            if self.stats.pivots > PIVOT_CAP:
                raise SolverError("pivot cap exceeded")
            den = self.den
            leave_row, leave_var = -1, n
            for i, (k, row) in enumerate(zip(self.basis, self.tableau)):
                if k < leave_var and not den * lo[k] <= row[n] <= den * up[k]:
                    leave_row, leave_var = i, k
            if leave_row < 0:
                return True
            pivot_row = self.tableau[leave_row]
            to_upper = pivot_row[n] > den * up[leave_var]
            # raising a column at its lower bound lowers the basic variable
            # when T[r][j] > 0; lowering one at its upper bound raises it
            movers = [j for j in range(n) if pivot_row[j] != 0 and self.can_move(j)
                      and (pivot_row[j] > 0) == (to_upper != self.at_upper[j])]

            # least |rc_j| / |T[r][j]|, held as a pair and compared by
            # cross-multiplication, ties to the lowest index
            entering, best_rc, best_a = -1, 0, 1
            rc = self.rc
            for j in movers:
                rc_j, a_rj = abs(rc[j]), abs(pivot_row[j])
                if entering < 0 or rc_j * best_a < best_rc * a_rj:
                    entering, best_rc, best_a = j, rc_j, a_rj
            if entering < 0:
                return False
            self.stats.pivots += 1
            self._exchange(leave_row, entering, to_upper)

    def result(self) -> SolveResult:
        """The optimal solution read off the integer state, carrying it, once
        reduced costs recomputed from the basis equal the carried row and
        price out (else SolverError); x and the objective in scalar form."""
        n = self.n
        if self.reduced_costs() != self.rc:
            raise SolverError("carried reduced costs differ from those of the final basis")
        if not self.dual_feasible(range(n)):
            raise SolverError("final basis does not price out")
        den = self.den
        num = [den * (u if at_up else l) for l, u, at_up in zip(self.lo, self.up, self.at_upper)]
        for k, row in zip(self.basis, self.tableau):
            num[k] = row[n]
        d = den * self.scale
        objective = rational(Fraction(sum(cj * v for cj, v in zip(self.costs, num) if cj != 0),
                                      d * self.cden))
        x = tuple(v // d if v % d == 0 else Fraction(v, d) for v in num)
        return SolveResult(status="optimal", x=x,
                           objective=objective, basis=tuple(sorted(self.basis)),
                           stats=self.stats, final=self)


def lp_solve_exact(a: Matrix, b: Sequence, lower: Sequence, upper: Sequence,
                   c: Sequence, *, start: Optional[SolveResult] = None) -> SolveResult:
    """min c.x s.t. a x = b, lower <= x <= upper, all arithmetic exact.

    Bounds must be finite, so the optimum exists whenever the system is
    feasible.  Returns an optimal basic feasible solution or the infeasible
    status.  b, the bounds and c go through ``rational``, so a float raises
    TypeError.  ``start``, an optimal result of this function for the same
    a, b and c, warm-starts the solve from its final tableau by a dual
    simplex; a start that solved another problem raises ValueError.  Every
    pivot, cold or warm, prices from the carried reduced-cost row, and every
    optimum is checked against reduced costs recomputed from its basis: they
    must equal the carried row and price out, else SolverError is raised.  A
    solve past ``PIVOT_CAP`` pivots raises SolverError too.  Each entry of
    ``x``, and the objective, is an int where the value is integral, else a
    Fraction.
    """
    n = a.cols
    if len(lower) != n or len(upper) != n or len(c) != n:
        raise ValueError("bound/objective length mismatch")
    if len(b) != a.rows:
        raise ValueError(f"right-hand side has {len(b)} entries for {a.rows} rows")
    b, c = tuple(map(rational, b)), tuple(map(rational, c))
    lo = [rational(v) for v in lower]
    up = [rational(v) for v in upper]
    if start is not None and (start.final is None or start.final.problem != (a, b, c)):
        raise ValueError("start is not an optimal solve of this (a, b, c)")
    if any(l > u for l, u in zip(lo, up)):
        return SolveResult(status="infeasible")
    if start is not None:
        stats = SolveStats()
        sx = start.final.warm(lo, up, stats)
        if sx is not None:
            if not sx.dual_iterate():
                return SolveResult(status="infeasible", stats=stats)
            return sx.result()

    rows = _integer_rows(a, b)
    if rows is None:
        return SolveResult(status="infeasible")
    stats = SolveStats()
    sx = _BoundedSimplex(rows, lo, up, c, (a, b, c), stats)

    sx.iterate()
    if sx.infeasible():
        return SolveResult(status="infeasible", stats=stats)
    sx.drive_out_artificials()
    sx.rc = sx.reduced_costs()
    sx.iterate()
    return sx.result()
