"""Exact branch and bound, the MILP pipeline, and oracles.

The pipeline solves a mixed instance by bounding the denominators its optimal
continuous part can need (certificate, cut by the determinant scale, when
affordable; determinant scale otherwise), branching on the integer columns
of the instance as given, and checking that the scale puts the optimum's
continuous values on the integer grid.  ``vertex_enumerate`` and
``milp_oracle`` are brute-force oracles; the pipeline uses neither.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .fracbound import CapExceededError as CertCapError
from .fracbound import frac_bound
from .integralize import MilpInstance, choose_scale, recover
from .linalg import (Matrix, SingularMatrixError, forward_eliminate, mat_det, mat_inverse,
                     rational)
from .simplex import SolveResult, SolveStats, SolverError, lp_solve_exact, reduce_rows
from .structure import (CapExceededError, TdDecomposition, TdStats, _bits, _mask_components,
                        _matrix_adjacency, _supports, decomposition_for_matrix,
                        restrict_decomposition, td_stats)

M_CAP = 10 ** 4  # largest certificate the scaling stage will accept
BASIS_CAP = 10 ** 4  # most column bases the determinant scale will try
VERTEX_CAP = 12  # most variables vertex_enumerate will take
ORACLE_BOX_CAP = 10 ** 6  # most integer assignments milp_oracle will enumerate
NODE_CAP = 10 ** 5  # most nodes ilp_solve will pop before CapExceededError


def vertex_enumerate(a: Matrix, b: Sequence, lower: Sequence,
                     upper: Sequence) -> list[tuple[int | Fraction, ...]]:
    """All basic feasible solutions of ``a x = b, lower <= x <= upper``.

    Every invertible column basis is solved against every lower/upper
    assignment of the non-basic variables; duplicates are removed.  Refuses
    systems with more than VERTEX_CAP variables.  The data goes through
    ``rational``, so a float raises TypeError.
    """
    n = a.cols
    if n > VERTEX_CAP:
        raise CapExceededError(f"vertex enumeration limited to {VERTEX_CAP} variables, got {n}")
    lo = [rational(v) for v in lower]
    up = [rational(v) for v in upper]
    if any(l > u for l, u in zip(lo, up)):
        return []
    reduced = reduce_rows(a, b)
    if reduced is None:
        return []
    a, bvec = reduced
    m = a.rows

    seen: set[tuple[int | Fraction, ...]] = set()
    out: list[tuple[int | Fraction, ...]] = []
    for basis in itertools.combinations(range(n), m):
        sub = a.submatrix(range(m), basis)
        try:
            inv = mat_inverse(sub)
        except SingularMatrixError:
            continue
        nonbasic = [j for j in range(n) if j not in basis]
        for picks in itertools.product((0, 1), repeat=len(nonbasic)):
            x = [Fraction(0)] * n
            for j, pick in zip(nonbasic, picks):
                x[j] = up[j] if pick else lo[j]
            rhs = [bvec[i] - sum(a[i, j] * x[j] for j in nonbasic if a[i, j] != 0)
                   for i in range(m)]
            vals = inv.apply_vector(rhs)
            ok = True
            for j, v in zip(basis, vals):
                if not (lo[j] <= v <= up[j]):
                    ok = False
                    break
                x[j] = v
            if not ok:
                continue
            xt = tuple(x)
            if xt not in seen:
                seen.add(xt)
                out.append(xt)
    return out


def _most_fractional(x: Sequence[int | Fraction], cols: range) -> Optional[int]:
    """Index in cols whose value is farthest from integral; ties to the lowest.

    A value p/q lies |2*(p mod q) - q| / (2q) from the nearest half, so keys
    are compared by cross-multiplying those integers.
    """
    best = None
    best_num, best_den = 0, 1
    for j in cols:
        p, q = x[j].numerator, x[j].denominator
        if q == 1:
            continue
        num = abs(2 * (p % q) - q)
        if best is None or num * best_den < best_num * q:
            best, best_num, best_den = j, num, q
    return best


def ilp_solve(inst: MilpInstance) -> SolveResult:
    """Exact optimum with the inst.z integer columns integral, by best-bound
    branch and bound.

    Relaxations are solved by the exact simplex and pruning compares
    rationals exactly.  Each branch takes the most fractional integer
    column; a node whose integer columns are integral is taken as it is.
    Popping more than NODE_CAP nodes raises CapExceededError.  The root LP
    is solved cold; each child LP is warm-started from its parent's optimal
    tableau (``lp_solve_exact``'s ``start``), whose basis stays dual
    feasible because a child only tightens one bound, so a dual simplex
    with Bland's tie-break (lowest index leaves; least ratio enters, ties to
    the lowest index) replaces both phases.  At a non-unique LP optimum it
    may pick another vertex than a cold solve, which can change ``x`` and
    the node count, never the status or the objective.
    """
    matrix = inst.matrix
    stats = SolveStats()
    counter = itertools.count()
    root = (inst.lower, inst.upper)
    heap: list = []

    def push(lo: tuple[int, ...], up: tuple[int, ...],
             parent: Optional[SolveResult] = None) -> None:
        res = lp_solve_exact(matrix, inst.b, lo, up, inst.c, start=parent)
        stats.pivots += res.stats.pivots
        if res.status != "optimal":
            return
        heapq.heappush(heap, (res.objective, next(counter), res, lo, up))

    push(*root)
    incumbent: Optional[SolveResult] = None
    while heap:
        bound, _, res, lo, up = heapq.heappop(heap)
        stats.nodes += 1
        if stats.nodes > NODE_CAP:
            raise CapExceededError(f"branch and bound limited to {NODE_CAP} nodes")
        if incumbent is not None and bound >= incumbent.objective:
            continue
        branch_var = _most_fractional(res.x, range(inst.z))
        if branch_var is None:
            incumbent = res
            continue
        v = res.x[branch_var]
        floor = v.numerator // v.denominator
        down_up = up[:branch_var] + (floor,) + up[branch_var + 1:]
        if lo[branch_var] <= floor:
            push(lo, down_up, res)
        up_lo = lo[:branch_var] + (floor + 1,) + lo[branch_var + 1:]
        if floor + 1 <= up[branch_var]:
            push(up_lo, up, res)
    if incumbent is None:
        return SolveResult(status="infeasible", stats=stats)
    return SolveResult(status="optimal", x=incumbent.x, objective=incumbent.objective,
                       basis=incumbent.basis, stats=stats)


def milp_oracle(inst: MilpInstance) -> SolveResult:
    """Ground truth by enumerating every integer assignment.

    For each assignment the continuous remainder is an exact LP; the overall
    best solve wins.  Refuses integer boxes with volume beyond ORACLE_BOX_CAP.
    """
    z = inst.z
    if math.prod(inst.upper[j] - inst.lower[j] + 1 for j in range(z)) > ORACLE_BOX_CAP:
        raise CapExceededError(f"integer box volume exceeds {ORACLE_BOX_CAP}")
    best_obj: Optional[int | Fraction] = None
    best_x: Optional[tuple[int | Fraction, ...]] = None
    ranges = [range(inst.lower[j], inst.upper[j] + 1) for j in range(z)]
    for assign in itertools.product(*ranges):
        residual_b = [inst.b[i] - sum(inst.a_int[i, j] * assign[j] for j in range(z))
                      for i in range(inst.rows)]
        res = lp_solve_exact(inst.a_frac, residual_b, inst.lower[z:], inst.upper[z:],
                             inst.c[z:])
        if res.status != "optimal":
            continue
        total = sum(inst.c[j] * assign[j] for j in range(z)) + res.objective
        if best_obj is None or total < best_obj:
            best_obj = total
            best_x = assign + res.x
    if best_obj is None:
        return SolveResult(status="infeasible")
    return SolveResult(status="optimal", x=best_x, objective=best_obj)


@dataclass
class PipelineOptions:
    side: str = "auto"  # primal | dual | auto


@dataclass
class PipelineReport:
    """Machine-readable account of one pipeline run."""

    side: str = ""
    primal_stats: Optional[TdStats] = None
    dual_stats: Optional[TdStats] = None
    m_source: str = ""  # certificate | determinant | trivial
    m_value: int = 1
    scale: int = 1
    ilp_nodes: int = 0
    scaled_objective: Optional[int | Fraction] = None
    notes: list[str] = field(default_factory=list)

    def machine_lines(self) -> list[str]:
        lines = [f"side={self.side}"]
        for tag, st in (("primal", self.primal_stats), ("dual", self.dual_stats)):
            if st is not None:
                lines.append(st.machine_line(tag))
        lines.append(f"m_source={self.m_source}")
        lines.append(f"m={_number_text(self.m_value)}")
        lines.append(f"scale={_number_text(self.scale)}")
        lines.append(f"ilp_nodes={self.ilp_nodes}")
        if self.scaled_objective is not None:
            lines.append(f"scaled_objective={_number_text(self.scaled_objective)}")
        return lines


def _number_text(x: int | Fraction) -> str:
    """``str(x)``, except that an integer past Python's int-to-str digit limit
    (4300 digits by default) is written in hex (``0x...``) instead of raising."""
    x = Fraction(x)
    terms = [x.numerator] if x.denominator == 1 else [x.numerator, x.denominator]
    out = []
    for n in terms:
        try:
            out.append(str(n))
        except ValueError:
            out.append(hex(n))
    return "/".join(out)


def _determinant_scale(a_frac: Matrix) -> tuple[int, int]:
    """lcm and largest of |det B| over the bases B of a_frac's independent rows.

    By Cramer's rule every vertex of ``a_frac y = r`` within integral bounds,
    r integral, has denominators dividing |det B| for its basis B, whatever
    the integer part fixed r; so the lcm is a valid scale.  Refuses more than
    BASIS_CAP candidate bases of the whole matrix before computing any
    determinant.

    Both values are products over the components of the kept rows, two
    columns being connected when they share a row: each kept row lies in one
    component, so a basis is a basis of every component and |det B| is the
    product of theirs, and the lcm and the largest of products that range
    independently are the products of the components' lcms and largests.
    Each component's bases are enumerated on their own, so a block-diagonal
    part pays for the sum of its blocks' bases, not their product.
    """
    keep = [i for i, pivot in forward_eliminate(a_frac.row_lists(), a_frac.cols)
            if pivot is not None]
    q, r = a_frac.cols, len(keep)
    if math.comb(q, r) > BASIS_CAP:
        raise CapExceededError(f"determinant scale limited to {BASIS_CAP} bases, "
                               f"got C({q},{r})")
    kept = a_frac.submatrix(keep, range(q))
    supports = _supports(map(kept.row, range(r)))
    scale = largest = 1
    for comp in _mask_components((1 << q) - 1, _matrix_adjacency(kept, "primal")):
        rows = [i for i, support in enumerate(supports) if support & comp]
        if not rows:
            continue  # columns no kept row touches: only the empty basis
        dets = [abs(mat_det(kept.submatrix(rows, cols)))
                for cols in itertools.combinations(_bits(comp), len(rows))]
        dets = [int(d) for d in dets if d]
        scale *= math.lcm(*dets)
        largest *= max(dets)
    return scale, largest


def _grid_scale(a_frac: Matrix, f: TdDecomposition, side: str,
                report: PipelineReport) -> int:
    """The scale of the continuous columns; its source, m and notes go to report.

    The certificate M counts when it is at most M_CAP, the determinant scale
    D when it stays within BASIS_CAP; each is computed once.  lcm(1..M) and
    D are both multiples of every vertex denominator, so with both the
    scale is their gcd; with one, it is that one (m is then M, or the
    largest |det B|).  With neither, the determinant's CapExceededError
    carries the partial report.
    """
    m = None
    try:
        cert = frac_bound(a_frac, f, side)
        if cert.bound <= M_CAP:
            m = cert.bound
        else:
            report.notes.append("certificate exceeded usable cap; determinant scale")
    except CertCapError as exc:
        report.notes.append(
            f"certificate capped at log2~{exc.log2_estimate:.3g}; determinant scale")
    try:
        det_scale, largest = _determinant_scale(a_frac)
    except CapExceededError as exc:
        if m is None:
            exc.report = report  # partial report still available to callers
            raise
        det_scale = None
    if m is None:
        report.m_source, report.m_value = "determinant", largest
        return det_scale
    report.m_source, report.m_value = "certificate", m
    scale = choose_scale(m)
    if det_scale is None:
        return scale
    cut = math.gcd(scale, det_scale)
    if cut < scale:
        report.notes.append("scale cut to gcd(certificate, determinant)")
    return cut


def choose_side(matrix: Matrix, side: str
                ) -> tuple[str, dict[str, TdDecomposition], dict[str, TdStats]]:
    """Resolve side and return it with the decompositions of both sides and
    their statistics, each computed once.

    "auto" takes the side of lower treedepth height, primal on ties; an
    unknown side raises ValueError.
    """
    if side not in ("primal", "dual", "auto"):
        raise ValueError(f"unknown side {side!r}")
    fs = {s: decomposition_for_matrix(matrix, s, "auto") for s in ("primal", "dual")}
    stats = {s: td_stats(f) for s, f in fs.items()}
    if side == "auto":
        side = "primal" if stats["primal"].height <= stats["dual"].height else "dual"
    return side, fs, stats


def milp_solve(inst: MilpInstance,
               options: Optional[PipelineOptions] = None) -> tuple[SolveResult, PipelineReport]:
    """Solve a mixed instance by branch and bound on its own rows, with a
    scale onto the integer grid as a checked witness.

    Stages: analyse both interaction graphs and pick the shallower side;
    obtain a scale (1 for a pure ILP, else ``_grid_scale``'s, from the
    fractionality certificate and the determinant scale); branch on the
    integer columns; check that the scale times each continuous value of the
    optimum is an integer, else raise SolverError; validate through
    ``recover``.  The report's scaled objective is the scale times the
    objective.  On ``integralize(inst, scale)``, a diagonal rescaling,
    branch and bound would take the same path.  By Cramer's rule a sound
    scale puts every node whose integer columns are integral on its grid,
    and best-bound search accepts only the first such node.
    """
    options = options or PipelineOptions()
    report = PipelineReport()

    side, fs, stats = choose_side(inst.matrix, options.side)
    report.primal_stats, report.dual_stats = stats["primal"], stats["dual"]
    report.side = side

    if inst.q == 0:
        scale = 1
        report.m_source = "trivial"
    else:
        f = fs["dual"] if side == "dual" else restrict_decomposition(
            fs["primal"], range(inst.z, inst.z + inst.q))
        scale = _grid_scale(inst.a_frac, f, side, report)
    report.scale = scale

    res = ilp_solve(inst)
    report.ilp_nodes = res.stats.nodes
    if res.status != "optimal":
        return res, report

    z = inst.z
    scaled = res.x[:z] + tuple(scale * v for v in res.x[z:])
    if any(v.denominator != 1 for v in scaled):
        raise SolverError(f"a continuous value is off the 1/scale grid under "
                          f"m_source={report.m_source} m={_number_text(report.m_value)} "
                          f"scale={_number_text(scale)}")
    recover(scaled, scale, inst)  # FeasibilityError unless x is feasible
    report.scaled_objective = rational(scale * res.objective)
    return res, report
