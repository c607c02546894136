import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tdmilp
from tdmilp.linalg import Matrix, mat_det
from tdmilp.simplex import SolverError, _BoundedSimplex, lp_solve_exact, reduce_rows
from tdmilp.solver import vertex_enumerate
from oracles import rank_by_minors
from strategies import int_matrices, integer_lps, rational_box_lps, rational_lps


def bidiagonal(n):
    return Matrix([[2 if i == j else (-1 if j == i + 1 else 0) for j in range(n)]
                   for i in range(n)])


class TestLpBasics:
    def test_single_equality(self):
        res = lp_solve_exact(Matrix([[1]]), [1], [0], [2], [1])
        assert res.status == "optimal"
        assert res.x == (Fraction(1),)
        assert res.objective == 1

    def test_coupled_pair(self):
        res = lp_solve_exact(Matrix([[2, -1]]), [0], [0, 0], [1, 1], [1, 1])
        assert res.status == "optimal"
        assert res.objective == 0
        assert res.x == (Fraction(0), Fraction(0))

    def test_infeasible_bounds(self):
        res = lp_solve_exact(Matrix([[1]]), [5], [0], [1], [1])
        assert res.status == "infeasible"

    def test_no_constraints_picks_best_corner(self):
        res = lp_solve_exact(Matrix([[] for _ in range(0)], cols=2), [], [-1, -1],
                             [1, 1], [1, -1])
        assert res.status == "optimal"
        assert res.x == (Fraction(-1), Fraction(1))

    def test_no_variables(self):
        res = lp_solve_exact(Matrix([[]], cols=0), [0], [], [], [])
        assert res.status == "optimal"
        assert res.objective == 0
        res = lp_solve_exact(Matrix([[]], cols=0), [1], [], [], [])
        assert res.status == "infeasible"

    @pytest.mark.parametrize("b", [[1, 5], []], ids=["long", "short"])
    def test_rhs_length_must_match_rows(self, b):
        with pytest.raises(ValueError, match="right-hand side"):
            lp_solve_exact(Matrix([[1]]), b, [0], [2], [1])

    def test_high_fractionality_vertex(self):
        # the square bidiagonal system pins x to its inverse's last column,
        # whose denominators run up to 2^n
        n = 6
        b = [0] * (n - 1) + [1]
        res = lp_solve_exact(bidiagonal(n), b, [0] * n, [1] * n, [1] * n)
        assert res.status == "optimal"
        assert res.x[0] == Fraction(1, 2 ** n)
        assert max(v.denominator for v in res.x) == 2 ** n


F = Fraction

# pinned (x, basis, pivots): the tableau arithmetic must not move a pivot path
PINNED = {
    "bidiagonal_6": (
        (bidiagonal(6), [0] * 5 + [1], [0] * 6, [1] * 6, [1] * 6),
        ((F(1, 64), F(1, 32), F(1, 16), F(1, 8), F(1, 4), F(1, 2)), (0, 1, 2, 3, 4, 5), 6)),
    "degenerate": (  # b = 0 and a dependent third row
        (Matrix([[1, -1, 0, 1], [1, 0, -1, 1], [0, 1, -1, 0]]), [0, 0, 0], [0] * 4, [2] * 4,
         [-1, 1, 1, -2]),
        ((F(0), F(0), F(0), F(0)), (1, 3), 3)),
    "infeasible": (
        (Matrix([[1, 1, 0], [0, 1, 1]]), [3, -1], [0, 0, 0], [1, 1, 1], [1, 1, 1]),
        (None, None, 1)),
    "rational": (
        (Matrix([[F(1, 2), F(1, 3), 1, 0], [F(2, 3), -1, F(1, 4), 1]]), [1, F(1, 2)],
         [0, -1, 0, 0], [2, 2, F(3, 2), 3], [1, -1, F(1, 2), F(-2, 3)]),
        ((F(0), F(2), F(1, 3), F(29, 12)), (2, 3), 4)),
    "bound_flips": (
        (Matrix([[1, 2, -1, 3], [2, -1, 1, 1]]), [4, 3], [-2] * 4, [3] * 4, [-1, -2, 3, -1]),
        ((F(3), F(2, 5), F(-2), F(-3, 5)), (1, 3), 5)),
    # p/q bounds (common bound denominator 60, then 10) with bound flips:
    # 5 pivots with at most 3 basis changes, then 6 with at most 2
    "rational_bounds": (
        (Matrix([[-2, -2, 3, -1, -1], [3, -1, -3, 3, 3]]), [F(4, 3), -1],
         [F(-3, 4), 0, F(-4, 3), F(-1, 4), F(-2, 3)], [F(9, 20), F(1, 2), F(14, 3), F(1, 4), F(4, 3)],
         [3, 1, -2, -3, 3]),
        ((F(-3, 4), F(0), F(1, 8), F(1, 4), F(7, 24)), (2, 4), 5)),
    "rational_bounds_flips": (
        (Matrix([[-1, 2, 2, -2, -1], [0, -1, 0, -2, 0]]), [-1, 1],
         [-2, F(-1, 2), -2, F(-3, 2), -1], [F(-3, 2), F(3, 10), 0, 0, F(-4, 5)],
         [-3, -1, -1, 1, -1]),
        ((F(-3, 2), F(-1, 10), F(-2), F(-9, 20), F(-4, 5)), (1, 3), 6)),
}


class TestPivotPaths:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned(self, name):
        args, expected = PINNED[name]
        res = lp_solve_exact(*args)
        assert (res.x, res.basis, res.stats.pivots) == expected

    @settings(max_examples=200, deadline=None)
    @given(lp=rational_lps())
    def test_rational_data_pivots_as_its_integral_multiple(self, lp):
        a, b, lower, upper, c = lp
        res = lp_solve_exact(a, b, lower, upper, c)
        scale = math.lcm(*(v.denominator for v in a.entries()), *(v.denominator for v in b))
        whole = lp_solve_exact(scale * a, [scale * v for v in b], lower, upper, c)
        assert (res.status, res.x, res.basis, res.stats.pivots) == \
            (whole.status, whole.x, whole.basis, whole.stats.pivots)
        verts = vertex_enumerate(a, b, lower, upper)
        if res.status != "optimal":
            assert not verts
            return
        assert res.objective == min(sum(cj * vj for cj, vj in zip(c, v)) for v in verts)


class TestVertexProperty:
    def test_returns_vertex(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randrange(1, 5)
            m = rng.randrange(0, n + 1)
            a = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)],
                       cols=n)
            lower = [rng.randint(-2, 0) for _ in range(n)]
            upper = [l + rng.randint(0, 3) for l in lower]
            b = [rng.randint(-2, 2) for _ in range(m)]
            c = [rng.randint(-2, 2) for _ in range(n)]
            res = lp_solve_exact(a, b, lower, upper, c)
            if res.status != "optimal":
                continue
            assert a.apply_vector(res.x) == tuple(Fraction(v) for v in b)
            assert all(lower[j] <= res.x[j] <= upper[j] for j in range(n))
            # basis columns invertible, non-basic variables at a bound
            reduced = reduce_rows(a, [Fraction(v) for v in b])
            a_red, _ = reduced
            basis = res.basis
            if a_red.rows:
                sub = a_red.submatrix(range(a_red.rows), basis)
                assert mat_det(sub) != 0
            for j in range(n):
                if j not in basis:
                    assert res.x[j] in (Fraction(lower[j]), Fraction(upper[j]))

    def test_matches_vertex_enumeration_optimum(self):
        rng = random.Random(11)
        checked = 0
        while checked < 25:
            n = rng.randrange(1, 5)
            m = rng.randrange(1, 3)
            a = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)],
                       cols=n)
            lower = [rng.randint(-2, 0) for _ in range(n)]
            upper = [l + rng.randint(0, 3) for l in lower]
            b = [rng.randint(-2, 2) for _ in range(m)]
            c = [rng.randint(-2, 2) for _ in range(n)]
            res = lp_solve_exact(a, b, lower, upper, c)
            verts = vertex_enumerate(a, b, lower, upper)
            if res.status != "optimal":
                assert not verts
                continue
            best = min(sum(Fraction(c[j]) * v[j] for j in range(n)) for v in verts)
            assert res.objective == best
            checked += 1


    @settings(max_examples=150, deadline=None)
    @given(lp=rational_box_lps())
    def test_rational_bounds_optimum_is_a_vertex(self, lp):
        a, b, lower, upper, c = lp
        res = lp_solve_exact(a, b, lower, upper, c)
        verts = vertex_enumerate(a, b, lower, upper)
        if res.status != "optimal":
            assert not verts
            return
        assert res.x in verts
        assert res.objective == min(sum(cj * vj for cj, vj in zip(c, v)) for v in verts)
        assert a.apply_vector(res.x) == tuple(b)
        assert all(lo <= v <= up for lo, v, up in zip(lower, res.x, upper))
        a_red, _ = reduce_rows(a, b)
        if a_red.rows:
            assert mat_det(a_red.submatrix(range(a_red.rows), res.basis)) != 0
        for j in set(range(a.cols)) - set(res.basis):
            assert res.x[j] in (lower[j], upper[j])


def _assert_basic_feasible(res, a, b, lower, upper):
    """x solves the rows within its bounds, on invertible basis columns,
    with every non-basic variable at a bound."""
    assert a.apply_vector(res.x) == tuple(Fraction(v) for v in b)
    assert all(lo <= v <= up for lo, v, up in zip(lower, res.x, upper))
    a_red, _ = reduce_rows(a, b)
    if a_red.rows:
        assert mat_det(a_red.submatrix(range(a_red.rows), res.basis)) != 0
    for j in set(range(a.cols)) - set(res.basis):
        assert res.x[j] in (lower[j], upper[j])


def _final_state(res):
    sx = res.final
    return (sx.den, sx.scale, sx.lo, sx.up, sx.basis, sx.at_upper, sx.is_basic,
            [row[:] for row in sx.tableau])


# warm-started children: the parent LP, the child's bounds, then the child's
# (x, basis, pivots).  The dual ratio test ties in each; the tie goes to the
# lowest index, where the highest would give another x
WARM_PINNED = {
    "dual_degenerate_tie": (  # x0 = 3/2 leaves; x1 and x2 both price at 0
        (Matrix([[-2, -1, -2, -1]]), [-4], [0] * 4, [3, 3, 2, 1], [2, 1, 2, -2]),
        ([0] * 4, [1, 3, 2, 1]),
        ((F(1), F(1), F(0), F(1)), (1,), 1)),
    "ratio_tie": (  # x1 = 3/2 leaves; x0 and x2 both have ratio 1/1
        (Matrix([[-1, -1, -1]]), [F(-3, 2)], [0] * 3, [1, 2, 3], [-1, -2, -1]),
        ([0] * 3, [1, 1, 3]),
        ((F(1, 2), F(1), F(0)), (0,), 1)),
}


class TestCarriedRow:
    @settings(max_examples=100, deadline=None)
    @given(lp=st.one_of(integer_lps(spare=2), rational_box_lps()))
    def test_every_cold_pivot_carries_the_fresh_row(self, lp):
        # after each basis change the carried row is the one its phase
        # prices by: phase 1 costs 1 per basic artificial, phase 2 begins
        # once the artificials are driven out.  _exchange relabels the basis
        # after _pivot returns, so the check follows the whole exchange
        exchange = _BoundedSimplex._exchange
        drive_out = _BoundedSimplex.drive_out_artificials
        phase_2 = set()

        def checked(sx, row, col, to_upper):
            exchange(sx, row, col, to_upper)
            if sx in phase_2:
                fresh = sx.reduced_costs()
            else:
                fresh = [-sum(r[j] for k, r in zip(sx.basis, sx.tableau) if k >= sx.n)
                         for j in range(sx.n)]
            assert sx.rc == fresh

        def marked(sx):
            drive_out(sx)
            phase_2.add(sx)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_BoundedSimplex, "_exchange", checked)
            patch.setattr(_BoundedSimplex, "drive_out_artificials", marked)
            lp_solve_exact(*lp)


class TestWarmStart:
    @pytest.mark.parametrize("name", sorted(WARM_PINNED))
    def test_pinned_ties(self, name):
        (a, b, lower, upper, c), (lo, up), expected = WARM_PINNED[name]
        parent = lp_solve_exact(a, b, lower, upper, c)
        child = lp_solve_exact(a, b, lo, up, c, start=parent)
        assert (child.x, child.basis, child.stats.pivots) == expected
        assert child.objective == lp_solve_exact(a, b, lo, up, c).objective

    @settings(max_examples=300, deadline=None)
    @given(lp=st.one_of(integer_lps(spare=2), rational_lps(), rational_box_lps()),
           data=st.data())
    def test_warm_children_match_cold_children(self, lp, data):
        # down to three generations, each child warm-started from the one
        # before: tighten a bound of a fractional basic column to its floor
        # or ceiling as branch and bound does, or halfway to its value; at
        # times also move the bound a non-basic column sits at halfway in
        a, b, lower, upper, c = lp
        parent = lp_solve_exact(a, b, lower, upper, c)
        for _ in range(3):
            if parent.status != "optimal":
                return
            fractional = [j for j in parent.basis if parent.x[j].denominator != 1]
            if not fractional:
                return
            j = data.draw(st.sampled_from(fractional))
            v = parent.x[j]
            lower, upper = list(lower), list(upper)
            down, halfway = data.draw(st.booleans()), data.draw(st.booleans())
            if down:
                upper[j] = (lower[j] + v) / 2 if halfway else max(lower[j], math.floor(v))
            else:
                lower[j] = (v + upper[j]) / 2 if halfway else min(upper[j], math.floor(v) + 1)
            movable = [k for k in set(range(a.cols)) - set(parent.basis) if lower[k] < upper[k]]
            if movable and data.draw(st.booleans()):
                k = data.draw(st.sampled_from(sorted(movable)))
                mid = Fraction(lower[k] + upper[k]) / 2
                if parent.x[k] == lower[k]:
                    lower[k] = mid
                else:
                    upper[k] = mid
            before = _final_state(parent)
            warm = lp_solve_exact(a, b, lower, upper, c, start=parent)
            cold = lp_solve_exact(a, b, lower, upper, c)
            assert _final_state(parent) == before
            assert (warm.status, warm.objective) == (cold.status, cold.objective)
            if warm.status == "optimal":
                _assert_basic_feasible(warm, a, b, lower, upper)
            parent = warm

    @settings(max_examples=200, deadline=None)
    @given(lp=integer_lps(spare=2), data=st.data())
    def test_carried_reduced_costs_match_fresh_ones(self, lp, data):
        # a chain of warm children as branch and bound makes them: each takes
        # the floor or the ceiling of a fractional basic column of the last
        # (integral boxes, so both bounds stay integral)
        a, b, lower, upper, c = lp
        res = lp_solve_exact(a, b, lower, upper, c)
        for _ in range(4):
            if res.status != "optimal":
                return
            sx = res.final
            assert sx.rc == sx.reduced_costs()
            fractional = [j for j in res.basis if type(res.x[j]) is Fraction]
            if not fractional:
                return
            j = data.draw(st.sampled_from(fractional))
            lower, upper = list(lower), list(upper)
            if data.draw(st.booleans()):
                upper[j] = math.floor(res.x[j])
            else:
                lower[j] = math.ceil(res.x[j])
            res = lp_solve_exact(a, b, lower, upper, c, start=res)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_pivot_cap_boundary(self, monkeypatch, warm):
        # the cold solve takes 5 pivots; its child with x3 fixed at 0 takes 3
        a, b, lower, upper, c = (Matrix([[-1, 1, 0, -2], [-2, 1, 1, 1]]), [-1, 0], [0] * 4,
                                 [1, 3, 3, 1], [2, -2, 1, 1])
        start, pivots = None, 5
        if warm:
            start, upper, pivots = lp_solve_exact(a, b, lower, upper, c), [1, 3, 3, 0], 3
        monkeypatch.setattr(tdmilp.simplex, "PIVOT_CAP", pivots)
        assert lp_solve_exact(a, b, lower, upper, c, start=start).stats.pivots == pivots
        monkeypatch.setattr(tdmilp.simplex, "PIVOT_CAP", pivots - 1)
        with pytest.raises(SolverError, match="pivot cap"):
            lp_solve_exact(a, b, lower, upper, c, start=start)

    def test_pivot_cap_applies(self, monkeypatch):
        (a, b, lower, upper, c), (lo, up), _ = WARM_PINNED["ratio_tie"]
        parent = lp_solve_exact(a, b, lower, upper, c)
        monkeypatch.setattr(tdmilp.simplex, "PIVOT_CAP", 0)
        with pytest.raises(SolverError, match="pivot cap"):
            lp_solve_exact(a, b, lo, up, c, start=parent)

    def test_start_from_another_problem(self):
        (a, b, lower, upper, c), (lo, up), _ = WARM_PINNED["ratio_tie"]
        parent = lp_solve_exact(a, b, lower, upper, c)
        for other in [(Matrix([[-1, -1, -2]]), b, c), (a, [F(-1, 2)], c), (a, b, [1, 1, 1])]:
            with pytest.raises(ValueError, match="start"):
                lp_solve_exact(other[0], other[1], lo, up, other[2], start=parent)
        infeasible = lp_solve_exact(a, [5], lower, upper, c)
        with pytest.raises(ValueError, match="start"):
            lp_solve_exact(a, [5], lo, up, c, start=infeasible)
        # an equal problem in other objects is the same problem
        same = lp_solve_exact(Matrix([[-1, -1, -1]]), (F(-3, 2),), lo, up, tuple(c), start=parent)
        assert same.status == "optimal"

    def test_freed_column_against_its_reduced_cost_solves_cold(self, monkeypatch):
        # x1 is fixed at 0 in the parent; freeing it at its lower bound with
        # reduced cost -1 breaks dual feasibility, so no dual pivot may run
        a, b, c = Matrix([[1, 1]]), [1], [0, -1]
        parent = lp_solve_exact(a, b, [0, 0], [1, 0], c)
        assert parent.x == (1, 0)
        monkeypatch.setattr(_BoundedSimplex, "dual_iterate", None)
        child = lp_solve_exact(a, b, [0, 0], [1, 1], c, start=parent)
        assert (child.x, child.objective) == ((0, 1), -1)

    def test_witness_rejects_a_basis_that_does_not_price_out(self, monkeypatch):
        # a dual simplex that only flips x2 (reduced cost 1 at its lower
        # bound) to its upper bound ends dual infeasible
        (a, b, lower, upper, c), (lo, up), _ = WARM_PINNED["ratio_tie"]
        parent = lp_solve_exact(a, b, lower, upper, c)

        def broken(sx):
            sx.at_upper[2] = True
            return True

        monkeypatch.setattr(_BoundedSimplex, "dual_iterate", broken)
        with pytest.raises(SolverError, match="price"):
            lp_solve_exact(a, b, lo, up, c, start=parent)


class TestIntegerState:
    """The tableau, the scaled bounds and the costs hold ints only, whatever
    the data came in as: an integral Fraction bound such as F(2, 2) equals
    its int, so only the types show one that rode into the pivots."""

    @staticmethod
    def assert_all_int(res):
        sx = res.final
        assert all(type(v) is int for row in sx.tableau for v in row)
        assert all(type(v) is int for v in (*sx.lo, *sx.up, *sx.costs))

    @pytest.mark.parametrize("lo, up", [
        ([F(0, 1), F(1, 1), F(0, 1)], [F(2, 2), F(2, 1), F(2, 1)]),
        ([0, F(1, 2), 0], [F(3, 2), 2, F(5, 3)]),
    ], ids=["integral_fractions", "p/q"])
    def test_cold_and_warm_solves(self, lo, up):
        a, b, c = Matrix([[1, 1, 1]]), [F(3, 2)], [1, 2, 3]
        parent = lp_solve_exact(a, b, [0] * 3, [2] * 3, c)
        self.assert_all_int(parent)
        for start in (parent, None):
            res = lp_solve_exact(a, b, lo, up, c, start=start)
            assert res.status == "optimal"
            self.assert_all_int(res)


FLOAT_SLOTS = {"b": 1, "lower": 2, "upper": 3, "c": 4}


class TestFloatsFailClosed:
    """A float would become a binary fraction (0.1 as
    3602879701896397/36028797018963968); the data goes through ``rational``,
    which refuses it."""

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("slot", sorted(FLOAT_SLOTS))
    def test_lp_solve_exact(self, slot, warm):
        args = [Matrix([[1, 1]]), [1], [0, 0], [2, 2], [1, 1]]
        start = lp_solve_exact(*args) if warm else None
        args[FLOAT_SLOTS[slot]][0] = 0.1 if slot == "b" else 1.0
        with pytest.raises(TypeError, match="float"):
            lp_solve_exact(*args, start=start)

    @pytest.mark.parametrize("slot", ["b", "lower", "upper"])
    def test_vertex_enumerate(self, slot):
        args = [Matrix([[1, 1]]), [1], [0, 0], [2, 2]]
        args[FLOAT_SLOTS[slot]][0] = 0.5
        with pytest.raises(TypeError, match="float"):
            vertex_enumerate(*args)


def _solve_in_fresh_process(args):
    """lp_solve_exact(*args) in a new interpreter, as the repr of its result."""
    code = ("import sys\n"
            "from fractions import Fraction\n"
            "from tdmilp.linalg import Matrix\n"
            "from tdmilp.simplex import lp_solve_exact\n"
            "a, *rest = eval(sys.stdin.read())\n"
            "r = lp_solve_exact(Matrix(a), *rest)\n"
            "print(repr((r.status, r.x, r.objective, r.basis, r.stats.pivots)))\n")
    a, *rest = args
    src = os.path.dirname(os.path.dirname(tdmilp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], input=repr((a.row_lists(), *rest)),
                         capture_output=True, text=True, env=env, check=True)
    return out.stdout.strip()


class TestRowReductionReuse:
    def test_interleaved_calls_match_fresh_processes(self):
        a = Matrix([[1, 2, -1, 0], [2, -1, 1, 1]])
        a_copy = Matrix([[1, 2, -1, 0], [2, -1, 1, 1]])  # equal, another object
        dep = Matrix([[1, 1, 1, 0], [1, -1, 0, 2], [2, 0, 1, 2]])  # row 3 = row 1 + row 2
        box = ([-2] * 4, [3] * 4)
        calls = [
            (a, [3, 1], *box, [1, -1, 2, 1]),
            (dep, [2, 1, 3], *box, [-1, 1, 1, -1]),
            (a, [3, 1], [0, -1, 0, 0], [F(5, 2), 1, 2, 3], [1, -1, 2, 1]),
            (a_copy, [3, 1], *box, [-1, 1, 0, 2]),
            (a, [F(1, 2), -4], *box, [1, -1, 2, 1]),
            (dep, [2, 1, 4], *box, [-1, 1, 1, -1]),  # inconsistent
            (dep, [2, 1, 3], *box, [1, 1, -1, 1]),
            (a, [F(1, 2), -4], *box, [1, 1, 1, 1]),
        ]
        got = []
        for args in calls:
            r = lp_solve_exact(*args)
            got.append(repr((r.status, r.x, r.objective, r.basis, r.stats.pivots)))
        assert got[5].startswith("('infeasible'")
        assert got == [_solve_in_fresh_process(args) for args in calls]


class TestReduceRows:
    def test_drops_dependent_consistent_row(self):
        a = Matrix([[1, 1], [2, 2]])
        out = reduce_rows(a, [Fraction(1), Fraction(2)])
        assert out is not None
        red, b = out
        assert red.rows == 1 and b == (Fraction(1),)

    def test_detects_inconsistent_row(self):
        a = Matrix([[1, 1], [2, 2]])
        assert reduce_rows(a, [Fraction(1), Fraction(3)]) is None

    def test_keeps_original_rows(self):
        a = Matrix([[1, 2], [1, 0], [2, 2]])
        out = reduce_rows(a, [Fraction(3), Fraction(1), Fraction(4)])
        red, b = out
        assert red == Matrix([[1, 2], [1, 0]])
        assert b == (Fraction(3), Fraction(1))

    @settings(max_examples=150, deadline=None)
    @given(a=int_matrices(), data=st.data())
    def test_keeps_exactly_the_rank_raising_rows(self, a, data):
        b = data.draw(st.lists(st.integers(-2, 2), min_size=a.rows, max_size=a.rows))
        out = reduce_rows(a, [Fraction(v) for v in b])
        with_rhs = a.hstack(Matrix([[v] for v in b], cols=1))
        if rank_by_minors(with_rhs) > rank_by_minors(a):
            assert out is None
            return
        keep = [i for i in range(a.rows)
                if rank_by_minors(a.submatrix(range(i + 1), range(a.cols)))
                > rank_by_minors(a.submatrix(range(i), range(a.cols)))]
        assert out == (a.submatrix(keep, range(a.cols)), tuple(Fraction(b[i]) for i in keep))
