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
from tdmilp.simplex import lp_solve_exact, reduce_rows
from tdmilp.solver import vertex_enumerate
from oracles import rank_by_minors
from strategies import int_matrices, rational_box_lps, rational_lps


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
