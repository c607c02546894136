import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from tdmilp.integralize import MilpInstance, choose_scale, integralize, pure_ilp
from tdmilp.linalg import Matrix
from tdmilp.simplex import SolverError, lp_solve_exact
from tdmilp.solver import (PipelineOptions, PipelineReport, _determinant_scale, choose_side,
                           ilp_solve, milp_oracle, milp_solve, vertex_enumerate)
from tdmilp.structure import CapExceededError
from instances import (dense_continuous, dense_continuous_exact, nfold_one_integer,
                       wide_certificate)
from oracles import ilp_by_box_enumeration
from strategies import mixed_instances


def bidiagonal(n):
    return Matrix([[2 if i == j else (-1 if j == i + 1 else 0) for j in range(n)]
                   for i in range(n)])


def random_mixed_instance(rng, z_max=3, q_max=4, mag=2, box=3):
    z = rng.randrange(0, z_max + 1)
    q = rng.randrange(1, q_max + 1)
    m = rng.randrange(1, 4)
    a_int = Matrix([[rng.randint(-mag, mag) for _ in range(z)] for _ in range(m)], cols=z)
    a_frac = Matrix([[rng.randint(-mag, mag) for _ in range(q)] for _ in range(m)], cols=q)
    lower = tuple(rng.randint(-box, 0) for _ in range(z + q))
    upper = tuple(min(box, l + rng.randint(0, 2 * box)) for l in lower)
    b = tuple(rng.randint(-mag - 1, mag + 1) for _ in range(m))
    c = tuple(rng.randint(-mag, mag) for _ in range(z + q))
    return MilpInstance(a_int=a_int, a_frac=a_frac, b=b, c=c, lower=lower, upper=upper)


class TestVertexEnumerate:
    def test_two_vertex_segment(self):
        verts = vertex_enumerate(Matrix([[1, 1]]), [1], [0, 0], [1, 1])
        assert set(verts) == {(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))}

    def test_empty_system_gives_box_corners(self):
        verts = vertex_enumerate(Matrix([[] for _ in range(0)], cols=2), [], [0, 0], [1, 1])
        assert len(verts) == 4

    def test_bidiagonal_fractional_vertex(self):
        n = 5
        b = [0] * (n - 1) + [1]
        verts = vertex_enumerate(bidiagonal(n), b, [0] * n, [1] * n)
        assert verts  # square system: exactly the one solution
        assert max(v.denominator for x in verts for v in x) == 2 ** n

    def test_cap(self):
        with pytest.raises(CapExceededError):
            vertex_enumerate(Matrix.identity(13), [0] * 13, [0] * 13, [1] * 13)


class TestIlpSolve:
    def test_infeasible_parity(self):
        inst = pure_ilp(Matrix([[2]]), (3,), (0,), (0,), (2,))
        assert ilp_solve(inst).status == "infeasible"

    def test_simple_sum(self):
        inst = pure_ilp(Matrix([[1, 1]]), (3,), (1, 1), (0, 0), (2, 2))
        res = ilp_solve(inst)
        assert res.status == "optimal"
        assert res.objective == 3

    def test_reports_pivots_of_every_node_lp(self, monkeypatch):
        # the root LP is fractional (x = 3/2); both children are infeasible
        counts = []

        def counting(*args):
            res = lp_solve_exact(*args)
            counts.append((res.status, res.stats.pivots))
            return res

        monkeypatch.setattr("tdmilp.solver.lp_solve_exact", counting)
        res = ilp_solve(pure_ilp(Matrix([[2]]), (3,), (0,), (0,), (2,)))
        assert res.status == "infeasible"
        assert [st for st, _ in counts] == ["optimal", "infeasible", "infeasible"]
        assert res.stats.pivots == sum(p for _, p in counts) > 0

    def test_against_box_enumeration(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randrange(1, 4)
            m = rng.randrange(1, 3)
            a = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)],
                       cols=n)
            lower = tuple(rng.randint(-2, 0) for _ in range(n))
            upper = tuple(l + rng.randint(0, 4) for l in lower)
            b = tuple(rng.randint(-4, 4) for _ in range(m))
            c = tuple(rng.randint(-3, 3) for _ in range(n))
            inst = pure_ilp(a, b, c, lower, upper)
            res = ilp_solve(inst)
            status, best = ilp_by_box_enumeration(a, b, c, lower, upper)
            assert res.status == status
            if status == "optimal":
                assert res.objective == best


# mixed_bnb benchmark corpus problems 3, 4, 7 and 8 (boxes [-2, 2]): rows, b,
# c, integer columns z, the scale milp_solve picks, then ilp_solve's
# (status, x, nodes, pivots, continuous_branches) on the scaled instance
BNB_PINNED = {
    "bnb_3": ((((-1, 0, 3, 0, 3, 0, 2), (1, 0, 0, 0, 0, 0, 3), (0, -2, 1, 3, -3, -3, -1)),
               (-13, -1, 0), (4, -3, -2, 0, 1, -2, 0), 6, 2),
              ("optimal", (2, 0, -1, 0, -2, 2, -2), 22, 190, 0)),
    "bnb_4": ((((1, -1, -2, 1, -2, 1, 2, 3), (-1, 0, -2, 2, 2, -3, 3, -1),
                (3, 1, 3, -2, 1, 0, -1, 0)),
               (-9, 2, 2), (-6, -6, -9, 1, 1, -3, -3, 4), 6, 11),
              ("optimal", (0, 1, 1, 2, 2, 2, 0, -22), 98, 870, 0)),
    "bnb_7": ((((0, -2, 1, 1, -3, -3), (1, 0, -3, -3, 0, -3)),
               (-13, 7), (6, 1, 9, -6, 7, 2), 5, 3),
              ("optimal", (-2, 2, -2, -1, 2, 0), 5, 30, 0)),
    "bnb_8": ((((-2, 2, 1, 1, -3, -1), (0, -3, 1, 3, 1, 2), (-1, -1, 0, 3, -1, -2)),
               (9, -4, 2), (0, 2, -2, -5, 9, -2), 5, 1),
              ("optimal", (-2, 2, -2, 1, -1, 1), 39, 320, 0)),
}


class TestBranchAndBoundPaths:
    @pytest.mark.parametrize("name", sorted(BNB_PINNED))
    def test_pinned(self, name):
        (rows, b, c, z, scale), expected = BNB_PINNED[name]
        n = len(c)
        inst = MilpInstance(a_int=Matrix([r[:z] for r in rows]),
                            a_frac=Matrix([r[z:] for r in rows]), b=b, c=c,
                            lower=(-2,) * n, upper=(2,) * n)
        res = ilp_solve(integralize(inst, scale), z=z)
        assert (res.status, res.x, res.stats.nodes, res.stats.pivots,
                res.stats.continuous_branches) == expected


class TestMilpOracle:
    def test_pure_lp_case(self):
        inst = MilpInstance(a_int=Matrix([[]], cols=0), a_frac=Matrix([[2]]),
                            b=(1,), c=(1,), lower=(0,), upper=(1,))
        res = milp_oracle(inst)
        assert res.status == "optimal" and res.x == (Fraction(1, 2),)

    def test_pure_ilp_case(self):
        inst = pure_ilp(Matrix([[1, 1]]), (3,), (1, 1), (0, 0), (2, 2))
        res = milp_oracle(inst)
        assert res.objective == 3

    def test_box_cap(self):
        inst = pure_ilp(Matrix([[1] * 8]), (0,), (0,) * 8, (-10,) * 8, (10,) * 8)
        with pytest.raises(CapExceededError):
            milp_oracle(inst, box_cap=100)


class TestDeterminantScale:
    @settings(max_examples=250, deadline=None)
    @given(inst=mixed_instances())
    def test_divides_every_vertex_denominator(self, inst):
        scale, m = _determinant_scale(inst.a_frac)
        assert scale % m == 0
        z = inst.z
        boxes = [range(lo, up + 1) for lo, up in zip(inst.lower[:z], inst.upper[:z])]
        for assign in itertools.product(*boxes):
            residual = [inst.b[i] - sum(inst.a_int[i, j] * assign[j] for j in range(z))
                        for i in range(inst.rows)]
            for x in vertex_enumerate(inst.a_frac, residual, inst.lower[z:], inst.upper[z:]):
                assert all(scale % v.denominator == 0 for v in x)

    @pytest.mark.parametrize("rows, expected", [
        ([[2, 3]], (6, 3)),  # bases (2) and (3): vertices y = 1/2 and y = 1/3
        ([[2, 3], [4, 6]], (6, 3)),  # the dependent row is dropped first
        ([[1, 1, 0], [0, 1, 2]], (2, 2)),  # bases of det 1, 2 and 2
        ([[0, 0]], (1, 1)),  # rank 0: the empty basis
    ])
    def test_lcm_and_largest_determinant(self, rows, expected):
        assert _determinant_scale(Matrix(rows)) == expected

    def test_independent_of_the_integer_box(self):
        # a free integer column widens the box past a million points; the
        # scale depends on the continuous block alone, so the optimum stays
        res, report = milp_solve(nfold_one_integer(free_column=True))
        ora = milp_oracle(nfold_one_integer(free_column=False))
        assert res.status == ora.status == "optimal"
        assert res.objective == ora.objective
        assert report.m_source == "determinant"

    def test_basis_cap_fails_closed(self):
        with pytest.raises(CapExceededError, match=r"C\(17,7\)") as info:
            milp_solve(dense_continuous())
        assert info.value.report.notes == ["certificate exceeded usable cap; determinant scale"]

    def test_basis_cap_fails_closed_after_exact_decomposition(self):
        # both graphs are complete and under the exact treedepth cap
        with pytest.raises(CapExceededError, match=r"C\(16,8\)") as info:
            milp_solve(dense_continuous_exact())
        report = info.value.report
        assert (report.primal_stats.height, report.dual_stats.height) == (16, 8)
        assert report.notes == ["certificate exceeded usable cap; determinant scale"]


class TestScaleWitness:
    @settings(max_examples=250, deadline=None)
    @given(inst=mixed_instances())
    def test_sound_scale_never_branches_on_a_continuous_column(self, inst):
        assert milp_solve(inst)[0].stats.continuous_branches == 0

    def test_unsound_scale_fails_the_witness(self, monkeypatch):
        # 2 y = 1 needs y = 1/2; a scale of 1 leaves the scaled y fractional
        # at the root, so branch and bound must branch on it
        monkeypatch.setattr("tdmilp.solver.choose_scale", lambda m: 1)
        inst = MilpInstance(a_int=Matrix([[]], cols=0), a_frac=Matrix([[2]]),
                            b=(1,), c=(1,), lower=(0,), upper=(1,))
        with pytest.raises(SolverError, match=r"m_source=certificate m=2 scale=1$"):
            milp_solve(inst)

    def test_override_may_branch_on_a_continuous_column(self):
        inst = MilpInstance(a_int=Matrix([[]], cols=0), a_frac=Matrix([[2]]),
                            b=(1,), c=(1,), lower=(0,), upper=(1,))
        res, report = milp_solve(inst, PipelineOptions(scale_override=1))
        assert res.status == "infeasible" and report.m_source == "override"
        assert res.stats.continuous_branches == 1

    @pytest.mark.parametrize("z, branched, continuous", [(1, 0, 0), (None, 1, 0), (0, 1, 1)])
    def test_integer_first_order(self, monkeypatch, z, branched, continuous):
        # the root LP is x = (1/4, 1/2): column 1 is the more fractional, but
        # with z=1 column 0 is integer and goes first
        bounds = []

        def recording(a, b, lower, upper, c):
            bounds.append((lower, upper))
            return lp_solve_exact(a, b, lower, upper, c)

        monkeypatch.setattr("tdmilp.solver.lp_solve_exact", recording)
        res = ilp_solve(pure_ilp(Matrix([[4, 0], [0, 2]]), (1, 1), (0, 0), (0, 0), (1, 1)), z=z)
        assert res.status == "infeasible"
        assert res.stats.continuous_branches == continuous
        other = 1 - branched
        assert [(lo[other], up[other]) for lo, up in bounds] == [(0, 1)] * 3
        assert [(lo[branched], up[branched]) for lo, up in bounds] == [(0, 1), (0, 0), (1, 1)]


class TestChooseSide:
    def test_an_explicit_side_still_returns_both_decompositions(self):
        a = Matrix([[1, 1, 0], [0, 1, 1]])
        for side in ("primal", "dual", "auto"):
            chosen, fs = choose_side(a, side, 16)
            assert sorted(fs) == ["dual", "primal"]
            assert chosen == ("primal" if side == "auto" else side)

    def test_unknown_side_rejected(self):
        inst = MilpInstance(a_int=Matrix([[1]]), a_frac=Matrix([[2]]), b=(1,), c=(0, 1),
                            lower=(0, 0), upper=(1, 1))
        with pytest.raises(ValueError, match="unknown side 'bogus'"):
            milp_solve(inst, PipelineOptions(side="bogus"))


class TestPipeline:
    def test_pure_ilp_matches_ilp_solve(self):
        inst = pure_ilp(Matrix([[1, 1]]), (3,), (1, 1), (0, 0), (2, 2))
        res, report = milp_solve(inst)
        assert res.objective == ilp_solve(inst).objective
        assert report.m_source == "trivial" and report.scale == 1

    def test_single_continuous_example(self):
        inst = MilpInstance(a_int=Matrix([[]], cols=0), a_frac=Matrix([[2]]),
                            b=(1,), c=(1,), lower=(0,), upper=(1,))
        res, report = milp_solve(inst)
        assert res.status == "optimal"
        assert res.x == (Fraction(1, 2),)
        assert res.objective == Fraction(1, 2)
        assert report.scale % 2 == 0

    def test_mixed_with_bidiagonal_continuous_block(self):
        # continuous part is the 4x4 bidiagonal system, one integer on top
        n = 4
        a_frac = bidiagonal(n).vstack(Matrix.zeros(1, n))
        a_int = Matrix([[0]] * n + [[1]])
        b = (0, 0, 0, 1, 1)
        inst = MilpInstance(a_int=a_int, a_frac=a_frac, b=b,
                            c=(1,) * (n + 1),
                            lower=(0,) * (n + 1), upper=(1,) * (n + 1))
        res, report = milp_solve(inst)
        ora = milp_oracle(inst)
        assert res.status == ora.status == "optimal"
        assert res.objective == ora.objective
        assert all(v.denominator == 1 or report.scale % v.denominator == 0
                   for v in res.x)

    def test_sweep_against_oracle(self):
        rng = random.Random(23)
        optimal = infeasible = 0
        for _ in range(40):
            inst = random_mixed_instance(rng)
            res, report = milp_solve(inst)
            ora = milp_oracle(inst)
            assert res.status == ora.status
            if res.status == "optimal":
                assert res.objective == ora.objective
                assert all(v.denominator == 1 or report.scale % v.denominator == 0
                           for v in res.x)
                optimal += 1
            else:
                infeasible += 1
        assert optimal and infeasible  # the sweep covers both outcomes

    @settings(max_examples=250, deadline=None)
    @given(inst=mixed_instances())
    def test_agrees_with_oracle(self, inst):
        res, _ = milp_solve(inst)
        ora = milp_oracle(inst)
        assert res.status == ora.status
        if res.status != "optimal":
            return
        assert res.objective == ora.objective
        x = res.x
        assert inst.matrix.apply_vector(x) == tuple(Fraction(v) for v in inst.b)
        assert all(lo <= v <= up for lo, v, up in zip(inst.lower, x, inst.upper))
        assert all(v.denominator == 1 for v in x[:inst.z])
        assert sum(c * v for c, v in zip(inst.c, x)) == res.objective

    def test_scale_override(self):
        inst = MilpInstance(a_int=Matrix([[]], cols=0), a_frac=Matrix([[2]]),
                            b=(1,), c=(1,), lower=(0,), upper=(1,))
        res, report = milp_solve(inst, PipelineOptions(scale_override=4))
        assert report.m_source == "override" and report.scale == 4
        assert res.x == (Fraction(1, 2),)

    def test_side_forced(self):
        inst = random_mixed_instance(random.Random(4))
        res_p, rep_p = milp_solve(inst, PipelineOptions(side="primal"))
        res_d, rep_d = milp_solve(inst, PipelineOptions(side="dual"))
        assert rep_p.side == "primal" and rep_d.side == "dual"
        assert res_p.status == res_d.status
        if res_p.status == "optimal":
            assert res_p.objective == res_d.objective

    def test_report_machine_lines_are_stable(self):
        inst = MilpInstance(a_int=Matrix([[]], cols=0), a_frac=Matrix([[2]]),
                            b=(1,), c=(1,), lower=(0,), upper=(1,))
        _, rep1 = milp_solve(inst)
        _, rep2 = milp_solve(inst)
        assert rep1.machine_lines() == rep2.machine_lines()

    def test_report_lines_past_digit_limit(self):
        # the certificate 9950 would scale by lcm(1..9950), which has more
        # than 4300 digits; the determinant scale 9950 cuts it to their gcd
        _, report = milp_solve(wide_certificate())
        assert (report.m_source, report.m_value, report.scale) == ("certificate", 9950, 9950)
        assert report.notes == ["scale cut to gcd(certificate, determinant)"]
        assert {"m_source=certificate", "m=9950", "scale=9950"} <= set(report.machine_lines())
        # str() of lcm(1..9950) raises, so the report writes it in hex
        wide = PipelineReport(m_value=9950, scale=choose_scale(9950))
        assert f"scale={hex(choose_scale(9950))}" in wide.machine_lines()

    @pytest.mark.parametrize("value, text", [
        (Fraction(-7, 2), "-7/2"),
        (Fraction(12), "12"),
        (Fraction(-10 ** 5000 - 1, 3), f"{hex(-10 ** 5000 - 1)}/3"),
        (Fraction(5, 10 ** 5000 + 1), f"5/{hex(10 ** 5000 + 1)}"),
    ], ids=["small", "integral", "big_numerator", "big_denominator"])
    def test_report_scaled_objective_text(self, value, text):
        lines = PipelineReport(scaled_objective=value).machine_lines()
        assert lines[-1] == f"scaled_objective={text}"
