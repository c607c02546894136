import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tdmilp import fracbound, solver
from tdmilp.integralize import (FeasibilityError, MilpInstance, choose_scale, integralize,
                                pure_ilp, recover)
from tdmilp.linalg import Matrix
from tdmilp.simplex import SolverError, lp_solve_exact
from tdmilp.solver import (PipelineOptions, PipelineReport, _determinant_scale,
                           _most_fractional, choose_side, ilp_solve, milp_oracle, milp_solve,
                           vertex_enumerate)
from tdmilp.structure import CapExceededError, TdDecomposition, td_stats
from instances import (acceptance_corpus, dense_continuous, dense_continuous_exact,
                       nfold_one_integer, wide_certificate)
from oracles import (check_lp_optimum, determinant_scale_by_enumeration,
                     ilp_by_box_enumeration, milp_by_integer_branching)
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


def feasible_mixed_instance(rng):
    """A random mixed instance whose b is a x0 for an integer point x0 of its box."""
    inst = random_mixed_instance(rng)
    x0 = [rng.randint(lo, up) for lo, up in zip(inst.lower, inst.upper)]
    return replace(inst, b=inst.matrix.apply_vector(x0))


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

    def test_accepts_the_cap(self):
        assert vertex_enumerate(Matrix.identity(12), [0] * 12, [0] * 12, [1] * 12) == [(0,) * 12]


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

        def counting(*args, **kwargs):
            res = lp_solve_exact(*args, **kwargs)
            counts.append((res.status, res.stats.pivots))
            return res

        monkeypatch.setattr("tdmilp.solver.lp_solve_exact", counting)
        res = ilp_solve(pure_ilp(Matrix([[2]]), (3,), (0,), (0,), (2,)))
        assert res.status == "infeasible"
        assert [st for st, _ in counts] == ["optimal", "infeasible", "infeasible"]
        assert res.stats.pivots == sum(p for _, p in counts) > 0

    def test_children_start_from_their_parent(self, monkeypatch):
        # the root LP is x = 3/2; both children warm-start from its result
        calls = []

        def recording(*args, **kwargs):
            res = lp_solve_exact(*args, **kwargs)
            calls.append((kwargs.get("start"), res))
            return res

        monkeypatch.setattr("tdmilp.solver.lp_solve_exact", recording)
        ilp_solve(pure_ilp(Matrix([[2]]), (3,), (0,), (0,), (2,)))
        (root_start, root), *children = calls
        assert root_start is None and len(children) == 2
        assert all(start is root for start, _ in children)

    def test_node_cap(self, monkeypatch):
        # 2x - 2y = 1 has no integer point; on [0, 10]^2 the search pops 20 nodes
        inst = pure_ilp(Matrix([[2, -2]]), (1,), (0, 0), (0, 0), (10, 10))
        res = ilp_solve(inst)
        assert (res.status, res.stats.nodes) == ("infeasible", 20)
        monkeypatch.setattr(solver, "NODE_CAP", 20)
        assert ilp_solve(inst).stats.nodes == 20
        monkeypatch.setattr(solver, "NODE_CAP", 19)
        with pytest.raises(CapExceededError) as info:
            ilp_solve(inst)
        assert str(info.value) == "branch and bound limited to 19 nodes"

    def test_nodes_queued_at_the_optimum_count_against_the_cap(self, monkeypatch):
        # mixed_bnb benchmark corpus problem 93: the optimum is the ninth node
        # popped, and four nodes are still queued, each bounded no lower
        rows = ((-2, 3, -1, 1, -3, -3), (-3, 2, 1, 3, 3, -1), (1, 3, 0, -3, -2, -1))
        inst = MilpInstance(a_int=Matrix([r[:5] for r in rows]),
                            a_frac=Matrix([r[5:] for r in rows]), b=(-1, 6, -5),
                            c=(-4, 2, -3, -4, 6, -2), lower=(-2,) * 6, upper=(2,) * 6)
        res = ilp_solve(inst)
        assert ((res.status, res.x, res.objective, res.stats.nodes)
                == ("optimal", (0, 1, 0, 2, 0, 2), -10, 13))
        monkeypatch.setattr(solver, "NODE_CAP", 13)
        assert ilp_solve(inst).x == res.x
        branched = []
        most_fractional = solver._most_fractional

        def recording(x, cols):
            branched.append(most_fractional(x, cols))
            return branched[-1]

        monkeypatch.setattr(solver, "_most_fractional", recording)
        monkeypatch.setattr(solver, "NODE_CAP", 12)
        with pytest.raises(CapExceededError) as info:
            ilp_solve(inst)
        assert str(info.value) == "branch and bound limited to 12 nodes"
        # the optimum was found first: only the queued nodes cross the cap
        assert branched.count(None) == 1 and branched[-1] is None

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


class TestMostFractional:
    @settings(max_examples=300, deadline=None)
    @given(x=st.lists(st.fractions(max_denominator=50), max_size=8), data=st.data())
    def test_matches_the_fraction_key(self, x, data):
        start = data.draw(st.integers(0, len(x)))
        stop = data.draw(st.integers(start, len(x)))
        cols = range(start, stop)
        # distance of the fractional part from 1/2, lowest index on ties
        keys = [(abs(v - v.numerator // v.denominator - Fraction(1, 2)), j)
                for j, v in zip(cols, x[start:stop]) if v.denominator != 1]
        assert _most_fractional(x, cols) == (min(keys)[1] if keys else None)


# mixed_bnb benchmark corpus problems 3, 4, 7 and 8 (boxes [-2, 2]): rows, b,
# c, integer columns z, the scale milp_solve picks, then ilp_solve's
# (status, x, nodes, pivots) on the scaled instance
BNB_PINNED = {
    "bnb_3": ((((-1, 0, 3, 0, 3, 0, 2), (1, 0, 0, 0, 0, 0, 3), (0, -2, 1, 3, -3, -3, -1)),
               (-13, -1, 0), (4, -3, -2, 0, 1, -2, 0), 6, 2),
              ("optimal", (2, 0, -1, 0, -2, 2, -2), 22, 39)),
    "bnb_4": ((((1, -1, -2, 1, -2, 1, 2, 3), (-1, 0, -2, 2, 2, -3, 3, -1),
                (3, 1, 3, -2, 1, 0, -1, 0)),
               (-9, 2, 2), (-6, -6, -9, 1, 1, -3, -3, 4), 6, 11),
              ("optimal", (0, 1, 1, 2, 2, 2, 0, -22), 98, 139)),
    "bnb_7": ((((0, -2, 1, 1, -3, -3), (1, 0, -3, -3, 0, -3)),
               (-13, 7), (6, 1, 9, -6, 7, 2), 5, 3),
              ("optimal", (-2, 2, -2, -1, 2, 0), 5, 11)),
    "bnb_8": ((((-2, 2, 1, 1, -3, -1), (0, -3, 1, 3, 1, 2), (-1, -1, 0, 3, -1, -2)),
               (9, -4, 2), (0, 2, -2, -5, 9, -2), 5, 1),
              ("optimal", (-2, 2, -2, 1, -1, 1), 39, 56)),
}


class TestBranchAndBoundPaths:
    @pytest.mark.parametrize("name", sorted(BNB_PINNED))
    def test_pinned(self, name):
        (rows, b, c, z, scale), expected = BNB_PINNED[name]
        n = len(c)
        inst = MilpInstance(a_int=Matrix([r[:z] for r in rows]),
                            a_frac=Matrix([r[z:] for r in rows]), b=b, c=c,
                            lower=(-2,) * n, upper=(2,) * n)
        status, x, nodes, pivots = expected
        res = ilp_solve(integralize(inst, scale))
        assert (res.status, res.x, res.stats.nodes, res.stats.pivots) == expected
        # the instance as given takes the same path, x_Q on the 1/scale grid
        direct = ilp_solve(inst)
        assert (direct.status, direct.stats.nodes, direct.stats.pivots) == (status, nodes, pivots)
        assert direct.x[:z] + tuple(scale * v for v in direct.x[z:]) == x


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

    def test_box_cap(self, monkeypatch):
        # the cap is read when the oracle runs, so the message names 100
        monkeypatch.setattr(solver, "ORACLE_BOX_CAP", 100)
        inst = pure_ilp(Matrix([[1] * 8]), (0,), (0,) * 8, (-10,) * 8, (10,) * 8)
        with pytest.raises(CapExceededError, match="exceeds 100$"):
            milp_oracle(inst)

    def test_box_cap_boundary(self, monkeypatch):
        # a box of 3 * 3 = 9 integer points
        inst = pure_ilp(Matrix([[1, 1]]), (3,), (1, 1), (0, 0), (2, 2))
        monkeypatch.setattr(solver, "ORACLE_BOX_CAP", 9)
        assert milp_oracle(inst).objective == 3
        monkeypatch.setattr(solver, "ORACLE_BOX_CAP", 8)
        with pytest.raises(CapExceededError, match="exceeds 8$"):
            milp_oracle(inst)


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

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_product_over_components_is_the_whole_enumeration(self, data):
        # a block-diagonal matrix, rows and columns shuffled, against every
        # column basis of the whole matrix
        blocks = data.draw(st.lists(st.tuples(st.integers(1, 2), st.integers(1, 3)),
                                    min_size=1, max_size=3))
        q = sum(c for _, c in blocks)
        rows, left = [], 0
        for r, c in blocks:
            for _ in range(r):
                entries = data.draw(st.lists(st.integers(-3, 3), min_size=c, max_size=c))
                rows.append([0] * left + entries + [0] * (q - left - c))
            left += c
        row_order = data.draw(st.permutations(range(len(rows))))
        col_order = data.draw(st.permutations(range(q)))
        a = Matrix(rows).submatrix(row_order, col_order)
        assert _determinant_scale(a) == determinant_scale_by_enumeration(a)

    def test_basis_cap_boundary(self, monkeypatch):
        # C(3, 2) = 3 candidate bases, of det 1, 2 and 2
        a = Matrix([[1, 1, 0], [0, 1, 2]])
        monkeypatch.setattr(solver, "BASIS_CAP", 3)
        assert _determinant_scale(a) == (2, 2)
        monkeypatch.setattr(solver, "BASIS_CAP", 2)
        with pytest.raises(CapExceededError, match=r"limited to 2 bases, got C\(3,2\)$"):
            _determinant_scale(a)

    def test_block_diagonal_part_enumerates_each_block(self, monkeypatch):
        # a 7x14 continuous part of a 3x6 and a 4x8 block: C(6,3) + C(8,4)
        # determinants instead of C(14,7) = 3432
        rng = random.Random(7)
        rows = [[rng.randint(1, 4) for _ in range(6)] + [0] * 8 for _ in range(3)]
        rows += [[0] * 6 + [rng.randint(1, 4) for _ in range(8)] for _ in range(4)]
        a = Matrix(rows)
        calls = []
        basis_det = solver._basis_det

        def counting(rows, cols):
            calls.append((len(rows), len(cols)))
            return basis_det(rows, cols)

        monkeypatch.setattr(solver, "_basis_det", counting)
        scale, largest = _determinant_scale(a)
        assert len(calls) == math.comb(6, 3) + math.comb(8, 4)
        monkeypatch.undo()
        assert (scale, largest) == determinant_scale_by_enumeration(a)

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


class TestNoFloats:
    """A float compares equal to the rational it stands for, and the
    benchmark's checker reads 0.5 as 1/2, so only the types show one that
    escaped the exact arithmetic.  Values and objectives are in scalar form:
    an int exactly where integral, in every node LP, the branch and bound,
    the mixed optimum and the report's scaled objective."""

    @staticmethod
    def check(inst):
        solved = []

        def recording(solve):
            def call(*args, **kwargs):
                solved.append(solve(*args, **kwargs))
                return solved[-1]
            return call

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "lp_solve_exact", recording(lp_solve_exact))
            patch.setattr(solver, "ilp_solve", recording(ilp_solve))
            res, report = milp_solve(inst)
        assert solved[-1].stats is res.stats  # ilp_solve's, after its node LPs
        scalars = [report.scaled_objective] if res.status == "optimal" else []
        for r in (*solved, res):
            if r.status == "optimal":
                scalars += [*r.x, r.objective]
        assert all(type(v) is (int if v.denominator == 1 else Fraction) for v in scalars)
        scaled = integralize(inst, report.scale)
        assert all(type(v) is int for v in scaled.matrix.entries())
        assert all(type(v) is int
                   for v in (*scaled.b, *scaled.c, *scaled.lower, *scaled.upper))
        if res.status != "optimal":
            return
        a, z, scale = inst.matrix, inst.z, report.scale
        y = [v if j < z else v * scale for j, v in enumerate(res.x)]
        assert recover(y, scale, inst) == res.x
        for j in range(len(y)):
            hit = next((i for i in range(inst.rows) if a[i, j]), None)
            if hit is None:
                continue
            bad = list(y)
            bad[j] += 1  # moves every row with a nonzero in column j
            got = inst.b[hit] + a[hit, j] * (1 if j < z else Fraction(1, scale))
            message = f"^constraint row {hit} violated: {got} != {inst.b[hit]}$"
            with pytest.raises(FeasibilityError, match=message) as info:
                recover(bad, scale, inst)
            assert info.value.row == hit

    def test_acceptance_corpus(self):
        for inst in acceptance_corpus(100):
            self.check(inst)

    @settings(max_examples=150, deadline=None)
    @given(inst=mixed_instances())
    def test_mixed_instances(self, inst):
        self.check(inst)


class TestScaleWitness:
    @settings(max_examples=250, deadline=None)
    @given(inst=mixed_instances())
    def test_every_optimum_is_on_the_scale_grid(self, inst):
        res, report = milp_solve(inst)
        if res.status == "optimal":
            assert all(report.scale % v.denominator == 0 for v in res.x[inst.z:])

    @settings(max_examples=300, deadline=None)
    @given(inst=mixed_instances())
    def test_matches_branching_on_the_unscaled_instance(self, inst):
        try:
            res, _ = milp_solve(inst)
        except CapExceededError:
            assume(False)
        assert (res.status, res.objective) == milp_by_integer_branching(inst)
        # the branching reference runs the library's algorithm; the oracle
        # enumerates the integer box, at most 4^5 points here
        ora = milp_oracle(inst)
        assert (res.status, res.objective) == (ora.status, ora.objective)

    @settings(max_examples=150, deadline=None)
    @given(inst=mixed_instances(), k=st.sampled_from((1, 2, 7, math.lcm(*range(1, 13)))))
    def test_scaled_instance_takes_the_same_path(self, inst, k):
        # integralize is a diagonal rescaling, so under any multiple of a
        # sound scale branch and bound makes the same choices on both
        scale = k * milp_solve(inst)[1].scale
        res = ilp_solve(inst)
        scaled = ilp_solve(integralize(inst, scale))
        assert ((scaled.status, scaled.stats.nodes, scaled.stats.pivots)
                == (res.status, res.stats.nodes, res.stats.pivots))
        if res.status == "optimal":
            z = inst.z
            assert scaled.x[:z] == res.x[:z]
            assert scaled.x[z:] == tuple(scale * v for v in res.x[z:])
            assert scaled.objective == scale * res.objective

    def test_unsound_scale_fails_the_witness(self, monkeypatch):
        # 2 y = 1 needs y = 1/2, which a scale of 1 leaves off its grid
        monkeypatch.setattr("tdmilp.solver.choose_scale", lambda m: 1)
        inst = MilpInstance(a_int=Matrix([[]], cols=0), a_frac=Matrix([[2]]),
                            b=(1,), c=(1,), lower=(0,), upper=(1,))
        with pytest.raises(SolverError, match=r"m_source=certificate m=2 scale=1$"):
            milp_solve(inst)

    def test_certificate_alone_past_the_basis_cap(self, monkeypatch):
        # with no basis allowed the determinant scale is capped, so lcm(1..m)
        # of the certificate is the scale, with no gcd cut
        monkeypatch.setattr(solver, "BASIS_CAP", 0)
        inst = MilpInstance(a_int=Matrix([[]], cols=0), a_frac=Matrix([[2]]),
                            b=(1,), c=(1,), lower=(0,), upper=(1,))
        res, report = milp_solve(inst)
        ora = milp_oracle(inst)
        assert (report.m_source, report.m_value) == ("certificate", 2)
        assert report.scale == choose_scale(report.m_value)
        assert not any("scale cut" in note for note in report.notes)
        assert (res.status, res.x, res.objective) == (ora.status, ora.x, ora.objective)

    def test_capped_certificate_falls_back_to_the_determinant_scale(self, monkeypatch):
        # the bound arithmetic reads BIT_CAP when it runs, so one bit caps
        # the certificate of 2 y = 1 at its first value
        monkeypatch.setattr(fracbound, "BIT_CAP", 1)
        inst = MilpInstance(a_int=Matrix([[]], cols=0), a_frac=Matrix([[2]]),
                            b=(1,), c=(1,), lower=(0,), upper=(1,))
        with pytest.raises(fracbound.CapExceededError):
            fracbound.frac_bound(inst.a_frac, TdDecomposition([None]))
        res, report = milp_solve(inst)
        assert report.notes == ["certificate capped at log2~3; determinant scale"]
        assert (report.m_source, report.m_value, report.scale) == ("determinant", 2, 2)
        assert (res.status, res.objective) == ("optimal", Fraction(1, 2))

    def test_certificate_at_the_usable_cap(self, monkeypatch):
        # the certificate of 2 y = 1 is 2: usable under M_CAP = 2, not under 1
        inst = MilpInstance(a_int=Matrix([[]], cols=0), a_frac=Matrix([[2]]),
                            b=(1,), c=(1,), lower=(0,), upper=(1,))
        monkeypatch.setattr(solver, "M_CAP", 2)
        _, report = milp_solve(inst)
        assert (report.m_source, report.m_value, report.notes) == ("certificate", 2, [])
        monkeypatch.setattr(solver, "M_CAP", 1)
        _, report = milp_solve(inst)
        assert (report.m_source, report.m_value) == ("determinant", 2)
        assert report.notes == ["certificate exceeded usable cap; determinant scale"]

    def test_certificate_past_the_usable_cap_takes_the_determinant_scale(self):
        # x0 + 10001 y = 1: the certificate of the continuous column is
        # finite but above M_CAP, so the determinant scale 10001 is used
        inst = MilpInstance(a_int=Matrix([[1]]), a_frac=Matrix([[10001]]), b=(1,),
                            c=(1, 1), lower=(0, 0), upper=(1, 1))
        assert solver.M_CAP < fracbound.frac_bound(inst.a_frac, TdDecomposition([None])).bound
        res, report = milp_solve(inst)
        assert report.notes == ["certificate exceeded usable cap; determinant scale"]
        assert (report.m_source, report.m_value, report.scale) == ("determinant", 10001, 10001)
        assert (res.status, res.x, res.objective) == ("optimal", (0, Fraction(1, 10001)),
                                                      Fraction(1, 10001))

    @pytest.mark.parametrize("z, branched, accepted", [(1, 0, 0), (None, 1, 0), (0, 1, 1)])
    def test_integer_first_order(self, monkeypatch, z, branched, accepted):
        # the root LP is x = (1/4, 1/2): column 1 is the more fractional, but
        # with z=1 column 0 is the one integer column and is branched on;
        # z=None is a pure ILP, every column integer, so column 1 is; with
        # z=0 no column is integer, so the root is accepted with column 1,
        # the more fractional, left as it is
        bounds = []

        def recording(a, b, lower, upper, c, **kwargs):
            bounds.append((lower, upper))
            return lp_solve_exact(a, b, lower, upper, c, **kwargs)

        monkeypatch.setattr("tdmilp.solver.lp_solve_exact", recording)
        a = Matrix([[4, 0], [0, 2]])
        data = dict(b=(1, 1), c=(0, 0), lower=(0, 0), upper=(1, 1))
        if z is None:
            inst = pure_ilp(a, **data)
        else:
            inst = MilpInstance(a_int=a.submatrix(range(2), range(z)),
                                a_frac=a.submatrix(range(2), range(z, 2)), **data)
        res = ilp_solve(inst)
        if accepted:
            assert _most_fractional(res.x, range(2)) == branched
            assert (res.status, res.x, res.stats.nodes) == (
                "optimal", (Fraction(1, 4), Fraction(1, 2)), 1)
            assert bounds == [((0, 0), (1, 1))]
            return
        assert res.status == "infeasible"
        other = 1 - branched
        assert [(lo[other], up[other]) for lo, up in bounds] == [(0, 1)] * 3
        assert [(lo[branched], up[branched]) for lo, up in bounds] == [(0, 1), (0, 0), (1, 1)]


class TestNodeLps:
    def test_every_node_optimum_checks_out(self, monkeypatch):
        # every optimal node LP of each solve, checked against the original
        # rows by its basis in Fractions as it returns, apart from the
        # simplex's own check and before recover sees the mixed optimum
        checked = []

        def checking(a, b, lower, upper, c, **kwargs):
            res = lp_solve_exact(a, b, lower, upper, c, **kwargs)
            if res.status == "optimal":
                check_lp_optimum(a, b, lower, upper, c, res)
                checked.append(res)
            return res

        monkeypatch.setattr(solver, "lp_solve_exact", checking)
        rng = random.Random(19)
        sweep = (feasible_mixed_instance(rng) for _ in range(250))
        for inst in (*acceptance_corpus(100), *sweep):
            milp_solve(inst)
        assert len(checked) > 400  # 65 optima from the corpus, 345 from the sweep


class TestChooseSide:
    def test_an_explicit_side_still_returns_both_decompositions(self):
        a = Matrix([[1, 1, 0], [0, 1, 1]])
        for side in ("primal", "dual", "auto"):
            chosen, fs, stats = choose_side(a, side)
            assert sorted(fs) == ["dual", "primal"]
            assert all(stats[s] == td_stats(fs[s]) for s in fs)
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
        direct = ilp_solve(inst)
        assert (res.x, res.objective) == (direct.x, direct.objective)
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
        assert (res.objective, type(res.objective)) == (ora.objective, type(ora.objective))
        x = res.x
        assert inst.matrix.apply_vector(x) == tuple(Fraction(v) for v in inst.b)
        assert all(lo <= v <= up for lo, v, up in zip(inst.lower, x, inst.upper))
        assert all(v.denominator == 1 for v in x[:inst.z])
        assert sum(c * v for c, v in zip(inst.c, x)) == res.objective

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
