import random
from fractions import Fraction

import pytest

from tdmilp.families import (FamilySpec, MipDescriptor, generate,
                             reduce_ilp_to_milp, verify_family)
from tdmilp.integralize import MilpInstance, pure_ilp
from tdmilp.linalg import Matrix, fractionality, mat_inverse
from tdmilp.solver import ilp_solve, milp_oracle
from tdmilp.structure import dual_graph, primal_graph


class TestGenerate:
    def test_bidiagonal_display(self):
        a = generate(FamilySpec("lemma4_a1", n=3))
        assert a == Matrix([[2, -1, 0], [0, 2, -1], [0, 0, 2]])

    def test_arrowhead_display(self):
        a = generate(FamilySpec("lemma4_a2", n=4))
        assert a == Matrix([[1, 1, 1, 1], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]])

    def test_random_is_deterministic(self):
        spec = FamilySpec("random_td", n=6, k=5, t=3, seed=42, magnitude=2)
        assert generate(spec) == generate(spec)

    def test_descriptor_families(self):
        p1 = generate(FamilySpec("lemma5_p1", n=4))
        assert isinstance(p1, MipDescriptor)
        assert p1.constraint == Matrix([[1, 1, 1, 1]])
        p2 = generate(FamilySpec("lemma5_p2", k=3))
        assert p2.objective == ("squared_distance", Fraction(1, 3))
        p3 = generate(FamilySpec("lemma5_p3"))
        assert p3.objective[0] == "cubic"

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            generate(FamilySpec("lemma4_a2", n=2))
        with pytest.raises(ValueError):
            FamilySpec("random_td", n=4)  # missing seed
        with pytest.raises(ValueError):
            FamilySpec("unknown_family")

    def test_nfold_twostage_shapes(self):
        a = generate(FamilySpec("nfold", t=2, k=3, seed=1, magnitude=2))
        assert a.shape == (2 + 6, 6)
        b = generate(FamilySpec("twostage", t=2, k=3, seed=1, magnitude=2))
        assert b.shape == (6, 2 + 6)


class TestVerify:
    def test_bidiagonal_n10(self):
        spec = FamilySpec("lemma4_a1", n=10)
        report = verify_family(spec)
        assert report.ok
        inv = mat_inverse(generate(spec))
        assert fractionality(inv) == 1024

    def test_arrowhead_n10(self):
        spec = FamilySpec("lemma4_a2", n=10)
        report = verify_family(spec)
        assert report.ok
        assert fractionality(mat_inverse(generate(spec))) >= 8

    def test_uniform_point_optimum(self):
        spec = FamilySpec("lemma5_p1", n=4)
        desc = generate(spec)
        report = verify_family(spec)
        assert report.ok
        uniform = tuple(Fraction(1, 4) for _ in range(4))
        assert desc.objective_value(uniform) == Fraction(1, 4)

    def test_square_shift_minimizer(self):
        for k in (2, 5, 10):
            spec = FamilySpec("lemma5_p2", k=k)
            assert verify_family(spec).ok

    def test_cubic_is_irrational(self):
        spec = FamilySpec("lemma5_p3")
        report = verify_family(spec)
        assert report.ok

    def test_block_families(self):
        for fam in ("nfold", "twostage"):
            spec = FamilySpec(fam, t=2, k=3, seed=9, magnitude=2)
            assert verify_family(spec).ok

    def test_report_text(self):
        spec = FamilySpec("lemma4_a1", n=4)
        text = verify_family(spec).to_text()
        assert "PASS" in text


class TestStructureClaims:
    def test_bidiagonal_primal_is_path(self):
        a = generate(FamilySpec("lemma4_a1", n=6))
        g = primal_graph(a)
        degrees = sorted(len(g.adj[v]) for v in range(g.vertex_count))
        assert degrees == [1, 1, 2, 2, 2, 2]

    def test_sum_row_dual_is_single_vertex(self):
        desc = generate(FamilySpec("lemma5_p1", n=5))
        g = dual_graph(desc.constraint)
        assert g.vertex_count == 1 and not g.edges


class TestReduction:
    def test_infeasible_one_var(self):
        ilp = pure_ilp(Matrix([[2]]), (3,), (0,), (0,), (2,))
        reduced = reduce_ilp_to_milp(ilp)
        assert milp_oracle(reduced).status == "infeasible"

    def test_feasible_one_var(self):
        ilp = pure_ilp(Matrix([[1]]), (1,), (0,), (0,), (2,))
        reduced = reduce_ilp_to_milp(ilp)
        res = milp_oracle(reduced)
        assert res.status == "optimal"
        # the continuous copy is forced integral by the identity rows
        assert all(v.denominator == 1 for v in res.x)

    def test_mixed_instance_rejected(self):
        mixed = MilpInstance(a_int=Matrix([[1]]), a_frac=Matrix([[2]]), b=(1,), c=(0, 0),
                             lower=(0, 0), upper=(1, 1))
        with pytest.raises(ValueError) as info:
            reduce_ilp_to_milp(mixed)
        assert str(info.value) == "reduce expects a pure ILP (no continuous variables)"

    def test_shape_matches_construction(self):
        ilp = pure_ilp(Matrix([[1, 2], [0, 1]]), (1, 1), (0, 0), (0, 0), (2, 2))
        red = reduce_ilp_to_milp(ilp)
        assert red.z == 2 and red.q == 2
        assert red.a_int == Matrix([[0, 0], [0, 0], [1, 0], [0, 1]])
        assert red.a_frac == Matrix([[1, 2], [0, 1], [-1, 0], [0, -1]])
        assert red.b == (1, 1, 0, 0)

    def test_feasibility_agreement_sweep(self):
        rng = random.Random(31)
        agreements = 0
        for _ in range(20):
            n = rng.randrange(1, 4)
            m = rng.randrange(1, 3)
            a = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)],
                       cols=n)
            lower = tuple(rng.randint(-1, 0) for _ in range(n))
            upper = tuple(l + rng.randint(0, 2) for l in lower)
            b = tuple(rng.randint(-2, 2) for _ in range(m))
            ilp = pure_ilp(a, b, (0,) * n, lower, upper)
            direct = ilp_solve(ilp)
            reduced = milp_oracle(reduce_ilp_to_milp(ilp))
            assert (direct.status == "optimal") == (reduced.status == "optimal")
            agreements += 1
        assert agreements == 20
