from fractions import Fraction

import pytest

from tdmilp.integralize import (FeasibilityError, MilpInstance, choose_scale, integralize,
                                pure_ilp, recover)
from tdmilp.linalg import Matrix
from tdmilp.structure import dual_graph, primal_graph


def tiny_mixed():
    # single continuous variable: 2x = 1 on [0, 1]
    return MilpInstance(a_int=Matrix([[]], cols=0), a_frac=Matrix([[2]]),
                        b=(1,), c=(1,), lower=(0,), upper=(1,))


def mixed_pair():
    # one integer + one continuous: y + 2x = 2, y in [0,2], x in [0,1]
    return MilpInstance(a_int=Matrix([[1]]), a_frac=Matrix([[2]]),
                        b=(2,), c=(1, 1), lower=(0, 0), upper=(2, 1))


class TestChooseScale:
    def test_one(self):
        assert choose_scale(1) == 1

    def test_four(self):
        assert choose_scale(4) == 12

    def test_six(self):
        assert choose_scale(6) == 60

    def test_divisibility_property(self):
        for m in range(1, 12):
            s = choose_scale(m)
            assert all(s % d == 0 for d in range(1, m + 1))

    def test_invalid(self):
        with pytest.raises(ValueError):
            choose_scale(0)


class TestIntegralize:
    def test_scale_one_is_the_same_instance(self):
        for inst in (tiny_mixed(), mixed_pair()):
            assert integralize(inst, 1) == inst

    def test_hand_example(self):
        out = integralize(tiny_mixed(), 2)
        assert out.matrix == Matrix([[2]])
        assert out.b == (2,)
        assert out.lower == (0,) and out.upper == (2,)

    def test_objective_scaling(self):
        out = integralize(mixed_pair(), 6)
        # integer part of the objective is scaled, continuous part kept
        assert out.c == (6, 1)
        assert out.b == (12,)
        assert out.matrix == Matrix([[6, 2]])
        assert (out.a_int, out.a_frac) == (Matrix([[6]]), Matrix([[2]]))  # split kept
        assert out.lower == (0, 0) and out.upper == (2, 6)

    def test_nonzero_pattern_preserved(self):
        inst = mixed_pair()
        out = integralize(inst, 4)
        assert primal_graph(out.matrix) == primal_graph(inst.matrix)
        assert dual_graph(out.matrix) == dual_graph(inst.matrix)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            integralize(tiny_mixed(), 0)


class TestRecover:
    def test_identity_at_scale_one(self):
        inst = pure_ilp(Matrix([[1]]), (1,), (0,), (0,), (2,))
        assert recover((1,), 1, inst) == (Fraction(1),)

    def test_hand_example(self):
        assert recover((1,), 2, tiny_mixed()) == (Fraction(1, 2),)

    def test_constraint_violation_reports_row(self):
        with pytest.raises(FeasibilityError) as err:
            recover((2,), 2, tiny_mixed())
        assert err.value.row == 0

    def test_bound_violation(self):
        inst = MilpInstance(a_int=Matrix([[]], cols=0), a_frac=Matrix([[1]]),
                            b=(3,), c=(0,), lower=(0,), upper=(1,))
        with pytest.raises(FeasibilityError):
            recover((3,), 1, inst)

    def test_bijection_on_feasible_points(self):
        inst = mixed_pair()
        scale = 6
        # forward map x -> (x_Z, scale * x_Q) for denominators dividing scale
        for num in range(0, 7):
            x = (Fraction(0), Fraction(num, 6))
            if inst.matrix.apply_vector(x) != tuple(Fraction(v) for v in inst.b):
                continue
            z = (int(x[0]), scale * x[1])
            assert z[1].denominator == 1
            assert recover((z[0], int(z[1])), scale, inst) == x

    def test_objective_correspondence(self):
        inst = mixed_pair()
        scale = 4
        scaled = integralize(inst, scale)
        # z = (0, 4) encodes x = (0, 1); both objectives relate by the scale
        z = (0, 4)
        x = recover(z, scale, inst)
        obj = sum(Fraction(c) * v for c, v in zip(inst.c, x))
        scaled_obj = sum(Fraction(c) * v for c, v in zip(scaled.c, z))
        assert scaled_obj == scale * obj


def test_instance_validation():
    with pytest.raises(ValueError):
        MilpInstance(a_int=Matrix([[1]]), a_frac=Matrix([[Fraction(1, 2)]]),
                     b=(1,), c=(0, 0), lower=(0, 0), upper=(1, 1))
    with pytest.raises(ValueError):
        MilpInstance(a_int=Matrix([[1]]), a_frac=Matrix([[]], cols=0),
                     b=(1,), c=(0,), lower=(2,), upper=(1,))


def test_pure_ilp_is_a_milp_instance_with_no_continuous_columns():
    inst = pure_ilp(Matrix([[1, 2]]), (3,), (1, 1), (0, 0), (2, 2))
    assert type(inst) is MilpInstance
    assert (inst.z, inst.q) == (2, 0)


@pytest.mark.parametrize("field", ["b", "c", "lower", "upper"])
def test_float_data_rejected(field):
    # 2.0 == 2, so only a check on the type refuses it
    data = dict(b=(2,), c=(1, 1), lower=(0, 0), upper=(2, 1))
    data[field] = tuple(float(v) for v in data[field])
    with pytest.raises(TypeError, match="float"):
        MilpInstance(a_int=Matrix([[1]]), a_frac=Matrix([[2]]), **data)
