import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdmilp.fracbound import _greedy_invertible_columns
from tdmilp.linalg import (DimensionError, Matrix, SingularMatrixError, clear_denominators,
                           forward_eliminate, fractionality, mat_det, mat_inverse,
                           mat_rank, parse_matrix, rational)
from oracles import (det_by_permutation_expansion, fraction_elimination,
                     leftmost_column_basis, rank_by_minors, reference_det,
                     reference_inverse, reference_rank)
from strategies import int_matrices, kernel_matrices


def bidiagonal(n):
    return Matrix([[2 if i == j else (-1 if j == i + 1 else 0) for j in range(n)]
                   for i in range(n)])


def random_rational_matrix(rng, n, den=4):
    return Matrix([[Fraction(rng.randint(-8, 8), rng.randint(1, den))
                    for _ in range(n)] for _ in range(n)])


class TestDeterminant:
    def test_identity(self):
        assert mat_det(Matrix.identity(3)) == 1

    def test_upper_bidiagonal_is_diagonal_product(self):
        # triangular, so the determinant is the product of the diagonal
        assert mat_det(bidiagonal(3)) == 8

    def test_row_swap_of_identity(self):
        assert mat_det(Matrix([[0, 1], [1, 0]])) == -1

    def test_empty_matrix(self):
        assert mat_det(Matrix([], cols=0)) == 1

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            mat_det(Matrix([[1, 2]]))

    def test_matches_permutation_expansion(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randrange(1, 6)
            m = random_rational_matrix(rng, n)
            assert mat_det(m) == det_by_permutation_expansion(m)


class TestInverse:
    def test_identity(self):
        assert mat_inverse(Matrix.identity(4)) == Matrix.identity(4)

    def test_bidiagonal_closed_form(self):
        inv = mat_inverse(bidiagonal(3))
        expected = Matrix([
            [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)],
            [0, Fraction(1, 2), Fraction(1, 4)],
            [0, 0, Fraction(1, 2)],
        ])
        assert inv == expected

    def test_arrowhead_inverse_denominators(self):
        # first row/column of ones, ones on the diagonal; at n=4 every
        # denominator divides n' = 2 (value derived by direct inversion)
        a = Matrix([[1, 1, 1, 1], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]])
        inv = mat_inverse(a)
        h = Fraction(1, 2)
        expected = Matrix([
            [-h, h, h, h],
            [h, h, -h, -h],
            [h, -h, h, -h],
            [h, -h, -h, h],
        ])
        assert inv == expected
        assert all(x.denominator in (1, 2) for x in inv.entries())

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            mat_inverse(Matrix([[1, 2], [2, 4]]))

    def test_round_trip_properties(self):
        rng = random.Random(13)
        done = 0
        while done < 30:
            n = rng.randrange(1, 6)
            m = random_rational_matrix(rng, n)
            det = mat_det(m)
            if det == 0:
                continue
            inv = mat_inverse(m)
            assert m * inv == Matrix.identity(n)
            assert inv * m == Matrix.identity(n)
            assert det * mat_det(inv) == 1
            done += 1


class TestFractionality:
    def test_integral_matrix(self):
        assert fractionality(Matrix([[3, -7], [0, 2]])) == 1

    def test_reduced_entries(self):
        assert fractionality(Matrix([[Fraction(1, 2), Fraction(1, 3)]])) == 3

    def test_bidiagonal_inverse_n10(self):
        assert fractionality(mat_inverse(bidiagonal(10))) == 1024

    def test_invariant_under_permutation(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randrange(1, 6)
            m = random_rational_matrix(rng, n)
            rows = list(range(n))
            cols = list(range(n))
            rng.shuffle(rows)
            rng.shuffle(cols)
            assert fractionality(m.submatrix(rows, cols)) == fractionality(m)

    def test_scalar_product_lcm_bound(self):
        # the cases the inversion proof uses: an integer scalar against any
        # matrix, and a unit fraction against an integral matrix
        rng = random.Random(4)
        for _ in range(30):
            m = random_rational_matrix(rng, 3)
            k = rng.randint(1, 6)
            assert fractionality(k * m) <= fractionality(m)
            intm = Matrix([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
            beta = rng.randint(1, 8)
            assert fractionality(Fraction(1, beta) * intm) <= beta


class TestMatrixBasics:
    def test_rank(self):
        assert mat_rank(Matrix([[1, 2], [2, 4]])) == 1
        assert mat_rank(Matrix.identity(3)) == 3
        assert mat_rank(Matrix.zeros(2, 3)) == 0

    def test_serialization_round_trip(self):
        m = Matrix([[Fraction(1, 2), -2], [0, Fraction(7, 3)]])
        assert parse_matrix(m.to_text()) == m

    def test_rational_text_form(self):
        assert str(rational("3/6")) == "1/2"
        assert str(rational("-2")) == "-2"
        with pytest.raises(ValueError):
            rational("1.5")

    def test_immutable(self):
        m = Matrix.identity(2)
        with pytest.raises(AttributeError):
            m.rows = 5

    def test_matmul_shapes(self):
        a = Matrix([[1, 2, 3]])
        b = Matrix([[1], [1], [1]])
        assert (a * b)[0, 0] == 6
        with pytest.raises(DimensionError):
            b * b


class TestEliminationProperties:
    """The callers of the elimination kernel against brute-force minors."""

    @settings(max_examples=150, deadline=None)
    @given(m=int_matrices())
    def test_rank_is_largest_nonzero_minor(self, m):
        assert mat_rank(m) == rank_by_minors(m)

    @settings(max_examples=150, deadline=None)
    @given(m=int_matrices())
    def test_greedy_columns_are_leftmost_basis(self, m):
        expected = leftmost_column_basis(m)
        if expected is None:
            with pytest.raises(SingularMatrixError):
                _greedy_invertible_columns(m)
        else:
            assert _greedy_invertible_columns(m) == expected

    @settings(max_examples=150, deadline=None)
    @given(m=int_matrices(square=True))
    def test_inverse_exists_iff_determinant_nonzero(self, m):
        det = det_by_permutation_expansion(m)
        assert mat_det(m) == det
        if det == 0:
            with pytest.raises(SingularMatrixError):
                mat_inverse(m)
        else:
            assert mat_inverse(m) * m == Matrix.identity(m.rows)


class TestFractionFreeKernel:
    """The fraction-free kernel against textbook elimination in Fractions."""

    @settings(max_examples=300, deadline=None)
    @given(m=kernel_matrices(), data=st.data())
    def test_pivots_match_the_fraction_reference(self, m, data):
        width = data.draw(st.integers(0, m.cols))
        expected, _ = fraction_elimination([m.row(i) for i in range(m.rows)], width)
        rows = m.row_lists()
        assert list(forward_eliminate(rows, width)) == expected
        assert all(type(x) is int for row in rows for x in row)
        assert mat_rank(m) == reference_rank(m)

    @settings(max_examples=300, deadline=None)
    @given(m=kernel_matrices(square=True))
    def test_det_and_inverse_match_the_fraction_reference(self, m):
        det = mat_det(m)
        assert type(det) is Fraction
        assert det == reference_det(m)
        expected = reference_inverse(m)
        if expected is None:
            with pytest.raises(SingularMatrixError):
                mat_inverse(m)
        else:
            assert mat_inverse(m) == expected

    def test_det_is_a_fraction(self):
        for m in (Matrix([[2, 1], [1, 1]]), Matrix([[1, 2], [2, 4]]), Matrix([], cols=0),
                  Matrix([[Fraction(1, 2), 1], [1, Fraction(1, 3)]])):
            assert type(mat_det(m)) is Fraction
        assert mat_det(Matrix([[Fraction(1, 2), 1], [1, Fraction(1, 3)]])) == Fraction(-5, 6)

    def test_inverse_divides_exactly(self):
        # int / int would give the float 0.5
        x = mat_inverse(Matrix([[2]]))[0, 0]
        assert type(x) is Fraction and x == Fraction(1, 2)

    def test_integral_entries_are_ints(self):
        m = Matrix([[Fraction(4, 2), "6/3", Fraction(1, 2)], [1, -0, "3"]])
        assert [type(x) for x in m.entries()] == [int, int, Fraction, int, int, int]
        assert type(rational(Fraction(5))) is int and type(rational("-4/2")) is int
        assert all(type(x) is int for x in mat_inverse(Matrix([[1, 1], [0, 1]])).entries())
        assert type(Matrix.zeros(1, 1)[0, 0]) is int
        assert type(Matrix.identity(1)[0, 0]) is int
        assert type((Matrix([[Fraction(1, 2)]]) * Matrix([[2]]))[0, 0]) is int


# p/q values as ``rational`` returns them (an int when q divides p), mixed with ints
rationals = st.one_of(st.integers(-50, 50),
                      st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)).map(rational))


class TestClearDenominators:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(rationals, max_size=8), base=st.integers(1, 12))
    def test_ints_over_the_least_common_multiple(self, values, base):
        ints, d = clear_denominators(values, base)
        assert d == math.lcm(base, *(v.denominator for v in values))
        assert all(type(k) is int for k in ints)
        assert len(ints) == len(values)
        assert all(k == v * d for k, v in zip(ints, values))

    @given(values=st.lists(st.integers(), max_size=8))
    def test_ints_come_back_as_they_are(self, values):
        ints, d = clear_denominators(values)
        assert d == 1 and ints == values
