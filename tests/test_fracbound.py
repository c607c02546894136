import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdmilp.families import FamilySpec, generate
from tdmilp import blocks, fracbound
from tdmilp.fracbound import (BaseTrace, CapExceededError, PeelStep, SplitTrace,
                              frac_bound, structured_inverse)
from tdmilp.linalg import (Matrix, SingularMatrixError, fractionality, mat_det,
                           mat_inverse)
from tdmilp.structure import TdDecomposition, decomposition_for_matrix
from oracles import structured_invertible_matrix


def bidiagonal(n):
    return Matrix([[2 if i == j else (-1 if j == i + 1 else 0) for j in range(n)]
                   for i in range(n)])


def invertible_random_td(seed, n, t=4, magnitude=3):
    rng = random.Random(seed)
    a = structured_invertible_matrix(rng, n, t, magnitude)
    assert mat_det(a) != 0
    return a


SPARSE_ENTRIES = (0, 0, 0, 0, 0, -2, -1, 1, 2)
RATIONAL_ENTRIES = (Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4))


def invertible_sparse(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    while True:
        a = Matrix([[rng.choice(SPARSE_ENTRIES) for _ in range(n)] for _ in range(n)])
        if mat_det(a) != 0:
            return a


@st.composite
def sparse_square(draw):
    n = draw(st.integers(3, 7))
    entries = draw(st.lists(st.sampled_from(SPARSE_ENTRIES + RATIONAL_ENTRIES),
                            min_size=n * n, max_size=n * n))
    return Matrix([entries[i * n:(i + 1) * n] for i in range(n)])


def trace_nodes(trace):
    """Every node of the trace in the order the recursion built them."""
    out = []
    stack = [trace.root]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, PeelStep):
            stack.append(node.rest)
            stack.append(node.b1)
        elif isinstance(node, SplitTrace):
            stack.extend(part for _, _, part in reversed(node.parts))
            if node.q1 is not None:
                stack.append(node.q1)
    return out


def splits_with_q1(trace):
    return [n for n in trace_nodes(trace) if isinstance(n, SplitTrace) and n.q1 is not None]


def collect_peels(trace):
    return [node for node in trace_nodes(trace) if isinstance(node, PeelStep)]


class TestStructuredInverse:
    def test_one_by_one(self):
        a = Matrix([[7]])
        f = TdDecomposition([None])
        inv, _ = structured_inverse(a, f)
        assert inv == Matrix([[Fraction(1, 7)]])

    def test_bidiagonal_path(self):
        a = bidiagonal(4)
        f = decomposition_for_matrix(a, "primal", "exact")
        inv, trace = structured_inverse(a, f)
        assert inv == mat_inverse(a)
        assert fractionality(inv) == 16
        assert trace.replay() == inv

    def test_two_brick_square(self):
        # border column plus two bricks; invertible and genuinely two-level
        a = Matrix([[1, 2, 0], [1, 0, 3], [2, 0, 0]])
        f = decomposition_for_matrix(a, "primal", "exact")
        inv, trace = structured_inverse(a, f)
        assert inv == mat_inverse(a)
        peels = collect_peels(trace)
        assert len(peels) <= 1  # border width 1 allows at most one peel

    def test_split_with_two_square_blocks(self):
        # border column 0, a strict block on column 2 (rows 1 and 3) and two
        # square blocks, columns 1 and 3, whose rows both touch the border
        a = Matrix([[1, 2, 0, 0],
                    [1, 0, 1, 0],
                    [2, 0, 0, 3],
                    [3, 0, 1, 0]])
        inv, trace = structured_inverse(a, TdDecomposition([None, 0, 0, 0]))
        split = trace.root
        assert isinstance(split, SplitTrace)
        assert (split.q1_rows, split.q1_cols) == ((1, 3), (0, 2))
        assert split.q1 == BaseTrace(Matrix([[1, 1], [3, 1]]))
        assert split.parts == (((0,), (1,), BaseTrace(Matrix([[2]]))),
                               ((2,), (3,), BaseTrace(Matrix([[3]]))))
        assert split.lower_left == Matrix([[1], [2]])
        h = Fraction(1, 2)
        t = Fraction(1, 3)
        assert inv == Matrix([[0, -h, 0, h],
                              [h, h / 2, 0, -h / 2],
                              [0, 3 * h, 0, -h],
                              [0, t, t, -t]])
        assert inv == mat_inverse(a)

    def test_random_structured_reach_split_with_q1_and_two_blocks(self):
        parts = []
        for seed in range(40):
            a = invertible_random_td(seed, 3 + seed % 6)
            for mode in ("exact", "heuristic"):
                _, trace = structured_inverse(a, decomposition_for_matrix(a, "primal", mode))
                parts += [len(s.parts) for s in splits_with_q1(trace)]
        assert max(parts) >= 2

    def test_lower_left_is_border_wide(self, monkeypatch):
        # a square block's rows are zero outside the border, so a split keeps
        # only the border columns of them; a forest has no border
        borders = []
        primal_decompose = blocks.primal_decompose

        def recorded(a, f):
            bs = primal_decompose(a, f)
            borders.append(bs.k1)
            return bs

        # Block.structure calls the blocks module's binding
        monkeypatch.setattr(blocks, "primal_decompose", recorded)
        for seed in range(40):
            for a in (invertible_random_td(seed, 3 + seed % 6), invertible_sparse(seed)):
                for mode in ("exact", "heuristic"):
                    borders.clear()
                    _, trace = structured_inverse(a, decomposition_for_matrix(a, "primal", mode))
                    assert [s.lower_left.cols for s in splits_with_q1(trace)] == borders
                    for s in trace_nodes(trace):
                        if isinstance(s, SplitTrace):
                            assert s.lower_left.rows == sum(len(r) for r, _, _ in s.parts)
                            assert s.q1 is not None or s.lower_left.cols == 0

    def test_matches_direct_inverse_on_random_structured(self):
        for seed in range(40):
            a = invertible_random_td(seed, 3 + seed % 6)
            f = decomposition_for_matrix(a, "primal", "heuristic")
            inv, trace = structured_inverse(a, f)
            assert inv == mat_inverse(a)
            assert trace.replay() == inv

    def test_beta_divides_block_inverse_cap(self):
        # every recorded scaling divides the lcm of its block-inverse
        # denominators, so it is bounded by fr(b1)^(m1^2); sparse matrices
        # reach peels with a nonempty Schur complement, the structured
        # generators above never do
        peels = scaled = 0
        for seed in range(60):
            a = invertible_sparse(seed)
            for mode in ("exact", "heuristic"):
                f = decomposition_for_matrix(a, "primal", mode)
                _, trace = structured_inverse(a, f)
                for peel in collect_peels(trace):
                    assert peel.b1_inv == peel.b1.replay()
                    dens = math.lcm(*(x.denominator for x in peel.b1_inv.entries()))
                    assert dens % peel.beta == 0
                    fr_b1 = fractionality(peel.b1_inv)
                    assert peel.beta <= fr_b1 ** (peel.b1_inv.rows ** 2)
                    peels += 1
                    scaled += peel.beta > 1
        assert peels > 0 and scaled > 0

    def test_each_base_block_inverted_once(self, monkeypatch):
        calls = []

        def counted(m):
            calls.append(m)
            return mat_inverse(m)

        monkeypatch.setattr(fracbound, "mat_inverse", counted)
        for seed in range(40):
            for a in (invertible_random_td(seed, 3 + seed % 6), invertible_sparse(seed)):
                for mode in ("exact", "heuristic"):
                    f = decomposition_for_matrix(a, "primal", mode)
                    calls.clear()
                    _, trace = structured_inverse(a, f)
                    nodes = trace_nodes(trace)
                    assert len(calls) == sum(isinstance(n, BaseTrace) for n in nodes)
                    # a peel's rest inverts its Schur complement, of u.rows rows
                    assert all(n.u.rows > 0 for n in nodes if isinstance(n, PeelStep))

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    @settings(max_examples=250, deadline=None)
    @given(a=sparse_square())
    def test_matches_direct_inverse_on_sparse(self, mode, a):
        # sparse matrices reach peels whose column permutations are not the
        # identity, which the structured generators above never do (a peel
        # never permutes rows); p/q entries give rational splits, peels and
        # scalings
        f = decomposition_for_matrix(a, "primal", mode)
        if mat_det(a) == 0:
            with pytest.raises(SingularMatrixError):
                structured_inverse(a, f)
        else:
            assert structured_inverse(a, f)[0] == mat_inverse(a)

    def test_singular_rejected(self):
        a = Matrix([[1, 1], [1, 1]])
        f = decomposition_for_matrix(a, "primal", "exact")
        with pytest.raises(SingularMatrixError):
            structured_inverse(a, f)


class TestFracBound:
    def test_bit_cap_boundary(self, monkeypatch):
        # 15 has 4 bits, so its square estimates at exactly 8: kept exact at a
        # cap of 8 bits; one bit more is only estimated
        monkeypatch.setattr(fracbound, "BIT_CAP", 8)
        fifteen = fracbound._of(15)
        assert fracbound._mul(fifteen, fifteen).exact == 225
        assert fracbound._power(fifteen, 2).exact == 225
        assert fracbound._mul(fifteen, fracbound._of(16)).exact is None
        assert fracbound._power(fracbound._of(7), 3).exact is None

    def test_single_column_gives_norm(self):
        a = Matrix([[3], [2]])
        f = TdDecomposition([None])
        cert = frac_bound(a, f)
        assert cert.bound == 3

    def test_base_case_formula(self):
        # one dense row over three columns: path decomposition, k1=3, norm 2
        a = Matrix([[2, 1, 1]])
        f = TdDecomposition([None, 0, 1])
        cert = frac_bound(a, f)
        assert cert.bound == 216  # (3*2)**3

    def test_soundness_against_exhaustive_submatrices(self):
        rng = random.Random(1)
        for seed in range(30):
            m = rng.randrange(2, 5)
            n = rng.randrange(m, 8)
            a = generate(FamilySpec("random_td", n=n, k=m, t=3, seed=seed, magnitude=2))
            f = decomposition_for_matrix(a, "primal", "exact")
            empirical = 1
            for cols in combinations(range(n), m):
                sub = a.submatrix(range(m), cols)
                if mat_det(sub) != 0:
                    empirical = max(empirical, fractionality(mat_inverse(sub)))
            try:
                cert = frac_bound(a, f)
                assert cert.bound >= empirical
            except CapExceededError as exc:
                assert exc.log2_estimate >= math.log2(empirical)

    def test_monotone_in_norm_on_fixed_shape(self):
        f = TdDecomposition([None, 0, 1])
        prev = 0
        for a in range(1, 5):
            cert = frac_bound(Matrix([[a, a, a]]), f)
            assert cert.bound >= prev
            prev = cert.bound

    def test_dual_symmetry(self):
        a = Matrix([[1, 2, 0], [1, 0, 3]])
        f = decomposition_for_matrix(a, "dual", "exact")
        dual = frac_bound(a, f, "dual")
        primal_of_transpose = frac_bound(a.transpose(), f, "primal")
        assert dual.bound == primal_of_transpose.bound

    def test_capped_split_trace(self):
        # one border column over two one-column blocks: the split level is a
        # factorial of factorials, so it caps; the trace still renders it
        a = Matrix([[1, 2, 0], [1, 0, 3]])
        f = decomposition_for_matrix(a, "primal", "exact")
        with pytest.raises(CapExceededError) as err:
            frac_bound(a, f)
        assert err.value.trace.render() == "\n".join([
            "level k1=1 q1=~2^2.19692e+48 q2=3 betas=[36]",
            "  level k1=1 base hadamard=3",
            "  level k1=1 base hadamard=3"])

    def test_trace_records_levels(self):
        # two-level structures overflow the factorial composition by design;
        # the cap error still carries the recursion trace and a log estimate
        a = Matrix([[1, 2, 0], [1, 0, 3], [2, 0, 0]])
        f = decomposition_for_matrix(a, "primal", "exact")
        with pytest.raises(CapExceededError) as err:
            frac_bound(a, f)
        assert err.value.log2_estimate > 0
        assert err.value.trace is not None
        assert "k1=" in err.value.trace.render()
