"""Structured inversion and fractionality certificates.

Both operations follow the same recursion over the block structure of a
matrix with a bounded-treedepth column interaction graph: each part is a
``blocks.Block``, ``split_forest`` cuts a forest into one per tree, and a
block whose ``Block.structure`` is None (no columns, or a path tree) is the
base case.  The structured inverse splits an invertible matrix into the
strict blocks with the border (Q1) and the square blocks, which meet Q1
only in the border columns; a forest is a split with an empty Q1.  Q1 is
peeled apart block by block: a peel keeps ``B1^-1`` and records
``t = B1^-1*X``, ``u = U`` and the scaling beta of its Schur complement, and
the chain of peels ends at the last block, which is inverted with the border
by the same recursion.  Each node of the trace writes the inverses of its
parts straight into the result at their original rows and columns.  The
certificate recurses on bounds alone and yields an integer that dominates
the largest inverse denominator over all invertible column submatrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .blocks import Block, graft_path_above, split_forest
from .linalg import Matrix, SingularMatrixError, forward_eliminate, mat_inverse
from .structure import CapExceededError as _BaseCapError
from .structure import TdDecomposition, check_fit, restrict_decomposition

_LOG2_E = math.log2(math.e)


class CapExceededError(_BaseCapError):
    """Certificate grew past BIT_CAP bits.

    Carries ``log2_estimate``, an upper estimate of log2 of the true bound
    (may be ``inf`` when even the estimate overflows a float).
    """

    def __init__(self, log2_estimate: float, trace: Optional["CertNode"] = None):
        super().__init__(f"certificate exceeds bit cap (log2 ~ {log2_estimate:.6g})")
        self.log2_estimate = log2_estimate
        self.trace = trace


# ---------------------------------------------------------------------------
# structured inverse
# ---------------------------------------------------------------------------

def _assemble(n: int, pieces: Sequence[tuple[Sequence[int], Sequence[int], Matrix]]) -> Matrix:
    """The n x n matrix holding each ``(rows, cols, m)`` of pieces, entry (k, l)
    of m at row ``rows[k]`` and column ``cols[l]``, and zeros elsewhere.

    An inverse of ``a.submatrix(rows, cols)`` is placed at ``(cols, rows)``.
    """
    out = [[0] * n for _ in range(n)]
    for rows, cols, m in pieces:
        for k, i in enumerate(rows):
            row = out[i]
            for j, x in zip(cols, m.row(k)):
                row[j] = x
    return Matrix(out, cols=n)


@dataclass(frozen=True)
class BaseTrace:
    """Direct inversion of a matrix with no columns or whose tree is a path."""

    matrix: Matrix

    def replay(self) -> Matrix:
        return mat_inverse(self.matrix)


def _block_inverse(a_inv: Matrix, t: Matrix, u: Matrix, s_inv: Matrix) -> Matrix:
    """Inverse of ``[[A, X], [U, D]]`` from its Schur complement ``S = D - U*t``.

    t is ``A^-1*X`` cut to its leading columns; the columns of X past them are
    zero.  The inverse is ``[[A^-1 + t*K, -t*S^-1], [-K, S^-1]]`` with
    ``K = S^-1*U*A^-1``.
    """
    m, p, w = a_inv.rows, s_inv.rows, t.cols
    k = s_inv * u * a_inv
    tk = t * k.submatrix(range(w), range(m))
    ts = t * s_inv.submatrix(range(w), range(p))
    rows = [[x + y for x, y in zip(a_inv.row(i), tk.row(i))] + [-x for x in ts.row(i)]
            for i in range(m)]
    rows += [[-x for x in k.row(i)] + list(s_inv.row(i)) for i in range(p)]
    return Matrix(rows, cols=m + p)


@dataclass(frozen=True)
class PeelStep:
    """One peel of the column-permuted matrix ``[[B1, X], [U, D]]``: B1 is the
    first strict block's rows on an invertible set of its candidate columns,
    and ``[U, D]`` holds the rows of the blocks still to peel.

    Keeps B1's trace and ``b1_inv = B1^-1``, so a replay inverts nothing of B1
    again, and records ``t = B1^-1*X`` (its nonzero leading columns),
    ``u = U`` and beta, the lcm of the denominators of the Schur complement
    ``S = D - u*t``; rest inverts ``beta*S``, so ``S^-1 = beta * rest.replay()``.
    The chain of peels ends at the last block, so rest is never empty.  The
    block inverse of the permuted matrix is placed back by col_perm.
    """

    col_perm: tuple[int, ...]
    b1: "InverseTrace"
    b1_inv: Matrix
    t: Matrix
    u: Matrix
    beta: int
    rest: "InverseTrace"

    def replay(self) -> Matrix:
        inv = _block_inverse(self.b1_inv, self.t, self.u, self.beta * self.rest.replay())
        return _assemble(inv.rows, [(self.col_perm, range(inv.rows), inv)])


@dataclass(frozen=True)
class SplitTrace:
    """A matrix that is ``[[Q1, 0], [L, diag(Q2_i)]]`` up to permutation.

    Q1 is the strict blocks with the border, on rows q1_rows and columns
    q1_cols, border first; q1 inverts it.  Each of parts is the rows, columns
    and trace of one square block Q2_i.  L is zero outside the border, so
    lower_left keeps only the border columns of the parts' rows, in part
    order.  The inverse is ``[[Q1^-1, 0], [-Q2_i^-1*L_i*Q1^-1, Q2_i^-1]]``,
    and ``L_i*Q1^-1`` reads only the border rows of ``Q1^-1``.  A forest is
    a split with an empty Q1: q1 is None, and the parts are its trees.
    """

    q1_rows: tuple[int, ...]
    q1_cols: tuple[int, ...]
    q1: Optional["InverseTrace"]
    parts: tuple[tuple[tuple[int, ...], tuple[int, ...], "InverseTrace"], ...]
    lower_left: Matrix

    def replay(self) -> Matrix:
        pieces = []
        if self.q1 is not None:
            q1_inv = self.q1.replay()
            pieces.append((self.q1_cols, self.q1_rows, q1_inv))
            # -L*Q1^-1, from the border rows of Q1^-1 alone
            lq = -self.lower_left * q1_inv.submatrix(range(self.lower_left.cols),
                                                     range(q1_inv.cols))
        r0 = 0
        for rows, cols, part in self.parts:
            inv = part.replay()
            pieces.append((cols, rows, inv))
            if self.q1 is not None:
                r1 = r0 + len(rows)
                pieces.append((cols, self.q1_rows,
                               inv * lq.submatrix(range(r0, r1), range(lq.cols))))
                r0 = r1
        return _assemble(self.lower_left.rows + len(self.q1_rows), pieces)


InverseTrace = Union[BaseTrace, PeelStep, SplitTrace]


@dataclass(frozen=True)
class StructuredInverseTrace:
    """Top-level record of a structured inversion."""

    root: InverseTrace

    def replay(self) -> Matrix:
        return self.root.replay()


def _greedy_invertible_columns(strip: Matrix) -> list[int]:
    """Leftmost column subset of full row rank, grown by exact rank tests."""
    m = strip.rows
    chosen: list[int] = []
    columns = [list(col) for col in zip(*map(strip.row, range(m)))]
    for j, pivot in forward_eliminate(columns, m):
        if pivot is not None:
            chosen.append(j)
            if len(chosen) == m:
                break
    if len(chosen) != m:
        raise SingularMatrixError("block strip does not have full row rank")
    return chosen


def _whole(a: Matrix, f: TdDecomposition) -> Block:
    """a as one Block over all of its rows and columns."""
    return Block(a, f, tuple(range(a.rows)), tuple(range(a.cols)))


def _invert_q1(q: Matrix, w: int, strict: Sequence[Block]) -> InverseTrace:
    """Peel the strict blocks of q off one at a time, ending at the last.

    q's columns are a border of width w, then each strict block's columns;
    its rows are each block's rows, in the same block order.  Every block's
    rows are zero outside the border and its own columns, an invariant kept
    across peels because only leftover border columns are ever modified.
    The last block with the border is all of q, which the recursion inverts
    on the border path grafted above the block's tree.
    """
    m1, f1 = strict[0].diagonal.rows, strict[0].decomposition
    hat = graft_path_above(f1, w)
    if len(strict) == 1:
        return _structured(_whole(q, hat))

    n = w + f1.vertex_count
    strip = q.submatrix(range(m1), range(n))
    chosen = _greedy_invertible_columns(strip)
    b1_trace = _structured(_whole(strip.submatrix(range(m1), chosen),
                                  restrict_decomposition(hat, chosen)))
    b1_inv = b1_trace.replay()

    taken = set(chosen)
    col_perm = chosen + [c for c in range(n) if c not in taken] + list(range(n, q.cols))
    s = q.rows
    qp = q.submatrix(range(s), col_perm)

    # the strip is zero past the leftover candidates, and so is t
    n1 = n - m1
    t = b1_inv * qp.submatrix(range(m1), range(m1, n))
    u = qp.submatrix(range(m1, s), range(m1))
    ut = u * t
    schur = []
    for i in range(s - m1):
        d = qp.row(m1 + i)[m1:]
        schur.append([x - y for x, y in zip(d, ut.row(i))] + list(d[n1:]))
    beta = math.lcm(*(x.denominator for row in schur for x in row))
    q1p = Matrix([[beta * x for x in row] for row in schur], cols=s - m1)

    # the leftover candidate columns are the border of the peeled matrix
    rest_trace = _invert_q1(q1p, n1, strict[1:])
    return PeelStep(tuple(col_perm), b1_trace, b1_inv, t, u, beta, rest_trace)


def _structured(block: Block) -> InverseTrace:
    a, f = block.diagonal, block.decomposition
    if len(f.roots) > 1:
        # forest: columns of different trees never share a row, so the matrix
        # is block diagonal up to permutation, a split with an empty Q1
        split = split_forest(a, f)
        if sum(len(b.row_ids) for b in split) != a.rows:
            raise SingularMatrixError("zero row")
        parts = []
        for b in split:
            if len(b.col_ids) != len(b.row_ids):
                raise SingularMatrixError("non-square component block")
            parts.append((b.row_ids, b.col_ids, _structured(b)))
        return SplitTrace((), (), None, tuple(parts), a.submatrix(range(a.rows), ()))

    bs = block.structure
    if bs is None:
        return BaseTrace(a)

    strict = [b for b in bs.blocks if b.diagonal.rows > b.diagonal.cols]
    square = [b for b in bs.blocks if b.diagonal.rows == b.diagonal.cols]
    if len(strict) + len(square) != len(bs.blocks):
        raise SingularMatrixError("block with more columns than rows")

    q1_rows = [i for b in strict for i in b.row_ids]
    q1_cols = list(bs.border_cols) + [j for b in strict for j in b.col_ids]
    q2_rows = [i for b in square for i in b.row_ids]

    q1_trace = _invert_q1(a.submatrix(q1_rows, q1_cols), bs.k1, strict)
    parts = tuple((b.row_ids, b.col_ids, _structured(b)) for b in square)
    return SplitTrace(tuple(q1_rows), tuple(q1_cols), q1_trace, parts,
                      a.submatrix(q2_rows, bs.border_cols))


def structured_inverse(a: Matrix, f: TdDecomposition) -> tuple[Matrix, StructuredInverseTrace]:
    """Invert a by the recursion over its block structure.

    f must fit a (``check_fit``), else StructureError.  The recursion only records
    the trace: every split, and the t, u and beta of every peel.
    The inverse returned is the trace's replay, which equals
    ``mat_inverse(a)`` exactly; a singular a raises SingularMatrixError.
    """
    if a.rows != a.cols:
        raise SingularMatrixError("matrix is not square")
    check_fit(a, f)
    trace = StructuredInverseTrace(_structured(_whole(a, f)))
    return trace.replay(), trace


# ---------------------------------------------------------------------------
# certificate arithmetic
# ---------------------------------------------------------------------------

BIT_CAP = 10 ** 6  # most bits a certificate value is tracked exactly


class Bound:
    """Integer bound tracked exactly up to BIT_CAP bits, with a log2 estimate.

    The log2 field is always an upper estimate of the true value; exact is
    None once the value outgrew the cap.
    """

    __slots__ = ("exact", "log2")

    def __init__(self, exact: Optional[int], log2: float):
        self.exact = exact
        self.log2 = log2

    def __repr__(self):
        if self.exact is not None:
            return f"Bound({self.exact})"
        return f"Bound(~2^{self.log2:.4g})"

    def describe(self) -> str:
        if self.exact is not None:
            return str(self.exact)
        return f"~2^{self.log2:.6g}"


# Bound arithmetic: each step reads BIT_CAP when it runs

def _of(n: int) -> Bound:
    if n < 1:
        n = 1
    return Bound(n if n.bit_length() <= BIT_CAP else None, float(n.bit_length()))


def _mul(a: Bound, b: Bound) -> Bound:
    log2 = a.log2 + b.log2
    if a.exact is not None and b.exact is not None and log2 <= BIT_CAP:
        return _of(a.exact * b.exact)
    return Bound(None, log2)


def _add(a: Bound, b: Bound) -> Bound:
    log2 = max(a.log2, b.log2) + 1
    if a.exact is not None and b.exact is not None and log2 <= BIT_CAP:
        return _of(a.exact + b.exact)
    return Bound(None, log2)


def _power(a: Bound, e: int) -> Bound:
    if e == 0:
        return _of(1)
    log2 = a.log2 * e
    if a.exact is not None and log2 <= BIT_CAP:
        return _of(a.exact ** e)
    return Bound(None, log2)


def _factorial(a: Bound) -> Bound:
    if a.exact is not None:
        n = a.exact
        if n <= 1:
            return _of(1)
        if n.bit_length() > 1020:
            return Bound(None, math.inf)
        est = float(n) * (math.log2(n) - _LOG2_E) + math.log2(n)
        if est <= BIT_CAP and n <= 2 ** 22:
            return _of(math.factorial(n))
        return Bound(None, max(est, 1.0))
    # n! <= n^n, with n <= 2^log2
    if a.log2 > 1020:
        return Bound(None, math.inf)
    return Bound(None, (2.0 ** a.log2) * max(a.log2, 1.0))


def _maximum(items: Sequence[Bound]) -> Bound:
    best = items[0]
    for x in items[1:]:
        if best.exact is not None and x.exact is not None:
            if x.exact > best.exact:
                best = x
        else:
            best = Bound(None, max(best.log2, x.log2))
    return best


# ---------------------------------------------------------------------------
# fractionality certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertNode:
    """Per-level trace of the certificate recursion."""

    k1: int
    base: bool
    hadamard: Optional[str]
    q1: Optional[str]
    q2: Optional[str]
    betas: tuple[str, ...]
    children: tuple["CertNode", ...] = ()

    def render(self, indent: str = "") -> str:
        if self.base:
            lines = [f"{indent}level k1={self.k1} base hadamard={self.hadamard}"]
        else:
            lines = [f"{indent}level k1={self.k1} q1={self.q1} q2={self.q2} "
                     f"betas=[{', '.join(self.betas)}]"]
        for c in self.children:
            lines.append(c.render(indent + "  "))
        return "\n".join(lines)


@dataclass(frozen=True)
class FractionalityCertificate:
    """Sound upper bound on inverse denominators of column submatrices."""

    bound: int
    log2_bound: float
    trace: tuple[CertNode, ...]


def _hadamard(k1: int, alpha: Bound) -> Bound:
    return _power(_mul(_of(k1), alpha), k1)


def _cert(block: Block, alpha: Bound, extra_k1: int, nodes: list[CertNode]) -> Bound:
    bs = block.structure
    if bs is None:
        k1 = block.diagonal.cols + extra_k1  # a path's height is its vertex count
        h = _hadamard(k1, alpha)
        nodes.append(CertNode(k1=k1, base=True, hadamard=h.describe(),
                              q1=None, q2=None, betas=()))
        return h

    k1 = bs.k1 + extra_k1
    child_nodes: list[CertNode] = []
    q2 = _maximum([_cert(b, alpha, 0, child_nodes) for b in bs.blocks])

    # peel loop: any block could be eliminated at any stage, so take the
    # worst hatted-strip bound each round while entry magnitudes grow
    r_max = min(len(bs.blocks), k1)
    m_max = max(max(b.diagonal.rows for b in bs.blocks), 1)
    hs: list[Bound] = []
    betas: list[Bound] = []
    a_cur = alpha
    # the scaling divides the lcm of the block-inverse denominators, at most
    # one distinct denominator per entry of the peeled block's inverse
    beta_exp = max(k1, m_max) ** 2
    for _ in range(r_max):
        # hat nodes are thrown away, but rendering their bounds can raise the
        # int-to-str ValueError that some corpus solves end in (ROADMAP item 1)
        hat_nodes: list[CertNode] = []
        h = _maximum([_cert(b, a_cur, k1, hat_nodes) for b in bs.blocks])
        hs.append(h)
        beta = _power(h, beta_exp)
        betas.append(beta)
        mu = _power(_mul(_of(m_max), a_cur), m_max)
        growth = _mul(_mul(_of(m_max * m_max), mu), _mul(a_cur, a_cur))
        a_cur = _mul(beta, _add(a_cur, growth))

    q1 = _hadamard(k1, a_cur)  # leftover border square after all peels
    for h, beta in zip(reversed(hs), reversed(betas)):
        e3 = _factorial(h)  # fr of the zeroing factor built from the block inverse
        inner = _factorial(_mul(_mul(e3, q1), h))
        q1 = _mul(beta, inner)

    total = _factorial(_mul(q1, q2))
    nodes.append(CertNode(k1=k1, base=False, hadamard=None, q1=q1.describe(),
                          q2=q2.describe(), betas=tuple(b.describe() for b in betas),
                          children=tuple(child_nodes)))
    return total


def frac_bound(a: Matrix, f: TdDecomposition, side: str = "primal") -> FractionalityCertificate:
    """Certified bound on fr of the inverse of any invertible column submatrix.

    The dual side transposes the matrix first; f must then fit the transpose
    (``check_fit``), else StructureError.  Raises CapExceededError
    with a log2 estimate when the bound outgrows BIT_CAP bits.
    """
    if side == "dual":
        a = a.transpose()
    elif side != "primal":
        raise ValueError(f"unknown side {side!r}")
    check_fit(a, f)

    norm = a.max_abs()
    if norm.denominator != 1:
        raise ValueError("certificates are defined for integral matrices")
    alpha = _of(int(norm))

    nodes: list[CertNode] = []
    bounds = [_cert(part, alpha, 0, nodes) for part in split_forest(a, f)]
    result = _maximum(bounds) if bounds else _of(1)

    trace = tuple(nodes)
    if result.exact is None:
        raise CapExceededError(result.log2, trace=trace[-1] if trace else None)
    return FractionalityCertificate(bound=result.exact, log2_bound=result.log2, trace=trace)
