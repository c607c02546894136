"""Exact rational scalars and dense rational matrices.

Scalars are stdlib ``fractions.Fraction`` values, which are always kept in
lowest terms with a positive denominator.  Matrices are immutable, dense and
row-major; every operation is exact, there is no floating point anywhere.
Determinant, inverse and rank (and the row reduction and column basis
elsewhere in the package) all run the one elimination kernel,
``forward_eliminate``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


class LinalgError(Exception):
    """Base error for exact linear algebra."""


class DimensionError(LinalgError):
    """Operands have incompatible shapes."""


class SingularMatrixError(LinalgError):
    """A square matrix required to be invertible is singular."""


def rational(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction or ``p/q`` string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        token = value.strip()
        if not _RATIONAL_RE.match(token):
            raise ValueError(f"not an integer or p/q rational: {value!r}")
        if "/" not in token:
            return Fraction(int(token))
        try:
            return Fraction(token)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {value!r}") from None
    raise TypeError(f"cannot make a rational from {type(value).__name__}")


class Matrix:
    """Immutable dense matrix of exact rationals."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data: Iterable[Iterable[int | str | Fraction]], cols: int | None = None):
        rows = tuple(tuple(rational(x) for x in row) for row in data)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise DimensionError("ragged rows")
        else:
            ncols = 0 if cols is None else cols
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "_data", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        zero = Fraction(0)
        return cls([[zero] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)], cols=n)

    # -- shape and access ------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self._data[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._data[i]

    def entries(self) -> Iterator[Fraction]:
        for r in self._data:
            yield from r

    def row_lists(self) -> list[list[Fraction]]:
        """Mutable copy of the entries, for elimination scratch work."""
        return [list(r) for r in self._data]

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        return Matrix([[self._data[i][j] for j in col_idx] for i in row_idx], cols=len(col_idx))

    def transpose(self) -> "Matrix":
        return Matrix([[self._data[i][j] for i in range(self.rows)] for j in range(self.cols)],
                      cols=self.rows)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise DimensionError("hstack needs equal row counts")
        return Matrix([self._data[i] + other._data[i] for i in range(self.rows)],
                      cols=self.cols + other.cols)

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise DimensionError("vstack needs equal column counts")
        return Matrix(self._data + other._data, cols=self.cols)

    # -- arithmetic ------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
            ot = other.transpose()._data
            return Matrix([[_dot(r, c) for c in ot] for r in self._data], cols=other.cols)
        scalar = rational(other)
        return Matrix([[x * scalar for x in r] for r in self._data], cols=self.cols)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise DimensionError("shape mismatch in addition")
        return Matrix([[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self._data, other._data)], cols=self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix([[-x for x in r] for r in self._data], cols=self.cols)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.shape == other.shape
                and self._data == other._data)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._data))

    def apply_vector(self, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(x) != self.cols:
            raise DimensionError("vector length mismatch")
        return tuple(_dot(r, x) for r in self._data)

    def max_abs(self) -> Fraction:
        """Largest absolute entry (the infinity norm on entries); 0 if empty."""
        return max((abs(x) for x in self.entries()), default=Fraction(0))

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for x in self.entries())

    # -- text form -------------------------------------------------------

    def to_text(self) -> str:
        """One row per line, whitespace-separated ``p/q`` entries."""
        return "\n".join(" ".join(str(x) for x in r) for r in self._data)

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def parse_matrix(text: str) -> Matrix:
    """Parse the row-per-line whitespace-separated matrix form."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([rational(tok) for tok in line.split()])
    return Matrix(rows)


def forward_eliminate(rows: list[list[Fraction]],
                      width: int) -> Iterator[tuple[int, Optional[int]]]:
    """The Gaussian-elimination kernel: greedy forward elimination in row order.

    Works on ``rows`` in place.  Each row is reduced against the pivot rows
    before it; its pivot is then its first nonzero entry among the first width,
    or None when those entries are all zero (the row depends on the rows
    before it).  Entries past width (a right-hand side, an identity block) are
    carried along.  Yields ``(i, pivot)`` as row i is finished, so a caller
    can stop early.
    """
    pivots: list[tuple[list[Fraction], int]] = []
    for i, row in enumerate(rows):
        for prow, c in pivots:
            if row[c] != 0:
                f = row[c] / prow[c]
                row = [x - f * y if y else x for x, y in zip(row, prow)]
        rows[i] = row
        pivot = next((j for j in range(width) if row[j] != 0), None)
        if pivot is not None:
            pivots.append((row, pivot))
        yield i, pivot


def mat_det(m: Matrix) -> Fraction:
    """Exact determinant: the product of the elimination pivots, signed by the
    parity of their column order (0 at the first dependent row)."""
    if not m.is_square():
        raise DimensionError("determinant needs a square matrix")
    a = m.row_lists()
    det = Fraction(1)
    cols: list[int] = []
    for i, pivot in forward_eliminate(a, m.cols):
        if pivot is None:
            return Fraction(0)
        det *= a[i][pivot]
        cols.append(pivot)
    inversions = sum(c > d for k, c in enumerate(cols) for d in cols[k + 1:])
    return -det if inversions % 2 else det


def mat_inverse(m: Matrix) -> Matrix:
    """Exact inverse: forward elimination of ``(m | I)``, then back substitution.

    Raises SingularMatrixError when no inverse exists.  The returned matrix
    satisfies ``m * inverse == identity`` exactly.
    """
    if not m.is_square():
        raise DimensionError("inverse needs a square matrix")
    n = m.rows
    a = [list(m.row(i)) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    cols: list[int] = []
    for _, pivot in forward_eliminate(a, n):
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        cols.append(pivot)
    # row i reads a[i][cols[i]] * x[cols[i]] + sum_{k>i} a[i][cols[k]] * x[cols[k]]
    # = a[i][n:], where x[j] is row j of the inverse
    out: list[list[Fraction]] = [[] for _ in range(n)]
    for i in reversed(range(n)):
        row = a[i]
        acc = row[n:]
        for k in range(i + 1, n):
            f = row[cols[k]]
            if f != 0:
                acc = [x - f * y if y else x for x, y in zip(acc, out[cols[k]])]
        piv = row[cols[i]]
        out[cols[i]] = [x / piv for x in acc]
    return Matrix(out, cols=n)


def mat_rank(m: Matrix) -> int:
    """Exact rank: the number of independent rows found by elimination."""
    return sum(pivot is not None for _, pivot in forward_eliminate(m.row_lists(), m.cols))


def fractionality(m: Matrix) -> int:
    """Largest denominator over all entries in lowest terms (1 if integral)."""
    return max((x.denominator for x in m.entries()), default=1)


def block_diagonal(blocks: Sequence[Matrix]) -> Matrix:
    """Assemble square or rectangular blocks along the diagonal."""
    total_r = sum(b.rows for b in blocks)
    total_c = sum(b.cols for b in blocks)
    out = [[Fraction(0)] * total_c for _ in range(total_r)]
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.rows):
            out[r0 + i][c0:c0 + b.cols] = list(b.row(i))
        r0 += b.rows
        c0 += b.cols
    return Matrix(out, cols=total_c)
