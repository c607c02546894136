"""Exact rational scalars and dense rational matrices.

A scalar is a Python ``int`` when it is integral and a stdlib
``fractions.Fraction`` (lowest terms, positive denominator) otherwise, so
integral data stays in ints.  ``rational`` is the one coercion of input to
that form (a float raises TypeError rather than become a binary fraction),
and ``clear_denominators`` the one way to put such scalars over a common
denominator.  Matrices are immutable, dense and row-major;
every operation is exact, there is no floating point anywhere.
Determinant, inverse and rank (and the row reduction and column basis
elsewhere in the package) all run the one elimination kernel,
``forward_eliminate``, which is fraction-free: it clears each row to ints
and eliminates by Bareiss's integer-preserving steps.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


class LinalgError(Exception):
    """Base error for exact linear algebra."""


class DimensionError(LinalgError):
    """Operands have incompatible shapes."""


class SingularMatrixError(LinalgError):
    """A square matrix required to be invertible is singular."""


def rational(value: int | str | Fraction) -> int | Fraction:
    """Coerce an int, Fraction or ``p/q`` string to an exact rational: an int
    when the value is integral, else a Fraction."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, str):
        token = value.strip()
        if not _RATIONAL_RE.match(token):
            raise ValueError(f"not an integer or p/q rational: {value!r}")
        if "/" not in token:
            return int(token)
        try:
            return rational(Fraction(token))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {value!r}") from None
    raise TypeError(f"cannot make a rational from {type(value).__name__}")


class Matrix:
    """Immutable dense matrix of exact rationals: every entry is an int or a
    non-integral Fraction."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data: Iterable[Iterable[int | str | Fraction]], cols: int | None = None):
        rows = tuple(tuple(map(rational, row)) for row in data)
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
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)], cols=n)

    # -- shape and access ------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key: tuple[int, int]) -> int | Fraction:
        i, j = key
        return self._data[i][j]

    def row(self, i: int) -> tuple[int | Fraction, ...]:
        return self._data[i]

    def entries(self) -> Iterator[int | Fraction]:
        for r in self._data:
            yield from r

    def row_lists(self) -> list[list[int | Fraction]]:
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
            # a right operand with no rows still has other.cols (empty) columns
            columns = list(zip(*other._data)) or [()] * other.cols
            return Matrix([[_dot(r, c) for c in columns] for r in self._data], cols=other.cols)
        scalar = rational(other)
        return Matrix([[x * scalar for x in r] for r in self._data], cols=self.cols)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self) -> "Matrix":
        return Matrix([[-x for x in r] for r in self._data], cols=self.cols)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.shape == other.shape
                and self._data == other._data)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._data))

    def apply_vector(self, x: Sequence[int | Fraction]) -> tuple[int | Fraction, ...]:
        if len(x) != self.cols:
            raise DimensionError("vector length mismatch")
        return tuple(_dot(r, x) for r in self._data)

    def max_abs(self) -> int | Fraction:
        """Largest absolute entry (the infinity norm on entries); 0 if empty."""
        return max((abs(x) for x in self.entries()), default=0)

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for x in self.entries())

    # -- text form -------------------------------------------------------

    def to_text(self) -> str:
        """One row per line, whitespace-separated ``p/q`` entries."""
        return "\n".join(" ".join(str(x) for x in r) for r in self._data)

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


def _dot(a: Sequence[int | Fraction], b: Sequence[int | Fraction]) -> int | Fraction:
    """Sum of the products of the pairs with no zero factor, from int 0."""
    return sum(x * y for x, y in zip(a, b) if x and y)


def parse_matrix(text: str) -> Matrix:
    """Parse the row-per-line whitespace-separated matrix form.

    Blank lines and ``#`` comments are skipped.  A bad token or a row of
    another length than the first raises ValueError naming its line, and so
    does text with no rows.
    """
    rows = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = [rational(tok) for tok in line.split()]
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
        if rows and len(row) != len(rows[0]):
            raise ValueError(f"line {number}: ragged rows: expected {len(rows[0])} "
                             f"columns, got {len(row)}")
        rows.append(row)
    if not rows:
        raise ValueError("no matrix rows")
    return Matrix(rows)


def clear_denominators(values: Sequence[int | Fraction],
                       base: int = 1) -> tuple[Sequence[int], int]:
    """Ints k and the least multiple d of base with ``values[i] == k[i] / d``.

    The values must be as ``rational`` returns them (ints, or Fractions that
    are not integral), so when d is 1 they are ints already and come back as
    they are, with no work per entry.
    """
    d = math.lcm(base, *[x.denominator for x in values])
    if d == 1:
        return values, 1
    return [x.numerator * (d // x.denominator) for x in values], d


def forward_eliminate(rows: list[list[int | Fraction]],
                      width: int) -> Iterator[tuple[int, Optional[int]]]:
    """The Gaussian-elimination kernel: greedy forward elimination in row order.

    Works on ``rows`` in place and fraction-free.  Each row is cleared to
    ints by ``clear_denominators``, which leaves an int row as it is, and is
    then reduced against the pivot rows before it by Bareiss's step
    ``row = (p*row - row[c]*prow) // d``, where p is prow's pivot entry, c
    its column, and d the pivot entry of the pivot row last applied to this
    row (1 at first); by Sylvester's identity every division is exact.  A
    pivot row is skipped where the row is already zero at its column, and a
    row that finishes with a pivot is multiplied by the factor those skipped
    steps would have given it, so every pivot row holds Bareiss's minors and the last pivot
    entry of an invertible matrix is its determinant up to the sign of the
    column order and the row factors.  Scaling a row moves none of its zeros,
    so the pivots are those of plain rational elimination: a row's pivot is
    its first nonzero entry among the first width, or None when those are
    all zero (the row depends on the rows before it).  Entries past width
    (a right-hand side, an identity block) are carried along.  Yields
    ``(i, pivot)`` as row i is finished, so a caller can stop early.
    """
    pivots: list[tuple[list[int], int]] = []
    top = 1  # pivot entry of the last pivot row
    for i, row in enumerate(rows):
        row, _ = clear_denominators(row)
        d = 1
        for prow, c in pivots:
            f = row[c]
            if f:
                p = prow[c]
                row = [(p * x - f * y) // d for x, y in zip(row, prow)]
                d = p
        pivot = next((j for j in range(width) if row[j]), None)
        if pivot is not None:
            if d != top:
                row = [x * top // d for x in row]
            pivots.append((row, pivot))
            top = row[pivot]
        rows[i] = row
        yield i, pivot


def mat_det(m: Matrix) -> Fraction:
    """Exact determinant, as a Fraction: the last pivot entry of the
    elimination over the product of the row factors, signed by the parity of
    the pivots' column order (0 at the first dependent row)."""
    if not m.is_square():
        raise DimensionError("determinant needs a square matrix")
    a = m.row_lists()
    factors = math.prod(clear_denominators(row)[1] for row in a)
    last = 1
    cols: list[int] = []
    for i, pivot in forward_eliminate(a, m.cols):
        if pivot is None:
            return Fraction(0)
        last = a[i][pivot]
        cols.append(pivot)
    inversions = sum(c > d for k, c in enumerate(cols) for d in cols[k + 1:])
    return Fraction(-last if inversions % 2 else last, factors)


def mat_inverse(m: Matrix) -> Matrix:
    """Exact inverse: forward elimination of ``(m | I)``, then back substitution.

    The elimination leaves row i as an int equation ``a[i] . X = a[i][n:]``
    in X, the inverse, and its last pivot entry p is a determinant of the
    row-cleared m, so p*X is integral: back substitution solves for p*X in
    ints, dividing exactly, and the entries of X are the rationals x/p.
    Raises SingularMatrixError when no inverse exists.  The returned matrix
    satisfies ``m * inverse == identity`` exactly.
    """
    if not m.is_square():
        raise DimensionError("inverse needs a square matrix")
    n = m.rows
    a = [list(m.row(i)) + [int(i == j) for j in range(n)] for i in range(n)]
    cols: list[int] = []
    for _, pivot in forward_eliminate(a, n):
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        cols.append(pivot)
    p = a[-1][cols[-1]] if n else 1
    # row i reads a[i][cols[i]] * x[cols[i]] + sum_{k>i} a[i][cols[k]] * x[cols[k]]
    # = p * a[i][n:], where x[j] is p times row j of the inverse
    out: list[list[int]] = [[] for _ in range(n)]
    for i in reversed(range(n)):
        row = a[i]
        acc = [p * x for x in row[n:]]
        for k in range(i + 1, n):
            f = row[cols[k]]
            if f:
                acc = [x - f * y for x, y in zip(acc, out[cols[k]])]
        piv = row[cols[i]]
        out[cols[i]] = [x // piv for x in acc]
    return Matrix([[Fraction(x, p) for x in r] for r in out], cols=n)


def mat_rank(m: Matrix) -> int:
    """Exact rank: the number of independent rows found by elimination."""
    return sum(pivot is not None for _, pivot in forward_eliminate(m.row_lists(), m.cols))


def fractionality(m: Matrix) -> int:
    """Largest denominator over all entries in lowest terms (1 if integral)."""
    return max((x.denominator for x in m.entries()), default=1)
