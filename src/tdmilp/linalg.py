"""Exact rational scalars and dense rational matrices.

Scalars are stdlib ``fractions.Fraction`` values, which are always kept in
lowest terms with a positive denominator.  Matrices are immutable, dense and
row-major; every operation is exact, there is no floating point anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

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
        return Fraction(token)
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

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self._data)

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


def mat_det(m: Matrix) -> Fraction:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if not m.is_square():
        raise DimensionError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return Fraction(1)
    a = m.row_lists()
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss update: the division by the previous pivot is exact
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = a[k][k]
    return a[n - 1][n - 1] if sign == 1 else -a[n - 1][n - 1]


def mat_inverse(m: Matrix) -> Matrix:
    """Exact inverse via elimination with full pivoting.

    Raises SingularMatrixError when no inverse exists.  The returned matrix
    satisfies ``m * inverse == identity`` exactly.
    """
    if not m.is_square():
        raise DimensionError("inverse needs a square matrix")
    n = m.rows
    if n == 0:
        return Matrix([], cols=0)
    a = m.row_lists()
    inv = Matrix.identity(n).row_lists()
    col_of = list(range(n))  # col_of[k] = original column eliminated at step k
    for k in range(n):
        # full pivoting: largest |entry| in the remaining block, ties by position
        best = None
        for i in range(k, n):
            for j in range(k, n):
                v = abs(a[i][j])
                if v != 0 and (best is None or v > best[0]):
                    best = (v, i, j)
        if best is None:
            raise SingularMatrixError("matrix is singular")
        _, pi, pj = best
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
            inv[k], inv[pi] = inv[pi], inv[k]
        if pj != k:
            for row in a:
                row[k], row[pj] = row[pj], row[k]
            col_of[k], col_of[pj] = col_of[pj], col_of[k]
        piv = a[k][k]
        a[k] = [x / piv for x in a[k]]
        inv[k] = [x / piv for x in inv[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
                inv[i] = [x - f * y for x, y in zip(inv[i], inv[k])]
    # row k of the reduced system solves for variable col_of[k]
    out: list[list[Fraction]] = [[] for _ in range(n)]
    for k in range(n):
        out[col_of[k]] = inv[k]
    return Matrix(out, cols=n)


def mat_rank(m: Matrix) -> int:
    """Exact rank by Gaussian elimination."""
    a = m.row_lists()
    rank = 0
    for j in range(m.cols):
        pivot_row = None
        for i in range(rank, m.rows):
            if a[i][j] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        piv = a[rank][j]
        for i in range(rank + 1, m.rows):
            if a[i][j] != 0:
                f = a[i][j] / piv
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == m.rows:
            break
    return rank


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
