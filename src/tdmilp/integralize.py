"""MILP instances and the scaling reduction onto the integer grid.

An instance keeps its constraint matrix split into the integer-variable part
and the continuous-variable part, columns ordered (integer, continuous); a
pure ILP is the instance with no continuous columns (q = 0).
Scaling the continuous columns by a multiple of every optimal denominator
puts an optimum on the integer grid; the solver keeps the original rows and
checks that its optimum lies on that grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .linalg import Matrix, rational


class FeasibilityError(Exception):
    """A claimed solution violates a constraint; carries the row index."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


def _int_vector(values: Sequence[int | Fraction], name: str) -> tuple[int, ...]:
    out = tuple(v if type(v) is int else rational(v) for v in values)
    for v in out:
        if type(v) is not int:
            raise ValueError(f"{name} must be integral, got {v}")
    return out


@dataclass(frozen=True)
class MilpInstance:
    """min c.x s.t. a_int x_Z + a_frac x_Q = b, lower <= x <= upper.

    All data is integral, b, c and the bounds as ints after ``rational``
    (a float raises TypeError); columns are ordered integer variables first,
    then continuous ones.  Bounds are finite.
    """

    a_int: Matrix
    a_frac: Matrix
    b: tuple[int, ...]
    c: tuple[int, ...]
    lower: tuple[int, ...]
    upper: tuple[int, ...]

    def __post_init__(self):
        if self.a_int.rows != self.a_frac.rows:
            raise ValueError("integer and continuous parts must have equal row counts")
        if not self.a_int.is_integral() or not self.a_frac.is_integral():
            raise ValueError("constraint matrix must be integral")
        n = self.z + self.q
        object.__setattr__(self, "b", _int_vector(self.b, "b"))
        object.__setattr__(self, "c", _int_vector(self.c, "c"))
        object.__setattr__(self, "lower", _int_vector(self.lower, "lower"))
        object.__setattr__(self, "upper", _int_vector(self.upper, "upper"))
        if len(self.b) != self.a_int.rows:
            raise ValueError("right-hand side length mismatch")
        if len(self.c) != n or len(self.lower) != n or len(self.upper) != n:
            raise ValueError("vector length mismatch")
        if any(l > u for l, u in zip(self.lower, self.upper)):
            raise ValueError("lower bound exceeds upper bound")

    @property
    def z(self) -> int:
        return self.a_int.cols

    @property
    def q(self) -> int:
        return self.a_frac.cols

    @property
    def rows(self) -> int:
        return self.a_int.rows

    @cached_property
    def matrix(self) -> Matrix:
        return self.a_int.hstack(self.a_frac)


def pure_ilp(matrix: Matrix, b, c, lower, upper) -> MilpInstance:
    """Convenience constructor for an all-integer instance (q = 0)."""
    empty = Matrix([[] for _ in range(matrix.rows)], cols=0)
    return MilpInstance(a_int=matrix, a_frac=empty, b=b, c=c, lower=lower, upper=upper)


def choose_scale(m: int) -> int:
    """lcm(1..m): divisible by the lcm of any denominator set bounded by m.

    The product, over the primes p <= m, of the largest power of p that is
    at most m.  A sieve crosses off the multiples of each prime up to
    sqrt(m); a prime above sqrt(m) has no higher power within m and enters
    once.
    """
    if m < 1:
        raise ValueError("scale parameter must be positive")
    prime = bytearray(b"\x01") * (m + 1)
    root = math.isqrt(m)
    scale = 1
    for p in range(2, root + 1):
        if prime[p]:
            prime[p * p::p] = bytes(len(range(p * p, m + 1, p)))
            q = p * p
            while q <= m // p:
                q *= p
            scale *= q
    return scale * math.prod(itertools.compress(range(root + 1, m + 1), prime[root + 1:]))


def integralize(inst: MilpInstance, scale: int) -> MilpInstance:
    """The same MILP on the 1/scale grid: continuous values y = scale*x_Q.

    The new instance keeps the column split, with a_int scaled to
    scale*a_int and a_frac as it is, right-hand side scale*b, continuous
    bounds multiplied by scale and objective (scale*c_Z, c_Q), so objective
    values scale uniformly and the nonzero pattern (hence both interaction
    graphs) is unchanged; branch and bound on the integer columns takes the
    same nodes and pivots on it as on inst.
    """
    if scale < 1:
        raise ValueError("scale must be positive")
    z = inst.z
    return MilpInstance(
        a_int=scale * inst.a_int,
        a_frac=inst.a_frac,
        b=tuple(scale * v for v in inst.b),
        c=tuple(scale * v for v in inst.c[:z]) + inst.c[z:],
        lower=inst.lower[:z] + tuple(scale * v for v in inst.lower[z:]),
        upper=inst.upper[:z] + tuple(scale * v for v in inst.upper[z:]),
    )


def recover(z_opt: Sequence[int | Fraction], scale: int,
            inst: MilpInstance) -> tuple[int | Fraction, ...]:
    """Map a scaled-instance solution back: divide the continuous part.

    Validates feasibility against the original instance exactly, on the
    scaled values (ints for an ILP optimum): each row as
    ``scale*a_int x_Z + a_frac y = scale*b`` with y the scaled continuous
    values, then each bound, then the integrality of x_Z.  Raises
    FeasibilityError naming the violated constraint row (or bound), with the
    values in original units.
    """
    if len(z_opt) != inst.z + inst.q:
        raise ValueError("solution length mismatch")
    z = inst.z
    vals = [rational(v) for v in z_opt]
    x = tuple(vals[:z]) + tuple(rational(Fraction(v, scale)) for v in vals[z:])
    lhs = zip(inst.a_int.apply_vector(vals[:z]), inst.a_frac.apply_vector(vals[z:]))
    for i, ((got_z, got_q), want) in enumerate(zip(lhs, inst.b)):
        got = scale * got_z + got_q
        if got != scale * want:
            raise FeasibilityError(
                f"constraint row {i} violated: {Fraction(got, scale)} != {want}", row=i)
    for j, v in enumerate(vals):
        s = 1 if j < z else scale
        if not (s * inst.lower[j] <= v <= s * inst.upper[j]):
            raise FeasibilityError(f"bound on variable {j} violated: {x[j]}", row=None)
    for j in range(z):
        if vals[j].denominator != 1:
            raise FeasibilityError(f"integer variable {j} has fractional value {x[j]}", row=None)
    return x
