"""Seeded inputs for the benchmark workloads.

Every generator here is the benchmark's own and imports nothing from
``tdmilp``, so a change to the library cannot change the inputs it is
measured on.  An input is the text the ``tdmilp`` command line would read:
``MILP v1`` for a solve, one matrix row per line for an inversion.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Union


@dataclass(frozen=True)
class Milp:
    """min c.x s.t. rows x = b, lower <= x <= upper; the ``ints`` columns integer."""

    ints: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    b: tuple[int, ...]
    c: tuple[int, ...]
    lower: tuple[int, ...]
    upper: tuple[int, ...]

    def text(self) -> str:
        lines = ["MILP v1", f"vars {len(self.c)}",
                 " ".join(["ints"] + [str(j) for j in self.ints]),
                 "obj " + " ".join(map(str, self.c))]
        for row, rhs in zip(self.rows, self.b):
            lines.append("row " + " ".join(map(str, row)) + f" = {rhs}")
        lines.append("lb " + " ".join(map(str, self.lower)))
        lines.append("ub " + " ".join(map(str, self.upper)))
        return "\n".join(lines) + "\n"

    def transformed(self, rng: random.Random) -> "Milp":
        """The same problem with a seeded choice of variables and rows negated.

        Feasibility and the optimal objective do not change, so a verdict on
        the original holds for the copy; nor do the interaction graphs, so
        the decompositions and the certificate are those of the original.
        """
        n = len(self.c)
        var = [rng.choice((1, -1)) for _ in range(n)]
        row = [rng.choice((1, -1)) for _ in self.rows]
        return Milp(
            ints=self.ints,
            rows=tuple(tuple(r * v * a for v, a in zip(var, coeffs))
                       for r, coeffs in zip(row, self.rows)),
            b=tuple(r * v for r, v in zip(row, self.b)),
            c=tuple(v * a for v, a in zip(var, self.c)),
            lower=tuple(lo if v > 0 else -up for v, lo, up in zip(var, self.lower, self.upper)),
            upper=tuple(up if v > 0 else -lo for v, lo, up in zip(var, self.lower, self.upper)),
        )


@dataclass(frozen=True)
class Square:
    """A square integer matrix to invert."""

    rows: tuple[tuple[int, ...], ...]

    def text(self) -> str:
        return "\n".join(" ".join(map(str, row)) for row in self.rows) + "\n"

    def transformed(self, rng: random.Random) -> "Square":
        """A seeded choice of rows and columns negated: the primal graph, and
        with it the decomposition, does not change."""
        row = [rng.choice((1, -1)) for _ in self.rows]
        col = [rng.choice((1, -1)) for _ in self.rows]
        return Square(tuple(tuple(r * c * a for c, a in zip(col, coeffs))
                            for r, coeffs in zip(row, self.rows)))


Instance = Union[Milp, Square]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "solve" or "invert"
    corpus: int  # distinct problems; the timed loop cycles through them
    why: str
    make: Callable[[random.Random, int], Instance]  # (rng, index in corpus) -> problem


def _feasible_rhs(rng: random.Random, rows: list[list[int]], lower: list[int],
                  upper: list[int]) -> list[int]:
    """b = A x0 for an integer point x0 of the box, so the instance is feasible."""
    x0 = [rng.randint(lo, up) for lo, up in zip(lower, upper)]
    return [sum(a * x for a, x in zip(row, x0)) for row in rows]


def _milp(ints, rows, b, c, lower, upper) -> Milp:
    return Milp(tuple(ints), tuple(tuple(r) for r in rows), tuple(b), tuple(c),
                tuple(lower), tuple(upper))


def mixed_small(rng: random.Random, index: int) -> Milp:
    """The distribution of the acceptance corpus: small, about half infeasible."""
    z = rng.randrange(0, 4)
    q = rng.randrange(1, 5)
    m = rng.randrange(1, 4)
    rows = [[rng.randint(-2, 2) for _ in range(z + q)] for _ in range(m)]
    lower = [rng.randint(-3, 0) for _ in range(z + q)]
    upper = [min(3, lo + rng.randint(0, 6)) for lo in lower]
    b = [rng.randint(-3, 3) for _ in range(m)]
    c = [rng.randint(-2, 2) for _ in range(z + q)]
    return _milp(range(z), rows, b, c, lower, upper)


def mixed_bnb(rng: random.Random, index: int) -> Milp:
    """Dense mixed instances, feasible by construction, that need branching."""
    z = rng.randint(5, 6)
    q = rng.randint(1, 2)
    m = rng.randint(2, 3)
    rows = [[rng.randint(-3, 3) for _ in range(z + q)] for _ in range(m)]
    lower = [-2] * (z + q)
    upper = [2] * (z + q)
    b = _feasible_rhs(rng, rows, lower, upper)
    c = [rng.randint(-9, 9) for _ in range(z + q)]
    return _milp(range(z), rows, b, c, lower, upper)


def _entry(rng: random.Random, magnitude: int) -> int:
    return rng.randint(-magnitude, magnitude)


def _nfold(rng: random.Random, t: int, bricks: int, magnitude: int) -> list[list[int]]:
    """t linking rows over every column, then one t x t brick per block."""
    cols = bricks * t
    rows = [[_entry(rng, magnitude) for _ in range(cols)] for _ in range(t)]
    for blk in range(bricks):
        for i in range(t):
            row = [0] * cols
            for j in range(t):
                row[blk * t + j] = _entry(rng, magnitude)
            if not any(row):
                row[blk * t + i] = 1
            rows.append(row)
    return rows


def _twostage(rng: random.Random, t: int, bricks: int, magnitude: int) -> list[list[int]]:
    """t linking columns shared by every row, then one t x t brick per block."""
    cols = t + bricks * t
    rows = []
    for blk in range(bricks):
        for i in range(t):
            row = [_entry(rng, magnitude) for _ in range(t)] + [0] * (bricks * t)
            for j in range(t):
                row[t + blk * t + j] = _entry(rng, magnitude)
            if not any(row[t:]):
                row[t + blk * t + i] = 1
            rows.append(row)
    return rows


def _random_forest(rng: random.Random, n: int, height: int, attach: float) -> list:
    """Parent array of a random forest over range(n) with depth at most height."""
    parent = [None] * n
    depth = [1] * n
    for v in range(1, n):
        cands = [u for u in range(v) if depth[u] < height]
        if cands and rng.random() < attach:
            p = rng.choice(cands)
            parent[v] = p
            depth[v] = depth[p] + 1
    return parent


def _ancestors(parent: list, v: int) -> list[int]:
    out = []
    u = parent[v]
    while u is not None:
        out.append(u)
        u = parent[u]
    return out


def _random_td(rng: random.Random, height: int, n: int, magnitude: int) -> list[list[int]]:
    """n rows, each supported on a root path of a forest of bounded height,
    so the primal treedepth is at most height."""
    parent = _random_forest(rng, n, height, 0.9)
    nonzero = [x for x in range(-magnitude, magnitude + 1) if x != 0]
    rows = []
    for _ in range(n):
        v = rng.randrange(n)
        row = [0] * n
        for j in [v] + [u for u in _ancestors(parent, v) if rng.random() < 0.7]:
            row[j] = rng.choice(nonzero)
        rows.append(row)
    return rows


# (family, t, bricks or n) in the order the structured corpus cycles through them
_STRUCTURED_SHAPES = (
    ("nfold", 1, 6), ("nfold", 2, 3), ("nfold", 2, 4),
    ("twostage", 2, 3), ("twostage", 2, 4),
    ("random_td", 3, 10), ("random_td", 3, 12),
)


def structured_scale(rng: random.Random, index: int) -> Milp:
    """Block-structured family matrices with magnitude 2, feasible by
    construction, with a third of the columns integer at random positions.

    The shape cycles with the corpus index, so the corpus holds each family
    equally often.
    """
    family, t, size = _STRUCTURED_SHAPES[index % len(_STRUCTURED_SHAPES)]
    if family == "nfold":
        rows = _nfold(rng, t, size, 2)
    elif family == "twostage":
        rows = _twostage(rng, t, size, 2)
    else:
        rows = _random_td(rng, t, size, 2)
    n = len(rows[0])
    lower = [-2] * n
    upper = [2] * n
    b = _feasible_rhs(rng, rows, lower, upper)
    c = [rng.randint(-9, 9) for _ in range(n)]
    return _milp(sorted(rng.sample(range(n), n // 3)), rows, b, c, lower, upper)


def invert_structured(rng: random.Random, index: int) -> Square:
    """Invertible matrix with n in 8..16, primal treedepth at most 4 and
    entries in [-3, 3].

    One row per column: the row's own column gets a nonzero entry and some of
    its ancestors random ones.  Ordered ancestors last the matrix is
    triangular with a nonzero diagonal, hence invertible.
    """
    n = 8 + index % 9
    magnitude = 3
    parent = _random_forest(rng, n, 4, 0.85)
    nonzero = [x for x in range(-magnitude, magnitude + 1) if x != 0]
    rows = []
    for v in range(n):
        row = [0] * n
        row[v] = rng.choice(nonzero)
        for u in _ancestors(parent, v):
            if rng.random() < 0.7:
                row[u] = rng.randint(-magnitude, magnitude)
        rows.append(tuple(row))
    return Square(tuple(rows))


# The reason each workload exists is recorded with every result, so later
# changes can cite it; BENCHMARK.json carries the same text.
WORKLOADS = {w.name: w for w in (
    Workload("mixed_small", "solve", 600,
             "the acceptance-corpus distribution, about half infeasible: per-call overhead "
             "and root-LP infeasibility show here",
             mixed_small),
    Workload("mixed_bnb", "solve", 100,
             "dense mixed instances feasible by construction: the exact simplex and branch "
             "and bound do almost all the work",
             mixed_bnb),
    Workload("structured_scale", "solve", 84,
             "nfold, twostage and random_td matrices: the denominator bound, mostly the "
             "enumeration fallback, does most of the work",
             structured_scale),
    Workload("invert_structured", "invert", 162,
             "the invert path on treedepth-4 matrices: structured_inverse is off the solve "
             "path, so only this workload measures it",
             invert_structured),
)}


def corpus(workload: Workload) -> list[Instance]:
    """The workload's fixed problems; oracle verdicts are recorded for these."""
    rng = random.Random(f"{workload.name}/corpus")
    return [workload.make(rng, i) for i in range(workload.corpus)]


def pass_inputs(workload: Workload, problems: list[Instance], seed: int,
                k: int) -> tuple[list[Instance], list[int]]:
    """Pass k's inputs and the order the closed loop visits them.

    Every pass visits each corpus problem once, in a form drawn from the seed
    and the pass (rows and variables negated), so a run averages over many
    forms of the same problems and two seeds see different inputs of the
    same structure.
    """
    rng = random.Random(f"{workload.name}/{seed}/{k}")
    inputs = [p.transformed(rng) for p in problems]
    return inputs, rng.sample(range(len(inputs)), len(inputs))


def digest(instances: list[Instance]) -> str:
    h = hashlib.sha256()
    for inst in instances:
        h.update(inst.text().encode())
        h.update(b"\0")
    return h.hexdigest()
