"""Generators and verifiers for the explicit hardness families.

Covers the high-fractionality matrices (family tags lemma4_*), the
mixed-integer-programming counterexamples with nonlinear objectives
(lemma5_*), block-structured random corpora, and the feasibility-preserving
embedding of an ILP into a MILP with unstructured integer columns.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .integralize import MilpInstance
from .linalg import Matrix, fractionality, mat_inverse
from .structure import connected_components, dual_graph, primal_graph

MATRIX_FAMILIES = ("lemma4_a1", "lemma4_a2", "nfold", "twostage", "random_td")
DESCRIPTOR_FAMILIES = ("lemma5_p1", "lemma5_p2", "lemma5_p3")
VERIFY_SAMPLES = 1000  # points the sampled optimality checks of verify_family draw


@dataclass(frozen=True)
class FamilySpec:
    """Parameters selecting one member of a generator family.

    n is the main size; t the block size or decomposition height bound; k a
    brick count or denominator, depending on the family; seed is required for
    the random families.
    """

    family: str
    n: Optional[int] = None
    t: Optional[int] = None
    k: Optional[int] = None
    seed: Optional[int] = None
    magnitude: int = 1

    def __post_init__(self):
        known = MATRIX_FAMILIES + DESCRIPTOR_FAMILIES
        if self.family not in known:
            raise ValueError(f"unknown family {self.family!r}")
        for name in ("n", "t", "k", "magnitude"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be positive")
        if self.family in ("nfold", "twostage", "random_td") and self.seed is None:
            raise ValueError(f"{self.family} needs a seed")


@dataclass(frozen=True)
class MipDescriptor:
    """Data-only record of a MIP with a nonlinear objective.

    The solver never minimises these; they exist so the verification side can
    check the claimed optima analytically or by sampling.
    objective is ('sum_of_squares',), ('squared_distance', target) or
    ('cubic', (c0, c1, c2, c3)) with ascending-power coefficients.
    """

    dimension: int
    objective: tuple
    constraint: Optional[Matrix] = None
    rhs: Optional[tuple[int, ...]] = None
    lower: Optional[tuple[int, ...]] = None
    upper: Optional[tuple[int, ...]] = None

    def objective_value(self, x: Sequence[Fraction]) -> Fraction:
        kind = self.objective[0]
        if kind == "sum_of_squares":
            return sum((Fraction(v) ** 2 for v in x), Fraction(0))
        if kind == "squared_distance":
            return (Fraction(x[0]) - self.objective[1]) ** 2
        if kind == "cubic":
            c0, c1, c2, c3 = self.objective[1]
            v = Fraction(x[0])
            return c0 + c1 * v + c2 * v * v + c3 * v ** 3
        raise ValueError(f"unknown objective kind {kind!r}")

    def to_text(self) -> str:
        """A header line, ``dimension=``, ``objective=`` with the kind and its
        parameters comma-separated, then any ``row`` and ``lb``/``ub`` lines."""
        kind, *params = self.objective
        flat = [v for p in params for v in (p if isinstance(p, tuple) else (p,))]
        lines = ["MIP descriptor", f"dimension={self.dimension}",
                 ",".join([f"objective={kind}"] + [str(v) for v in flat])]
        if self.constraint is not None:
            for i, rhs in enumerate(self.rhs):
                lines.append(f"row {' '.join(map(str, self.constraint.row(i)))} = {rhs}")
        if self.lower is not None:
            lines.append("lb " + " ".join(map(str, self.lower)))
            lines.append("ub " + " ".join(map(str, self.upper)))
        return "\n".join(lines)


Generated = Union[Matrix, MipDescriptor]


def _bidiagonal(n: int) -> Matrix:
    return Matrix([[2 if i == j else (-1 if j == i + 1 else 0) for j in range(n)]
                   for i in range(n)])


def _arrowhead(n: int) -> Matrix:
    # first row and column all ones, ones on the diagonal, zero elsewhere
    rows = [[1] * n]
    for i in range(1, n):
        rows.append([1 if j in (0, i) else 0 for j in range(n)])
    return Matrix(rows)


def _rand_entry(rng: random.Random, magnitude: int) -> int:
    return rng.randint(-magnitude, magnitude)


def _nfold(rng: random.Random, t: int, bricks: int, magnitude: int) -> Matrix:
    """t border rows across all columns, then a t x t brick per block."""
    cols = bricks * t
    rows = [[_rand_entry(rng, magnitude) for _ in range(cols)] for _ in range(t)]
    for b in range(bricks):
        for i in range(t):
            row = [0] * cols
            for j in range(t):
                row[b * t + j] = _rand_entry(rng, magnitude)
            if all(v == 0 for v in row):
                row[b * t + i] = 1  # keep the brick row attached to its brick
            rows.append(row)
    return Matrix(rows)


def _twostage(rng: random.Random, t: int, bricks: int, magnitude: int) -> Matrix:
    """t border columns shared by every row, then a t x t brick per block."""
    cols = t + bricks * t
    rows = []
    for b in range(bricks):
        for i in range(t):
            row = [_rand_entry(rng, magnitude) for _ in range(t)] + [0] * (bricks * t)
            for j in range(t):
                row[t + b * t + j] = _rand_entry(rng, magnitude)
            if all(v == 0 for v in row[t:]):
                row[t + b * t + i] = 1
            rows.append(row)
    return Matrix(rows)


def _random_td(rng: random.Random, n: int, m: int, height: int, magnitude: int) -> Matrix:
    """Rows supported on root-paths of a random forest of bounded height,
    so the primal treedepth is at most the height by construction."""
    parent: list[Optional[int]] = [None] * n
    depth = [1] * n
    for v in range(1, n):
        cands = [u for u in range(v) if depth[u] < height]
        if cands and rng.random() < 0.9:
            p = rng.choice(cands)
            parent[v] = p
            depth[v] = depth[p] + 1
    chains = []
    for v in range(n):
        chain = [v]
        u = parent[v]
        while u is not None:
            chain.append(u)
            u = parent[u]
        chains.append(chain)
    rows = []
    for _ in range(m):
        v = rng.randrange(n)
        support = {v} | {u for u in chains[v][1:] if rng.random() < 0.7}
        row = [0] * n
        for j in support:
            row[j] = rng.choice([x for x in range(-magnitude, magnitude + 1) if x != 0])
        rows.append(row)
    return Matrix(rows)


def generate(spec: FamilySpec) -> Generated:
    """Build the family member selected by spec (pure in spec)."""
    fam = spec.family
    if fam == "lemma4_a1":
        if spec.n is None:
            raise ValueError("lemma4_a1 needs n >= 1")
        return _bidiagonal(spec.n)
    if fam == "lemma4_a2":
        if spec.n is None or spec.n < 3:
            raise ValueError("lemma4_a2 needs n >= 3")
        return _arrowhead(spec.n)
    if fam == "lemma5_p1":
        if spec.n is None:
            raise ValueError("lemma5_p1 needs n >= 1")
        return MipDescriptor(dimension=spec.n, objective=("sum_of_squares",),
                             constraint=Matrix([[1] * spec.n]), rhs=(1,))
    if fam == "lemma5_p2":
        if spec.k is None:
            raise ValueError("lemma5_p2 needs k >= 1")
        return MipDescriptor(dimension=1, objective=("squared_distance", Fraction(1, spec.k)))
    if fam == "lemma5_p3":
        return MipDescriptor(dimension=1, objective=("cubic", (0, -1, 2, 1)),
                             lower=(0,), upper=(1,))
    rng = random.Random(spec.seed)
    t = spec.t or 1
    bricks = spec.k or 2
    if fam == "nfold":
        return _nfold(rng, t, bricks, spec.magnitude)
    if fam == "twostage":
        return _twostage(rng, t, bricks, spec.magnitude)
    if fam == "random_td":
        n = spec.n or 4
        m = spec.k or n
        return _random_td(rng, n, m, t, spec.magnitude)
    raise AssertionError(fam)


def reduce_ilp_to_milp(ilp: MilpInstance) -> MilpInstance:
    """Embed a pure ILP (q = 0) into a MILP whose integer columns carry no
    constraints.

    The original variables become continuous and keep the constraint matrix;
    fresh integer copies are pinned to them by identity rows, so feasibility
    is preserved in both directions.  A mixed instance raises ValueError.
    """
    if ilp.q != 0:
        raise ValueError("reduce expects a pure ILP (no continuous variables)")
    n = ilp.z
    m = ilp.rows
    zero_top = Matrix.zeros(m, n)
    a_int = zero_top.vstack(Matrix.identity(n))
    a_frac = ilp.a_int.vstack(-1 * Matrix.identity(n))
    return MilpInstance(
        a_int=a_int,
        a_frac=a_frac,
        b=ilp.b + (0,) * n,
        c=ilp.c + ilp.c,
        lower=ilp.lower + ilp.lower,
        upper=ilp.upper + ilp.upper,
    )


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    family: str
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [f"verify {self.family}: {'PASS' if self.ok else 'FAIL'}"]
        for c in self.checks:
            mark = "ok" if c.passed else "FAIL"
            suffix = f" ({c.detail})" if c.detail else ""
            lines.append(f"  [{mark}] {c.name}{suffix}")
        return "\n".join(lines)


def _closed_form_bidiagonal_inverse(n: int) -> Matrix:
    return Matrix([[Fraction(1, 2 ** (j - i + 1)) if j >= i else Fraction(0)
                    for j in range(n)] for i in range(n)])


def _closed_form_arrowhead_inverse(n: int) -> Matrix:
    """Derived by exact inversion; the diagonal entries are (n'-1)/n'."""
    np = n - 2
    rows = [[Fraction(-1, np)] + [Fraction(1, np)] * (n - 1)]
    for i in range(1, n):
        row = [Fraction(1, np)]
        for j in range(1, n):
            row.append(Fraction(np - 1, np) if i == j else Fraction(-1, np))
        rows.append(row)
    return Matrix(rows)


def _is_path_graph(g) -> bool:
    if g.vertex_count == 1:
        return True
    degs = [len(g.adj[v]) for v in range(g.vertex_count)]
    return (len(connected_components(g)) == 1 and max(degs) <= 2
            and degs.count(1) == 2 and len(g.edges) == g.vertex_count - 1)


def _sample_simplex_points(rng: random.Random, n: int, count: int) -> list[tuple[Fraction, ...]]:
    """Rational points on the hyperplane sum(x) = 1 (signs unrestricted)."""
    out = []
    denom = 64
    for _ in range(count):
        head = [Fraction(rng.randint(-2 * denom, 2 * denom), denom) for _ in range(n - 1)]
        tail = 1 - sum(head, Fraction(0))
        out.append(tuple(head) + (tail,))
    return out


def _minimize_cubic(desc: MipDescriptor) -> float:
    """Float ternary search on [lower, upper], 200 rounds (verification only;
    the solver path itself never touches floats)."""
    c0, c1, c2, c3 = desc.objective[1]

    def f(x: float) -> float:
        return c0 + c1 * x + c2 * x * x + c3 * x ** 3

    lo, hi = float(desc.lower[0]), float(desc.upper[0])
    for _ in range(200):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if f(m1) <= f(m2):
            hi = m2
        else:
            lo = m1
    return (lo + hi) / 2


def verify_family(spec: FamilySpec) -> VerificationReport:
    """Generate the family member selected by spec and check its claimed
    properties.

    The sampled checks draw VERIFY_SAMPLES points from a generator seeded
    with ``spec.seed`` (0 when unset).
    """
    fam = spec.family
    generated = generate(spec)
    checks: list[Check] = []
    rng = random.Random(spec.seed or 0)

    if fam == "lemma4_a1":
        n = spec.n
        inv = mat_inverse(generated)
        expected = _closed_form_bidiagonal_inverse(n)
        checks.append(Check("inverse matches closed form 1/2^(j-i+1)", inv == expected))
        fr = fractionality(inv)
        checks.append(Check(f"fractionality is 2^{n}", fr == 2 ** n, f"fr={fr}"))
        checks.append(Check("primal graph is a path", _is_path_graph(primal_graph(generated))))
    elif fam == "lemma4_a2":
        n = spec.n
        inv = mat_inverse(generated)
        fr = fractionality(inv)
        checks.append(Check(f"fractionality >= n-2 = {n - 2}", fr >= n - 2, f"fr={fr}"))
        expected = _closed_form_arrowhead_inverse(n)
        checks.append(Check("closed form has denominator n' (not n) on the diagonal",
                            inv == expected,
                            f"entry(1,1)={inv[1, 1]}"))
    elif fam == "lemma5_p1":
        n = spec.n
        uniform = tuple(Fraction(1, n) for _ in range(n))
        feasible = sum(uniform, Fraction(0)) == 1
        checks.append(Check("uniform point is feasible", feasible))
        value = generated.objective_value(uniform)
        checks.append(Check(f"uniform objective is 1/{n}", value == Fraction(1, n),
                            f"value={value}"))
        worst = min((generated.objective_value(p)
                     for p in _sample_simplex_points(rng, n, VERIFY_SAMPLES)),
                    default=value)
        checks.append(Check(f"{VERIFY_SAMPLES} sampled feasible points never beat it",
                            worst >= value, f"best sample={worst}"))
    elif fam == "lemma5_p2":
        k = spec.k
        at_min = generated.objective_value((Fraction(1, k),))
        checks.append(Check(f"objective vanishes at 1/{k}", at_min == 0))
        strict = True
        for _ in range(200):
            x = Fraction(rng.randint(-64, 64), rng.randint(1, 64))
            if x != Fraction(1, k) and generated.objective_value((x,)) <= 0:
                strict = False
                break
        checks.append(Check("strictly positive elsewhere (sampled)", strict))
    elif fam == "lemma5_p3":
        x_star = _minimize_cubic(generated)
        target = (math.sqrt(7) - 2) / 3
        checks.append(Check("numeric minimiser within 1e-6 of (sqrt(7)-2)/3",
                            abs(x_star - target) <= 1e-6,
                            f"x*={x_star:.9f}"))
        c0, c1, c2, c3 = generated.objective[1]
        f_star = c0 + c1 * target + c2 * target ** 2 + c3 * target ** 3
        beats = None
        for q in range(1, 41):
            for p in range(0, q + 1):
                val = generated.objective_value((Fraction(p, q),))
                if float(val) <= f_star + 1e-9:
                    beats = Fraction(p, q)
                    break
            if beats is not None:
                break
        checks.append(Check("no rational with denominator <= 40 attains the minimum",
                            beats is None, f"counterexample={beats}" if beats else ""))
    elif fam in ("nfold", "twostage", "random_td"):
        a = generated
        regen = generate(spec)
        checks.append(Check("regeneration with the same seed is identical", a == regen))
        if fam != "random_td":
            # nfold's border is its first t rows, twostage's its first t columns
            g, what = (dual_graph(a), "rows") if fam == "nfold" else (primal_graph(a), "columns")
            t = spec.t or 1
            non_border_edges = [e for e in g.edges if e[0] >= t and e[1] >= t]
            same_brick = all((u - t) // t == (v - t) // t for u, v in non_border_edges)
            checks.append(Check(f"non-border {what} only interact within a brick", same_brick))
    else:
        raise AssertionError(fam)
    return VerificationReport(family=fam, checks=tuple(checks))
