"""Fixed instances shared by the solver and command-line tests."""

import random

from tdmilp.families import FamilySpec, generate
from tdmilp.fileformat import ParsedInstance, serialize_instance
from tdmilp.integralize import MilpInstance
from tdmilp.linalg import Matrix


def nfold_one_integer(free_column: bool) -> MilpInstance:
    """The nfold t=2 k=3 matrix with column 0 integer, bounds [-2, 2] and a
    right-hand side met by an integral point; its certificate is not usable.

    With free_column, an extra zero integer column of cost 0 and bounds
    [0, 10**6] widens the integer box past a million points without changing
    the optimum.
    """
    a = generate(FamilySpec("nfold", t=2, k=3, seed=1, magnitude=2))
    x0 = (1, 2, -1, 0, 1, -2)
    c = (3, 1, -2, 4, 1, 2)
    extra = [0] if free_column else []
    return MilpInstance(
        a_int=Matrix([[a[i, 0]] + extra for i in range(a.rows)]),
        a_frac=Matrix([[a[i, j] for j in range(1, a.cols)] for i in range(a.rows)]),
        b=a.apply_vector(x0),
        c=(c[0], *extra, *c[1:]),
        lower=(-2, *extra, *[-2] * (a.cols - 1)),
        upper=(2, *[10 ** 6] * len(extra), *[2] * (a.cols - 1)),
    )


def _dense_continuous(rows: int, cols: int) -> MilpInstance:
    """All-continuous rows x cols instance with dense entries in +-{1, 2}."""
    rng = random.Random(5)
    a = Matrix([[rng.choice((-2, -1, 1, 2)) for _ in range(cols)] for _ in range(rows)])
    return MilpInstance(a_int=Matrix([[] for _ in range(rows)], cols=0), a_frac=a,
                        b=(0,) * rows, c=(1,) * cols, lower=(0,) * cols, upper=(1,) * cols)


def dense_continuous() -> MilpInstance:
    """Dense all-continuous 7x17 block: C(17, 7) column bases, past the
    determinant scale's basis cap; its 17-column primal graph is decomposed
    by the heuristic."""
    return _dense_continuous(7, 17)


def dense_continuous_exact() -> MilpInstance:
    """Dense all-continuous 8x16 block: C(16, 8) column bases, past the basis
    cap, and both interaction graphs (K16 and K8) under the exact treedepth
    cap."""
    return _dense_continuous(8, 16)


def wide_certificate() -> MilpInstance:
    """x0 + 9950 x1 = 1 with x0 integer, x1 continuous, both in [0, 1].

    The certificate is 9950, under the usable cap, and lcm(1..9950) has
    more than 4300 decimal digits, past Python's int-to-str limit; the
    determinant scale 9950 cuts the scale used to 9950.
    """
    return MilpInstance(a_int=Matrix([[1]]), a_frac=Matrix([[9950]]), b=(1,),
                        c=(0, 1), lower=(0, 0), upper=(1, 1))


def acceptance_corpus(count: int):
    """The first count instances of the acceptance corpus: random mixed
    instances of up to 3 rows, 3 integer and 4 continuous columns."""
    rng = random.Random(995217)
    for _ in range(count):
        z = rng.randrange(0, 4)
        q = rng.randrange(1, 5)
        m = rng.randrange(1, 4)
        a_int = Matrix([[rng.randint(-2, 2) for _ in range(z)] for _ in range(m)], cols=z)
        a_frac = Matrix([[rng.randint(-2, 2) for _ in range(q)] for _ in range(m)], cols=q)
        lower = tuple(rng.randint(-3, 0) for _ in range(z + q))
        upper = tuple(min(3, l + rng.randint(0, 6)) for l in lower)
        b = tuple(rng.randint(-3, 3) for _ in range(m))
        c = tuple(rng.randint(-2, 2) for _ in range(z + q))
        yield MilpInstance(a_int=a_int, a_frac=a_frac, b=b, c=c,
                           lower=lower, upper=upper)


def milp_text(inst: MilpInstance) -> str:
    """The instance as MILP v1 text, columns in instance order."""
    n = inst.z + inst.q
    return serialize_instance(ParsedInstance(instance=inst, to_original=tuple(range(n))))
