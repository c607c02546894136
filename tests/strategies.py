"""Hypothesis strategies shared by the property tests."""

from fractions import Fraction

from hypothesis import strategies as st

from tdmilp.integralize import MilpInstance
from tdmilp.linalg import Matrix
from tdmilp.structure import Graph


@st.composite
def int_matrices(draw, square=False):
    """Integer matrices up to 5x6 with entries in -2..2, empty shapes included."""
    rows = draw(st.integers(0, 5))
    cols = rows if square else draw(st.integers(0, 6))
    entries = draw(st.lists(st.integers(-2, 2), min_size=rows * cols,
                            max_size=rows * cols))
    return Matrix([entries[i * cols:(i + 1) * cols] for i in range(rows)], cols=cols)


@st.composite
def kernel_matrices(draw, square=False):
    """Matrices up to 5x5 of one of four kinds: integral entries in -6..6,
    p/q entries with |p| <= 6 and q <= 6, integral rows with a rational
    combination of them inserted as a dependent row, or integral rows with a
    zero row inserted."""
    kind = draw(st.sampled_from(("integral", "rational", "dependent", "zero_row")))
    cols = draw(st.integers(1, 5))
    rows = cols if square else draw(st.integers(1, 5))
    base = rows - 1 if kind in ("dependent", "zero_row") else rows
    if kind == "rational":
        entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    else:
        entry = st.integers(-6, 6)
    data = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(base)]
    if kind == "dependent":
        coeffs = draw(st.lists(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
                               min_size=base, max_size=base))
        extra = [sum((k * r[j] for k, r in zip(coeffs, data)), Fraction(0))
                 for j in range(cols)]
    else:
        extra = [0] * cols
    if kind in ("dependent", "zero_row"):
        data.insert(draw(st.integers(0, base)), extra)
    return Matrix(data, cols=cols)


@st.composite
def rational_lps(draw):
    """LPs (a, b, lower, upper, c) with up to 3 rows and 4 columns; entries
    of a, b and c are p/q with |p| <= 3 and q <= 4, boxes are integral and at
    most 3 wide."""
    rows = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    frac = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    a = Matrix([draw(st.lists(frac, min_size=n, max_size=n)) for _ in range(rows)])
    lower = draw(st.lists(st.integers(-2, 0), min_size=n, max_size=n))
    upper = [lo + draw(st.integers(0, 3)) for lo in lower]
    return (a, draw(st.lists(frac, min_size=rows, max_size=rows)), lower, upper,
            draw(st.lists(frac, min_size=n, max_size=n)))


@st.composite
def integer_lps(draw, spare=None):
    """Feasible LPs (a, b, lower, upper, c) with up to 3 rows and 6 columns,
    entries of a and c in -3..3, integral boxes at most 4 wide, and b = a x0
    for a point x0 of the box on the half-integers.  With ``spare`` set there
    are at least that many more columns than rows and no box is one point,
    so a bound tightened on a fractional basic column leaves the dual
    simplex columns to pivot on."""
    rows = draw(st.integers(1, 3))
    n = draw(st.integers(1 if spare is None else rows + spare, 6))
    coeff = st.integers(-3, 3)
    a = Matrix([draw(st.lists(coeff, min_size=n, max_size=n)) for _ in range(rows)])
    lower = draw(st.lists(st.integers(-2, 1), min_size=n, max_size=n))
    upper = [lo + draw(st.integers(0 if spare is None else 1, 4)) for lo in lower]
    x0 = [lo + Fraction(draw(st.integers(0, 2 * (up - lo))), 2) for lo, up in zip(lower, upper)]
    return a, list(a.apply_vector(x0)), lower, upper, draw(st.lists(coeff, min_size=n, max_size=n))


@st.composite
def rational_box_lps(draw):
    """LPs (a, b, lower, upper, c) with up to 3 rows and 4 columns, integer a
    and c, and p/q bounds (q <= 4) on boxes at most 2 wide.  Half of them
    take b = a x0 for a point x0 of the box, so they are feasible; the rest
    draw b as p/q."""
    rows = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    coeff = st.integers(-2, 2)
    a = Matrix([draw(st.lists(coeff, min_size=n, max_size=n)) for _ in range(rows)])
    lower = draw(st.lists(st.builds(Fraction, st.integers(-8, 4), st.integers(1, 4)),
                          min_size=n, max_size=n))
    upper = [lo + draw(st.builds(Fraction, st.integers(0, 8), st.integers(1, 4)))
             for lo in lower]
    if draw(st.booleans()):
        x0 = [lo + draw(st.sampled_from((0, Fraction(1, 3), Fraction(1, 2), 1))) * (up - lo)
              for lo, up in zip(lower, upper)]
        b = list(a.apply_vector(x0))
    else:
        b = draw(st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
                          min_size=rows, max_size=rows))
    return a, b, lower, upper, draw(st.lists(coeff, min_size=n, max_size=n))


@st.composite
def mixed_instances(draw):
    """Mixed instances with up to 3 rows and 5 variables (integer columns
    first, any split), boxes at most 3 wide."""
    rows = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    z = draw(st.integers(0, n))
    coeff = st.integers(-2, 2)
    a = [draw(st.lists(coeff, min_size=n, max_size=n)) for _ in range(rows)]
    lower = draw(st.lists(st.integers(-3, 0), min_size=n, max_size=n))
    upper = [lo + draw(st.integers(0, 3)) for lo in lower]
    return MilpInstance(a_int=Matrix([r[:z] for r in a], cols=z),
                        a_frac=Matrix([r[z:] for r in a], cols=n - z),
                        b=tuple(draw(st.lists(st.integers(-3, 3), min_size=rows,
                                              max_size=rows))),
                        c=tuple(draw(st.lists(coeff, min_size=n, max_size=n))),
                        lower=tuple(lower), upper=tuple(upper))


@st.composite
def connected_graphs(draw):
    """Connected graphs on 2-10 vertices: a random spanning tree plus any
    extra edges, relabelled by a random permutation."""
    n = draw(st.integers(2, 10))
    edges = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
    vertex = st.integers(0, n - 1)
    edges += [(u, v) for u, v in draw(st.lists(st.tuples(vertex, vertex),
                                               max_size=n * (n - 1) // 2)) if u != v]
    label = draw(st.permutations(range(n)))
    return Graph(n, [(label[u], label[v]) for u, v in edges])


@st.composite
def graphs(draw):
    """Graphs on 0-20 vertices with up to 2n edges, often disconnected."""
    n = draw(st.integers(0, 20))
    if n < 2:
        return Graph(n, [])
    vertex = st.integers(0, n - 1)
    return Graph(n, [(u, v) for u, v in draw(st.lists(st.tuples(vertex, vertex),
                                                        max_size=2 * n)) if u != v])


@st.composite
def forests(draw, n):
    """Parent arrays of rooted forests on n vertices: placed in a random
    order, each vertex goes below one placed before it or becomes a root."""
    order = draw(st.permutations(range(n)))
    parent = [None] * n
    for i, v in enumerate(order):
        k = draw(st.integers(-1, i - 1))
        parent[v] = None if k < 0 else order[k]
    return parent


@st.composite
def sparse_matrices(draw):
    """Integer matrices up to 8x10, most entries zero, so both interaction
    graphs split into several components."""
    rows = draw(st.integers(0, 8))
    cols = draw(st.integers(0, 10))
    entries = draw(st.lists(st.sampled_from((0, 0, 0, 0, 1, -2)), min_size=rows * cols,
                            max_size=rows * cols))
    return Matrix([entries[i * cols:(i + 1) * cols] for i in range(rows)], cols=cols)
