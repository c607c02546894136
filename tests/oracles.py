"""Independent brute-force oracles used to freeze and cross-check expectations.

Everything here deliberately avoids the library's own algorithms: determinants
come from permutation expansion, ranks and column bases from minors,
treedepth from a bottom-up subset DP, integer optima from full box
enumeration.  The one elimination here is textbook Gaussian elimination in
``Fraction``s, the reference for the library's fraction-free kernel; it
also checks LP optima, by their basis, in ``Fraction``s.  The one exception
is the mixed-optimum reference, a plain branch and bound over the library's
exact simplex, which runs the library's own algorithm.
"""

import heapq
import math
from fractions import Fraction
from itertools import combinations, count, permutations, product

from tdmilp.linalg import Matrix
from tdmilp.simplex import lp_solve_exact


def det_by_permutation_expansion(m: Matrix) -> Fraction:
    """Sum over permutations of signed entry products (only for tiny matrices)."""
    n = m.rows
    assert m.cols == n and n <= 8
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the parity
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        term = Fraction(sign)
        for i in range(n):
            term *= m[i, perm[i]]
            if term == 0:
                break
        total += term
    return total


def rank_by_minors(m: Matrix) -> int:
    """Largest k with a nonzero k x k minor (only for tiny matrices)."""
    for k in range(min(m.rows, m.cols), 0, -1):
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                if det_by_permutation_expansion(m.submatrix(rows, cols)) != 0:
                    return k
    return 0


def leftmost_column_basis(m: Matrix):
    """Lexicographically first column set with a nonzero full-row minor, or None."""
    for cols in combinations(range(m.cols), m.rows):
        if det_by_permutation_expansion(m.submatrix(range(m.rows), cols)) != 0:
            return list(cols)
    return None


def fraction_elimination(rows, width: int):
    """Textbook Gaussian elimination in Fractions, greedy in row order.

    Each row is reduced against the pivot rows before it by subtracting
    ``row[c] / prow[c]`` times prow; its pivot is its first nonzero entry
    among the first width, or None.  Returns the ``(i, pivot)`` sequence and
    the reduced rows.
    """
    done = []
    order = []
    pivots = []
    for i, row in enumerate(rows):
        row = [Fraction(x) for x in row]
        for prow, c in pivots:
            if row[c] != 0:
                f = row[c] / prow[c]
                row = [x - f * y for x, y in zip(row, prow)]
        pivot = next((j for j in range(width) if row[j] != 0), None)
        if pivot is not None:
            pivots.append((row, pivot))
        order.append((i, pivot))
        done.append(row)
    return order, done


def reference_rank(m: Matrix) -> int:
    order, _ = fraction_elimination([m.row(i) for i in range(m.rows)], m.cols)
    return sum(pivot is not None for _, pivot in order)


def reference_det(m: Matrix) -> Fraction:
    """Product of the Fraction pivots, signed by the parity of their columns."""
    order, rows = fraction_elimination([m.row(i) for i in range(m.rows)], m.cols)
    det = Fraction(1)
    cols = []
    for i, pivot in order:
        if pivot is None:
            return Fraction(0)
        det *= rows[i][pivot]
        cols.append(pivot)
    inversions = sum(1 for k in range(len(cols)) for l in range(k + 1, len(cols))
                     if cols[k] > cols[l])
    return -det if inversions % 2 else det


def reference_inverse(m: Matrix):
    """Gauss-Jordan on ``(m | I)`` in Fractions; None when m is singular."""
    n = m.rows
    order, rows = fraction_elimination(
        [list(m.row(i)) + [int(i == j) for j in range(n)] for i in range(n)], n)
    if any(pivot is None for _, pivot in order):
        return None
    inv = [None] * n
    for i, pivot in reversed(order):
        row = [x / rows[i][pivot] for x in rows[i]]
        for k, p in order[i + 1:]:
            row = [x - row[p] * y for x, y in zip(row, rows[k])]
        rows[i] = row
        inv[pivot] = row[n:]
    return Matrix(inv, cols=n)


def check_lp_optimum(a: Matrix, b, lower, upper, c, res) -> None:
    """Assert that res, an optimal result of ``lp_solve_exact`` on
    ``min c.x, a x = b, lower <= x <= upper``, is an optimal basic solution.

    In ``Fraction``s only: x meets the rows and the bounds, c.x is the
    objective and every non-basic column sits at a bound.  On the rows a
    Fraction elimination keeps, y solves ``B^T y = c_B`` for the basis B;
    each non-basic column with room between its bounds then has a reduced
    cost ``c_j - (a^T y)_j`` of the sign its bound needs, >= 0 at its lower
    bound and <= 0 at its upper one.
    """
    n = a.cols
    rows = [[Fraction(v) for v in a.row(i)] for i in range(a.rows)]
    x = [Fraction(v) for v in res.x]
    lo, up, cost = ([Fraction(v) for v in vec] for vec in (lower, upper, c))
    assert [sum(r[j] * x[j] for j in range(n)) for r in rows] == [Fraction(v) for v in b]
    assert all(lo[j] <= x[j] <= up[j] for j in range(n))
    assert sum(cost[j] * x[j] for j in range(n)) == res.objective
    nonbasic = [j for j in range(n) if j not in res.basis]
    assert all(x[j] in (lo[j], up[j]) for j in nonbasic)

    order, _ = fraction_elimination(rows, n)
    keep = [rows[i] for i, pivot in order if pivot is not None]
    assert len(keep) == len(res.basis)
    y = []
    if keep:
        inv = reference_inverse(Matrix([[r[k] for r in keep] for k in res.basis]))
        assert inv is not None  # the basis columns are independent
        y = [sum(inv[i, k] * cost[col] for k, col in enumerate(res.basis))
             for i in range(len(keep))]
    for j in nonbasic:
        d = cost[j] - sum(yi * r[j] for yi, r in zip(y, keep))
        if lo[j] < up[j]:
            assert d >= 0 if x[j] == lo[j] else d <= 0


def determinant_scale_by_enumeration(a: Matrix) -> tuple[int, int]:
    """lcm and largest of |det B| over every column basis B of the whole
    matrix, on the rows a Fraction elimination keeps."""
    order, _ = fraction_elimination([a.row(i) for i in range(a.rows)], a.cols)
    keep = [i for i, pivot in order if pivot is not None]
    dets = [abs(reference_det(a.submatrix(keep, cols)))
            for cols in combinations(range(a.cols), len(keep))]
    dets = [int(d) for d in dets if d]
    return math.lcm(*dets), max(dets)


def _subset_dp(g):
    """Treedepth of every vertex subset, bottom-up, and a component splitter."""
    n = g.vertex_count
    assert n <= 16
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    def components(mask: int) -> list[int]:
        comps = []
        rest = mask
        while rest:
            seed = rest & -rest
            comp = seed
            frontier = seed
            while frontier:
                vbit = frontier & -frontier
                frontier &= frontier - 1
                nxt = adj[vbit.bit_length() - 1] & mask & ~comp
                comp |= nxt
                frontier |= nxt
            comps.append(comp)
            rest &= ~comp
        return comps

    # order masks by population count so every sub-result exists already
    dp = {0: 0}
    masks = sorted(range(1, 1 << n), key=lambda m: bin(m).count("1"))
    for mask in masks:
        comps = components(mask)
        if len(comps) > 1:
            dp[mask] = max(dp[c] for c in comps)
            continue
        best = None
        m = mask
        while m:
            vbit = m & -m
            m &= m - 1
            rest = mask & ~vbit
            sub = max((dp[c] for c in components(rest)), default=0)
            cand = 1 + sub
            if best is None or cand < best:
                best = cand
        dp[mask] = best
    return dp, components


def treedepth_by_subset_dp(g) -> int:
    """Minimum decomposition height by bottom-up DP over all vertex subsets."""
    dp, _ = _subset_dp(g)
    return dp[(1 << g.vertex_count) - 1]


def lowest_root_decomposition(g) -> tuple:
    """Parent array of the minimum-height decomposition that roots every
    component at its lowest-index vertex v with 1 + td(mask - v) = td(mask)."""
    dp, components = _subset_dp(g)
    parent = [None] * g.vertex_count
    todo = [(c, None) for c in components((1 << g.vertex_count) - 1)]
    while todo:
        mask, above = todo.pop()
        v = next(v for v in range(g.vertex_count) if mask >> v & 1
                 and 1 + dp[mask & ~(1 << v)] == dp[mask])
        parent[v] = above
        todo.extend((c, v) for c in components(mask & ~(1 << v)))
    return tuple(parent)


def fits_by_edge_walk(a: Matrix, parent) -> bool:
    """True iff every two columns sharing a nonzero row of a are an
    ancestor-descendant pair of the forest, found by walking up parent."""
    def above(u, v):
        while v is not None and v != u:
            v = parent[v]
        return v == u

    for i in range(a.rows):
        support = [j for j in range(a.cols) if a[i, j] != 0]
        if not all(above(u, v) or above(v, u) for u, v in combinations(support, 2)):
            return False
    return True


def components_by_union_find(g) -> list[list[int]]:
    """Connected components by union-find over the edge list, each sorted,
    ordered by their lowest vertex."""
    root = list(range(g.vertex_count))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for u, v in g.edges:
        root[find(u)] = find(v)
    groups: dict[int, list[int]] = {}
    for v in range(g.vertex_count):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def structured_invertible_matrix(rng, n: int, height: int, magnitude: int) -> Matrix:
    """Invertible integer matrix with primal treedepth at most height.

    Builds a random forest of bounded height over the columns and one row per
    column: the row's own column always gets a nonzero entry and ancestors get
    random ones.  Ordering columns ancestors-last makes the matrix permuted
    triangular with nonzero diagonal, hence invertible by construction.
    """
    parent = [None] * n
    depth = [1] * n
    for v in range(1, n):
        cands = [u for u in range(v) if depth[u] < height]
        if cands and rng.random() < 0.85:
            p = rng.choice(cands)
            parent[v] = p
            depth[v] = depth[p] + 1
    rows = []
    nonzero = [x for x in range(-magnitude, magnitude + 1) if x != 0]
    for v in range(n):
        row = [0] * n
        row[v] = rng.choice(nonzero)
        u = parent[v]
        while u is not None:
            if rng.random() < 0.7:
                row[u] = rng.randint(-magnitude, magnitude)
            u = parent[u]
        rows.append(row)
    return Matrix(rows)


def ilp_by_box_enumeration(matrix: Matrix, b, c, lower, upper):
    """(status, best objective) over every integer point of the box."""
    n = matrix.cols
    best = None
    for point in product(*[range(lower[j], upper[j] + 1) for j in range(n)]):
        ok = all(sum(matrix[i, j] * point[j] for j in range(n)) == b[i]
                 for i in range(matrix.rows))
        if not ok:
            continue
        val = sum(c[j] * point[j] for j in range(n))
        if best is None or val < best:
            best = val
    if best is None:
        return "infeasible", None
    return "optimal", Fraction(best)


def milp_by_integer_branching(inst):
    """(status, objective) of a mixed instance by best-bound branch and bound
    over ``lp_solve_exact`` on the unscaled instance.

    Only the first z (integer) columns are branched on, the first fractional
    one each time; the first node popped whose integer columns are integral
    is optimal, since no open node has a lower LP bound.  ``ilp_solve`` runs
    the same algorithm (it branches on the most fractional column instead),
    so this is no independent evidence of its answers; ``milp_oracle``'s box
    enumeration is.
    """
    heap = []
    order = count()  # ties pop in creation order

    def push(lower, upper):
        res = lp_solve_exact(inst.matrix, inst.b, lower, upper, inst.c)
        if res.status == "optimal":
            heapq.heappush(heap, (res.objective, next(order), lower, upper, res.x))

    push(list(inst.lower), list(inst.upper))
    while heap:
        objective, _, lower, upper, x = heapq.heappop(heap)
        j = next((j for j in range(inst.z) if x[j].denominator != 1), None)
        if j is None:
            return "optimal", objective
        floor = math.floor(x[j])
        push(lower, upper[:j] + [floor] + upper[j + 1:])
        push(lower[:j] + [floor + 1] + lower[j + 1:], upper)
    return "infeasible", None
