"""Column/row interaction graphs and treedepth decompositions.

The primal graph of a matrix has one vertex per column, with an edge whenever
two columns share a row with nonzero entries in both; the dual graph is the
primal graph of the transpose.  A decomposition is a rooted forest over the
vertices; it is valid when every graph edge joins an ancestor-descendant pair.
For a matrix that is one test per row: the row's support (its nonzero
columns) must be a chain, all on one root-to-leaf path (``check_fit``).

Components and decompositions are computed on adjacency bitmasks (bit v of
``adj[u]`` is set when u and v are adjacent) over the whole graph, built
straight from the matrix supports; ``Graph`` is the validated public form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .linalg import DimensionError, Matrix

EXACT_TD_CAP = 16  # largest component the exact treedepth search takes by default


class StructureError(Exception):
    """Invalid graph/decomposition input."""


class CapExceededError(Exception):
    """A search or size cap was exceeded."""


class Graph:
    """Simple undirected graph on vertices 0..n-1, no self-loops."""

    __slots__ = ("vertex_count", "edges", "adj")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        norm = set()
        for u, v in edges:
            if u == v:
                raise StructureError("self-loop")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise StructureError("edge endpoint out of range")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", frozenset(norm))
        adj: list[set[int]] = [set() for _ in range(vertex_count)]
        for u, v in norm:
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "adj", tuple(frozenset(s) for s in adj))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.vertex_count == other.vertex_count
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.vertex_count, self.edges))

    def __repr__(self):
        return f"Graph(n={self.vertex_count}, m={len(self.edges)})"

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph relabelled to 0..len(vertices)-1 in given order."""
        index = {v: i for i, v in enumerate(vertices)}
        edges = [(index[u], index[v]) for u, v in self.edges if u in index and v in index]
        return Graph(len(vertices), edges)

    def to_text(self) -> str:
        """Debug dump: one ``u v`` edge per line, sorted."""
        return "\n".join(f"{u} {v}" for u, v in sorted(self.edges))


def _supports(lines: Iterable[Sequence]) -> list[int]:
    """The support of each line (a row or a column of a matrix) as a bitmask:
    bit j is set when entry j is nonzero."""
    return [sum(1 << j for j, x in enumerate(line) if x) for line in lines]


def _matrix_adjacency(a: Matrix, side: str) -> list[int]:
    """Adjacency bitmasks of the primal (one vertex per column) or dual (one
    vertex per row) graph of a: the support of each row, or of each column,
    is a clique."""
    rows = [a.row(i) for i in range(a.rows)]
    if side == "primal":
        n, lines = a.cols, rows
    elif side == "dual":
        n, lines = a.rows, zip(*rows)
    else:
        raise ValueError(f"unknown side {side!r}")
    adj = [0] * n
    for clique in _supports(lines):
        for v in _bits(clique):
            adj[v] |= clique ^ (1 << v)
    return adj


def _graph_adjacency(g: Graph) -> list[int]:
    return [sum(1 << v for v in nbrs) for nbrs in g.adj]


def _bits(mask: int) -> list[int]:
    """The vertices set in mask, ascending."""
    out = []
    while mask:
        vbit = mask & -mask
        mask ^= vbit
        out.append(vbit.bit_length() - 1)
    return out


def _graph_of(adj: Sequence[int]) -> Graph:
    return Graph(len(adj), [(u, v) for u, m in enumerate(adj) for v in _bits(m) if u < v])


def primal_graph(a: Matrix) -> Graph:
    """One vertex per column; columns sharing a nonzero row are adjacent."""
    return _graph_of(_matrix_adjacency(a, "primal"))


def dual_graph(a: Matrix) -> Graph:
    """Primal graph of the transpose: one vertex per row."""
    return _graph_of(_matrix_adjacency(a, "dual"))


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, lowest-index first."""
    full = (1 << g.vertex_count) - 1
    return [_bits(c) for c in _mask_components(full, _graph_adjacency(g))]


class TdDecomposition:
    """Rooted forest over vertices 0..n-1, stored as a parent map."""

    __slots__ = ("vertex_count", "parent", "_children", "_roots", "_ancestors")

    def __init__(self, parent: Sequence[Optional[int]]):
        n = len(parent)
        children: list[list[int]] = [[] for _ in range(n)]
        roots = []
        for v, p in enumerate(parent):
            if p is None:
                roots.append(v)
            else:
                if not (0 <= p < n):
                    raise StructureError("parent out of range")
                children[p].append(v)
        if not roots and n > 0:
            raise StructureError("no root: parent relation is cyclic")
        # ancestor mask of each vertex, itself included; a vertex that no
        # root reaches keeps mask 0 and lies on or below a cycle
        ancestors = [0] * n
        for r in roots:
            ancestors[r] = 1 << r
            stack = [r]
            while stack:
                u = stack.pop()
                for c in children[u]:
                    ancestors[c] = ancestors[u] | (1 << c)
                    stack.append(c)
        if not all(ancestors):
            raise StructureError("cycle in parent relation")
        object.__setattr__(self, "vertex_count", n)
        object.__setattr__(self, "parent", tuple(parent))
        object.__setattr__(self, "_children", tuple(tuple(sorted(c)) for c in children))
        object.__setattr__(self, "_roots", tuple(sorted(roots)))
        object.__setattr__(self, "_ancestors", tuple(ancestors))

    def __setattr__(self, name, value):
        raise AttributeError("TdDecomposition is immutable")

    @property
    def roots(self) -> tuple[int, ...]:
        return self._roots

    def children(self, v: int) -> tuple[int, ...]:
        return self._children[v]

    def subtree(self, v: int) -> list[int]:
        """Vertices of the subtree rooted at v, sorted."""
        out = [v]
        stack = [v]
        while stack:
            u = stack.pop()
            for c in self._children[u]:
                out.append(c)
                stack.append(c)
        return sorted(out)

    def __eq__(self, other):
        return isinstance(other, TdDecomposition) and self.parent == other.parent

    def __hash__(self):
        return hash(self.parent)

    def __repr__(self):
        return f"TdDecomposition(n={self.vertex_count}, roots={self._roots})"


@dataclass(frozen=True)
class TdStats:
    """Height, topological height and level heights of a decomposition."""

    height: int
    topological_height: int
    level_heights: tuple[int, ...]

    def machine_line(self, tag: str) -> str:
        """The ``td_<tag>=...`` line of ``--format machine`` output."""
        ks = ",".join(str(k) for k in self.level_heights)
        return f"td_{tag}=height:{self.height};ttd:{self.topological_height};k:{ks}"


def _is_chain(support: int, f: TdDecomposition) -> bool:
    """True when the vertices in support lie on one root-to-leaf path of f:
    one of them has all of support among its ancestors."""
    return not support or any(not support & ~f._ancestors[v] for v in _bits(support))


def check_fit(a: Matrix, f: TdDecomposition) -> list[int]:
    """The row supports of a, once f is checked to fit a.

    f fits a when it is a decomposition over the columns of a under which the
    support of every row is a chain, that is, when f validates against the
    primal graph of a.  Raises StructureError otherwise.
    """
    if f.vertex_count != a.cols:
        raise StructureError("decomposition size does not match column count")
    supports = _supports(map(a.row, range(a.rows)))
    if not all(_is_chain(s, f) for s in supports):
        raise StructureError("decomposition does not validate against the primal graph")
    return supports


def validate_td(g: Graph, f: TdDecomposition) -> bool:
    """True iff every edge of g joins an ancestor-descendant pair of f."""
    if g.vertex_count != f.vertex_count:
        raise DimensionError("graph and decomposition vertex counts differ")
    return all(_is_chain((1 << u) | (1 << v), f) for u, v in g.edges)


def td_stats(f: TdDecomposition) -> TdStats:
    """Statistics per root-leaf path, maximised over all paths.

    A vertex is degenerate when it has exactly one child.  The first level
    height counts the root segment up to and including the first
    non-degenerate vertex; each later level counts the vertices strictly below
    the previous non-degenerate vertex down to the next one.
    """
    height = 0
    ttd = 0
    levels: dict[int, int] = {}

    # walk root-leaf paths; state = (vertex, depth, nondeg_index, segment size)
    for root in f.roots:
        stack = [(root, 1, 0, 1)]
        while stack:
            v, depth, level, seg = stack.pop()
            kids = f.children(v)
            nondeg = len(kids) != 1
            if nondeg:
                level += 1
                levels[level] = max(levels.get(level, 0), seg)
                seg = 0
            if not kids:
                height = max(height, depth)
                ttd = max(ttd, level)
                continue
            for c in kids:
                stack.append((c, depth + 1, level, seg + 1))
    return TdStats(height, ttd, tuple(levels[i] for i in range(1, ttd + 1)))


def restrict_decomposition(f: TdDecomposition, vertices: Sequence[int]) -> TdDecomposition:
    """Decomposition induced on a vertex subset (nearest kept ancestor).

    Valid for any induced subgraph of a graph that f is valid for; the result
    may be a forest even when f is a tree.  Vertices are relabelled to
    0..len(vertices)-1 in the given order.
    """
    index = {v: i for i, v in enumerate(vertices)}
    parent: list[Optional[int]] = []
    for v in vertices:
        p = f.parent[v]
        while p is not None and p not in index:
            p = f.parent[p]
        parent.append(index[p] if p is not None else None)
    return TdDecomposition(parent)


def td_compute(g: Graph, mode: str = "exact") -> TdDecomposition:
    """Treedepth decomposition of a connected graph.

    Runs on adjacency bitmasks, the search of ``decomposition_for_matrix``.
    Exact mode finds a minimum-height decomposition by a branch and bound
    over root choices, memoised on vertex subsets, and refuses graphs of more
    than EXACT_TD_CAP vertices.  It bounds a subset's height below by its
    degeneracy + 1 (degeneracy <= treewidth <= treedepth - 1), skips a root
    once a component left by it cannot beat the best height so far, and
    among the roots of minimum height keeps the lowest-index one.  Heuristic
    mode removes a greedily chosen balanced separator, recurses, and stacks
    the separator as a path above the recursive roots; the result is always
    valid but may not have minimum height.
    """
    if g.vertex_count == 0:
        return TdDecomposition([])
    adj = _graph_adjacency(g)
    full = (1 << g.vertex_count) - 1
    if _mask_components(full, adj) != [full]:
        raise StructureError("graph is not connected; decompose components first")
    parent: list[Optional[int]] = [None] * g.vertex_count
    _decompose(full, adj, mode, EXACT_TD_CAP, parent)
    return TdDecomposition(parent)


def _decompose(comp: int, adj: Sequence[int], mode: str, exact_cap: int,
               parent: list[Optional[int]]) -> None:
    """Write a decomposition of the connected vertex set comp into parent."""
    if mode == "exact":
        size = comp.bit_count()
        if size > exact_cap:
            raise CapExceededError(f"exact treedepth limited to {exact_cap} vertices, got {size}")
        _td_exact(comp, adj, parent)
    elif mode == "heuristic":
        _td_heuristic(comp, adj, parent, None)
    else:
        raise ValueError(f"unknown mode {mode!r}")


def _mask_components(mask: int, adj: Sequence[int]) -> list[int]:
    """Connected components of the vertices set in mask, as bitmasks."""
    comps = []
    rest = mask
    while rest:
        seed = rest & -rest
        comp = seed
        frontier = seed
        while frontier:
            v = frontier & -frontier
            frontier &= frontier - 1
            nxt = adj[v.bit_length() - 1] & mask & ~comp
            comp |= nxt
            frontier |= nxt
        comps.append(comp)
        rest &= ~comp
    return comps


def _degeneracy(mask: int, adj: Sequence[int]) -> int:
    """Largest k such that some subset of the connected mask has minimum
    degree k.

    Peels vertices of degree <= k until none is left or the rest is the
    (k+1)-core, for k = 1, 2, ...; the same value as repeatedly removing a
    minimum-degree vertex and keeping the largest degree met.
    """
    k = 1 if mask & (mask - 1) else 0  # connected: no vertex of degree 0
    while mask.bit_count() > k + 1:  # a (k+1)-core needs k + 2 vertices
        peeled = True
        while peeled:
            peeled = False
            m = mask
            while m:
                vbit = m & -m
                m ^= vbit
                if (adj[vbit.bit_length() - 1] & mask).bit_count() <= k:
                    mask ^= vbit
                    peeled = True
        if not mask:
            return k
        k += 1
    return k


def _td_exact(full: int, adj: Sequence[int], parent: list[Optional[int]]) -> None:
    n = full.bit_count()
    memo: dict[int, tuple[int, int]] = {}  # mask -> (height, chosen root)
    floor: dict[int, int] = {}  # mask -> degeneracy + 1 <= treedepth

    def lower(mask: int) -> int:
        got = memo.get(mask)
        if got is not None:
            return got[0]
        if mask not in floor:
            floor[mask] = _degeneracy(mask, adj) + 1
        return floor[mask]

    def best(mask: int) -> tuple[int, int]:
        """Minimum height of mask and the lowest-index root that reaches it.

        Branch and bound: a root is skipped, and its components left unsolved,
        once it cannot beat the best height strictly, so every entry is exact.
        """
        got = memo.get(mask)
        if got is not None:
            return got
        if mask & (mask - 1) == 0:
            memo[mask] = (1, mask.bit_length() - 1)
            return memo[mask]
        bound = lower(mask)
        best_h = n + 1
        best_v = -1
        m = mask
        while m:
            vbit = m & -m
            m &= m - 1
            comps = _mask_components(mask & ~vbit, adj)
            # lower(c) <= |c|, so only a large enough component can rule v out
            if any(c.bit_count() >= best_h - 1 and lower(c) >= best_h - 1 for c in comps):
                continue
            h = 1
            for c in comps:
                h = max(h, 1 + best(c)[0])
                if h >= best_h:
                    break
            if h < best_h:  # ties keep the lowest vertex index
                best_h, best_v = h, vbit.bit_length() - 1
                if best_h == bound:
                    break
        memo[mask] = (best_h, best_v)
        return memo[mask]

    def build(mask: int, above: Optional[int]) -> None:
        _, v = best(mask)
        parent[v] = above
        for comp in _mask_components(mask & ~(1 << v), adj):
            build(comp, v)

    best(full)
    build(full, None)


def _td_heuristic(mask: int, adj: Sequence[int], parent: list[Optional[int]],
                  above: Optional[int]) -> None:
    """Decompose the connected mask below above.

    Peels separator vertices while mask stays connected, each time the one
    whose removal leaves the smallest largest component, breaking ties by
    least degree in mask and then lowest index; stacks them as a path and
    recurses on the components left.
    """
    if mask & (mask - 1) == 0:
        parent[mask.bit_length() - 1] = above
        return
    comps = [mask]
    while len(comps) == 1 and mask & (mask - 1):
        best_key = None
        m = mask
        while m:
            vbit = m & -m
            m ^= vbit
            rest = _mask_components(mask ^ vbit, adj)
            v = vbit.bit_length() - 1
            key = (max(c.bit_count() for c in rest), (adj[v] & mask).bit_count(), v)
            if best_key is None or key < best_key:
                best_key, comps = key, rest
        v = best_key[2]
        parent[v] = above
        above = v
        mask ^= 1 << v
    for comp in comps:
        _td_heuristic(comp, adj, parent, above)


def decomposition_for_matrix(a: Matrix, side: str = "primal", mode: str = "auto",
                             exact_cap: int = EXACT_TD_CAP) -> TdDecomposition:
    """Decomposition of a matrix graph, handling disconnected graphs.

    Builds the adjacency bitmasks of the primal or dual graph straight from
    the row or column supports, splits them into components, and searches
    each component in place on those masks, writing one parent array.  mode
    "auto" uses exact search per component when it fits under exact_cap and
    the heuristic otherwise.  An unknown side raises ValueError.
    """
    adj = _matrix_adjacency(a, side)
    parent: list[Optional[int]] = [None] * len(adj)
    for comp in _mask_components((1 << len(adj)) - 1, adj):
        if mode == "auto":
            comp_mode = "exact" if comp.bit_count() <= exact_cap else "heuristic"
        else:
            comp_mode = mode
        _decompose(comp, adj, comp_mode, exact_cap, parent)
    return TdDecomposition(parent)
