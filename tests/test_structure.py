import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdmilp import structure
from tdmilp.linalg import Matrix
from tdmilp.structure import (CapExceededError, Graph, StructureError,
                              TdDecomposition, check_fit, connected_components,
                              decomposition_for_matrix, dual_graph, primal_graph,
                              restrict_decomposition, td_compute, td_stats,
                              validate_td)
from oracles import (components_by_union_find, fits_by_edge_walk,
                     lowest_root_decomposition, treedepth_by_subset_dp)
from strategies import connected_graphs, forests, graphs, sparse_matrices


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def random_graph(rng, n, p):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < p])


class TestGraphs:
    def test_primal_identity_is_edgeless(self):
        g = primal_graph(Matrix.identity(4))
        assert g.edges == frozenset()

    def test_primal_single_dense_row_is_complete(self):
        g = primal_graph(Matrix([[1, 1, 1, 1]]))
        assert g == complete_graph(4)

    def test_primal_bidiagonal_is_path(self):
        a = Matrix([[2 if i == j else (-1 if j == i + 1 else 0) for j in range(4)]
                    for i in range(4)])
        assert primal_graph(a) == path_graph(4)

    def test_dual_identity_is_edgeless(self):
        assert dual_graph(Matrix.identity(3)).edges == frozenset()

    def test_dual_single_column_is_complete(self):
        g = dual_graph(Matrix([[1], [1], [1]]))
        assert g == complete_graph(3)

    def test_dual_all_ones_row_single_vertex(self):
        g = dual_graph(Matrix([[1, 1, 1, 1, 1]]))
        assert g.vertex_count == 1 and not g.edges
        f = td_compute(g, "exact")
        assert td_stats(f).height == 1

    def test_dual_is_primal_of_transpose(self):
        rng = random.Random(2)
        for _ in range(10):
            a = Matrix([[rng.randint(-1, 1) for _ in range(4)] for _ in range(3)])
            assert dual_graph(a) == primal_graph(a.transpose())

    def test_dump_format(self):
        g = Graph(3, [(2, 1), (0, 2)])
        assert g.to_text() == "0 2\n1 2"

    def test_components(self):
        g = Graph(5, [(0, 1), (3, 4)])
        assert connected_components(g) == [[0, 1], [2], [3, 4]]

    @settings(max_examples=200, deadline=None)
    @given(g=graphs())
    def test_components_match_union_find(self, g):
        assert connected_components(g) == components_by_union_find(g)


class TestTdCompute:
    def test_clique_needs_full_chain(self):
        f = td_compute(complete_graph(4), "exact")
        assert td_stats(f).height == 4
        assert validate_td(complete_graph(4), f)

    def test_star_rooted_at_center(self):
        g = star_graph(5)
        f = td_compute(g, "exact")
        assert td_stats(f).height == 2
        assert f.parent[0] is None  # center is the root

    def test_path7_height3(self):
        f = td_compute(path_graph(7), "exact")
        assert td_stats(f).height == 3  # ceil(log2(8))

    def test_errors(self):
        with pytest.raises(CapExceededError):
            td_compute(path_graph(20), "exact")
        with pytest.raises(StructureError):
            td_compute(Graph(2, []), "exact")  # disconnected

    def test_exact_cap_boundary(self, monkeypatch):
        # td_compute reads EXACT_TD_CAP when it runs
        monkeypatch.setattr(structure, "EXACT_TD_CAP", 4)
        assert td_stats(td_compute(path_graph(4), "exact")).height == 3
        with pytest.raises(CapExceededError, match="limited to 4 vertices, got 5$"):
            td_compute(path_graph(5), "exact")

    def test_auto_mode_is_exact_up_to_the_cap(self):
        # the primal graph is the 4-vertex path, which the exact search
        # roots at vertex 0 and the heuristic at vertex 1
        a = Matrix([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
        exact = decomposition_for_matrix(a, "primal", "exact")
        heuristic = decomposition_for_matrix(a, "primal", "heuristic")
        assert (exact.parent, heuristic.parent) == ((None, 2, 0, 2), (1, None, 1, 2))
        assert decomposition_for_matrix(a, "primal", "auto", 4).parent == exact.parent
        assert decomposition_for_matrix(a, "primal", "auto", 3).parent == heuristic.parent

    def test_exact_matches_subset_dp(self):
        rng = random.Random(9)
        checked = 0
        while checked < 25:
            n = rng.randrange(2, 8)
            g = random_graph(rng, n, 0.45)
            if len(connected_components(g)) != 1:
                continue
            f = td_compute(g, "exact")
            assert validate_td(g, f)
            assert td_stats(f).height == treedepth_by_subset_dp(g)
            checked += 1

    def test_heuristic_valid_and_never_better_than_exact(self):
        rng = random.Random(21)
        checked = 0
        while checked < 25:
            n = rng.randrange(2, 10)
            g = random_graph(rng, n, 0.4)
            if len(connected_components(g)) != 1:
                continue
            fh = td_compute(g, "heuristic")
            fe = td_compute(g, "exact")
            assert validate_td(g, fh)
            assert td_stats(fe).height <= td_stats(fh).height
            checked += 1

    def test_exact_deterministic(self):
        g = random_graph(random.Random(33), 7, 0.5)
        if len(connected_components(g)) != 1:
            g = path_graph(7)
        assert td_compute(g, "exact") == td_compute(g, "exact")


class TestExactTieBreak:
    """Graphs with many minimum-height roots: the exact search must keep the
    lowest-index one at every level, whatever it prunes."""

    @pytest.mark.parametrize("g, parent", [
        # every root of C4 reaches height 3; the path 1-2-3 left is rooted at 2
        (Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), (None, 2, 0, 2)),
        # every root of C5 and of the path 1-2-3-4 left reaches the minimum
        (Graph(5, [(i, (i + 1) % 5) for i in range(5)]), (None, 0, 3, 1, 3)),
        # K4 minus the edge 0-1: roots 2 and 3 tie, 2 wins
        (Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]), (3, 3, None, 2)),
        # one border vertex 6 over three bricks of two, as in an nfold t=2 k=3
        # graph: each brick is rooted at its lower index, not at 6's neighbour
        (Graph(7, [(0, 1), (2, 3), (4, 5), (1, 6), (3, 6), (5, 6)]),
         (6, 0, 6, 2, 6, 4, None)),
    ], ids=["C4", "C5", "K4_minus_edge", "nfold_tree"])
    def test_pinned_parent_arrays(self, g, parent):
        assert td_compute(g, "exact").parent == parent

    @settings(max_examples=200, deadline=None)
    @given(g=connected_graphs())
    def test_matches_lowest_root_oracle(self, g):
        assert td_compute(g, "exact").parent == lowest_root_decomposition(g)


class TestValidate:
    def test_single_path_always_valid(self):
        g = random_graph(random.Random(1), 5, 0.8)
        f = TdDecomposition([None, 0, 1, 2, 3])
        assert validate_td(g, f)

    def test_p3_star_rooted_at_middle(self):
        g = path_graph(3)
        f = TdDecomposition([1, None, 1])  # middle vertex as root
        assert validate_td(g, f)

    def test_k3_flat_star_invalid(self):
        f = TdDecomposition([None, 0, 0])
        assert not validate_td(complete_graph(3), f)

    def test_vertex_count_mismatch(self):
        from tdmilp.linalg import DimensionError
        with pytest.raises(DimensionError):
            validate_td(path_graph(3), TdDecomposition([None, 0]))


class TestTdStats:
    def test_path_of_five(self):
        f = TdDecomposition([None, 0, 1, 2, 3])
        st = td_stats(f)
        assert (st.height, st.topological_height, st.level_heights) == (5, 1, (5,))

    def test_star_three_leaves(self):
        f = TdDecomposition([None, 0, 0, 0])
        st = td_stats(f)
        assert (st.height, st.topological_height, st.level_heights) == (2, 2, (1, 1))

    def test_root_path_then_branch(self):
        # root - a - b - {two leaves}
        f = TdDecomposition([None, 0, 1, 2, 2])
        st = td_stats(f)
        assert (st.height, st.topological_height, st.level_heights) == (4, 2, (3, 1))

    def test_level_heights_sum_along_paths(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randrange(2, 9)
            g = random_graph(rng, n, 0.5)
            if len(connected_components(g)) != 1:
                continue
            f = td_compute(g, "exact")
            st = td_stats(f)
            assert st.topological_height <= st.height
            assert all(k >= 1 for k in st.level_heights)
            # walk each root-leaf path and re-count
            for leaf in range(n):
                if f.children(leaf):
                    continue
                path = [leaf]
                while f.parent[path[-1]] is not None:
                    path.append(f.parent[path[-1]])
                path.reverse()
                nondeg = [v for v in path if len(f.children(v)) != 1]
                ks = []
                prev = 0
                for v in nondeg:
                    idx = path.index(v) + 1
                    ks.append(idx - prev)  # k_1 counts the root, later k_i do not
                    prev = idx
                # segment counts must add up to the path length
                assert sum(ks) == len(path)


class TestRestrict:
    def test_restriction_stays_valid(self):
        rng = random.Random(8)
        for _ in range(20):
            n = rng.randrange(3, 9)
            g = random_graph(rng, n, 0.5)
            if len(connected_components(g)) != 1:
                continue
            f = td_compute(g, "exact")
            keep = sorted(rng.sample(range(n), rng.randrange(1, n)))
            sub = g.induced(keep)
            fr = restrict_decomposition(f, keep)
            assert validate_td(sub, fr)


def test_decomposition_for_matrix_handles_components():
    a = Matrix([[1, 1, 0, 0], [0, 0, 1, 1]])
    f = decomposition_for_matrix(a, "primal", "exact")
    assert len(f.roots) == 2
    assert validate_td(primal_graph(a), f)


@pytest.mark.parametrize("parent, message", [
    ([1, 0], "no root"), ([None, 2, 3, 2], "cycle"), ([None, 2], "out of range"),
], ids=["no_root", "cycle_below_root", "out_of_range"])
def test_bad_parent_arrays_rejected(parent, message):
    with pytest.raises(StructureError, match=message):
        TdDecomposition(parent)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fit_check_agrees_with_edge_walk(data):
    # random forests, about a third of them fitting the matrix
    a = data.draw(sparse_matrices())
    parent = data.draw(forests(a.cols))
    f = TdDecomposition(parent)
    fits = fits_by_edge_walk(a, parent)
    assert validate_td(primal_graph(a), f) == fits
    if fits:
        assert check_fit(a, f) == [sum(1 << j for j in range(a.cols) if a[i, j])
                                   for i in range(a.rows)]
    else:
        with pytest.raises(StructureError, match="does not validate"):
            check_fit(a, f)


def test_decomposition_for_matrix_rejects_an_unknown_side():
    with pytest.raises(ValueError, match="unknown side 'rows'"):
        decomposition_for_matrix(Matrix([[1, 1]]), "rows")


@settings(max_examples=150, deadline=None)
@given(a=sparse_matrices(), side=st.sampled_from(("primal", "dual")),
       mode=st.sampled_from(("exact", "heuristic")))
def test_matrix_decomposition_is_td_compute_per_component(a, side, mode):
    g = primal_graph(a) if side == "primal" else dual_graph(a)
    f = decomposition_for_matrix(a, side, mode)
    for comp in connected_components(g):
        assert restrict_decomposition(f, comp) == td_compute(g.induced(comp), mode)


def _chain_plus_chords(seed, n, p):
    """The path 0-1-...-(n-1) and, with probability p each, the chords i-j, j >= i + 2."""
    rng = random.Random(seed)
    return Graph(n, [(i, i + 1) for i in range(n - 1)]
                 + [(i, j) for i in range(n) for j in range(i + 2, n) if rng.random() < p])


def _grid(r, c):
    return Graph(r * c, [(i * c + j, i * c + j + 1) for i in range(r) for j in range(c - 1)]
                 + [(i * c + j, (i + 1) * c + j) for i in range(r - 1) for j in range(c)])


class TestHeuristicPinned:
    """Parent arrays of the separator heuristic, pinned on graphs past the
    exact cap: its balance, degree and lowest-index tie-breaks must not move."""

    @pytest.mark.parametrize("g, parent", [
        (_chain_plus_chords(1, 17, 0.15),
         (10, 14, 1, 7, 3, 4, None, 16, 5, 8, 2, 0, 9, 14, 12, 11, 6)),
        (_chain_plus_chords(2, 22, 0.1),
         (20, 0, None, 2, 1, 15, 21, 8, 3, 6, 7, 9, 13, 4, 12, 16, 14, 5, 11, 18, 10, 17)),
        (_chain_plus_chords(3, 30, 0.08),
         (23, 28, 21, 11, 13, 6, 1, 0, 9, 19, 24, 12, 17, 10, 4, 16, 3, 8, 7, 18, 26, 15,
          5, 22, 2, 26, 14, 20, None, 28)),
        (_grid(5, 6),
         (None, 0, 1, 2, 3, 11, 11, 6, 7, 8, 16, 4, 18, 12, 21, 14, 9, 23, 19, 26, 19, 28,
          21, 16, 18, 24, 14, 26, 23, 28)),
    ], ids=["chords17", "chords22", "chords30", "grid5x6"])
    def test_graphs(self, g, parent):
        f = td_compute(g, "heuristic")
        assert f.parent == parent
        assert validate_td(g, f)

    def test_matrix_auto_mode_on_both_sides(self):
        # rows are the edges of a 20-vertex graph, then a separate 2x2 block:
        # a 20-column primal and a 32-row dual component, both past the cap
        g = _chain_plus_chords(4, 20, 0.06)
        rows = [[1 if j == u else 2 if j == v else 0 for j in range(22)]
                for u, v in sorted(g.edges)]
        a = Matrix(rows + [[0] * 20 + [1, 2], [0] * 20 + [3, 1]])
        assert decomposition_for_matrix(a, "primal", "auto").parent == (
            2, 0, None, 4, 17, 4, 7, 9, 15, 13, 6, 10, 11, 14, 8, 5, 8, 2, 17, 18, None, 20)
        assert decomposition_for_matrix(a, "dual", "auto").parent == (
            1, None, 30, 4, 5, 2, 3, 6, 23, 19, 9, 22, 8, 10, 13, 14, 15, 20, 27, 11, 24, 12,
            21, 17, 25, 26, 18, 29, 7, 28, 1, 30, None, 32)
