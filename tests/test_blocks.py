import pytest
from hypothesis import given
from hypothesis import strategies as st

from tdmilp.blocks import (Block, graft_path_above, primal_decompose, split_forest,
                           structure_trace)
from tdmilp.families import FamilySpec, generate
from tdmilp.linalg import Matrix
from tdmilp.structure import (StructureError, TdDecomposition,
                              decomposition_for_matrix, primal_graph, td_stats,
                              validate_td)


def tree_parts(n, k, seeds):
    """(part, its tree, its block structure) for every tree of the exact
    decomposition of random_td matrices."""
    for seed in seeds:
        a = generate(FamilySpec("random_td", n=n, k=k, t=3, seed=seed, magnitude=2))
        f = decomposition_for_matrix(a, "primal", "exact")
        for part in split_forest(a, f):
            sub, f_sub = part.diagonal, part.decomposition
            yield sub, f_sub, primal_decompose(sub, f_sub)


def two_brick_border(border_width=1):
    # one border column shared by both rows, one brick column each
    return Matrix([[1, 2, 0], [1, 0, 3]])


class TestPrimalDecompose:
    def test_dense_row_with_path_decomposition(self):
        a = Matrix([[1, 2, 3]])
        f = TdDecomposition([None, 0, 1])
        bs = primal_decompose(a, f)
        assert bs.k1 == 3
        assert len(bs.blocks) == 1
        assert bs.blocks[0].diagonal.cols == 0
        assert (bs.blocks[0].row_ids, bs.blocks[0].col_ids) == ((0,), ())

    def test_two_brick_border(self):
        a = two_brick_border()
        f = decomposition_for_matrix(a, "primal", "exact")
        bs = primal_decompose(a, f)
        assert bs.k1 == 1
        assert len(bs.blocks) == 2
        assert [blk.col_ids for blk in bs.blocks] == [(1,), (2,)]
        assert [blk.row_ids for blk in bs.blocks] == [(0,), (1,)]

    def test_block_diagonal_with_linking_row(self):
        # two bricks made connected by one dummy row touching both
        a = Matrix([[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0]])
        f = TdDecomposition([None, 0, 0, 2])
        bs = primal_decompose(a, f)
        assert bs.k1 == 1
        assert [blk.col_ids for blk in bs.blocks] == [(1,), (2, 3)]
        # the linking row has support {0, 2}, so it travels with brick 2
        assert bs.blocks[1].row_ids == (1, 2)

    def test_round_trip_permutation(self):
        multi = 0
        for sub, _, bs in tree_parts(6, 5, range(15)):
            assert sorted(i for blk in bs.blocks for i in blk.row_ids) == list(range(sub.rows))
            assert sorted(bs.border_cols + tuple(j for blk in bs.blocks for j in blk.col_ids)) \
                == list(range(sub.cols))
            for blk in bs.blocks:
                assert blk.diagonal == sub.submatrix(blk.row_ids, blk.col_ids)
                own = set(bs.border_cols) | set(blk.col_ids)
                assert all(sub[i, j] == 0 for i in blk.row_ids
                           for j in range(sub.cols) if j not in own)
            multi += len(bs.blocks) > 1
        assert multi >= 12  # 44 parts

    def test_blocks_shrink_height_and_ttd(self):
        multi = 0
        for _, f_sub, bs in tree_parts(7, 6, range(10)):
            st = td_stats(f_sub)
            for blk in bs.blocks:
                if blk.diagonal.cols == 0:
                    continue
                sub_stats = td_stats(blk.decomposition)
                assert validate_td(primal_graph(blk.diagonal), blk.decomposition)
                assert sub_stats.topological_height <= st.topological_height - 1
                assert sub_stats.height <= st.height - bs.k1
            multi += len(bs.blocks) > 1
        assert multi >= 7  # 36 parts

    def test_invalid_decomposition_rejected(self):
        a = two_brick_border()
        bad = TdDecomposition([None, None, None])  # three isolated roots
        with pytest.raises(StructureError):
            primal_decompose(a, bad)

    def test_wrong_size_decomposition_is_a_structure_error(self):
        with pytest.raises(StructureError, match="size does not match column count"):
            primal_decompose(two_brick_border(), TdDecomposition([None, 0]))

    def test_deterministic(self):
        a = two_brick_border()
        f = decomposition_for_matrix(a, "primal", "exact")
        assert primal_decompose(a, f) == primal_decompose(a, f)


@st.composite
def tree_blocks(draw, forest=False):
    """A block over one tree of 0 to 7 vertices, or with forest set over a
    forest of any number of trees, each parent before its children, with up
    to 5 rows, each nonzero only on a chain from some vertex up to its root,
    entries in -2..2 (so a row may be zero)."""
    n = draw(st.integers(0, 7))
    parent = [None]
    for v in range(1, n):
        p = draw(st.integers(-1 if forest else 0, v - 1))
        parent.append(p if p >= 0 else None)
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        row = [0] * n
        v = draw(st.integers(0, n - 1)) if n else None
        while v is not None:
            row[v] = draw(st.integers(-2, 2))
            v = parent[v]
        rows.append(row)
    a = Matrix(rows, cols=n)
    return Block(a, TdDecomposition(parent[:n]), tuple(range(a.rows)), tuple(range(n)))


@given(blk=tree_blocks())
def test_structure_splits_every_tree_but_a_path(blk):
    def check(blk):
        f = blk.decomposition
        bs = blk.structure
        if all(len(f.children(v)) <= 1 for v in range(f.vertex_count)):
            assert bs is None  # no columns, or a path
            return
        assert bs == primal_decompose(blk.diagonal, f)
        assert blk.structure is bs
        for child in bs.blocks:
            check(child)

    check(blk)


@given(blk=tree_blocks(forest=True))
def test_split_forest_returns_a_block_per_tree(blk):
    a, f = blk.diagonal, blk.decomposition
    parts = split_forest(a, f)
    assert len(parts) == len(f.roots)
    assert sorted(j for part in parts for j in part.col_ids) == list(range(a.cols))
    rows = []
    for part in parts:
        assert isinstance(part, Block)
        assert part.diagonal == a.submatrix(part.row_ids, part.col_ids)
        tree = part.decomposition
        assert len(tree.roots) == 1
        path = all(len(tree.children(v)) <= 1 for v in range(tree.vertex_count))
        assert (part.structure is None) == path
        rows += part.row_ids
    # every nonzero row lies in exactly one block, and a zero row in none
    assert sorted(rows) == [i for i in range(a.rows) if any(a.row(i))]


def hatted_strips(a, bs):
    """Each block's rows on the border columns, then its own, with the
    border path grafted above the block's tree: the graft that the
    structured inverse performs on a strict block."""
    return [(a.submatrix(blk.row_ids, bs.border_cols + blk.col_ids),
             graft_path_above(blk.decomposition, bs.k1)) for blk in bs.blocks]


class TestHattedBlocks:
    def test_path_only_block(self):
        a = Matrix([[1, 2]])
        f = TdDecomposition([None, 0])
        bs = primal_decompose(a, f)
        strips = hatted_strips(a, bs)
        assert len(strips) == 1
        strip, hat = strips[0]
        assert strip == a.submatrix([0], bs.border_cols)
        assert td_stats(hat).height == bs.k1

    def test_two_brick_strips(self):
        a = two_brick_border()
        f = decomposition_for_matrix(a, "primal", "exact")
        bs = primal_decompose(a, f)
        for (strip, hat), blk in zip(hatted_strips(a, bs), bs.blocks):
            assert strip.cols == bs.k1 + blk.diagonal.cols
            assert strip == a.submatrix(blk.row_ids, bs.border_cols).hstack(blk.diagonal)
            assert validate_td(primal_graph(strip), hat)

    def test_hatted_height_and_ttd(self):
        multi = 0
        for sub, f_sub, bs in tree_parts(7, 6, range(10)):
            st = td_stats(f_sub)
            for strip, hat in hatted_strips(sub, bs):
                hat_stats = td_stats(hat)
                assert validate_td(primal_graph(strip), hat)
                assert hat_stats.topological_height < max(st.topological_height, 2)
                assert hat_stats.height <= st.height
            multi += len(bs.blocks) > 1
        assert multi >= 7  # 36 parts


def test_structure_trace_renders_components():
    a = Matrix([[1, 1, 0, 0], [0, 0, 1, 1]])
    f = decomposition_for_matrix(a, "primal", "exact")
    text = structure_trace(a, f)
    assert "component 0" in text and "component 1" in text


class TestSplitForest:
    def test_parts_follow_the_roots(self):
        # trees {0, 2} and {1, 3}; row 1 is zero and belongs to no part
        a = Matrix([[0, 1, 0, 2], [0, 0, 0, 0], [3, 0, 4, 0], [5, 0, 0, 0]])
        f = TdDecomposition([None, None, 0, 1])
        parts = split_forest(a, f)
        assert [(p.row_ids, p.col_ids) for p in parts] == [((2, 3), (0, 2)), ((0,), (1, 3))]
        assert parts[0].diagonal == Matrix([[3, 4], [5, 0]])
        assert [p.decomposition.parent for p in parts] == [(None, 0), (None, 0)]

    def test_row_spanning_two_trees_rejected(self):
        with pytest.raises(StructureError, match="row spans decomposition trees"):
            split_forest(Matrix([[1, 1]]), TdDecomposition([None, None]))
