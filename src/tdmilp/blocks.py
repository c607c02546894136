"""Border/diagonal block decomposition of a matrix guided by a decomposition.

The columns mapped to the top path of the decomposition (up to and including
its first non-degenerate vertex) form the border; each subtree hanging below
contributes one diagonal block together with the rows supported inside it.
Border-only rows attach to the first block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .linalg import Matrix
from .structure import (StructureError, TdDecomposition, _supports, check_fit,
                        restrict_decomposition, td_stats)


@dataclass(frozen=True)
class Block:
    """One diagonal block: its rows and columns, diagonal part and local tree."""

    diagonal: Matrix
    decomposition: TdDecomposition
    row_ids: tuple[int, ...]
    col_ids: tuple[int, ...]

    @cached_property
    def structure(self) -> Optional[BlockStructure]:
        """``primal_decompose(diagonal, decomposition)``, built at most once;
        None when the block has no columns or its tree is a path."""
        f = self.decomposition
        if self.diagonal.cols == 0 or len(top_path(f)) == f.vertex_count:
            return None
        return primal_decompose(self.diagonal, f)


@dataclass(frozen=True)
class BlockStructure:
    """Result of decomposing a matrix along its decomposition's top path."""

    k1: int
    border_cols: tuple[int, ...]
    blocks: tuple[Block, ...]


def top_path(f: TdDecomposition) -> list[int]:
    """Root chain down to and including the first non-degenerate vertex."""
    if len(f.roots) != 1:
        raise StructureError("decomposition must be a single tree")
    v = f.roots[0]
    path = [v]
    while len(f.children(v)) == 1:
        v = f.children(v)[0]
        path.append(v)
    return path


def split_forest(a: Matrix, f: TdDecomposition) -> list[Block]:
    """One Block per tree of f over the columns of a, roots in ascending order.

    A part's rows are those with a nonzero in the tree's columns, its diagonal
    is a on them and its decomposition is the tree relabelled onto them.
    Zero rows belong to no part; a row touching two trees raises
    StructureError.
    """
    cols_of = [f.subtree(r) for r in f.roots]
    masks = [sum(1 << j for j in cols) for cols in cols_of]
    rows_of: list[list[int]] = [[] for _ in cols_of]
    for i, support in enumerate(_supports(map(a.row, range(a.rows)))):
        trees = [t for t, mask in enumerate(masks) if support & mask]
        if len(trees) > 1:
            raise StructureError("row spans decomposition trees")
        if trees:
            rows_of[trees[0]].append(i)
    return [Block(a.submatrix(rows, cols), restrict_decomposition(f, cols),
                  tuple(rows), tuple(cols)) for rows, cols in zip(rows_of, cols_of)]


def primal_decompose(a: Matrix, f: TdDecomposition) -> BlockStructure:
    """Split a into border columns and diagonal blocks along f's top path.

    f must be a single tree that fits a (``check_fit``), else StructureError
    is raised.  Deterministic: blocks follow the ascending-index order of
    the first non-degenerate vertex's children, rows keep ascending order.
    """
    if a.cols == 0:
        raise StructureError("cannot decompose a matrix with no columns")
    supports = check_fit(a, f)
    path = top_path(f)
    k1 = len(path)
    # a path has no subtree below it: all of it is border, one empty block
    subtrees = [f.subtree(c) for c in f.children(path[-1])] or [[]]
    masks = [sum(1 << j for j in cols) for cols in subtrees]
    block_rows: list[list[int]] = [[] for _ in subtrees]
    for i, support in enumerate(supports):
        # a chain leaves the border in at most one subtree; border-only rows
        # attach to the first block
        bi = next((bi for bi, mask in enumerate(masks) if support & mask), 0)
        block_rows[bi].append(i)

    blocks = []
    for bi, cols in enumerate(subtrees):
        rows = tuple(block_rows[bi])
        blocks.append(Block(diagonal=a.submatrix(rows, cols),
                            decomposition=restrict_decomposition(f, cols),
                            row_ids=rows, col_ids=tuple(cols)))
    return BlockStructure(k1=k1, border_cols=tuple(path), blocks=tuple(blocks))


def graft_path_above(f: TdDecomposition, path_len: int) -> TdDecomposition:
    """New decomposition: a fresh path of path_len vertices above f's root(s).

    The fresh path occupies indices 0..path_len-1, f's vertices shift up by
    path_len.  Decomposes a border+block strip, whose columns are ordered
    border first.
    """
    parent: list[Optional[int]] = []
    for i in range(path_len):
        parent.append(i - 1 if i > 0 else None)
    top = path_len - 1 if path_len > 0 else None
    for v in range(f.vertex_count):
        p = f.parent[v]
        parent.append(p + path_len if p is not None else top)
    return TdDecomposition(parent)


def structure_trace(a: Matrix, f: TdDecomposition) -> str:
    """Indented tree rendering of the recursive block structure."""
    lines: list[str] = []
    _trace_forest(a, f, "", lines)
    return "\n".join(lines)


def _trace_forest(a: Matrix, f: TdDecomposition, indent: str, lines: list[str]) -> None:
    if len(f.roots) > 1:
        for t, part in enumerate(split_forest(a, f)):
            lines.append(f"{indent}component {t}: cols={list(part.col_ids)}")
            _trace_tree(part.diagonal, part.decomposition, indent + "  ", lines)
        return
    _trace_tree(a, f, indent, lines)


def _trace_tree(a: Matrix, f: TdDecomposition, indent: str, lines: list[str]) -> None:
    if a.cols == 0:
        lines.append(f"{indent}(no columns)")
        return
    stats = td_stats(f)
    bs = primal_decompose(a, f)
    lines.append(f"{indent}node: k1={bs.k1} border_cols={list(bs.border_cols)} "
                 f"d={len(bs.blocks)} height={stats.height} ttd={stats.topological_height}")
    for bi, blk in enumerate(bs.blocks):
        lines.append(f"{indent}  block {bi}: rows={list(blk.row_ids)} cols={list(blk.col_ids)} "
                     f"size={blk.diagonal.rows}x{blk.diagonal.cols}")
        if blk.diagonal.cols > 0:
            _trace_tree(blk.diagonal, blk.decomposition, indent + "    ", lines)
