#!/usr/bin/env python3
# Interaction graphs of a matrix, treedepth decompositions, and the
# border/diagonal block structure they induce.

from tdmilp import (Matrix, dual_graph, primal_decompose, primal_graph,
                    structure_trace, td_compute, td_stats, validate_td)

# columns 1 and 2 only meet through the shared border column 0
a = Matrix([
    [1, 2, 0],
    [1, 0, 3],
])
gp = primal_graph(a)
print("primal graph edges:")
print(gp.to_text())
print("dual graph edges:")
print(dual_graph(a).to_text() or "(none)")

# exact treedepth by exhaustive root search (fine up to ~16 vertices)
f = td_compute(gp, "exact")
stats = td_stats(f)
print("\ndecomposition parents:", f.parent)
print("height:", stats.height, " topological height:", stats.topological_height,
      " level heights:", stats.level_heights)
assert validate_td(gp, f)

# the decomposition's top path = border columns; subtrees = diagonal blocks
bs = primal_decompose(a, f)
print("\nborder columns:", bs.border_cols)
for i, blk in enumerate(bs.blocks):
    print(f"block {i}: rows {blk.row_ids}, columns {blk.col_ids}")

# the whole recursive structure in one picture
print("\ntrace:")
print(structure_trace(a, f))

# heuristic mode for graphs too big for the exact search.  Two columns of the
# band share a row when they are at most 2 apart, so its primal graph is the
# square of a 30-vertex path: no single vertex disconnects it, and the
# heuristic, which splits only at one vertex, peels it as one path of height
# 30.  Two adjacent vertices would split it (ROADMAP item 21).
big = Matrix([[1 if abs(i - j) <= 1 else 0 for j in range(30)] for i in range(30)])
gh = primal_graph(big)
fh = td_compute(gh, "heuristic")
print("\n30-vertex band matrix, heuristic height:", td_stats(fh).height)
