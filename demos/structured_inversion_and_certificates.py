#!/usr/bin/env python3
# The structured inversion recursion and the denominator certificates it
# yields: what can be bounded and what explodes.

from itertools import combinations

from tdmilp import (CapExceededError, Matrix, decomposition_for_matrix,
                    frac_bound, fractionality, mat_det, mat_inverse,
                    structured_inverse)

# invert through the block structure instead of plain elimination; the result
# is identical, and the trace is replayable: each peel records t, u and beta,
# and each split writes its blocks' inverses straight into the result
a = Matrix([
    [1, 2, 0],
    [1, 0, 3],
    [2, 0, 0],
])
f = decomposition_for_matrix(a, "primal", "exact")
inv, trace = structured_inverse(a, f)
assert inv == mat_inverse(a)
assert trace.replay() == inv
print("structured inverse:")
print(inv.to_text())

# a certificate bounds fr of the inverse of EVERY invertible column submatrix.
# single-level structures stay closed-form: one dense row over 3 columns with
# entries up to 2 gives the base bound (3*2)^3
row = Matrix([[2, 1, 1]])
cert = frac_bound(row, decomposition_for_matrix(row, "primal", "exact"))
print("\nbase certificate:", cert.bound)

empirical = 1
for cols in combinations(range(3), 1):
    sub = row.submatrix([0], cols)
    if mat_det(sub) != 0:
        empirical = max(empirical, fractionality(mat_inverse(sub)))
print("worst actual fr over submatrices:", empirical)

# at two levels the factorial composition rules blow past any bit cap almost
# immediately; the failure is explicit and carries a log2 estimate
try:
    frac_bound(a, f)
    print("\ntwo-level certificate stayed exact")
except CapExceededError as exc:
    print("\ntwo-level certificate capped, log2 ~", exc.log2_estimate)
