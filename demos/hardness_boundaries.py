#!/usr/bin/env python3
# Where the tractable territory ends: nonlinear objectives break bounded
# fractionality, and unstructured integer columns preserve NP-hardness.

from fractions import Fraction

from tdmilp import (FamilySpec, Matrix, generate, ilp_solve, milp_oracle,
                    pure_ilp, reduce_ilp_to_milp, verify_family)

# a single sum constraint with a separable squares objective: the optimum is
# the uniform point, so the denominator grows with the dimension even though
# the constraint matrix could not be simpler
for n in (2, 3, 5):
    desc = generate(FamilySpec("lemma5_p1", n=n))
    uniform = tuple(Fraction(1, n) for _ in range(n))
    print(f"n={n}: objective at the uniform point = {desc.objective_value(uniform)}")

# one variable, no constraints: the minimiser of (x - 1/k)^2 is 1/k, so the
# needed denominator is unbounded over the family
desc = generate(FamilySpec("lemma5_p2", k=7))
print("\nsquared distance to 1/7 at 1/7:", desc.objective_value((Fraction(1, 7),)))

# and a bounded convex cubic has an irrational minimiser: no scaling helps
report = verify_family(FamilySpec("lemma5_p3"))
print("\ncubic verification:")
print(report.to_text())

# hardness embedding: any ILP becomes a MILP whose integer part carries no
# constraints at all; the continuous copy is pinned by identity rows, so
# feasibility transfers both ways
ilp = pure_ilp(Matrix([[2]]), (3,), (0,), (0,), (2,))  # 2x = 3: no integer x
print("\noriginal ILP:", ilp_solve(ilp).status)
embedded = reduce_ilp_to_milp(ilp)
print("embedded matrix:")
print(embedded.matrix.to_text())
print("embedded MILP:", milp_oracle(embedded).status)

ilp2 = pure_ilp(Matrix([[1]]), (1,), (0,), (0,), (2,))  # x = 1 works
print("\nfeasible ILP:", ilp_solve(ilp2).status)
print("its embedding:", milp_oracle(reduce_ilp_to_milp(ilp2)).status)
