#!/usr/bin/env python3
# End-to-end mixed-integer solving: denominator bound, exact branch and
# bound on the integer columns, and the scale as a witness of the optimum.

from fractions import Fraction

from tdmilp import (Matrix, MilpInstance, PipelineOptions, choose_scale, ilp_solve,
                    integralize, milp_oracle, milp_solve, recover)

# one integer variable y and two continuous ones tied together:
#   y + 2 x1       = 2
#       2 x1 - x2  = 0
inst = MilpInstance(
    a_int=Matrix([[1], [0]]),
    a_frac=Matrix([[2, 0], [2, -1]]),
    b=(2, 0),
    c=(0, 1, 1),
    lower=(0, 0, 0),
    upper=(2, 1, 1),
)

res, report = milp_solve(inst)
print("status:", res.status)
print("x:", [str(v) for v in res.x])
print("objective:", res.objective)
print("\npipeline report:")
for line in report.machine_lines():
    print(" ", line)

# the oracle enumerates the integer box and solves the continuous remainder
# for each assignment; it must agree exactly
check = milp_oracle(inst)
assert check.objective == res.objective
print("\noracle agrees:", check.objective)

# what the scaling stage actually does: lcm(1..M) is divisible by every
# denominator an optimal vertex can use, so the scaled instance, the same
# MILP on the 1/scale grid, has an optimum with integral continuous values
m_bound = report.m_value
scale = choose_scale(m_bound)
print(f"\nM = {m_bound} -> scale lcm(1..M) = {scale}; the report's scale {report.scale} "
      "divides it")
assert scale % report.scale == 0
scaled = integralize(inst, scale)
print("scaled matrix:")
print(scaled.matrix.to_text())

# the scaled instance is a diagonal rescaling, so branch and bound takes the
# same nodes and pivots on it as on the instance itself, and milp_solve only
# checks that its optimum lies on the grid; the second instance branches
branching = MilpInstance(a_int=Matrix([[2, 1]]), a_frac=Matrix([[2]]), b=(3,),
                         c=(-1, -1, 1), lower=(0, 0, 0), upper=(2, 2, 2))
for example in (inst, branching):
    direct, on_grid = ilp_solve(example), ilp_solve(integralize(example, scale))
    print("nodes, pivots:", direct.stats.nodes, direct.stats.pivots, "as given,",
          on_grid.stats.nodes, on_grid.stats.pivots, "scaled")
    assert direct.stats == on_grid.stats
    y = direct.x[:example.z] + tuple(scale * v for v in direct.x[example.z:])
    assert y == on_grid.x and on_grid.objective == scale * direct.objective

# recovery divides the continuous part back down and re-validates everything
z = [int(res.x[0])] + [int(v * scale) for v in res.x[1:]]
assert recover(z, scale, inst) == res.x

# denominators of the solution always divide the scale used
assert all(v.denominator == 1 or scale % v.denominator == 0 for v in res.x)

# forcing the analysis side is occasionally useful; the answers cannot differ
res_dual, rep_dual = milp_solve(inst, PipelineOptions(side="dual"))
print("\nforced dual side:", rep_dual.side, "objective:", res_dual.objective)
assert res_dual.objective == res.objective

# a pure-LP corner case: no integer variables at all
lp_only = MilpInstance(a_int=Matrix([[]], cols=0), a_frac=Matrix([[2]]),
                       b=(1,), c=(1,), lower=(0,), upper=(1,))
res2, rep2 = milp_solve(lp_only)
print("\nsingle continuous variable 2x = 1 -> x =", res2.x[0])
assert res2.x == (Fraction(1, 2),)
