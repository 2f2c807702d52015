"""Walk through the cutting loop on a 2-D trigonometric problem.

    minimize  |x1 - x2| + x1
    s.t.      -sin(x1) - x2 <= 0,   x in [-1, 1]^2

The constraint is treated as a black box with Lipschitz constant sqrt(2);
each infeasible incumbent gets a Euclidean exclusion ball of radius
(violation / L) and the relaxation is re-solved by a certified
branch-and-bound oracle.
"""

import numpy as np

from lipcut import DriverConfig, GlobalOracle, OracleConfig, run, trace_to_csv
from lipcut.problems import build, get_builtin

built = build(get_builtin("sin-example"))
problem = built.problem
print("domain:", problem.domain.lower, "to", problem.domain.upper)
print("constraint Lipschitz constant L =", problem.constraint.global_L)

oracle = GlobalOracle(OracleConfig(tolerance=1e-8), problem.domain_norm)
outcome = run(problem, oracle, DriverConfig(epsilon=1e-4, max_iterations=25))

print(f"\nstatus: {outcome.status.value}\n")
print(f"{'k':>2}  {'x1':>12}  {'x2':>12}  {'f(x)':>12}  {'violation':>12}  {'radius':>10}")
for rec in outcome.trace:
    print(
        f"{rec.k:>2}  {rec.point[0]:>12.6f}  {rec.point[1]:>12.6f}  "
        f"{rec.objective:>12.6f}  {rec.violation_max:>12.6f}  {rec.radius:>10.6f}"
    )

# Iterations 0 and 1 land on the corner (-1,-1) and on the first ball's
# boundary along the diagonal.  Iteration 2 is worth a close look: the
# second ball pokes out of the first, and the two circles intersect at a
# feasible point whose objective (~ -3.5e-3) beats the diagonal point
# (~ -4e-5), so the exact oracle visits the intersection before the
# near-origin point is accepted.
x2 = outcome.trace[2].point
print("\niterate 2 sits on both circle boundaries:")
for k in (0, 1):
    cut = outcome.final_region.cuts[k]
    print(f"  distance to cut {k} center = {np.linalg.norm(x2 - cut.center):.9f}"
          f"  (radius {cut.radius:.9f})")

print(f"\nfinal point: {outcome.final_point}")
print(f"objective:   {outcome.trace[-1].objective:.9f}")
print(f"lower bound: {outcome.lower_bound:.9f}")

print("\ntrace CSV:\n" + trace_to_csv(outcome.trace, problem.domain.dimension))
