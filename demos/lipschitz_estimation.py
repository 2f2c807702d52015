"""Estimating global Lipschitz constants.

Two estimators with opposite failure directions:

* the Jacobian grid bound evaluates the induced operator norm of the
  finite-difference Jacobian on a lattice and multiplies by a safety
  factor -- an upper bound up to inter-grid variation, safe to drive the
  cutting loop;
* slope sampling maximizes difference quotients over random point pairs
  and inflates the maximum -- it approaches the true constant from below,
  so the solver refuses it unless explicitly allowed.
"""

import math

from lipcut import BoxDomain, NormKind, jacobian_sup_bound, slope_sampling_estimate
from lipcut.expr import batch_evaluator, parse

# --- the sine constraint: true constant sqrt(2) ---------------------------
box = BoxDomain((-1.0, -1.0), (1.0, 1.0))
r = parse("-sin(x1) - x2", 2)
for grid in (8, 32, 256):
    est = jacobian_sup_bound([r], box, NormKind.Two, NormKind.Two, grid_per_dim=grid, safety=1.0)
    print(f"grid {grid:>3}/dim: L = {est.value:.8f}   (true sqrt(2) = {math.sqrt(2):.8f})")

est = slope_sampling_estimate(
    batch_evaluator(r), box, NormKind.Two, NormKind.Two,
    pairs=100_000, inflation=0.0, seed=0,
)
print(f"slope sampling (1e5 pairs, no inflation): L = {est.value:.8f}  <- estimates from below")

# --- per-component versus whole-vector constants ---------------------------
# For the two-constraint instance the published squared values are
# L1^2 = 10 and L2^2 ~ 42.83; the whole-vector (2,2) operator-norm
# supremum is ~43.45 because the two x1-partials peak at different points.
box2 = BoxDomain((1.0, 0.0), (10.0, 4.0))
r1 = parse("cos(6*x1)/2 - x2 + 1.8", 2)
r2 = parse("-2*sin(4*x1)/sqrt(x1) + x2 - 2", 2)
for label, exprs in (("r1", [r1]), ("r2", [r2]), ("vector (r1, r2)", [r1, r2])):
    est = jacobian_sup_bound(exprs, box2, NormKind.Two, NormKind.Two, grid_per_dim=256, safety=1.0)
    print(f"{label:>15}: L = {est.value:.6f}   L^2 = {est.value ** 2:.4f}")

# --- the safety factor doubles when abs() is present ------------------------
objective = parse("abs(x1 - x2) + x1", 2)
est = jacobian_sup_bound([objective], box, NormKind.Two, NormKind.Two, grid_per_dim=64, safety=1.05)
print(f"\nobjective with abs(): L = {est.value:.6f} "
      f"(safety factor {est.safety_factor}, kinks make finite differences unreliable)")
