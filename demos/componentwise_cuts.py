"""Vector-valued versus component-wise cuts.

A two-constraint instance from the mixed-integer nonlinear literature:

    minimize  x1 + 4 x2
    s.t.      cos(6 x1)/2 - x2 + 1.8            <= 0
              -2 sin(4 x1)/sqrt(x1) + x2 - 2    <= 0
              x1 in [1, 10], x2 in [0, 4]

Vector mode measures the joint violation against the whole-vector
Lipschitz constant (L^2 ~ 50.8); component mode uses the per-component
constants (L1^2 = 10, L2^2 ~ 42.8) and adds one cut with the maximal
per-component radius.  When only one constraint is violated, the smaller
component constant yields a larger exclusion ball, so component mode
closes the gap to the optimum (~6.7638) much faster.  Manipulating the
instance so both components are identical (with deliberately slack
component constants) reverses the effect.

Full 100-iteration runs take about a second each (0.8-0.9 s on a 2-core
x86-64 host); set ITERATIONS=100 to reproduce the published gap ordering
(0.55% component vs 18.55% vector).
"""

import os

from lipcut import CutMode, DriverConfig, GlobalOracle, OracleConfig, run
from lipcut.problems import build, get_builtin

OPTIMUM = 6.763847783176571
ITERATIONS = int(os.environ.get("ITERATIONS", "30"))

for name in ("comp-example", "comp-example-manipulated"):
    print(f"== {name} ({ITERATIONS} iterations) ==")
    for mode in (CutMode.Vector, CutMode.Component):
        built = build(get_builtin(name))
        oracle = GlobalOracle(OracleConfig(tolerance=1e-6), built.problem.domain_norm)
        outcome = run(built.problem, oracle,
                      DriverConfig(epsilon=1e-6, max_iterations=ITERATIONS, cut_mode=mode))
        gap = (OPTIMUM - outcome.lower_bound) / OPTIMUM
        print(f"  {mode.value:>9} cuts: lower bound {outcome.lower_bound:.6f}"
              f"  relative gap {100 * gap:6.2f}%")
    print()
