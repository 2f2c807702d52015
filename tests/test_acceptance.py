"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line per clause (run with ``pytest tests/test_acceptance.py -v -s``).

Shared across criteria 5-7: a batch of 50 random trig-polynomial problems
in 1-D/2-D with grid-bounded Lipschitz constants, solved by the cutting
driver with the certified global oracle.
"""

import itertools
import math
import time

import numpy as np
import pytest

from lipcut.bounds import box_packing_bound, complexity_upper, lattice_count
from lipcut.core import BoxDomain, NormKind
from lipcut.driver import CutMode, DriverConfig, SolveStatus, run
from lipcut.expr import evaluate, parse
from lipcut.lipschitz import jacobian_sup_bound
from lipcut.oracle import GlobalOracle, LocalOracle, OracleConfig
from lipcut.problems import build, definition_from_dict, get_builtin
from lipcut.reform import default_big_M, reformulate_1norm, reformulate_infnorm, verify_by_enumeration

from geometry import circle_intersections

OPTIMUM_COMP = 6.763847783176571
SQRT2 = math.sqrt(2.0)


def check(lines, label, ok, detail=""):
    lines.append(ok)
    print(f"  {'PASS' if ok else 'FAIL'}  {label}" + (f"  [{detail}]" if detail else ""))
    return ok


def finish(name, lines):
    ok = all(lines)
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} ({sum(lines)}/{len(lines)} clauses)")
    assert ok, f"criterion {name} failed {len(lines) - sum(lines)} clause(s); see the printed report"


def global_oracle(tol):
    return GlobalOracle(OracleConfig(tolerance=tol), NormKind.Two)


# ---------------------------------------------------------------------------
# criterion 1: 2-D sine example trace reproduction


def test_criterion_01_sin_example_trace():
    """Published-table reproduction of the 2-D sine example (epsilon 1e-4,
    exact global oracle).

    Iterations 0 and 1 and the final acceptance are checked against the
    published figures (1.84, 1.30, (-0.08,-0.08), 0.11).  The published
    table then accepts the diagonal point (t, t), t = c + R1/sqrt(2)
    ~ -4.15e-5, at iteration 2.  That point lies outside both cuts but is
    not the minimum of the third subproblem: the two cut circles, centre
    (-1,-1) with radius R0 = (sin 1 + 1)/sqrt(2) and centre (c, c) with
    radius R1 = (-sin c - c)/sqrt(2), c = -1 + R0/sqrt(2), intersect at
    (-0.1618, -0.0035), where the objective is -3.523e-3.  The iteration-2
    clauses therefore check the exact value -- the iterate is that
    intersection -- and that the published row is a feasible point with a
    strictly higher objective.  All expected values of those clauses come
    from the closed forms above, not from the trace.  How the published
    run came to accept at iteration 2 is not recorded in the available
    paper text (PAPER.md holds the abstract only) and is not guessed at
    here."""
    lines = []
    t0 = time.time()
    built = build(get_builtin("sin-example"))
    outcome = run(built.problem, global_oracle(1e-8), DriverConfig(epsilon=1e-4, max_iterations=25))
    elapsed = time.time() - t0
    trace = outcome.trace

    rec0 = trace[0]
    check(lines, "iteration 0 point exactly (-1,-1)", rec0.point.tolist() == [-1.0, -1.0])
    # 1.84 is the table's 3-significant-digit rounding of 1.84147...;
    # the 1e-3 tolerance is read relative, since |1.84147 - 1.84| > 1e-3
    check(lines, "iteration 0 violation ~ 1.84 (1e-3 relative)",
          abs(rec0.violation_max - 1.84) / 1.84 <= 1e-3, f"violation {rec0.violation_max:.6f}")
    check(lines, "iteration 0 radius within 1e-2 of 1.30",
          abs(rec0.radius - 1.30) <= 1e-2, f"radius {rec0.radius:.6f}")

    rec1 = trace[1]
    check(lines, "iteration 1 point within 0.02 of (-0.08,-0.08)",
          bool(np.all(np.abs(rec1.point - (-0.08)) <= 0.02)), str(rec1.point))
    check(lines, "iteration 1 radius within 0.02 of 0.11",
          abs(rec1.radius - 0.11) <= 0.02, f"radius {rec1.radius:.6f}")

    # closed-form geometry of the first two cuts (independent of the trace)
    f = lambda p: abs(p[0] - p[1]) + p[0]
    R0 = (math.sin(1.0) + 1.0) / SQRT2
    c = -1.0 + R0 / SQRT2
    R1 = (-math.sin(c) - c) / SQRT2
    center0, center1 = np.array([-1.0, -1.0]), np.array([c, c])
    exact2 = min(circle_intersections(center0, R0, center1, R1), key=f)
    violation2 = -math.sin(exact2[0]) - exact2[1]

    rec2 = trace[2]
    check(lines, "iteration 2 is the lower-objective intersection of the two cut circles (1e-6)",
          bool(np.allclose(rec2.point, exact2, atol=1e-6))
          and abs(rec2.violation_max - violation2) <= 1e-6 and violation2 > 1e-4,
          f"{rec2.point} vs {exact2}, objective {f(exact2):.4e}, violation {violation2:.5f} > 1e-4")

    # the published iteration-2 row: the diagonal point on the second
    # circle by construction (the 1e-12 slack absorbs rounding only)
    t = c + R1 / SQRT2
    published2 = np.array([t, t])
    outside_both = (np.linalg.norm(published2 - center0) >= R0 - 1e-12
                    and np.linalg.norm(published2 - center1) >= R1 - 1e-12)
    check(lines, "published iteration-2 row (t,t) near (0,0) is outside both cuts, objective above the intersection's",
          outside_both and bool(np.all(np.abs(published2) <= 1e-2)) and f(published2) > f(exact2),
          f"t {t:.4e}: objective {f(published2):.4e} > {f(exact2):.4e}")

    final = trace[-1]
    check(lines, "run accepts near the origin with violations <= 1e-4 (one iteration later)",
          outcome.status is SolveStatus.Solved and final.violation_max <= 1e-4
          and bool(np.all(np.abs(final.point) <= 1e-2)), f"k={final.k}")
    check(lines, "runtime <= 10 s", elapsed <= 10.0, f"{elapsed:.2f} s")
    finish("1 (sin-example trace)", lines)


# ---------------------------------------------------------------------------
# criterion 2: local-oracle pathology


def test_criterion_02_local_oracle_pathology():
    lines = []
    t0 = time.time()
    built = build(get_builtin("bad-local"))
    local = run(built.problem, LocalOracle(),
                DriverConfig(max_iterations=20, initial_start=np.array([-1.0])))
    xs = [rec.point[0] for rec in local.trace]
    ok_rec = len(xs) == 20 and xs[0] == -1.0
    for prev, cur in zip(xs, xs[1:]):
        ok_rec &= abs(cur - (prev - prev**3 / 3.0)) <= 1e-5 and cur > prev
    check(lines, "20 local iterations follow x(k+1) = x(k) - x(k)^3/3 within 1e-5, increasing",
          ok_rec, f"last x = {xs[-1]:.6f}")
    check(lines, "all local iterates stay below 0", all(x < 0 for x in xs))

    glob = run(built.problem, global_oracle(1e-8), DriverConfig(max_iterations=20))
    check(lines, "global oracle returns x* = 1 (+/- 1e-6) within 2 iterations",
          glob.status is SolveStatus.Solved and len(glob.trace) <= 2
          and abs(glob.final_point[0] - 1.0) <= 1e-6,
          f"{len(glob.trace)} iterations, x = {glob.final_point[0]:.9f}")
    elapsed = time.time() - t0
    check(lines, "runtime <= 5 s", elapsed <= 5.0, f"{elapsed:.2f} s")
    finish("2 (local-oracle pathology)", lines)


# ---------------------------------------------------------------------------
# criterion 3: component vs vector cuts on the literature instance


@pytest.mark.slow
def test_criterion_03_component_vs_vector():
    lines = []
    t0 = time.time()

    def gap(name, mode):
        built = build(get_builtin(name))
        outcome = run(built.problem, global_oracle(1e-6),
                      DriverConfig(epsilon=1e-6, max_iterations=100, cut_mode=mode))
        assert len(outcome.trace) == 100
        return (OPTIMUM_COMP - outcome.lower_bound) / OPTIMUM_COMP

    comp = gap("comp-example", CutMode.Component)
    vect = gap("comp-example", CutMode.Vector)
    check(lines, "component-mode gap <= 2% after 100 iterations", comp <= 0.02, f"{100*comp:.2f}%")
    check(lines, "vector-mode gap >= 10% after 100 iterations", vect >= 0.10, f"{100*vect:.2f}%")

    comp_m = gap("comp-example-manipulated", CutMode.Component)
    vect_m = gap("comp-example-manipulated", CutMode.Vector)
    check(lines, "manipulated variant reverses the ordering (vector < component)",
          vect_m < comp_m, f"vector {100*vect_m:.2f}% vs component {100*comp_m:.2f}%")
    elapsed = time.time() - t0
    check(lines, "runtime <= 10 min", elapsed <= 600.0, f"{elapsed:.1f} s")
    finish("3 (cut-mode comparison)", lines)


# ---------------------------------------------------------------------------
# criterion 4: infeasibility certificate and the packing bound


def test_criterion_04_infeasibility_certificate():
    lines = []
    t0 = time.time()
    built = build(get_builtin("infeasible-1d"))
    outcome = run(built.problem, global_oracle(1e-8), DriverConfig(max_iterations=10))
    check(lines, "status is infeasibility certified",
          outcome.status is SolveStatus.InfeasibleCertified)
    bound = box_packing_bound(built.problem.domain, L=2.0, delta=1.0)
    check(lines, f"certified within the packing bound ({bound:.0f} iterations)",
          len(outcome.trace) <= bound, f"{len(outcome.trace)} cuts")
    pts = [rec.point[0] for rec in outcome.trace]
    sep = min(abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1:])
    check(lines, "pairwise iterate separation >= delta/L - 1e-12",
          sep >= 0.5 - 1e-12, f"min separation {sep:.6f}")
    elapsed = time.time() - t0
    check(lines, "runtime <= 5 s", elapsed <= 5.0, f"{elapsed:.2f} s")
    finish("4 (infeasibility certificate)", lines)


# ---------------------------------------------------------------------------
# criteria 5-7: random problem batch


def _random_definition(rng, dim):
    w1 = rng.uniform(0.5, 3.0)
    a1 = rng.uniform(0.3, 1.2)
    phase = rng.uniform(0, 6.28)
    c = rng.uniform(-0.6, 0.4)
    if dim == 1:
        b = rng.uniform(-1.0, 1.0)
        exprs = [f"{a1:.4f}*sin({w1:.4f}*x1 + {phase:.4f}) + {b:.4f}*x1 + {c:.4f}"]
        objective = f"{rng.uniform(-1, 1):.4f}*x1 + 0.5*sin({rng.uniform(0.5, 2):.4f}*x1)"
    else:
        w2 = rng.uniform(0.5, 3.0)
        d = rng.uniform(0.3, 1.2)
        b = rng.uniform(-1.0, 1.0)
        exprs = [
            f"{a1:.4f}*sin({w1:.4f}*x1 + {phase:.4f}) + {d:.4f}*cos({w2:.4f}*x2) + {b:.4f}*x2 + {c:.4f}"
        ]
        if rng.random() < 0.5:
            exprs.append(f"{rng.uniform(0.3, 1.0):.4f}*x1 - x2 + {rng.uniform(-0.5, 0.5):.4f}")
        objective = (
            f"{rng.uniform(-1, 1):.4f}*x1 + {rng.uniform(-1, 1):.4f}*x2"
            f" + 0.4*cos({rng.uniform(0.5, 2):.4f}*x1)"
        )
    bounds = [[-1.0 - rng.uniform(0, 0.5), 1.0 + rng.uniform(0, 0.5)] for _ in range(dim)]
    return definition_from_dict({
        "dimension": dim,
        "bounds": bounds,
        "norm": "2",
        "image_norm": "2",
        "objective": objective,
        "constraints": [{"expr": e} for e in exprs],
    })


@pytest.fixture(scope="module")
def random_suite():
    # epsilon_floor off: the relaxation-safety guarantee under test is
    # about pure ||r_+||/L radii; floored radii deliberately over-exclude
    # an epsilon-neighborhood of each iterate
    rng = np.random.default_rng(2024)
    instances = []
    for i in range(50):
        dim = 1 if i % 2 == 0 else 2
        definition = _random_definition(rng, dim)
        built = build(definition)  # grid-bounded L (64/dim, safety 1.05)
        outcome = run(built.problem, global_oracle(1e-6),
                      DriverConfig(epsilon=1e-3, epsilon_floor=False, max_iterations=10))
        instances.append((definition, built, outcome))
    return instances


@pytest.mark.slow
def test_criterion_05_no_feasible_point_is_cut(random_suite):
    lines = []
    t0 = time.time()
    rng = np.random.default_rng(77)
    total_feasible = 0
    excluded = 0
    for definition, built, outcome in random_suite:
        box = built.problem.domain
        pts = box.lower + rng.random((10_000, box.dimension)) * box.widths
        values = built.problem.constraint.evaluate_batch(pts)
        feasible = pts[np.all(values <= 0.0, axis=1)]
        total_feasible += len(feasible)
        if len(feasible) == 0:
            continue
        ok = outcome.final_region.membership_mask(feasible)
        excluded += int((~ok).sum())
    check(lines, "zero rejection-sampled feasible points excluded by any cut",
          excluded == 0, f"{excluded} of {total_feasible} feasible samples excluded")
    check(lines, "feasible samples existed for the check", total_feasible > 10_000,
          f"{total_feasible} samples")
    elapsed = time.time() - t0
    check(lines, "runtime <= 5 min (suite generation included)", elapsed <= 300.0, f"{elapsed:.1f} s")
    finish("5 (relaxation safety)", lines)


@pytest.mark.slow
def test_criterion_06_no_iterate_revisits_a_cut(random_suite):
    lines = []
    violations = 0
    pairs = 0
    for _, built, outcome in random_suite:
        records = outcome.trace
        for i, earlier in enumerate(records):
            if earlier.radius <= 0:
                continue
            for later in records[i + 1:]:
                pairs += 1
                dist = np.linalg.norm(later.point - earlier.point)
                if dist < earlier.radius - 1e-12:
                    violations += 1
    check(lines, "no iterate lies strictly inside an earlier cut",
          violations == 0, f"{violations} of {pairs} pairs violate")
    check(lines, "the suite produced cut/iterate pairs to check", pairs > 100, f"{pairs} pairs")
    finish("6 (no revisits)", lines)


@pytest.mark.slow
def test_criterion_07_oracle_matches_brute_force(random_suite):
    lines = []
    t0 = time.time()
    mismatches = []
    infeasible_confirmed = True
    compared = 0
    for index, (definition, built, outcome) in enumerate(random_suite):
        box = built.problem.domain
        if box.dimension == 1:
            axes = [np.linspace(box.lower[0], box.upper[0], 1_000_000)]
        else:
            axes = [np.linspace(lo, hi, 1000) for lo, hi in zip(box.lower, box.upper)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        f_vals = built.problem.objective.evaluate_batch(pts)
        spacing = np.array([ax[1] - ax[0] for ax in axes])
        # near a cut boundary the closest *feasible* grid node can sit a
        # couple of cells away from the true boundary minimizer
        resolution = 2.0 * float(np.linalg.norm(spacing))
        slack = 1e-6 + built.problem.objective.lipschitz_f * resolution + 1e-9

        mask = np.ones(len(pts), dtype=bool)
        ok_instance = True
        for rec in outcome.trace:
            grid_min = f_vals[mask].min() if mask.any() else None
            if grid_min is not None:
                if not (rec.objective <= grid_min + 1e-6 and grid_min <= rec.objective + slack):
                    ok_instance = False
                compared += 1
            if rec.radius > 0:
                d = pts - rec.point
                mask &= np.linalg.norm(d, axis=1) >= rec.radius
        if outcome.status is SolveStatus.InfeasibleCertified and mask.any():
            infeasible_confirmed = False
        if not ok_instance:
            mismatches.append(index)
    check(lines, "every oracle value matches the 1e6-point grid minimum",
          not mismatches, f"{compared} solves compared; mismatches at {mismatches}")
    check(lines, "certified-infeasible verdicts confirmed by the grid", infeasible_confirmed)
    elapsed = time.time() - t0
    check(lines, "runtime acceptable", elapsed <= 300.0, f"{elapsed:.1f} s")
    finish("7 (global-oracle soundness)", lines)


# ---------------------------------------------------------------------------
# criterion 8: big-M reformulation equivalence


def test_criterion_08_reformulation_equivalence():
    """Two-sided agreement requires the sign rows to have slack, i.e.
    M >= 2 max_i |x_i - a_i|; with M fixed to the box diameter that
    condition can fail for skewed draws (always possible in 1-D), in which
    case the encoding may only wrongly reject (never wrongly accept).
    Draws below the sufficiency threshold are therefore checked one-sided,
    all others must agree exactly."""
    lines = []
    t0 = time.time()
    rng = np.random.default_rng(88)
    for norm_name, reformulate, vec_norm in (
        ("1-norm", reformulate_1norm, lambda v: float(np.abs(v).sum())),
        ("inf-norm", reformulate_infnorm, lambda v: float(np.abs(v).max())),
    ):
        for n in (1, 2, 3):
            box = BoxDomain(np.zeros(n), np.ones(n))
            norm_kind = NormKind.One if norm_name == "1-norm" else NormKind.Inf
            big_m = default_big_M(box, norm_kind)
            diameter = big_m
            agree = soundness = skipped = 0
            two_sided_fail = accept_fail = 0
            for _ in range(200):
                a = rng.random(n)
                x = rng.random(n)
                b = float(rng.uniform(1e-6, diameter))
                dist = vec_norm(x - a)
                if abs(dist - b) < 1e-9:
                    skipped += 1
                    continue
                encoded = verify_by_enumeration(reformulate(a, b, big_m), x)
                direct = dist >= b
                if encoded and not direct:
                    accept_fail += 1
                if 2.0 * float(np.abs(x - a).max()) <= big_m - 1e-9:
                    if encoded == direct:
                        agree += 1
                    else:
                        two_sided_fail += 1
                else:
                    soundness += 1
            check(lines, f"{norm_name} n={n}: 100% agreement on sufficient-M draws",
                  two_sided_fail == 0, f"{agree} agreed, {soundness} one-sided, {skipped} boundary")
            check(lines, f"{norm_name} n={n}: no false acceptance on any draw",
                  accept_fail == 0)
    elapsed = time.time() - t0
    check(lines, "runtime <= 30 s", elapsed <= 30.0, f"{elapsed:.1f} s")
    finish("8 (reformulation equivalence)", lines)


# ---------------------------------------------------------------------------
# criterion 9: Lipschitz estimator reproduction


def test_criterion_09_lipschitz_reproduction():
    """Grid Lipschitz estimates against the published figures: 1.4142 for
    the sine constraint, 10 and 42.83 for the squared per-component bounds
    of the two-constraint instance on [1,10]x[0,4].

    For the whole vector (r1, r2) the estimator returns the supremum of
    the induced (2,2) norm of the Jacobian.  That Jacobian depends on x1
    only, so the test computes the exact supremum itself from the
    closed-form Jacobian and an SVD over a fine x1 sweep (~43.45, at
    x1 ~ 1.50) and checks the estimate against it.  The published
    whole-vector figure, 50.83, is no induced norm: it equals the sum of
    the two x1-partials, squared and maximized separately (9 + 41.83),
    which the partials, peaking at different x1, never reach together.
    The test keeps 50.83 and checks both of these relations: it is within
    2% of that sum, and it is at least the true supremum, so the
    comp-example builtin, which uses it, holds a safe over-estimate.  How
    the paper derived 50.83 is not recorded in the available paper text
    (PAPER.md holds the abstract only); the sum is a checked match, not a
    claim about the paper's method."""
    lines = []
    t0 = time.time()
    box_sin = BoxDomain((-1.0, -1.0), (1.0, 1.0))
    est = jacobian_sup_bound([parse("-sin(x1) - x2", 2)], box_sin, NormKind.Two, NormKind.Two,
                             grid_per_dim=256, safety=1.0)
    check(lines, "sin constraint bound in [1.4142, 1.4150]",
          1.4142 <= est.value <= 1.4150, f"{est.value:.6f}")

    box = BoxDomain((1.0, 0.0), (10.0, 4.0))
    r1 = parse("cos(6*x1)/2 - x2 + 1.8", 2)
    r2 = parse("-2*sin(4*x1)/sqrt(x1) + x2 - 2", 2)
    e1 = jacobian_sup_bound([r1], box, NormKind.Two, NormKind.Two, grid_per_dim=256, safety=1.0)
    e2 = jacobian_sup_bound([r2], box, NormKind.Two, NormKind.Two, grid_per_dim=256, safety=1.0)
    ev = jacobian_sup_bound([r1, r2], box, NormKind.Two, NormKind.Two, grid_per_dim=256, safety=1.0)
    check(lines, "first component squared within 2% of 10",
          abs(e1.value**2 - 10.0) / 10.0 <= 0.02, f"{e1.value ** 2:.4f}")
    check(lines, "second component squared within 2% of 42.83",
          abs(e2.value**2 - 42.83) / 42.83 <= 0.02, f"{e2.value ** 2:.4f}")

    # independent reference: closed-form Jacobian rows (dr/dx1, dr/dx2)
    x1 = np.linspace(1.0, 10.0, 200_001)
    d1 = -3.0 * np.sin(6.0 * x1)
    d2 = -8.0 * np.cos(4.0 * x1) / np.sqrt(x1) + np.sin(4.0 * x1) / x1**1.5
    jac = np.empty((x1.size, 2, 2))
    jac[:, 0, 0], jac[:, 0, 1] = d1, -1.0
    jac[:, 1, 0], jac[:, 1, 1] = d2, 1.0
    sup_sq = float(np.max(np.linalg.svd(jac, compute_uv=False)[:, 0] ** 2))
    separate_sq = float(np.max(d1**2) + np.max(d2**2))
    check(lines, "vector bound squared within 2% of the exact operator-norm supremum",
          abs(ev.value**2 - sup_sq) / sup_sq <= 0.02, f"{ev.value ** 2:.4f} vs {sup_sq:.4f}")
    check(lines, "published 50.83 >= the operator-norm supremum (safe over-estimate)",
          50.83 >= sup_sq, f"50.83 vs {sup_sq:.4f}")
    check(lines, "published 50.83 within 2% of the separately maximized squared x1-partials",
          abs(50.83 - separate_sq) / separate_sq <= 0.02,
          f"{np.max(d1**2):.3f} + {np.max(d2**2):.3f} = {separate_sq:.4f}")
    elapsed = time.time() - t0
    check(lines, "runtime acceptable", elapsed <= 60.0, f"{elapsed:.1f} s")
    finish("9 (Lipschitz reproduction)", lines)


# ---------------------------------------------------------------------------
# criterion 10: bound formulas against independent recomputation


def test_criterion_10_bound_formulas():
    lines = []
    # independent oracles: explicit lattice enumeration and the expression
    # interpreter re-evaluating the closed forms
    enumerated = sum(
        1 for _ in itertools.product(range(0, 4), range(0, 3))
    )
    value = lattice_count(BoxDomain((0.0, 0.0), (3.0, 2.0)))
    check(lines, "lattice_count([0,3]x[0,2]) = 12 (vs direct enumeration)",
          value == 12 and enumerated == 12, f"{value} vs {enumerated}")

    formula = evaluate(parse("((1/0.5)*(1 - 0) + 1)", 1), np.zeros(1))
    value = box_packing_bound(BoxDomain((0.0,), (1.0,)), 1.0, 0.5)
    check(lines, "box_packing_bound([0,1],1,0.5) = 3 (vs interpreter)",
          value == pytest.approx(3.0) and formula == pytest.approx(3.0), f"{value} vs {formula}")

    formula = evaluate(parse("((2*1 + 0.1)/0.1)^2", 1), np.zeros(1))
    value = complexity_upper(1.0, 0.1, 2)
    check(lines, "complexity_upper(1,0.1,2) = 441 (vs interpreter)",
          value == pytest.approx(441.0) and formula == pytest.approx(441.0), f"{value} vs {formula}")
    finish("10 (bound formulas)", lines)
