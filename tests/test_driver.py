import math
import pickle
from copy import deepcopy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lipcut import driver
from lipcut.core import (
    BoxDomain,
    ConstraintSpec,
    Cut,
    NonFiniteValueError,
    NormKind,
    ObjectiveSpec,
    Problem,
    RelaxedRegion,
    region_membership,
)
from lipcut.driver import (
    CutMode,
    DriverConfig,
    SolveStatus,
    normalized_problem,
    run,
    trace_to_csv,
)
from lipcut.oracle import GlobalOracle, LocalOracle, OracleConfig, OracleStatus, ResourceLimitError
from lipcut.problems import build, get_builtin

from geometry import circle_intersections

SQRT2 = math.sqrt(2.0)


def sin_problem() -> Problem:
    return build(get_builtin("sin-example")).problem


def global_oracle(tol=1e-8):
    return GlobalOracle(OracleConfig(tolerance=tol), NormKind.Two)


@pytest.fixture(scope="module")
def outcome():
    return run(sin_problem(), global_oracle(), DriverConfig(epsilon=1e-4, max_iterations=25))


class TestSinExampleTrace:
    """The 2-D sine problem with epsilon 1e-4 and an exact global oracle.

    Iterations 0 and 1 match the published table.  At iteration 2 the true
    subproblem minimum is the intersection of the two cut circles (value
    ~-3.5e-3), which the published run's solver missed; the exact oracle
    therefore needs one extra cut before accepting the near-origin point.
    Every expected value below is derived analytically in this test.
    """

    def test_status_and_length(self, outcome):
        assert outcome.status is SolveStatus.Solved
        assert len(outcome.trace) == 4

    def test_iteration_0(self, outcome):
        rec = outcome.trace[0]
        assert rec.point.tolist() == [-1.0, -1.0]
        expected_violation = math.sin(1.0) + 1.0
        assert rec.violation_max == pytest.approx(expected_violation, abs=1e-12)
        assert rec.radius == pytest.approx(expected_violation / SQRT2, abs=1e-12)
        assert rec.objective == pytest.approx(-1.0, abs=1e-12)

    def test_iteration_1_diagonal_boundary_point(self, outcome):
        rec0, rec1 = outcome.trace[0], outcome.trace[1]
        expected = np.array([-1.0, -1.0]) + rec0.radius / SQRT2
        assert np.allclose(rec1.point, expected, atol=1e-7)
        v = -math.sin(expected[0]) - expected[1]
        assert rec1.radius == pytest.approx(v / SQRT2, abs=1e-6)

    def test_iteration_2_is_the_circle_intersection(self, outcome):
        rec0, rec1, rec2 = outcome.trace[:3]
        upper, lower = circle_intersections(
            (-1.0, -1.0), rec0.radius, rec1.point, rec1.radius
        )
        candidates = [upper, lower]
        f = lambda p: abs(p[0] - p[1]) + p[0]
        best = min(candidates, key=f)
        assert np.allclose(rec2.point, best, atol=1e-6)
        assert rec2.objective == pytest.approx(f(best), abs=1e-6)

    def test_final_iteration_accepted_near_origin(self, outcome):
        rec = outcome.trace[-1]
        assert rec.radius == 0.0
        assert rec.violation_max <= 1e-4
        assert np.allclose(rec.point, 0.0, atol=1e-2)
        assert outcome.final_point is not None

    def test_lower_bound_is_the_last_value_minus_its_gap(self, outcome):
        # the oracle value exceeds the relaxed minimum by up to its gap, so
        # only value - gap is certified
        last = outcome.trace[-1]
        assert last.oracle_gap > 0
        assert outcome.lower_bound == last.objective - last.oracle_gap
        assert outcome.lower_bound < last.objective

    def test_lower_bounds_nondecreasing(self, outcome):
        seq = [r.objective for r in outcome.trace]
        assert len(seq) == 4
        for a, b in zip(seq, seq[1:]):
            assert b >= a - 2e-8

    def test_no_revisits(self, outcome):
        records = outcome.trace
        for i, earlier in enumerate(records):
            if earlier.radius == 0.0:
                continue
            for later in records[i + 1:]:
                dist = np.linalg.norm(later.point - earlier.point)
                assert dist >= earlier.radius - 1e-12

    def test_feasible_reference_point_survives_all_cuts(self, outcome):
        # (0.5, 0) is feasible for the original problem: every region keeps it
        assert -math.sin(0.5) - 0.0 <= 0
        assert region_membership(outcome.final_region, (0.5, 0.0))


class TestInfeasibleCertification:
    def test_infeasible_1d(self):
        built = build(get_builtin("infeasible-1d"))
        outcome = run(built.problem, global_oracle(), DriverConfig(max_iterations=10))
        assert outcome.status is SolveStatus.InfeasibleCertified
        assert len(outcome.trace) <= 5  # the box packing bound (L/delta)*2 + 1
        points = [rec.point[0] for rec in outcome.trace]
        assert points == pytest.approx([-1.0, 0.0, 0.5], abs=1e-9)
        delta_over_L = 1.0 / 2.0
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                assert abs(points[i] - points[j]) >= delta_over_L - 1e-12

    def test_lower_bound_of_infeasible_run(self):
        built = build(get_builtin("infeasible-1d"))
        outcome = run(built.problem, global_oracle(), DriverConfig(max_iterations=10))
        assert outcome.final_point is None
        last = outcome.trace[-1]
        assert last.objective == pytest.approx(0.5)  # last relaxed minimum
        assert outcome.lower_bound == last.objective - last.oracle_gap


def equality_problem(center: float, scale: float = 1.0) -> Problem:
    """min x1 on [0, 1] subject to scale * |x1 - center| <= 0, with exact
    constants: the one feasible point is x1 = center."""
    return Problem(
        domain=BoxDomain((0.0,), (1.0,)),
        objective=ObjectiveSpec(None, 1.0, batch_evaluator=lambda p: p[:, 0]),
        constraint=ConstraintSpec((), scale, batch_components=(lambda p: scale * np.abs(p[:, 0] - center),)),
        domain_norm=NormKind.Two,
    )


class TestUnresolved:
    """An equality |h(x)| <= 0 has a feasible set that no sample hits.  The
    oracle's last tree ends in boxes too narrow to split that no cut covers,
    so the run claims neither a point nor infeasibility."""

    @pytest.mark.parametrize("center, scale, epsilon", [
        (0.3, 1.0, 0.0), (1.0 / 3.0, 1.0, 0.0), (0.7, 1.0, 0.0), (0.123456789, 1.0, 0.0),
        (0.3, 3.0, 0.0), (0.3, 1.0, 1e-12),
    ])
    def test_a_feasible_equality_is_never_certified_infeasible(self, center, scale, epsilon):
        outcome = run(equality_problem(center, scale), global_oracle(1e-6), DriverConfig(epsilon=epsilon))
        assert outcome.status is SolveStatus.Unresolved
        assert outcome.final_point is None
        # the least lower bound of the live narrow boxes bounds the optimum
        assert center - 1e-6 < outcome.lower_bound <= center
        assert region_membership(outcome.final_region, (center,))

    def test_the_oracle_reports_its_floor(self):
        outcome = run(equality_problem(1.0 / 3.0), global_oracle(1e-6), DriverConfig())
        result = global_oracle(1e-6).solve(equality_problem(1.0 / 3.0).objective, outcome.final_region)
        assert result.status is OracleStatus.Unresolved and result.point is None
        assert result.gap == 0.0 and result.value == outcome.lower_bound


class TestImmediateAcceptance:
    def test_always_feasible_constraint(self):
        problem = Problem(
            domain=BoxDomain((-1.0,), (1.0,)),
            objective=ObjectiveSpec(lambda x: x[0], 1.0, batch_evaluator=lambda p: p[:, 0]),
            constraint=ConstraintSpec(components=(lambda x: -1.0,), global_L=1.0),
            domain_norm=NormKind.Two,
        )
        outcome = run(problem, global_oracle(), DriverConfig())
        assert outcome.status is SolveStatus.Solved
        assert len(outcome.trace) == 1
        assert outcome.trace[0].radius == 0.0
        assert len(outcome.final_region.cuts) == 0

    def test_tiny_float_violation_treated_as_feasible(self):
        problem = Problem(
            domain=BoxDomain((-1.0,), (1.0,)),
            objective=ObjectiveSpec(lambda x: x[0], 1.0, batch_evaluator=lambda p: p[:, 0]),
            constraint=ConstraintSpec(components=(lambda x: 5e-15,), global_L=1.0),
            domain_norm=NormKind.Two,
        )
        outcome = run(problem, global_oracle(), DriverConfig(epsilon=0.0))
        assert outcome.status is SolveStatus.Solved


def two_component_problem(L1=1.0, L2=4.0, masks=None):
    comps = (
        lambda x: 0.5 - x[0],         # violated left of 0.5
        lambda x: x[1] - 0.5,         # violated above 0.5
    )
    return Problem(
        domain=BoxDomain((0.0, 0.0), (1.0, 1.0)),
        objective=ObjectiveSpec(lambda x: x[0] + x[1], SQRT2,
                                batch_evaluator=lambda p: p[:, 0] + p[:, 1]),
        constraint=ConstraintSpec(
            components=comps,
            global_L=math.hypot(L1, L2),
            component_L=(L1, L2),
            active_mask=masks,
            batch_components=(lambda p: 0.5 - p[:, 0], lambda p: p[:, 1] - 0.5),
        ),
        domain_norm=NormKind.Two,
    )


class TestComponentMode:
    def test_single_cut_with_maximal_radius(self):
        problem = two_component_problem(L1=1.0, L2=4.0)
        outcome = run(problem, global_oracle(1e-6),
                      DriverConfig(epsilon=1e-3, max_iterations=3, cut_mode=CutMode.Component))
        rec = outcome.trace[0]
        # at (0,0): violations (0.5, -0.5): only component 0 violated
        assert rec.attaining_component == 0
        assert rec.radius == pytest.approx(0.5 / 1.0, abs=1e-9)
        assert len(outcome.final_region.cuts) >= 1

    def test_component_mask_is_attached_to_the_cut(self):
        masks = (np.array([True, False]), np.array([False, True]))
        problem = two_component_problem(masks=masks)
        outcome = run(problem, global_oracle(1e-6),
                      DriverConfig(epsilon=1e-3, max_iterations=2, cut_mode=CutMode.Component))
        cut = outcome.final_region.cuts[0]
        assert cut.mask.tolist() == [True, False]

    @given(st.integers(1, 6).flatmap(lambda m: st.tuples(
        st.lists(st.sampled_from([-math.inf, -1.0, -0.0, 0.0, 1e-300, 0.5, 1.0, 2.0, 3.0]) | st.floats(-4, 4),
                 min_size=m, max_size=m),
        st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0]) | st.floats(1e-3, 1e3), min_size=m, max_size=m),
    )))
    @example(([0.0, 1.0, 2.0, -math.inf], [1.0, 1.0, 2.0, 1.0]))
    @example(([-0.0, -math.inf, -1.0], [1.0, 2.0, 4.0]))
    def test_the_radius_rule_is_the_old_component_loop(self, case):
        # ties (1 / 1 and 2 / 2), zeros, violations that are all satisfied,
        # and -inf: the radius bits and the first attaining component of the
        # loop that component cuts once ran
        violations, component_L = case
        best_radius, best_component = 0.0, None
        for p, value in enumerate(violations):
            if value <= 0:
                continue
            radius = value / component_L[p]
            if radius > best_radius:
                best_radius, best_component = radius, p
        constraint = ConstraintSpec((lambda x: 0.0,) * len(violations), 1.0, component_L=tuple(component_L))
        config = DriverConfig(cut_mode=CutMode.Component)
        radius, component = driver._cut_geometry(constraint, np.array(violations), np.zeros(1), config)
        assert (radius.hex(), component) == (best_radius.hex(), best_component)

    def test_component_mode_needs_component_L(self):
        problem = two_component_problem()
        constraint = problem.constraint
        stripped = ConstraintSpec(
            components=constraint.components, global_L=constraint.global_L,
            batch_components=constraint.batch_components,
        )
        problem = Problem(problem.domain, problem.objective, stripped, problem.domain_norm)
        with pytest.raises(ValueError):
            run(problem, global_oracle(), DriverConfig(cut_mode=CutMode.Component))

    def test_max_radius_ball_equals_intersection_of_component_balls(self):
        # one cut of radius C_k = max_p r_p/L_p covers the same region as
        # all per-component concentric balls together
        rng = np.random.default_rng(53)
        for _ in range(20):
            center = rng.uniform(-1, 1, size=2)
            violations = rng.uniform(0.0, 1.5, size=3)
            Ls = rng.uniform(0.5, 3.0, size=3)
            radii = violations / Ls
            big = float(radii.max())
            box = BoxDomain((-2.0, -2.0), (2.0, 2.0))
            single = RelaxedRegion(box).with_cut(Cut(center, big, norm=NormKind.Two))
            multi = RelaxedRegion(box)
            for r in radii:
                multi = multi.with_cut(Cut(center, float(r), norm=NormKind.Two))
            pts = rng.uniform(-2, 2, size=(2000, 2))
            assert (single.membership_mask(pts) == multi.membership_mask(pts)).all()

    def test_max_radius_cut_is_weaker_than_component_cylinders_of_different_masks(self):
        # components on x1 alone and on x2 alone, radii 0.3 and 0.2 at x: the
        # single cut is the first component's, so it keeps every point that
        # the two cylinders keep, and also (x1 + 0.5, x2 + 0.1), which the
        # second component's cylinder excludes
        x = np.array([0.1, -0.2])
        box = BoxDomain((-2.0, -2.0), (2.0, 2.0))
        first, second = Cut(x, 0.3, mask=(True, False)), Cut(x, 0.2, mask=(False, True))
        single = RelaxedRegion(box, (first,))
        multi = RelaxedRegion(box, (first, second))
        point = x + np.array([0.5, 0.1])
        assert region_membership(single, point) and not region_membership(multi, point)
        pts = np.random.default_rng(59).uniform(-2, 2, size=(2000, 2))
        assert (single.membership_mask(pts) >= multi.membership_mask(pts)).all()


class TestPointwiseL:
    def base_problem(self, pointwise):
        return Problem(
            domain=BoxDomain((0.0,), (1.0,)),
            objective=ObjectiveSpec(lambda x: x[0], 1.0, batch_evaluator=lambda p: p[:, 0]),
            constraint=ConstraintSpec(
                components=(lambda x: 0.5 - x[0],), global_L=2.0, pointwise_L=pointwise,
                batch_components=(lambda p: 0.5 - p[:, 0],),
            ),
            domain_norm=NormKind.Two,
        )

    def test_pointwise_constant_sharpens_the_radius(self):
        # a constraint that carries pointwise_L is cut with it: no switch
        problem = self.base_problem(lambda x: 1.0)
        outcome = run(problem, global_oracle(1e-8), DriverConfig(epsilon=1e-6, max_iterations=2))
        # violation 0.5 at x=0 over pointwise L=1 (not global 2)
        assert outcome.trace[0].radius == pytest.approx(0.5, abs=1e-9)

    def test_pointwise_above_global_is_rejected(self):
        problem = self.base_problem(lambda x: 3.0)
        with pytest.raises(ValueError, match=r"pointwise_L at \[0\.\] must lie in \(0, global_L = 2\.0\], got 3\.0"):
            run(problem, global_oracle(), DriverConfig(max_iterations=2))

    @pytest.mark.parametrize("value", [math.nan, 0.0, -1.0, math.inf])
    def test_pointwise_outside_its_range_names_the_constant(self, value):
        # the error names the point-dependent constant, not the cut that a
        # NaN radius would reach
        problem = self.base_problem(lambda x: value)
        with pytest.raises(ValueError, match=r"point-dependent Lipschitz constant pointwise_L at \[0\.\] must lie in"):
            run(problem, global_oracle(), DriverConfig(max_iterations=2))

    def test_pointwise_with_component_mode_rejected(self):
        problem = two_component_problem()
        problem = replace(problem, constraint=replace(problem.constraint, pointwise_L=lambda x: 1.0))
        with pytest.raises(ValueError, match="vector cut mode only"):
            run(problem, global_oracle(), DriverConfig(cut_mode=CutMode.Component))


class TestEpsilonFloor:
    def test_floor_applies_in_approximate_mode(self):
        problem = Problem(
            domain=BoxDomain((0.0,), (1.0,)),
            objective=ObjectiveSpec(lambda x: x[0], 1.0, batch_evaluator=lambda p: p[:, 0]),
            constraint=ConstraintSpec(
                components=(lambda x: 0.3 - x[0],), global_L=100.0,
                batch_components=(lambda p: 0.3 - p[:, 0],),
            ),
            domain_norm=NormKind.Two,
        )
        # raw radius 0.3/100 = 0.003 < eps: floored to eps
        outcome = run(problem, global_oracle(1e-8),
                      DriverConfig(epsilon=0.01, max_iterations=5))
        assert outcome.trace[0].radius == pytest.approx(0.01)

    def test_floor_disabled(self):
        problem = Problem(
            domain=BoxDomain((0.0,), (1.0,)),
            objective=ObjectiveSpec(lambda x: x[0], 1.0, batch_evaluator=lambda p: p[:, 0]),
            constraint=ConstraintSpec(
                components=(lambda x: 0.3 - x[0],), global_L=100.0,
                batch_components=(lambda p: 0.3 - p[:, 0],),
            ),
            domain_norm=NormKind.Two,
        )
        outcome = run(problem, global_oracle(1e-8),
                      DriverConfig(epsilon=0.01, epsilon_floor=False, max_iterations=3))
        assert outcome.trace[0].radius == pytest.approx(0.003)

    def test_floor_requires_positive_epsilon(self):
        with pytest.raises(ValueError):
            DriverConfig(epsilon=0.0, epsilon_floor=True)


class TestDriverConfig:
    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -1e-3, True])
    def test_epsilon_must_be_finite_and_nonnegative(self, epsilon):
        with pytest.raises(ValueError, match=f"^epsilon must be finite and nonnegative, got {epsilon!r}$"):
            DriverConfig(epsilon=epsilon)

    @pytest.mark.parametrize("iterations", [2.5, 3.0, True, 0, "5"])
    def test_max_iterations_must_be_a_positive_integer(self, iterations):
        with pytest.raises(ValueError, match=f"^max_iterations must be a positive integer, got {iterations!r}$"):
            DriverConfig(max_iterations=iterations)

    def test_numpy_integers_are_accepted(self):
        assert DriverConfig(max_iterations=np.int64(4)).max_iterations == 4

    @pytest.mark.parametrize("start", [
        np.array(["-0.5"]), ["-0.5"], np.array([math.nan]), [-math.inf], [True], np.array([[-0.5]]), -0.5,
    ])
    def test_initial_start_must_be_a_vector_of_finite_numbers(self, start):
        with pytest.raises(ValueError, match="^initial_start must be a 1-D vector of finite numbers"):
            DriverConfig(initial_start=start)

    def test_initial_start_is_a_read_only_copy(self):
        start = np.array([-1, 0])
        config = DriverConfig(initial_start=start)
        start[0] = 5
        assert config.initial_start.tolist() == [-1.0, 0.0] and config.initial_start.dtype == float
        assert not config.initial_start.flags.writeable

    def test_configs_compare_and_hash_by_identity(self):
        # equal 2-D starts once made == raise, and hash always raised
        config, twin = DriverConfig(initial_start=[0.5, 0.5]), DriverConfig(initial_start=[0.5, 0.5])
        assert config == config and config != twin
        assert config in {config} and len({config, twin}) == 2


class TestSlottedRecords:
    @pytest.fixture(scope="class")
    def outcome(self):
        return run(sin_problem(), global_oracle(), DriverConfig(epsilon=1e-4, max_iterations=3))

    @pytest.mark.parametrize("copy", [lambda o: pickle.loads(pickle.dumps(o)), deepcopy], ids=["pickle", "deepcopy"])
    def test_round_trips(self, outcome, copy):
        twin = copy(outcome)
        assert twin.status is outcome.status and twin.lower_bound == outcome.lower_bound
        assert trace_to_csv(twin.trace, 2) == trace_to_csv(outcome.trace, 2)
        centers = [c.center.tolist() for c in outcome.final_region.cuts]
        assert [c.center.tolist() for c in twin.final_region.cuts] == centers
        record = copy(outcome.trace[0])
        assert trace_to_csv((record,), 2) == trace_to_csv(outcome.trace[:1], 2)

    def test_replace(self, outcome):
        record = replace(outcome.trace[0], k=7)
        assert record.k == 7 and record.point is outcome.trace[0].point
        assert replace(outcome, lower_bound=-1.0).trace is outcome.trace

    def test_no_instance_dict(self, outcome):
        for obj in (outcome, outcome.trace[0], outcome.final_region.cuts[0]):
            assert not hasattr(obj, "__dict__")

    def test_the_final_region_is_stacked_on_first_use(self):
        # the region of the last cut is never tested by the oracle
        outcome = run(sin_problem(), global_oracle(), DriverConfig(epsilon=1e-4, max_iterations=3))
        region = outcome.final_region
        assert outcome.status is SolveStatus.IterationLimit and "_stacked" not in vars(region)
        assert region.stacked_cuts == 3 and "_stacked" in vars(region)


class TestLocalOracleDriver:
    def test_bad_local_recurrence(self):
        built = build(get_builtin("bad-local"))
        outcome = run(built.problem, LocalOracle(),
                      DriverConfig(max_iterations=20, initial_start=np.array([-1.0])))
        assert outcome.status is SolveStatus.IterationLimit
        points = [rec.point[0] for rec in outcome.trace]
        assert len(points) == 20
        assert points[0] == -1.0
        for prev, current in zip(points, points[1:]):
            assert current == pytest.approx(prev - prev**3 / 3.0, abs=1e-5)
            assert current > prev
        assert all(p < 0 for p in points)

    def test_local_lower_bound_is_minus_inf(self):
        # a local solution carries an infinite gap: it certifies nothing
        built = build(get_builtin("bad-local"))
        outcome = run(built.problem, LocalOracle(), DriverConfig(max_iterations=3))
        assert outcome.trace[-1].oracle_gap == math.inf
        assert outcome.lower_bound == -math.inf

    def test_bad_local_global_oracle_finds_the_optimum(self):
        built = build(get_builtin("bad-local"))
        outcome = run(built.problem, global_oracle(), DriverConfig(max_iterations=20))
        assert outcome.status is SolveStatus.Solved
        assert len(outcome.trace) <= 2
        assert outcome.final_point[0] == pytest.approx(1.0, abs=1e-6)


class TestNormalization:
    def test_geometry_is_scale_invariant(self):
        problem = sin_problem()
        scaled = normalized_problem(problem)
        cfg = DriverConfig(epsilon=1e-4, max_iterations=25)
        a = run(problem, global_oracle(), cfg)
        # the scaled problem interprets epsilon differently; compare with
        # the equivalent scaled acceptance threshold
        rho_L = math.sqrt(2.0) * problem.constraint.global_L
        b = run(scaled, global_oracle(), DriverConfig(epsilon=1e-4 / rho_L, max_iterations=25))
        assert len(a.trace) == len(b.trace)
        for ra, rb in zip(a.trace, b.trace):
            assert np.allclose(ra.point, rb.point, atol=1e-9)
            assert ra.radius == pytest.approx(rb.radius, abs=1e-12)


class TestResourceError:
    def test_partial_trace_attached(self):
        built = build(get_builtin("sin-example"))
        oracle = GlobalOracle(OracleConfig(tolerance=1e-8, node_limit=200), NormKind.Two)
        with pytest.raises(ResourceLimitError) as info:
            run(built.problem, oracle, DriverConfig(epsilon=1e-4, max_iterations=25))
        assert isinstance(info.value.trace, tuple)
        assert info.value.nodes > 200
        # the trace holds the iterations completed before the call that ran out
        assert [rec.k for rec in info.value.trace] == list(range(len(info.value.trace)))

    def test_an_oracle_called_directly_attaches_no_trace(self):
        built = build(get_builtin("sin-example"))
        oracle = GlobalOracle(OracleConfig(tolerance=1e-8, node_limit=1), NormKind.Two)
        with pytest.raises(ResourceLimitError) as info:
            oracle.solve(built.problem.objective, RelaxedRegion(built.problem.domain))
        assert info.value.trace is None


def unit_peak(a: np.ndarray, w: float) -> Problem:
    """f(x) = -max(0, 1 - ||x - a||_1 / w) on [-1, 1]^2: L_f = 1/w holds in
    the 1-norm, and the minimum is -1, at x = a.  The constraint holds
    everywhere, so a run solves at its first iterate."""
    return Problem(
        domain=BoxDomain((-1.0, -1.0), (1.0, 1.0)),
        objective=ObjectiveSpec(
            None, 1.0 / w, batch_evaluator=lambda p: -np.maximum(0.0, 1.0 - np.abs(p - a).sum(axis=1) / w),
        ),
        constraint=ConstraintSpec((), 1.0, batch_components=(lambda p: p[:, 0] - 2.0,)),
        domain_norm=NormKind.One,
    )


_PEAK_DRAWS = np.random.default_rng(2024)
# 200 seeded peaks (a, w)
PEAK_CASES = [(_PEAK_DRAWS.uniform(-1.0, 1.0, 2), float(_PEAK_DRAWS.uniform(0.05, 1.0))) for _ in range(200)]


class TestDomainNorm:
    def test_the_problem_norm_certifies_the_true_minimum(self):
        for a, w in PEAK_CASES:
            outcome = run(unit_peak(a, w), GlobalOracle(OracleConfig(), NormKind.One))
            assert outcome.status is SolveStatus.Solved
            assert outcome.lower_bound <= -1.0 <= outcome.trace[-1].objective

    @pytest.mark.parametrize("norm", [NormKind.Two, NormKind.Inf])
    def test_another_norm_would_certify_too_high_a_bound(self, norm):
        # why run() refuses it: called directly, the oracle bounds with a
        # constant that does not hold in its norm
        above = 0
        for a, w in PEAK_CASES:
            problem = unit_peak(a, w)
            result = GlobalOracle(OracleConfig(), norm).solve(problem.objective, RelaxedRegion(problem.domain))
            above += result.value - result.gap > -1.0
        assert above > len(PEAK_CASES) // 2

    @pytest.mark.parametrize("norm", [NormKind.Two, NormKind.Inf])
    def test_run_refuses_a_global_oracle_in_another_norm(self, norm):
        a, w = PEAK_CASES[0]
        message = f"global oracle bounds in the {norm.value}-norm, but the problem's domain norm is the 1-norm"
        with pytest.raises(ValueError, match=message):
            run(unit_peak(a, w), GlobalOracle(OracleConfig(), norm))


    def test_run_refuses_a_proxy_that_forwards_another_norm(self):
        # a proxy that forwards attributes states its inner oracle's norm;
        # run unchecked, this one bounds the peak at -0.99999976 > -1
        class Forwarding:
            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, name):
                return getattr(self.inner, name)

        problem = unit_peak(np.array([0.3, -0.2]), 0.1)
        proxy = Forwarding(GlobalOracle(OracleConfig(), NormKind.Inf))
        assert proxy.domain_norm is NormKind.Inf
        with pytest.raises(ValueError, match="bounds in the inf-norm, but the problem's domain norm is the 1-norm"):
            run(problem, proxy)
        assert run(problem, Forwarding(GlobalOracle(OracleConfig(), NormKind.One))).lower_bound <= -1.0


class TestNonFiniteConstraint:
    def test_nan_violation_raises_before_a_second_solve(self):
        problem = Problem(
            domain=BoxDomain((-1.0,), (1.0,)),
            objective=ObjectiveSpec(lambda x: x[0], 1.0, batch_evaluator=lambda p: p[:, 0]),
            constraint=ConstraintSpec(components=(lambda x: math.nan,), global_L=1.0),
            domain_norm=NormKind.Two,
        )
        oracle = GlobalOracle(OracleConfig(tolerance=1e-6, node_limit=20_000), NormKind.Two)
        calls = []

        class Counting:
            def solve(self, objective, region, start=None):
                calls.append(len(region.cuts))
                return oracle.solve(objective, region, start)

        with pytest.raises(ValueError, match="finite"):
            run(problem, Counting(), DriverConfig(cut_mode=CutMode.Vector))
        assert calls == [0]

    @pytest.mark.parametrize("active_mask", [None, ((True,),)], ids=["no-mask", "mask"])
    def test_nan_component_raises_in_component_mode(self, active_mask):
        # a NaN component used to lose the radius comparison: without masks
        # the driver added a zero-radius cut at the same point every
        # iteration, with masks it raised TypeError from active_mask[None]
        problem = Problem(
            domain=BoxDomain((-1.0,), (1.0,)),
            objective=ObjectiveSpec(lambda x: x[0], 1.0, batch_evaluator=lambda p: p[:, 0]),
            constraint=ConstraintSpec(
                components=(lambda x: math.nan,), global_L=1.0, component_L=(1.0,), active_mask=active_mask,
            ),
            domain_norm=NormKind.Two,
        )
        with pytest.raises(ValueError, match="finite"):
            run(problem, global_oracle(1e-6), DriverConfig(cut_mode=CutMode.Component, max_iterations=5))

    def test_typed_error_names_the_point_and_values(self):
        problem = Problem(
            domain=BoxDomain((-1.0,), (1.0,)),
            objective=ObjectiveSpec(lambda x: x[0], 1.0, batch_evaluator=lambda p: p[:, 0]),
            constraint=ConstraintSpec(components=(lambda x: 1.0, lambda x: math.inf), global_L=1.0),
            domain_norm=NormKind.Two,
        )
        with pytest.raises(NonFiniteValueError, match=r"^constraint values at \[-1\.\] must be finite") as info:
            run(problem, global_oracle(1e-6), DriverConfig())
        assert info.value.point.tolist() == [-1.0]
        assert info.value.value.tolist() == [1.0, math.inf]

    @pytest.mark.parametrize("mode", [CutMode.Vector, CutMode.Component])
    def test_minus_infinity_raises(self, mode):
        # -inf is no value of a Lipschitz function either: it stops the solve
        # as a problem file's log(x1) at x1 = 0 does, in both cut modes
        problem = Problem(
            domain=BoxDomain((-1.0,), (1.0,)),
            objective=ObjectiveSpec(lambda x: x[0], 1.0, batch_evaluator=lambda p: p[:, 0]),
            constraint=ConstraintSpec(components=(lambda x: -math.inf,), global_L=1.0, component_L=(1.0,)),
            domain_norm=NormKind.Two,
        )
        with pytest.raises(NonFiniteValueError, match="must be finite") as info:
            run(problem, global_oracle(1e-6), DriverConfig(cut_mode=mode, max_iterations=5))
        assert info.value.point.tolist() == [-1.0] and info.value.value.tolist() == [-math.inf]


class TestConstraintEvaluation:
    def test_batch_components_must_match_components(self):
        with pytest.raises(ValueError, match="batch_components"):
            ConstraintSpec(components=(lambda x: x[0],), global_L=1.0,
                           batch_components=(lambda p: p[:, 0], lambda p: -p[:, 0]))

    def test_driver_reads_the_batch_components(self):
        problem = Problem(
            domain=BoxDomain((-1.0,), (1.0,)),
            objective=ObjectiveSpec(lambda x: x[0], 1.0, batch_evaluator=lambda p: p[:, 0]),
            constraint=ConstraintSpec(components=(lambda x: pytest.fail("one-point component called"),),
                                      global_L=1.0, batch_components=(lambda p: 0.5 - p[:, 0],)),
            domain_norm=NormKind.Two,
        )
        outcome = run(problem, global_oracle(1e-8), DriverConfig(max_iterations=5))
        assert outcome.status is SolveStatus.Solved
        assert outcome.trace[0].violation_max == 1.5


class TestTraceCsv:
    def test_format_and_determinism(self):
        built = build(get_builtin("sin-example"))
        cfg = DriverConfig(epsilon=1e-4, max_iterations=25)
        a = run(built.problem, global_oracle(), cfg)
        b = run(built.problem, global_oracle(), cfg)
        csv_a = trace_to_csv(a.trace, 2)
        csv_b = trace_to_csv(b.trace, 2)
        assert csv_a == csv_b  # bit-for-bit reproducible
        lines = csv_a.splitlines()
        assert lines[0] == "k,x1,x2,f,viol_norm,viol_max,radius,component,oracle_nodes,oracle_gap"
        assert len(lines) == 1 + len(a.trace)
        assert "\r" not in csv_a
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == -1.0
        # 17 significant digits round-trip exactly
        assert float(first[6]) == a.trace[0].radius
        assert first[7] == ""  # vector mode: no attaining component

    def test_local_gap_serializes_as_inf(self):
        built = build(get_builtin("bad-local"))
        outcome = run(built.problem, LocalOracle(),
                      DriverConfig(max_iterations=2, initial_start=np.array([-1.0])))
        text = trace_to_csv(outcome.trace, 1)
        assert "inf" in text.splitlines()[1]
