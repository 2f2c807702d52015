import fractions
import functools
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipcut import oracle
from lipcut.core import (
    BoxDomain,
    Cut,
    NonFiniteValueError,
    NormKind,
    ObjectiveSpec,
    RelaxedRegion,
    norm_eval,
    region_membership,
)
from lipcut.expr import EvaluationError, batch_evaluator, evaluate, parse
from lipcut.oracle import (
    GlobalOracle,
    InfeasibleStartError,
    LocalOracle,
    OracleConfig,
    OracleResult,
    OracleStatus,
    ResourceLimitError,
    _Search,
)

from geometry import index_order_norm, pairwise_norm

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)


def sin_objective() -> ObjectiveSpec:
    return ObjectiveSpec(
        evaluator=lambda x: abs(x[0] - x[1]) + x[0],
        lipschitz_f=SQRT5,
        batch_evaluator=lambda p: np.abs(p[:, 0] - p[:, 1]) + p[:, 0],
    )


def grid_minimum(objective, region, points_per_dim=1000):
    """Brute-force reference: feasibility-filtered dense grid minimum."""
    box = region.domain
    axes = [np.linspace(lo, hi, points_per_dim) for lo, hi in zip(box.lower, box.upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    ok = region.membership_mask(pts)
    if not ok.any():
        return None, None
    vals = objective.evaluate_batch(pts[ok])
    i = int(np.argmin(vals))
    return float(vals[i]), pts[ok][i]


class TestSolveGlobal:
    def test_sin_example_root_relaxation(self):
        # min |x1-x2| + x1 over the square: the corner (-1,-1), value -1
        region = RelaxedRegion(BoxDomain((-1.0, -1.0), (1.0, 1.0)))
        result = GlobalOracle(OracleConfig(tolerance=1e-8)).solve(sin_objective(), region)
        assert result.status is OracleStatus.Solved
        assert result.point.tolist() == [-1.0, -1.0]
        assert result.value == -1.0
        assert result.gap <= 1e-8

    def test_fully_covered_box_is_infeasible(self):
        region = RelaxedRegion(BoxDomain((0.0,), (1.0,)))
        region = region.with_cut(Cut((0.5,), 2.0, norm=NormKind.One))
        result = GlobalOracle().solve(
            ObjectiveSpec(lambda x: x[0], 1.0, batch_evaluator=lambda p: p[:, 0]), region
        )
        assert result.status is OracleStatus.Infeasible

    def test_integral_bound_just_off_the_lattice(self):
        # The lattice hull of [1 + 1e-10, 4] is [2, 4]: 1 lies below the
        # box, so it is never drawn, and the minimum is 2.
        region = RelaxedRegion(BoxDomain((1.0 + 1e-10,), (4.0,), integral=(True,)))
        obj = ObjectiveSpec(lambda x: x[0], 1.0, batch_evaluator=lambda p: p[:, 0])
        result = GlobalOracle(OracleConfig(tolerance=1e-8)).solve(obj, region)
        assert region_membership(region, result.point)
        assert result.point.tolist() == [2.0]

    def test_integral_upper_bound_just_below_an_integer(self):
        # the lattice hull of [0.5, 3 - 1e-10] is [1, 2]: 3 lies above the box
        region = RelaxedRegion(BoxDomain((0.5,), (3.0 - 1e-10,), integral=(True,)))
        obj = ObjectiveSpec(lambda x: -x[0], 1.0, batch_evaluator=lambda p: -p[:, 0])
        result = GlobalOracle(OracleConfig(tolerance=1e-8)).solve(obj, region)
        assert result.point.tolist() == [2.0]

    def test_integral_membership_agrees_with_the_certificate(self):
        # 1 + 1.5e-10 is within INTEGRALITY_TOL of 1, which lies below the
        # box: no point of the box is drawn there, and membership agrees
        region = RelaxedRegion(BoxDomain((1.0 + 1e-10,), (2.0,), integral=(True,)))
        region = region.with_cut(Cut((2.0,), 0.5, norm=NormKind.Two))
        obj = ObjectiveSpec(lambda x: x[0], 1.0, batch_evaluator=lambda p: p[:, 0])
        assert GlobalOracle().solve(obj, region).status is OracleStatus.Infeasible
        assert not region_membership(region, (1.0 + 1.5e-10,))
        assert not region.domain.contains((1.0 + 1.5e-10,))
        # within the tolerance of an integer in the box is still in
        assert region_membership(RelaxedRegion(region.domain), (2.0 - 5e-10,))

    def test_linear_corner_minimum(self):
        region = RelaxedRegion(BoxDomain((1.0, 0.0), (10.0, 4.0)))
        obj = ObjectiveSpec(
            lambda x: x[0] + 4 * x[1], math.sqrt(17.0),
            batch_evaluator=lambda p: p[:, 0] + 4 * p[:, 1],
        )
        result = GlobalOracle(OracleConfig(tolerance=1e-8)).solve(obj, region)
        assert result.point.tolist() == [1.0, 0.0]
        assert result.value == 1.0

    def test_boundary_minimum_on_a_cut(self):
        # min x over [-1,1] minus ball(-1, 1): the ball boundary point 0
        region = RelaxedRegion(BoxDomain((-1.0,), (1.0,)))
        region = region.with_cut(Cut((-1.0,), 1.0, norm=NormKind.Two))
        obj = ObjectiveSpec(lambda x: x[0], 1.0, batch_evaluator=lambda p: p[:, 0])
        result = GlobalOracle(OracleConfig(tolerance=1e-9)).solve(obj, region)
        assert result.value == pytest.approx(0.0, abs=1e-9)
        assert region_membership(region, result.point)

    def test_solved_points_satisfy_membership(self):
        rng = np.random.default_rng(31)
        for trial in range(10):
            box = BoxDomain((-1.0, -1.0), (1.0, 1.0))
            region = RelaxedRegion(box)
            for _ in range(rng.integers(0, 4)):
                center = rng.uniform(-1, 1, size=2)
                region = region.with_cut(Cut(center, float(rng.uniform(0.1, 0.8)),
                                              norm=NormKind.Two))
            a, b = rng.uniform(-2, 2, size=2)
            obj = ObjectiveSpec(
                lambda x, a=a, b=b: a * x[0] + b * math.sin(3 * x[1]),
                lipschitz_f=float(np.hypot(a, 3 * b)) + 0.1,
                batch_evaluator=lambda p, a=a, b=b: a * p[:, 0] + b * np.sin(3 * p[:, 1]),
            )
            result = GlobalOracle(OracleConfig(tolerance=1e-6)).solve(obj, region)
            if result.status is OracleStatus.Solved:
                assert region_membership(region, result.point)
                assert result.gap <= 1e-6

    def test_matches_brute_force(self):
        rng = np.random.default_rng(37)
        for trial in range(8):
            box = BoxDomain((-1.5, -1.0), (1.0, 1.5))
            region = RelaxedRegion(box)
            for _ in range(rng.integers(0, 3)):
                region = region.with_cut(
                    Cut(rng.uniform(-1, 1, size=2), float(rng.uniform(0.2, 0.9)), norm=NormKind.Two)
                )
            c = rng.uniform(-1.5, 1.5, size=2)
            obj = ObjectiveSpec(
                lambda x, c=c: math.cos(2 * x[0]) * c[0] + c[1] * x[1],
                lipschitz_f=2 * abs(c[0]) + abs(c[1]) + 0.1,
                batch_evaluator=lambda p, c=c: np.cos(2 * p[:, 0]) * c[0] + c[1] * p[:, 1],
            )
            tol = 1e-6
            result = GlobalOracle(OracleConfig(tolerance=tol)).solve(obj, region)
            ref_value, _ = grid_minimum(obj, region)
            if result.status is OracleStatus.Infeasible:
                assert ref_value is None
            else:
                res = np.linalg.norm(box.widths / 999 / 2)
                slack = tol + obj.lipschitz_f * res + 1e-9
                assert result.value <= ref_value + tol
                assert ref_value <= result.value + slack

    def test_monotone_restriction(self):
        # appending a cut never lowers the minimum (beyond gap slack)
        rng = np.random.default_rng(39)
        obj = ObjectiveSpec(
            lambda x: math.sin(2 * x[0]) + 0.5 * x[1],
            lipschitz_f=2.2,
            batch_evaluator=lambda p: np.sin(2 * p[:, 0]) + 0.5 * p[:, 1],
        )
        tol = 1e-7
        region = RelaxedRegion(BoxDomain((-1.0, -1.0), (1.0, 1.0)))
        prev = GlobalOracle(OracleConfig(tolerance=tol)).solve(obj, region).value
        for _ in range(5):
            region = region.with_cut(
                Cut(rng.uniform(-1, 1, size=2), float(rng.uniform(0.1, 0.6)), norm=NormKind.Two)
            )
            result = GlobalOracle(OracleConfig(tolerance=tol)).solve(obj, region)
            if result.status is OracleStatus.Infeasible:
                break
            assert result.value >= prev - 2 * tol
            prev = result.value

    def test_node_limit_raises_with_incumbent(self):
        region = RelaxedRegion(BoxDomain((-1.0, -1.0), (1.0, 1.0)))
        with pytest.raises(ResourceLimitError) as info:
            GlobalOracle(OracleConfig(tolerance=1e-12, node_limit=8)).solve(sin_objective(), region)
        assert info.value.nodes > 8 - 2
        assert info.value.point is not None

    def test_an_unsplittable_box_goes_into_the_discard_floor(self):
        # the root [0, 5e-11] is narrower than the 1e-10 split floor: its
        # bound f(c) - L_f * rho = -25 - 50 = -75 stays the certificate, and
        # its corner x = 5e-11 is the incumbent, -50
        obj = ObjectiveSpec(None, 2e12, batch_evaluator=lambda p: -1e12 * p[:, 0])
        result = GlobalOracle().solve(obj, RelaxedRegion(BoxDomain((0.0,), (5e-11,))))
        assert result.status is OracleStatus.Solved
        assert (result.value, result.gap, result.nodes) == (-50.0, 25.0, 1)
        assert result.point.tolist() == [5e-11]

    @pytest.mark.parametrize("norm", [NormKind.Inf, NormKind.One])
    def test_bounds_whose_sum_passes_the_float_range(self, norm):
        # [1e308, 1.7e308] has a finite width but not a finite sum of its
        # bounds, and the cut excludes [9e307, 1.1e308]: min 1e-308 x1
        box = BoxDomain((1e308,), (1.7e308,))
        obj = ObjectiveSpec(None, 1e-308, batch_evaluator=lambda p: p[:, 0] * 1e-308)
        region = RelaxedRegion(box, (Cut([1e308], 1e307, norm=norm),))
        result = GlobalOracle(OracleConfig(), norm).solve(obj, region)
        assert result.status is OracleStatus.Solved and result.nodes == 18
        assert result.point[0] == pytest.approx(1.1e308)
        assert region_membership(region, result.point)

    def test_integral_domain(self):
        box = BoxDomain((0.0,), (3.0,), integral=(True,))
        obj = ObjectiveSpec(lambda x: x[0], 1.0, batch_evaluator=lambda p: p[:, 0])
        region = RelaxedRegion(box).with_cut(Cut((0.0,), 0.5, norm=NormKind.Two))
        result = GlobalOracle(OracleConfig(tolerance=1e-8)).solve(obj, region)
        assert result.point.tolist() == [1.0]
        assert result.value == 1.0

    def test_integral_infeasible_slice(self):
        box = BoxDomain((0.0, 0.0), (2.0, 2.0), integral=(True, True))
        obj = ObjectiveSpec(lambda x: x[0] + x[1], 2.0,
                            batch_evaluator=lambda p: p[:, 0] + p[:, 1])
        region = RelaxedRegion(box)
        # exclude every lattice point: a huge inf-ball around the center
        region = region.with_cut(Cut((1.0, 1.0), 1.5, norm=NormKind.Inf))
        result = GlobalOracle().solve(obj, region)
        assert result.status is OracleStatus.Infeasible


@st.composite
def off_lattice_cases(draw):
    """A 1-3 dim domain whose integral bounds mostly lie off the lattice,
    such as [k + 0.3, k + 2.7], a linear objective and 0-5 cuts of mixed
    norms and masks."""
    n = draw(st.integers(1, 3))
    integral = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    offsets = st.sampled_from((0.0, 0.3, 0.5, 0.7)) | st.floats(0.0, 0.99)
    lower, upper = [], []
    for j in range(n):
        k = draw(st.integers(-3, 3))
        if integral[j]:
            lower.append(k - draw(offsets))
            upper.append(k + draw(st.integers(0, 3)) + draw(offsets))
        else:
            lower.append(k + draw(offsets))
            upper.append(lower[-1] + draw(st.floats(0.0, 3.0)))
    box = BoxDomain(lower, upper, integral)
    slope = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))

    def linear(p):  # a per-column sum: each row's value is the same in any batch
        return sum(p[..., j] * slope[j] for j in range(n))

    objective = ObjectiveSpec(lambda x: float(linear(x)), max(float(np.linalg.norm(slope)), 1e-3),
                              batch_evaluator=linear)
    cuts = []
    for _ in range(draw(st.integers(0, 5))):
        center = box.lower + np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))) * box.widths
        mask = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=n, max_size=n).filter(any)))
        cuts.append(Cut(center, draw(st.floats(0.0, 2.0)), mask, draw(st.sampled_from(list(NormKind)))))
    return RelaxedRegion(box, tuple(cuts)), objective


@settings(max_examples=100, deadline=None)
@given(case=off_lattice_cases())
def test_every_box_of_the_search_lies_on_the_lattice_hull(case):
    region, objective = case
    box = region.domain
    search = _Search(objective, region, OracleConfig(tolerance=1e-2, node_limit=2000), NormKind.Two)
    batches = []
    measure = search.measure

    def recorded(los, his, *rest, **flags):  # every box of a kernel pass, at every level
        batches.append((los.copy(), his.copy()))
        return measure(los, his, *rest, **flags)

    search.measure = recorded
    try:
        search.run()
    except ResourceLimitError:
        pass
    assert batches
    cols = box.integral
    for los, his in batches:
        assert np.array_equal(los[:, cols], np.round(los[:, cols]))
        assert np.array_equal(his[:, cols], np.round(his[:, cols]))
        assert (los >= box.hull_lower).all() and (his <= box.hull_upper).all()
        assert (los <= his).all()


@st.composite
def replay_cases(draw):
    """A 1-3 dim domain with some integral coordinates, the nonconvex
    objective sum_j a_j sin(b_j x_j) + c_j x_j evaluated row by row
    (``lipcut.expr``), 0-6 cuts of mixed norms and masks, a domain norm,
    and a tolerance and node limit, some small enough to stop the search.
    The continuous values come from a seeded generator: hypothesis favors
    zero widths and coefficients, whose searches end at the root."""
    n = draw(st.integers(1, 3))
    integral = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lower = rng.integers(-3, 4, n) + np.where(integral, 0.0, rng.uniform(0.0, 1.0, n))
    upper = lower + np.where(integral, rng.integers(0, 7, n), rng.uniform(0.5, 4.0, n))
    box = BoxDomain(lower, upper, integral)
    a, b, c = rng.uniform(-2.0, 2.0, n), rng.uniform(1.0, 20.0, n), rng.uniform(-1.0, 1.0, n)
    text = " + ".join(f"({a[j].item()!r})*sin(({b[j].item()!r})*x{j + 1}) + ({c[j].item()!r})*x{j + 1}"
                     for j in range(n))
    # the 1-norm of the gradient bound holds for every domain norm
    objective = ObjectiveSpec(None, float(np.sum(np.abs(a * b) + np.abs(c))),
                              batch_evaluator=batch_evaluator(parse(text, n)))
    cuts = []
    for _ in range(draw(st.integers(0, 6))):
        mask = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=n, max_size=n).filter(any)))
        radius = rng.uniform(0.0, 0.6) * max(float(box.widths.max()), 1.0)
        cuts.append(Cut(lower + rng.uniform(0.0, 1.0, n) * box.widths, radius, mask,
                        draw(st.sampled_from(list(NormKind)))))
    config = OracleConfig(tolerance=draw(st.sampled_from((1e-3, 1e-5))),
                          node_limit=draw(st.sampled_from((60, 600, 6000))))
    return objective, RelaxedRegion(box, tuple(cuts)), config, draw(st.sampled_from(list(NormKind)))


def reference_split(lo, hi, integral):
    """The two children of the box [lo, hi], lists of floats, as (lower
    child, upper child) pairs of (lo, hi) lists, or None when it has no
    edge at least 1e-10 wide: its longest such edge, the lowest index on
    ties, halved at (a + b) / 2; an integral edge at floor((a + b) / 2),
    the upper child from there plus one."""
    widths = [b - a for a, b in zip(lo, hi)]
    edges = [j for j, w in enumerate(widths) if w >= 1e-10]
    if not edges:
        return None
    j = max(edges, key=lambda j: (widths[j], -j))
    mid = upper = (lo[j] + hi[j]) / 2
    if integral[j]:
        mid = float(np.floor(mid))
        upper = mid + 1.0
    lower_hi, upper_lo = list(hi), list(lo)
    lower_hi[j], upper_lo[j] = mid, upper
    return (lo, lower_hi), (upper_lo, hi)


def tree_size(lo, hi, integral, levels):
    """The number of boxes within ``levels`` levels of the tree that
    ``reference_split`` grows from the box [lo, hi], lists of floats."""
    children = reference_split(lo, hi, integral) if levels > 1 else None
    return 1 + sum(tree_size(*child, integral, levels - 1) for child in children or ())


def global_outcome(objective, region, config, domain_norm):
    """The bytes of a global solve's result or of its ResourceLimitError
    and the number of boxes it pushed on its heap; and the size of each
    kernel pass it made."""
    search = _Search(objective, region, config, domain_norm)
    passes = []
    measure = search.measure

    def counted(*batch, **flags):
        passes.append(len(batch[0]))
        return measure(*batch, **flags)

    search.measure = counted
    try:
        r = search.run()
        point = r.point
        out = ("result", r.status, np.float64(r.value).tobytes(), np.float64(r.gap).tobytes(), r.nodes)
    except ResourceLimitError as exc:
        point = exc.point
        out = ("limit", np.float64(exc.value).tobytes(), np.float64(exc.gap).tobytes(), exc.nodes)
    return out + (None if point is None else point.tobytes(), next(search.counter)), passes


@settings(max_examples=150, deadline=None)
@given(case=replay_cases())
def test_batched_levels_replay_the_one_level_search(case):
    # the default pass cost measures several tree levels per kernel pass and
    # replays them, and ten times that cost measures deeper passes; with a
    # pass cost of 0 each pass measures one level, the children of one wave,
    # and each wave is admitted as it is measured
    box = case[1].domain
    outcomes = {}
    for cost in (0, oracle._PASS_COST, 10 * oracle._PASS_COST):
        with mock.patch.object(oracle, "_PASS_COST", cost):
            outcomes[cost] = global_outcome(*case)
            # the first pass measures the root and the levels below it
            root_levels = oracle._pass_depth(1)
        assert outcomes[cost][1][0] == tree_size(box.hull_lower.tolist(), box.hull_upper.tolist(), box.integral,
                                                 root_levels)
    one_level, level_passes = outcomes[0]
    assert level_passes[0] == 1
    for batched, passes in outcomes.values():
        assert batched == one_level
        assert len(passes) <= len(level_passes)


def test_kernel_passes_span_several_levels():
    # min |x1 - x2| + x1 over the square minus a ball: the same answer from
    # fewer kernel passes, each over several levels of the tree
    region = RelaxedRegion(BoxDomain((-1.0, -1.0), (1.0, 1.0)), (Cut((-0.5, -0.5), 0.6),))
    config = OracleConfig(tolerance=1e-6)
    parents = []
    descend = _Search.descend

    def counted(search, los, his, touching):
        parents.append(len(los))
        return descend(search, los, his, touching)

    with mock.patch.object(_Search, "descend", counted):
        batched, passes = global_outcome(sin_objective(), region, config, NormKind.Two)
    with mock.patch.object(oracle, "_PASS_COST", 0):
        one_level, level_passes = global_outcome(sin_objective(), region, config, NormKind.Two)
    assert batched == one_level
    # no edge of these boxes is too narrow to split, so each pass measures
    # full trees: the root's, then the children of the wave boxes whose
    # children were not measured yet, each as deep as _pass_depth says
    assert passes[0] == 2 ** oracle._pass_depth(1) - 1 > 1
    assert passes[1:] == [2 * p * (2 ** oracle._pass_depth(2 * p) - 1) for p in parents]
    assert level_passes[:2] == [1, 2]
    assert 2 * len(passes) < len(level_passes)


def test_pass_depth_minimizes_the_cost_per_level():
    # (F + boxes * (2^d - 1)) / d, the least d on a tie; F = 0 gives one level
    for cost in (0, 1, 7, 300, 3000):
        with mock.patch.object(oracle, "_PASS_COST", cost):
            for boxes in range(1, 400):
                per_level = [fractions.Fraction(cost + boxes * (2**d - 1), d) for d in range(1, 40)]
                assert oracle._pass_depth(boxes) == 1 + per_level.index(min(per_level))


def test_the_first_pass_harvests_as_a_root_pass_and_its_descent_would():
    # the replay admits the root alone, so the root's offer is the incumbent
    # when the boxes below it are admitted: the first pass offers and
    # evaluates what a pass over the root alone and then a descent below it
    # would, apart from the centers it measures in one call
    region = RelaxedRegion(BoxDomain((-1.0, -1.0), (1.0, 1.0)), (Cut((-0.5, -0.5), 0.6),))
    sizes = []

    def recorded(p):
        sizes.append(len(p))
        return np.abs(p[:, 0] - p[:, 1]) + p[:, 0]

    objective = ObjectiveSpec(None, SQRT5, batch_evaluator=recorded)
    search = _Search(objective, region, OracleConfig(tolerance=1e-3), NormKind.Two)
    every_cut = np.ones((1, region.stacked_cuts), dtype=bool)
    hull = search.box.hull_lower[None, :], search.box.hull_upper[None, :]
    # the root and as many levels below it as a descent from the root measures
    levels = 1 + oracle._pass_depth(2)
    first = search.measure(*search.grow(*hull, every_cut, levels), root=True)
    first_sizes, sizes[:] = sizes[:], []
    ref = _Search(objective, region, OracleConfig(tolerance=1e-3), NormKind.Two)
    root = ref.measure(*ref.grow(*hull, every_cut, 1))
    ref.admit([(root, 0)])
    below = ref.descend(*hull, every_cut)
    assert len(first.los) == 1 + len(below.los) == 2**levels - 1
    assert first.los.tobytes() == np.concatenate([root.los, below.los]).tobytes()

    def offers(best):
        return [None if b is None else (b[0], b[1], b[2].tobytes()) for b in best]

    assert offers(first.best) == offers(root.best + below.best)
    assert sum(1 for b in below.best if b is not None) < len(below.los)
    # the same points, with one objective call fewer: the centers' of one pass
    assert sum(first_sizes) == sum(sizes) and len(first_sizes) == len(sizes) - 1


@st.composite
def split_cases(draw):
    """A batch of 0-6 boxes in 1-4 dimensions, continuous or with some
    integral coordinates: continuous widths at, just around and well above
    the 1e-10 split floor, often equal, integral widths of 0-3, and bounds
    of -0.0 and 0.0."""
    n = draw(st.integers(1, 4))
    integral = draw(st.lists(st.booleans(), min_size=n, max_size=n)) if draw(st.booleans()) else [False] * n
    floor = 1e-10
    widths = st.sampled_from((0.0, floor, math.nextafter(floor, 0.0), math.nextafter(floor, 1.0), 2 * floor,
                              0.5, 1.0, 3.0)) | st.floats(0.0, 4.0)
    starts = st.sampled_from((0.0, -0.0, 1.0, -2.0, 0.3)) | st.floats(-8.0, 8.0)
    los, his = [], []
    for _ in range(draw(st.integers(0, 6))):
        lo, hi = [], []
        for j in range(n):
            if integral[j]:
                a = draw(st.sampled_from((-0.0, 0.0)) | st.integers(-4, 4).map(float))
                b = a + draw(st.integers(0, 3))
            else:
                a = draw(starts)
                b = a + draw(widths)
            if b == 0.0 and draw(st.booleans()):
                b = -0.0
            lo.append(a)
            hi.append(b)
        los.append(lo)
        his.append(hi)
    return integral, np.array(los).reshape(-1, n), np.array(his).reshape(-1, n)


@settings(max_examples=300, deadline=None)
@given(case=split_cases())
def test_split_matches_a_box_by_box_reference(case):
    # bit for bit, on the continuous path that splits every box and on the
    # path that masks edges narrower than the floor or rounds integral ones
    integral, los, his = case
    n = len(integral)
    region = RelaxedRegion(BoxDomain([-20.0] * n, [20.0] * n, integral))
    search = _Search(sin_objective(), region, OracleConfig(), NormKind.Two)
    given_los, given_his = los.copy(), his.copy()
    can, clos, chis = search.split(los, his)
    assert los.tobytes() == given_los.tobytes() and his.tobytes() == given_his.tobytes()
    split = [(i, reference_split(lo, hi, integral)) for i, (lo, hi) in enumerate(zip(los.tolist(), his.tolist()))]
    children = [child for _, pair in split if pair is not None for child in pair]
    assert can.tolist() == [i for i, pair in split if pair is not None]
    assert clos.tobytes() == np.array([lo for lo, _ in children]).reshape(-1, n).tobytes()
    assert chis.tobytes() == np.array([hi for _, hi in children]).reshape(-1, n).tobytes()


@settings(max_examples=200, deadline=None)
@given(offers=st.lists(st.tuples(st.sampled_from((0, 1, 2)), st.sampled_from((-0.0, 0.0, 1.0, -1.0)),
                                 st.lists(st.sampled_from((-0.0, 0.0, 0.5)), min_size=2, max_size=2)),
                       min_size=1, max_size=12))
def test_admit_takes_the_least_value_point_and_kind(offers):
    # equal values (-0.0 and 0.0) go to the least point, equal points to the
    # least kind, and the incumbent keeps the chosen offer's own bits
    offered = [(kind, value, np.array(point)) for kind, value, point in offers]
    count = len(offered)
    batch = oracle._Batch(np.zeros((count, 2)), np.ones((count, 2)), np.zeros((0, count), dtype=bool),
                          [False] * count, [0.0] * count, [oracle._LEAF] * count, offered)
    region = RelaxedRegion(BoxDomain((0.0, 0.0), (1.0, 1.0)))
    search = _Search(sin_objective(), region, OracleConfig(), NormKind.Two)
    search.admit([(batch, i) for i in range(count)])
    _, value, point = min(offered, key=lambda o: (o[1], tuple(o[2]), o[0]))
    assert np.float64(search.best_value).tobytes() == np.float64(value).tobytes()
    assert search.best_point.tobytes() == point.tobytes()


def radical_inverse(i: int, base: int) -> float:
    """The i-th term (i >= 1) of the van der Corput sequence in ``base``."""
    f, value = 1.0, 0.0
    while i > 0:
        f /= base
        value += f * (i % base)
        i //= base
    return value


def halton_point(i: int, dim: int) -> np.ndarray:
    """The i-th point (i >= 1) of the Halton sequence in [0, 1)^dim, one
    prime base per coordinate."""
    return np.array([radical_inverse(i, base) for base in (2, 3, 5, 7, 11, 13)[:dim]])


def test_halton_gives_each_coordinate_its_own_prime_base():
    # past 12 dimensions too: no two sample columns are equal, so the
    # samples of a box do not lie on a plane u_j = u_{j+12}
    dim = 30
    primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))][:dim]
    samples = oracle._halton(dim)
    for j, base in enumerate(primes):
        assert samples[:, j].tolist() == [radical_inverse(i, base) for i in range(1, 33)]
    assert len({column.tobytes() for column in samples.T}) == dim
    assert oracle._halton(13)[:, 12].tolist() != oracle._halton(13)[:, 0].tolist()


def reference_harvest(region, objective, los, his):
    """Each box's best point, listed one by one: its snapped center if the
    region holds it, its 2^n corners (n <= 5), and the first 32 Halton
    samples if the region does not hold the center.  Of the points the
    region holds, the least (value, point, listing position), returned as
    (box, kind, value, point) with kinds 0 center, 1 corner, 2 sample; and
    the number of held points whose value is not known beforehand (a
    continuous center's is)."""
    box = region.domain
    n = box.dimension

    def snapped(p):
        return np.where(box.integral, np.round(p), p)

    def holds(p):
        return bool(region.membership_mask(p[None])[0])

    found, evaluated = [], 0
    for i, (lo, hi) in enumerate(zip(los, his)):
        center = snapped(0.5 * (lo + hi))
        center_ok = holds(center)
        listed = [(0, center)] if center_ok else []
        if n <= 5:
            listed += [(1, snapped(lo + np.array(c) * (hi - lo))) for c in itertools.product((0.0, 1.0), repeat=n)]
        if not center_ok:
            listed += [(2, snapped(lo + halton_point(k, n) * (hi - lo))) for k in range(1, 33)]
        held = [(float(objective.evaluate_batch(p[None])[0]), tuple(p), position, kind, p)
                for position, (kind, p) in enumerate(listed) if holds(p)]
        evaluated += len(held) - (center_ok and not box.integral.any())
        if held:
            value, _, _, kind, p = min(held, key=lambda h: h[:3])
            found.append((i, kind, value, p))
    return found, evaluated


@st.composite
def harvest_cases(draw):
    """Boxes of a 1-6 dim domain as the branch and bound makes them (integral
    bounds integers, some edges of zero width, some bounds -0.0), 0-6 cuts
    of all three norms with masks, and an objective with ties: the step
    floor(3 x1), the zero 0 x1 (with the sign of x1), or a per-column sum
    with slopes -1, 0 and 1."""
    n = draw(st.integers(1, 6))
    integral = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    lower = np.array(draw(st.lists(st.integers(-3, 1), min_size=n, max_size=n)), dtype=float)
    lower += np.where(integral, 0.0, np.array(draw(st.lists(st.sampled_from((0.0, 0.5)), min_size=n, max_size=n))))
    widths = st.sampled_from((0.0, 0.5, 1.0, 3.0)) | st.floats(0.0, 3.0)
    box = BoxDomain(lower, lower + np.array(draw(st.lists(widths, min_size=n, max_size=n))), integral)
    fractions = st.sampled_from((0.0, 0.25, 0.5, 1.0)) | st.floats(0.0, 1.0)
    los, his = [], []
    for _ in range(draw(st.integers(1, 6))):
        lo, hi = [], []
        for j in range(n):
            if integral[j]:
                a, b = (draw(st.integers(int(box.hull_lower[j]), int(box.hull_upper[j]))) for _ in range(2))
            else:
                a, b = (min(box.lower[j] + draw(fractions) * box.widths[j], box.upper[j]) for _ in range(2))
            lo.append(float(min(a, b)))
            hi.append(float(max(a, b)))
        flip = np.array(draw(st.lists(st.booleans(), min_size=2 * n, max_size=2 * n))).reshape(2, n)
        los.append(np.where(flip[0] & (np.array(lo) == 0.0), -0.0, lo))
        his.append(np.where(flip[1] & (np.array(hi) == 0.0), -0.0, hi))
    cuts = []
    for _ in range(draw(st.integers(0, 6))):
        mask = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=n, max_size=n).filter(any)))
        center = box.lower + np.array(draw(st.lists(fractions, min_size=n, max_size=n))) * box.widths
        radius = draw(st.sampled_from((0.0, 0.25, 0.5, 1.0)) | st.floats(0.0, 2.0))
        cuts.append(Cut(center, radius, mask, draw(st.sampled_from(list(NormKind)))))
    slope = np.array(draw(st.lists(st.sampled_from((-1.0, 0.0, 1.0)), min_size=n, max_size=n)))
    evaluator = draw(st.sampled_from((
        lambda p: np.floor(3.0 * p[:, 0]),
        lambda p: 0.0 * p[:, 0],
        lambda p: sum(p[:, j] * slope[j] for j in range(n)),  # each row's value is the same in any batch
    )))
    return RelaxedRegion(box, tuple(cuts)), evaluator, np.array(los), np.array(his)


@settings(max_examples=300, deadline=None)
@given(case=harvest_cases())
def test_harvest_matches_a_point_by_point_reference(case):
    # slot order is the listing order, so equal points (0.0 and -0.0) of
    # equal value go to the first listed, bit for bit
    region, evaluator, los, his = case
    batches = []

    def counted(p):
        batches.append(len(p))
        return evaluator(p)

    objective = ObjectiveSpec(None, 1.0, batch_evaluator=counted)
    search = _Search(objective, region, OracleConfig(), NormKind.Two)
    centers = 0.5 * (los + his)
    snapped = search.snap(centers)
    every_cut = np.ones((region.stacked_cuts, len(los)), dtype=bool)
    dead, touching, mid_violated = region.box_relations(los, his, snapped, every_cut)
    live = ~dead  # the branch and bound harvests live boxes only
    los, his, snapped, centers = los[live], his[live], snapped[live], centers[live]
    f_centers = objective.evaluate_batch(centers)
    batches.clear()
    boxes, kinds, values, points = search.harvest(los, his, snapped, f_centers, ~mid_violated[live],
                                                  touching[:, live])
    expected, evaluated = reference_harvest(region, ObjectiveSpec(None, 1.0, batch_evaluator=evaluator), los, his)
    # one objective call, on the held points whose value is not known yet
    assert batches == ([evaluated] if evaluated else [])
    assert list(boxes) == [e[0] for e in expected]
    assert list(kinds) == [e[1] for e in expected]
    assert np.array(values, dtype=float).tobytes() == np.array([e[2] for e in expected], dtype=float).tobytes()
    n = region.domain.dimension
    assert np.asarray(points).tobytes() == np.array([e[3] for e in expected]).reshape(-1, n).tobytes()


def row_major_harvest(search, los, his, snapped, f_centers, center_ok, bounds=None):
    """``_Search.harvest`` as it was before the column-major layout: one
    (boxes, slots, n) array holding the snapped center in every slot, the
    corners and the infeasible-center boxes' samples spread box-major and
    snapped, every point tested against the domain and every cut
    (``membership_mask``); the same masks, evaluations and ties."""
    n = search.n
    samples_from = 1 + len(search.corner_pattern)

    def spread(pattern, los, his):
        lo, span = los.T[:, :, None], (his - los).T[:, :, None]
        return search.snap((lo + pattern.T[:, None, :] * span).transpose(1, 2, 0))

    bad = ~center_ok
    slots = samples_from + (32 if bad.any() else 0)
    pts = snapped[:, None, :].repeat(slots, axis=1)
    pts[:, 1:samples_from] = spread(search.corner_pattern, los, his)
    if slots > samples_from:
        pts[bad, samples_from:] = spread(search.samples, los[bad], his[bad])
    valid = search.region.membership_mask(pts.reshape(-1, n)).reshape(len(los), slots)
    valid[:, 0] &= center_ok
    valid[center_ok, samples_from:] = False
    values = np.full(valid.shape, np.inf)
    if not search.has_integral:
        values[:, 0] = np.where(valid[:, 0], f_centers, np.inf)
    fresh = valid & (values == np.inf)
    if bounds is not None:
        if fresh[0].any():
            values[0, fresh[0]] = search.objective.evaluate_batch(pts[0, fresh[0]])
        fresh[0] = False
        pruned = ~(bounds < values[0].min() - search.config.tolerance)
        pruned[0] = False
        values[pruned], fresh[pruned] = np.inf, False
    if fresh.any():
        values[fresh] = search.objective.evaluate_batch(pts[fresh])
    least = values.min(axis=1)
    boxes = np.flatnonzero(least < np.inf)
    tied = values[boxes] == least[boxes, None]
    slot = tied.argmax(axis=1)
    if tied.sum() > boxes.size:
        rows, cols = np.nonzero(tied)
        order = np.lexsort(tuple(pts[boxes[rows], cols].T[::-1]) + (rows,))
        slot = cols[order[np.diff(rows[order], prepend=-1) > 0]]
    kind = np.minimum(slot, 1) + (slot >= samples_from)
    return boxes.tolist(), kind.tolist(), values[boxes, slot].tolist(), pts[boxes, slot]


# Continuous bounds: the box [-1, 1.5 * 2^-53] has the upper corner
# -1 + (1.5 * 2^-53 + 1) = 2^-52, past its upper bound, and so do many
# boxes of mixed magnitudes; the subnormal bound +-2^-1074 gives the
# degenerate box [b, b] the center 0.5 * b + 0.5 * b = +-0.0, on the wrong
# side of b.
OVERSHOOTING_BOUNDS = ((-1.0, 1.5 * 2.0 ** -53), (-3.0, 0.1), (0.1, 0.7), (-2.0 ** -1074, -2.0 ** -1074),
                       (2.0 ** -1074, 2.0 ** -1074), (-0.5, 0.0))


@st.composite
def layout_cases(draw):
    """Boxes of a 1-4 dim domain as the branch and bound makes them, some
    integral columns, continuous bounds whose boxes' upper corners round
    past the domain's upper bound (``OVERSHOOTING_BOUNDS`` or mixed
    magnitudes), many boxes sharing the domain's upper face; 0-6 cuts of
    all three norms with masks, centered on points of the boxes so that
    some centers are feasible and some are not; an objective with slopes
    -1, 0 and 1 per column, or a step; and, half the time, the root as box
    0 with drawn lower bounds for the others."""
    n = draw(st.integers(1, 4))
    integral = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    magnitude = st.builds(lambda sign, m, e: sign * m * 2.0 ** e, st.sampled_from((-1.0, 1.0)),
                          st.floats(1.0, 2.0), st.integers(-60, 3))
    lower, upper = [], []
    for j in range(n):
        if integral[j]:
            a = draw(st.integers(-3, 2))
            a, b = float(a), float(a + draw(st.integers(0, 3)))
        else:
            a, b = draw(st.sampled_from(OVERSHOOTING_BOUNDS) | st.tuples(magnitude, magnitude).map(sorted))
        lower.append(a)
        upper.append(b)
    box = BoxDomain(lower, upper, integral)
    fractions = st.sampled_from((0.0, 0.5, 1.0, 1.0)) | st.floats(0.0, 1.0)
    root = draw(st.booleans())
    los, his = ([box.hull_lower], [box.hull_upper]) if root else ([], [])
    for _ in range(draw(st.integers(1, 6))):
        lo, hi = [], []
        for j in range(n):
            if integral[j]:
                a, b = (draw(st.integers(int(box.hull_lower[j]), int(box.hull_upper[j]))) for _ in range(2))
            else:
                a, b = (min(box.lower[j] + draw(fractions) * box.widths[j], box.upper[j]) for _ in range(2))
            lo.append(float(min(a, b)))
            hi.append(float(max(a, b)))
        los.append(lo)
        his.append(hi)
    los, his = np.array(los, dtype=float), np.array(his, dtype=float)
    cuts = []
    for _ in range(draw(st.integers(0, 6))):
        mask = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=n, max_size=n).filter(any)))
        i = draw(st.integers(0, len(los) - 1))
        anchor = los[i] + np.array(draw(st.lists(fractions, min_size=n, max_size=n))) * (his[i] - los[i])
        scale = max(float(box.widths.max()), 1e-300)
        radius = draw(st.sampled_from((0.0, 0.1, 0.5, 1.0)) | st.floats(0.0, 1.5)) * scale
        cuts.append(Cut(anchor, radius, mask, draw(st.sampled_from(list(NormKind)))))
    slope = np.array(draw(st.lists(st.sampled_from((-1.0, 0.0, 1.0)), min_size=n, max_size=n)))
    evaluator = draw(st.sampled_from((
        lambda p: sum(p[:, j] * slope[j] for j in range(n)),  # each row's value is the same in any batch
        lambda p: np.floor(3.0 * p[:, 0]),
    )))
    bounds = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=len(los), max_size=len(los)))) if root else None
    return RelaxedRegion(box, tuple(cuts)), evaluator, los, his, bounds


@settings(max_examples=400, deadline=None)
@given(case=layout_cases())
def test_harvest_matches_the_row_major_harvest(case):
    # the same offers, bit for bit, and the same points evaluated in the
    # same batches, whether or not a point leaves the domain
    region, evaluator, los, his, bounds = case
    calls = []

    def recorded(p):
        calls.append(np.array(p).tobytes())
        return evaluator(p)

    search = _Search(ObjectiveSpec(None, 1.0, batch_evaluator=recorded), region, OracleConfig(tolerance=1e-3),
                     NormKind.Two)
    centers = 0.5 * los + 0.5 * his  # as ``measure`` computes them
    snapped = search.snap(centers)
    every_cut = np.ones((region.stacked_cuts, len(los)), dtype=bool)
    dead, touching, mid_violated = region.box_relations(los, his, snapped, every_cut)
    if bounds is not None and dead[0]:
        bounds = None  # the root is harvested only when it is live
    live = ~dead
    los, his, snapped, centers = los[live], his[live], snapped[live], centers[live]
    bounds = None if bounds is None else bounds[live]
    if not len(los):
        return
    f_centers = evaluator(centers)
    got = search.harvest(los, his, snapped, f_centers, ~mid_violated[live], touching[:, live], bounds)
    got_calls, calls[:] = calls[:], []
    want = row_major_harvest(search, los, his, snapped, f_centers, ~mid_violated[live], bounds)
    assert got[:2] == want[:2]
    assert np.array(got[2]).tobytes() == np.array(want[2]).tobytes()
    assert np.asarray(got[3]).tobytes() == np.asarray(want[3]).tobytes()
    assert got_calls == calls


def nan_above_03() -> tuple:
    """min -x on [-1, 1] with f = NaN for x > 0.3: scalar and batch forms."""
    return (
        lambda x: math.nan if x[0] > 0.3 else -x[0],
        lambda p: np.where(p[:, 0] > 0.3, math.nan, -p[:, 0]),
    )


class TestNonFiniteObjective:
    # the true minimum is -0.3; a NaN value loses every comparison, so an
    # unchecked branch and bound certifies x = 0 with value -0.0

    @pytest.mark.parametrize("batch", [False, True], ids=["scalar", "batch"])
    def test_global_raises(self, batch):
        f, fb = nan_above_03()
        objective = ObjectiveSpec(f, 1.0, batch_evaluator=fb if batch else None)
        with pytest.raises(NonFiniteValueError, match="finite") as info:
            GlobalOracle().solve(objective, RelaxedRegion(BoxDomain((-1.0,), (1.0,))))
        assert info.value.point[0] > 0.3 and math.isnan(info.value.value)

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_global_rejects_infinities(self, value):
        objective = ObjectiveSpec(lambda x: value, 1.0, batch_evaluator=lambda p: np.full(len(p), value))
        with pytest.raises(NonFiniteValueError, match="finite"):
            GlobalOracle().solve(objective, RelaxedRegion(BoxDomain((-1.0,), (1.0,))))

    def test_local_raises(self):
        f, _ = nan_above_03()
        with pytest.raises(NonFiniteValueError, match="finite") as info:
            LocalOracle().solve(ObjectiveSpec(f, 1.0), RelaxedRegion(BoxDomain((-1.0,), (1.0,))), (0.0,))
        assert info.value.point.tolist() == [0.5] and math.isnan(info.value.value)

    def test_expression_objective_names_the_node(self):
        e = parse("-x1 + sqrt(0.3 - x1)", 1)
        objective = ObjectiveSpec(functools.partial(evaluate, e), 2.0, batch_evaluator=batch_evaluator(e))
        with pytest.raises(EvaluationError) as info:
            GlobalOracle().solve(objective, RelaxedRegion(BoxDomain((-1.0,), (1.0,))))
        assert str(info.value.subexpression) == "sqrt(0.3 - x1)"

    def test_checking_evaluator_is_not_scanned_again(self):
        # an evaluator that says it raises on non-finite values is trusted:
        # its batch is scanned once, by itself
        def run(p):
            return np.full(len(p), math.nan)

        run.checks_finite = True
        values = ObjectiveSpec(lambda x: 0.0, 1.0, batch_evaluator=run).evaluate_batch(np.zeros((2, 1)))
        assert np.isnan(values).all()


class TestSolveLocal:
    def local_region(self, cuts=()):
        region = RelaxedRegion(BoxDomain((-1.0,), (1.0,)))
        for c in cuts:
            region = region.with_cut(c)
        return region

    def abs_objective(self):
        return ObjectiveSpec(lambda x: -abs(x[0]), 1.0)

    def test_stays_at_left_endpoint(self):
        result = LocalOracle().solve(self.abs_objective(), self.local_region(), start=(-1.0,))
        assert result.point[0] == -1.0
        assert math.isinf(result.gap)

    def test_projected_off_first_cut(self):
        # after excluding ball(-1, 1/3) the start -1 projects to -2/3
        cuts = [Cut((-1.0,), 1.0 / 3.0, norm=NormKind.Two)]
        result = LocalOracle().solve(self.abs_objective(), self.local_region(cuts), start=(-1.0,))
        assert result.point[0] == pytest.approx(-2.0 / 3.0, abs=1e-8)

    def test_convex_quadratic(self):
        obj = ObjectiveSpec(lambda x: x[0] ** 2, 2.0)
        result = LocalOracle().solve(obj, self.local_region(), start=(0.7,))
        assert abs(result.point[0]) <= 1e-8

    def test_start_outside_box_rejected(self):
        with pytest.raises(ValueError):
            LocalOracle().solve(self.abs_objective(), self.local_region(), start=(2.0,))

    @pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_rejected_before_any_evaluation(self, start):
        # a NaN start once reached the objective, whose error blamed it
        obj = ObjectiveSpec(None, 1.0, batch_evaluator=lambda p: pytest.fail("objective evaluated"))
        with pytest.raises(ValueError, match="^start must be a 1-D vector of finite numbers"):
            LocalOracle().solve(obj, self.local_region(), start=(start,))

    @pytest.mark.parametrize("start", [["0.5"], [True], np.array(["0.5"]), [[0.5]], 0.5])
    def test_start_must_be_a_vector_of_numbers(self, start):
        # the check DriverConfig.initial_start makes: text and booleans were
        # once read as 0.5 and 1.0
        obj = ObjectiveSpec(None, 1.0, batch_evaluator=lambda p: pytest.fail("objective evaluated"))
        with pytest.raises(ValueError, match="^start must be a 1-D vector of finite numbers"):
            LocalOracle().solve(obj, self.local_region(), start=start)

    def test_infeasible_start_error(self):
        # projection lands inside another cut: no feasible point reachable
        cuts = [Cut((0.0,), 0.4, norm=NormKind.Two), Cut((0.5,), 0.4, norm=NormKind.Two),
                Cut((-0.5,), 0.4, norm=NormKind.Two), Cut((1.0,), 0.4, norm=NormKind.Two),
                Cut((-1.0,), 0.4, norm=NormKind.Two)]
        with pytest.raises(InfeasibleStartError):
            LocalOracle().solve(self.abs_objective(), self.local_region(cuts), start=(0.1,))

    def test_integral_rejected(self):
        region = RelaxedRegion(BoxDomain((0.0,), (3.0,), integral=(True,)))
        with pytest.raises(ValueError):
            LocalOracle().solve(self.abs_objective(), region, start=(1.0,))

    def test_start_at_a_cut_center_that_is_the_box_center(self):
        # neither the start nor the box center gives a direction off the
        # cut, so the start moves along the first masked coordinate
        box = BoxDomain((-1.0, -1.0), (1.0, 1.0))
        cut = Cut((0.0, 0.0), 0.5, norm=NormKind.Two)
        assert oracle._project_off_cut(np.zeros(2), cut, box).tolist() == [0.5 + 1e-9, 0.0]
        flat = ObjectiveSpec(None, 1.0, batch_evaluator=lambda p: np.zeros(len(p)))
        result = LocalOracle().solve(flat, RelaxedRegion(box, (cut,)), start=(0.0, 0.0))
        assert result.point.tolist() == [0.5 + 1e-9, 0.0]

    @pytest.mark.parametrize("norm", [NormKind.One, NormKind.Two])
    def test_a_start_on_a_cut_boundary_in_numpys_pairwise_sum(self, norm):
        # numpy sums 8 or more contiguous terms pairwise; the radius is such
        # a sum that exceeds the index-order distance of the cut kernel, so
        # the start lies inside the cut for ``region_membership``.  The
        # objective |x - start|^2 improves on no probe: the start is the
        # answer unless the oracle finds it violated and moves it off the cut.
        rng = np.random.default_rng(9)
        while True:
            start, center = rng.uniform(-1, 1, (2, 9))
            radius = pairwise_norm(norm, start - center)
            if radius > index_order_norm(norm, start - center):
                break
        region = RelaxedRegion(BoxDomain(np.full(9, -2.0), np.full(9, 2.0)), (Cut(center, radius, None, norm),))
        assert not region_membership(region, start)
        obj = ObjectiveSpec(None, 1.0, batch_evaluator=lambda p: np.sum((p - start) ** 2, axis=1))
        result = LocalOracle().solve(obj, region, start=start)
        assert result.status is OracleStatus.Solved and region_membership(region, result.point)

    def test_node_limit_bounds_the_evaluations(self):
        obj = ObjectiveSpec(None, 2.0, batch_evaluator=lambda p: p[:, 0] ** 2)
        region = self.local_region()
        free = LocalOracle().solve(obj, region, start=(0.7,))
        # a limit of exactly the evaluations made binds nowhere
        assert LocalOracle(OracleConfig(node_limit=free.nodes)).solve(obj, region, start=(0.7,)).nodes == free.nodes
        with pytest.raises(ResourceLimitError) as info:
            LocalOracle(OracleConfig(node_limit=free.nodes - 1)).solve(obj, region, start=(0.7,))
        error = info.value
        assert error.nodes == free.nodes and math.isinf(error.gap) and error.trace is None
        assert error.value == obj.evaluate_batch(error.point[None, :])[0]

    def test_probes_go_through_evaluate_batch_only(self):
        calls = []

        def batch(p):
            calls.append(len(p))
            return -np.abs(p[:, 0])

        obj = ObjectiveSpec(lambda x: pytest.fail("one-point evaluator called"), 1.0, batch_evaluator=batch)
        result = LocalOracle().solve(obj, self.local_region(), start=(-0.5,))
        assert result.point.tolist() == [-1.0]
        # the start, then one call per step with that step's feasible probes
        assert calls[0] == 1 and result.nodes == sum(calls)


def sequential_local_solve(objective, region, start, node_limit, checks=None):
    """The local oracle's compass search with one membership test per
    step, the reference for ``LocalOracle.solve``, which tests a step and
    the halvings below it at once and replays them level by level.  Each
    node-limit test appends (evaluations, x, fx) as bytes to ``checks``."""
    box = region.domain
    x = np.clip(np.asarray(start, dtype=float).copy(), box.lower, box.upper)
    nearest, least = None, math.inf
    for c in region.cuts:
        d = norm_eval(c.norm, (x - c.center)[c.mask])
        if d < c.radius and d < least:
            nearest, least = c, d
    if nearest is not None:
        x = oracle._project_off_cut(x, nearest, box)
        if not region_membership(region, x):
            raise InfeasibleStartError("projected start is still infeasible for the region")
    fx = float(objective.evaluate_batch(x[None, :])[0])
    evaluations = 1
    step = float(np.max(box.widths)) / 4.0
    probe_rows = np.arange(2 * box.dimension)
    probe_axes = probe_rows // 2
    signs = np.tile((-1.0, 1.0), box.dimension)
    while step >= 1e-9:
        probes = x[None, :].repeat(len(probe_rows), axis=0)
        probes[probe_rows, probe_axes] += signs * step
        feasible = probes[region.membership_mask(probes)]
        evaluations += len(feasible)
        if checks is not None:
            checks.append((evaluations, x.tobytes(), np.float64(fx).tobytes()))
        if evaluations > node_limit:
            raise ResourceLimitError(evaluations, x, fx, math.inf)
        best = None
        for cand, fc in zip(feasible, objective.evaluate_batch(feasible).tolist()):
            if fc >= fx:
                continue
            if best is None or fc < best[0] or (fc == best[0] and tuple(cand) < tuple(best[1])):
                best = (fc, cand)
        if best is None:
            step *= 0.5
        else:
            fx, x = best[0], best[1].copy()
    return OracleResult(OracleStatus.Solved, x, fx, math.inf, evaluations)


@st.composite
def local_cases(draw):
    """A continuous 1-3 dim box, 0-5 cuts of mixed norms and masks, some
    of radius 0, the smooth objective sum_j c_j (x_j - m_j)^2 + a_j
    sin(b_j x_j) (concave where c_j < 0; with a = 0 and the start at m,
    the first probes tie), and a start in the box."""
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lower = rng.uniform(-3.0, 1.0, n)
    box = BoxDomain(lower, lower + rng.uniform(0.1, 4.0, n))
    m = lower + rng.uniform(0.0, 1.0, n) * box.widths
    c, b = rng.uniform(-2.0, 2.0, n), rng.uniform(1.0, 10.0, n)
    a = np.zeros(n) if draw(st.booleans()) else rng.uniform(-1.0, 1.0, n)

    def evaluate_rows(p):
        return (c * (p - m) * (p - m) + a * np.sin(b * p)).sum(axis=1)

    cuts = []
    for _ in range(draw(st.integers(0, 5))):
        mask = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=n, max_size=n).filter(any)))
        radius = 0.0 if draw(st.booleans()) else rng.uniform(0.0, 0.5) * float(box.widths.max())
        cuts.append(Cut(lower + rng.uniform(0.0, 1.0, n) * box.widths, radius, mask,
                        draw(st.sampled_from(list(NormKind)))))
    start = m if draw(st.booleans()) else lower + rng.uniform(0.0, 1.0, n) * box.widths
    return evaluate_rows, RelaxedRegion(box, tuple(cuts)), start


def local_outcome(solve, evaluate_rows, region, start, node_limit):
    """The bytes of a local solve's result or of its error, and the
    objective batches it made, each as (shape, bytes)."""
    batches = []

    def recorded(p):
        batches.append((p.shape, p.tobytes()))
        return evaluate_rows(p)

    objective = ObjectiveSpec(None, 1.0, batch_evaluator=recorded)
    try:
        r = solve(objective, region, start, node_limit)
        out = ("result", r.status, r.point.tobytes(), np.float64(r.value).tobytes(), r.nodes)
    except ResourceLimitError as exc:
        out = ("limit", exc.nodes, exc.point.tobytes(), np.float64(exc.value).tobytes())
        assert exc.gap == math.inf
    except InfeasibleStartError:
        out = ("infeasible start",)
    return out, batches


def batched_local_solve(objective, region, start, node_limit):
    return LocalOracle(OracleConfig(node_limit=node_limit)).solve(objective, region, start)


@settings(max_examples=30, deadline=None)
@given(case=local_cases())
def test_batched_halvings_replay_the_one_step_search(case):
    # the same point, value and evaluations, the same objective batches in
    # the same order, and under every node limit the error that the
    # reference raises at its first node-limit test past the limit (none
    # at the limit of its evaluations)
    checks = []
    reference = local_outcome(functools.partial(sequential_local_solve, checks=checks), *case, 10_000_000)
    assert local_outcome(batched_local_solve, *case, 10_000_000) == reference
    nodes = reference[0][-1] if reference[0][0] == "result" else 0
    for limit in range(1, nodes + 1):
        expected = next((("limit",) + check for check in checks if check[0] > limit), reference[0])
        assert local_outcome(batched_local_solve, *case, limit)[0] == expected


def test_halvings_share_one_membership_test():
    # in 1-D a step and every halving down to 1e-9 fit in one test of 128
    # probes at most: a search with no move makes one test, of the steps
    # 0.5 down to 2^-29 (about 1.9e-9), 29 levels of 2 probes
    region = RelaxedRegion(BoxDomain((-1.0,), (1.0,)))
    objective = ObjectiveSpec(None, 1.0, batch_evaluator=lambda p: np.abs(p[:, 0]))
    with mock.patch.object(RelaxedRegion, "membership_mask", autospec=True,
                           side_effect=RelaxedRegion.membership_mask) as tested:
        result = LocalOracle().solve(objective, region, start=(0.0,))
    assert result.point.tolist() == [0.0]
    assert [len(call.args[1]) for call in tested.call_args_list] == [2 * 29]


class TestOracleAdapters:
    def test_global_ignores_start(self):
        region = RelaxedRegion(BoxDomain((-1.0,), (1.0,)))
        oracle = GlobalOracle(OracleConfig(tolerance=1e-8), NormKind.Two)
        obj = ObjectiveSpec(lambda x: x[0], 1.0, batch_evaluator=lambda p: p[:, 0])
        assert oracle.solve(obj, region, start=(0.5,)).point[0] == -1.0

    def test_local_requires_start(self):
        region = RelaxedRegion(BoxDomain((-1.0,), (1.0,)))
        with pytest.raises(ValueError):
            LocalOracle().solve(ObjectiveSpec(lambda x: x[0], 1.0), region)
