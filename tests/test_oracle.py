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
    region_membership,
)
from lipcut.expr import EvaluationError, batch_evaluator, evaluate, parse
from lipcut.oracle import (
    GlobalOracle,
    InfeasibleStartError,
    LocalOracle,
    OracleConfig,
    OracleStatus,
    ResourceLimitError,
    _Search,
)

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

    def recorded(los, his, *rest):  # every box of a kernel pass, at every level
        batches.append((los.copy(), his.copy()))
        return measure(los, his, *rest)

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


def global_outcome(objective, region, config, domain_norm):
    """The bytes of a global solve's result or of its ResourceLimitError
    and the number of boxes it pushed on its heap; and the size of each
    kernel pass it made."""
    search = _Search(objective, region, config, domain_norm)
    passes = []
    measure = search.measure

    def counted(*batch):
        passes.append(len(batch[0]))
        return measure(*batch)

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
    # the default measures several tree levels per kernel pass and replays
    # them; with _BATCH_BOXES = 0 each pass measures one level, the
    # children of one wave, and each wave is admitted as it is measured
    batched, passes = global_outcome(*case)
    with mock.patch.object(oracle, "_BATCH_BOXES", 0):
        one_level, level_passes = global_outcome(*case)
    assert batched == one_level
    assert len(passes) <= len(level_passes)
    assert passes[0] == level_passes[0] == 1  # the root, alone


def test_kernel_passes_span_several_levels():
    # min |x1 - x2| + x1 over the square minus a ball: the same answer from
    # fewer kernel passes, each over several levels of the tree
    region = RelaxedRegion(BoxDomain((-1.0, -1.0), (1.0, 1.0)), (Cut((-0.5, -0.5), 0.6),))
    config = OracleConfig(tolerance=1e-6)
    batched, passes = global_outcome(sin_objective(), region, config, NormKind.Two)
    with mock.patch.object(oracle, "_BATCH_BOXES", 0):
        one_level, level_passes = global_outcome(sin_objective(), region, config, NormKind.Two)
    assert batched == one_level
    # the root alone, then its children and the five levels below them
    assert passes[:2] == [1, 2 + 4 + 8 + 16 + 32 + 64]
    assert max(passes) <= oracle._BATCH_BOXES and level_passes[1] == 2
    assert 2 * len(passes) < len(level_passes)


def halton_point(i: int, dim: int) -> np.ndarray:
    """The i-th point (i >= 1) of the Halton sequence in [0, 1)^dim, one
    prime base per coordinate."""
    out = []
    for base in (2, 3, 5, 7, 11, 13)[:dim]:
        f, value, k = 1.0, 0.0, i
        while k > 0:
            f /= base
            value += f * (k % base)
            k //= base
        out.append(value)
    return np.array(out)


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
