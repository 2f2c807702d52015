import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lipcut import reform
from lipcut.core import BoxDomain, Cut, NormKind
from lipcut.reform import (
    default_big_M,
    export_lp,
    feasible_interval,
    reformulate_1norm,
    reformulate_infnorm,
    verify_by_enumeration,
)

from geometry import index_order_norm, pairwise_norm


class TestSystemShape:
    def test_1norm_counts(self):
        system = reformulate_1norm((0.0, 0.0), 1.0, 4.0)
        assert system.constraint_count == 11  # 4n big-M + n nonneg + 1 sum
        assert system.continuous_vars == ("x1", "x2", "y1", "y2")
        assert system.binary_vars == ("z1", "z2")

    def test_infnorm_counts(self):
        system = reformulate_infnorm((0.0, 0.0), 1.0, 4.0)
        assert system.constraint_count == 9 * 2 + 2
        assert system.continuous_vars == ("x1", "x2", "y1", "y2", "w1", "w2")
        assert system.binary_vars == ("z1", "z2", "u1", "u2")

    def test_systems_compare_and_hash_by_identity(self):
        # equal rows do not make two systems equal, and a system with an
        # array field still works as a set member or dict key
        a = reformulate_1norm((0.0, 0.0), 1.0, 4.0)
        b = reformulate_1norm((0.0, 0.0), 1.0, 4.0)
        assert a == a
        assert a != b
        assert len({a, b, a}) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            reformulate_1norm((0.0,), 0.0, 4.0)
        with pytest.raises(ValueError):
            reformulate_infnorm((0.0,), 1.0, -1.0)

    @pytest.mark.parametrize("reformulate", [reformulate_1norm, reformulate_infnorm])
    @pytest.mark.parametrize("center, radius, big_M, message", [
        ((math.nan, 0.0), 1.0, 4.0, "cut center must be a 1-D vector of finite numbers"),
        ((0.0, math.inf), 1.0, 4.0, "cut center must be a 1-D vector of finite numbers"),
        ((0.0, 0.0), math.nan, 4.0, "cut radius must be finite and positive"),
        ((0.0, 0.0), math.inf, 4.0, "cut radius must be finite and positive"),
        ((0.0, 0.0), 1.0, math.inf, "big-M must be finite and positive"),
        ((0.0, 0.0), 1.0, math.nan, "big-M must be finite and positive"),
        ((0.0, 0.0), True, 4.0, "cut radius must be finite and positive"),
        ((0.0, 0.0), 1.0, "4", "big-M must be finite and positive"),
    ])
    def test_non_finite_inputs_rejected(self, reformulate, center, radius, big_M, message):
        # a non-finite value would be written into an LP row as nan or inf
        with pytest.raises(ValueError, match=message):
            reformulate(center, radius, big_M)


class TestVerify1Norm:
    def test_boundary_point_feasible(self):
        system = reformulate_1norm((0.0, 0.0), 1.0, 4.0)
        assert verify_by_enumeration(system, (1.0, 0.0))

    def test_interior_point_infeasible(self):
        # ||(0.4, 0.4)||_1 = 0.8 < 1: rejected under every assignment
        system = reformulate_1norm((0.0, 0.0), 1.0, 4.0)
        assert not verify_by_enumeration(system, (0.4, 0.4))

    def test_center_always_infeasible(self):
        system = reformulate_1norm((0.3, -0.7), 0.5, 4.0)
        assert not verify_by_enumeration(system, (0.3, -0.7))


class TestVerifyInfNorm:
    def test_inside_max_ball(self):
        system = reformulate_infnorm((0.0, 0.0), 1.0, 4.0)
        assert not verify_by_enumeration(system, (0.9, 0.2))

    def test_boundary(self):
        system = reformulate_infnorm((0.0, 0.0), 1.0, 4.0)
        assert verify_by_enumeration(system, (1.0, 0.2))

    def test_one_dimensional_degenerates_to_abs(self):
        system = reformulate_infnorm((0.5,), 0.25, 4.0)
        assert verify_by_enumeration(system, (0.75,))   # |x - a| = b
        assert not verify_by_enumeration(system, (0.6,))


class TestDefaultBigM:
    def test_examples(self):
        square = BoxDomain((-1.0, -1.0), (1.0, 1.0))
        assert default_big_M(square, NormKind.Inf) == pytest.approx(2.0)
        assert default_big_M(square, NormKind.One) == pytest.approx(4.0)
        rect = BoxDomain((1.0, 0.0), (10.0, 4.0))
        assert default_big_M(rect, NormKind.Two) == pytest.approx(math.sqrt(97.0), abs=1e-4)


class TestEquivalence:
    """The reformulations agree with the direct norm check whenever M
    satisfies the sign-row requirement M >= 2 max_i |x_i - a_i|; the
    accepted direction (system feasible => norm feasible) holds for every
    M.  The acceptance suite runs the full 200-draw version."""

    @pytest.mark.parametrize("norm", ["one", "inf"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_agreement(self, norm, n):
        rng = np.random.default_rng(61 + n)
        box = BoxDomain(np.zeros(n), np.ones(n))
        big_m = default_big_M(box, NormKind.One)
        reformulate = reformulate_1norm if norm == "one" else reformulate_infnorm
        p_norm = (lambda v: np.abs(v).sum()) if norm == "one" else (lambda v: np.abs(v).max())
        diameter = big_m if norm == "one" else default_big_M(box, NormKind.Inf)
        checked = 0
        for _ in range(60):
            a = rng.random(n)
            x = rng.random(n)
            b = rng.uniform(1e-6, diameter)
            dist = p_norm(x - a)
            if abs(dist - b) < 1e-9:
                continue  # boundary excluded
            system = reformulate(a, b, big_m)
            encoded = verify_by_enumeration(system, x)
            direct = dist >= b
            if encoded:
                assert direct  # soundness holds unconditionally
            if 2.0 * np.abs(x - a).max() <= big_m - 1e-9:
                assert encoded == direct
                checked += 1
        assert checked > 10

    def test_insufficient_big_M_counterexample(self):
        # 1-D box [0,1]: the diameter M=1 is below the requirement
        # 2|x-a| = 1.6, so a norm-feasible point is wrongly rejected
        system = reformulate_1norm((0.1,), 0.5, 1.0)
        assert abs(0.9 - 0.1) >= 0.5          # direct check passes
        assert not verify_by_enumeration(system, (0.9,))
        # with a sufficient M the same point is accepted
        assert verify_by_enumeration(reformulate_1norm((0.1,), 0.5, 2.0), (0.9,))


# deviations x - a from a small grid, so that draws hit x_i = a_i, ties in
# the largest |x_i - a_i| and exact cut boundaries, mixed with free floats
_STEPS = st.sampled_from((-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0))
_FREE = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def verify_cases(draw):
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("one", "inf")))
    center = np.array(draw(st.lists(st.sampled_from((0.0, 0.25, -1.0, 3.5)) | _FREE, min_size=n, max_size=n)))
    d = np.array(draw(st.lists(_STEPS | _FREE, min_size=n, max_size=n)))
    dist = float(np.abs(d).sum() if kind == "one" else np.abs(d).max())
    placement = draw(st.sampled_from(("boundary", "inside", "outside")))
    if dist == 0.0 or placement == "inside":
        radius = dist + draw(st.floats(0.01, 2.0))
    elif placement == "boundary":
        radius = dist
    else:
        radius = dist * draw(st.floats(0.05, 0.95))
    # a subnormal dist can scale to a radius of 0, which no cut has
    assume(radius > 0.0)
    need = 2.0 * float(np.abs(d).max())
    # below 1 the big-M misses the requirement M >= 2 max_i |x_i - a_i|
    big_m = max(need, 1e-3) * draw(st.sampled_from((0.3, 0.7, 1.0)) | st.floats(0.3, 4.0))
    reformulate = reformulate_1norm if kind == "one" else reformulate_infnorm
    return reformulate(center, radius, big_m), center + d


@settings(max_examples=300, deadline=None)
@given(case=verify_cases())
def test_verifier_answers_whether_any_assignment_propagates(case):
    # trying the selected assignment first must not change the answer
    system, x = case
    expected = any(
        feasible_interval(system, x, dict(zip(system.binary_vars, bits))) is not None
        for bits in itertools.product((0.0, 1.0), repeat=len(system.binary_vars))
    )
    assert verify_by_enumeration(system, x) == expected


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(("one", "inf")),
    center=st.lists(_FREE, min_size=1, max_size=3),
    data=st.data(),
)
def test_point_outside_the_cut_takes_one_propagation(kind, center, data):
    n = len(center)
    d = np.array(data.draw(st.lists(_STEPS | _FREE, min_size=n, max_size=n)))
    far = float(np.abs(d).max())
    if far < 1e-3:
        d[0] = 1.0
        far = 1.0
    dist = float(np.abs(d).sum() if kind == "one" else far)
    radius = dist * data.draw(st.floats(0.05, 0.95))
    big_m = 2.0 * far * data.draw(st.floats(1.0, 4.0))
    reformulate = reformulate_1norm if kind == "one" else reformulate_infnorm
    system = reformulate(center, radius, big_m)
    propagate = reform._propagate
    calls = []

    def counting(*args):
        calls.append(None)
        return propagate(*args)

    with mock.patch.object(reform, "_propagate", counting):
        assert verify_by_enumeration(system, np.array(center) + d)
    assert len(calls) == 1


class TestSelectedBinarySemantics:
    def test_1norm_pins_y_to_abs_deviation(self):
        a = np.array([0.2, -0.5])
        x = np.array([0.8, -0.1])
        system = reformulate_1norm(a, 0.9, 4.0)
        found = False
        import itertools

        for bits in itertools.product((0, 1), repeat=2):
            intervals = feasible_interval(system, x, dict(zip(system.binary_vars, bits)))
            if intervals is None:
                continue
            found = True
            for i in range(2):
                lo, hi = intervals[f"y{i + 1}"]
                assert lo == pytest.approx(abs(x[i] - a[i]), abs=1e-9)
                assert hi == pytest.approx(abs(x[i] - a[i]), abs=1e-9)
        assert found

    def test_infnorm_selects_exactly_one_maximum(self):
        a = np.array([0.0, 0.0])
        x = np.array([1.0, 0.2])
        system = reformulate_infnorm(a, 0.8, 4.0)
        import itertools

        feasible_assignments = []
        for bits in itertools.product((0, 1), repeat=4):
            assignment = dict(zip(system.binary_vars, bits))
            if feasible_interval(system, x, assignment) is not None:
                feasible_assignments.append(assignment)
        assert feasible_assignments
        for assignment in feasible_assignments:
            assert assignment["u1"] + assignment["u2"] == 1
            # the selected coordinate must carry the maximal deviation
            assert assignment["u1"] == 1  # |x1 - a1| = 1.0 > 0.2


class TestExportLp:
    BOX = BoxDomain((-1.0, -1.0), (1.0, 1.0))

    def test_empty_cut_list(self):
        text = export_lp([], {"x1": 1.0, "x2": 4.0}, self.BOX)
        assert "Minimize" in text and "Bounds" in text and text.rstrip().endswith("End")
        assert "Binaries" not in text
        assert "cut0" not in text

    def test_single_1norm_cut_row_count(self):
        system = reformulate_1norm((0.0, 0.0), 1.0, 4.0)
        text = export_lp([system], {"x1": 1.0}, self.BOX)
        rows = [line for line in text.splitlines() if line.startswith(" cut0_")]
        assert len(rows) == 11
        assert " cut0_sum: y1 + y2 >= 1" in text

    def test_two_cut_export_renames_auxiliaries(self):
        systems = [
            reformulate_1norm((0.0, 0.0), 1.0, 4.0),
            reformulate_1norm((0.5, 0.5), 0.5, 4.0),
        ]
        text = export_lp(systems, {"x1": 1.0}, self.BOX)
        assert "y1_c0" in text and "y1_c1" in text
        assert "cut1_sum" in text
        binaries = [l for l in text.splitlines() if l.strip().startswith("z")][0]
        assert binaries.split() == ["z1_c0", "z2_c0", "z1_c1", "z2_c1"]

    def test_infnorm_binary_roster(self):
        box = BoxDomain((-1.0,) * 3, (1.0,) * 3)
        system = reformulate_infnorm((0.0, 0.0, 0.0), 1.0, 6.0)
        text = export_lp([system], {"x1": 1.0}, box)
        section = text.split("Binaries\n")[1].splitlines()[0].split()
        assert section == ["z1", "z2", "z3", "u1", "u2", "u3"]

    def test_deterministic(self):
        system = reformulate_infnorm((0.25, -0.75), 0.5, 4.0)
        a = export_lp([system], {"x1": 1.0, "x2": -2.0}, self.BOX)
        b = export_lp([system], {"x1": 1.0, "x2": -2.0}, self.BOX)
        assert a == b
        assert "\r" not in a

    def test_quadratic_rows_for_two_norm_cuts(self):
        cut = Cut((0.5, -0.5), 0.3, norm=NormKind.Two)
        text = export_lp([], {"x1": 1.0}, self.BOX, two_norm_cuts=[cut])
        assert "cut0_ball:" in text
        assert "[ x1 ^ 2 + x2 ^ 2 ]" in text
        rhs = 0.3**2 - (0.5**2 + 0.5**2)
        assert f">= {rhs:.17g}" in text

    def test_quadratic_rhs_sums_the_center_in_index_order(self):
        # nine coordinates: numpy's sum adds 8 or more terms pairwise, while
        # the right-hand side adds them in index order, as every norm does
        rng = np.random.default_rng(9)
        for _ in range(100):
            center, radius = rng.uniform(-1.0, 1.0, 9), float(rng.uniform(0.5, 2.0))
            rhs = radius**2 - index_order_norm("1", center**2)
            if f"{rhs:.17g}" != f"{radius**2 - pairwise_norm('1', center**2):.17g}":
                break
        else:
            pytest.fail("no draw whose two sums give different right-hand sides")
        box = BoxDomain((-1.0,) * 9, (1.0,) * 9)
        text = export_lp([], {"x1": 1.0}, box, two_norm_cuts=[Cut(center, radius, norm=NormKind.Two)])
        assert text.splitlines()[3].endswith(f"] >= {rhs:.17g}")

    def test_integral_coordinates_are_listed_as_generals(self):
        box = BoxDomain((0.0, -1.0), (3.0, 1.0), integral=(True, False))
        system = reformulate_1norm((1.0, 0.5), 1.0, 6.0)
        assert export_lp([system], {"x1": 1.0, "x2": -2.0}, box) == (
            "Minimize\n"
            " obj: x1 - 2 x2\n"
            "Subject To\n"
            " cut0_sum: y1 + y2 >= 1\n"
            " cut0_ylb1: y1 - x1 + 6 z1 >= -1\n"
            " cut0_yub1: y1 - x1 - 6 z1 <= -1\n"
            " cut0_yrlb1: y1 + x1 - 6 z1 >= -5\n"
            " cut0_yrub1: y1 + x1 + 6 z1 <= 7\n"
            " cut0_ylb2: y2 - x2 + 6 z2 >= -0.5\n"
            " cut0_yub2: y2 - x2 - 6 z2 <= -0.5\n"
            " cut0_yrlb2: y2 + x2 - 6 z2 >= -5.5\n"
            " cut0_yrub2: y2 + x2 + 6 z2 <= 6.5\n"
            " cut0_ypos1: y1 >= 0\n"
            " cut0_ypos2: y2 >= 0\n"
            "Bounds\n"
            " 0 <= x1 <= 3\n"
            " -1 <= x2 <= 1\n"
            "Binaries\n"
            " z1 z2\n"
            "Generals\n"
            " x1\n"
            "End\n"
        )

    def test_dimension_mismatch(self):
        system = reformulate_1norm((0.0,), 1.0, 2.0)
        with pytest.raises(ValueError):
            export_lp([system], {"x1": 1.0}, self.BOX)
