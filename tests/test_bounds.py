import math
import warnings

import numpy as np
import pytest

from lipcut.bounds import (
    ball_packing_bound,
    box_packing_bound,
    box_radius,
    box_radius_asphericity,
    complexity_lower,
    complexity_upper,
    lattice_count,
)
from lipcut.core import BoxDomain, NormKind
from lipcut.expr import evaluate, parse


class TestBoxPacking:
    def test_unit_interval(self):
        assert box_packing_bound(BoxDomain((0.0,), (1.0,)), 1.0, 0.5) == pytest.approx(3.0)

    def test_square(self):
        box = BoxDomain((-1.0, -1.0), (1.0, 1.0))
        assert box_packing_bound(box, 2.0, 1.0) == pytest.approx(25.0)

    def test_zero_width_box(self):
        assert box_packing_bound(BoxDomain((2.0,), (2.0,)), 1.0, 0.5) == pytest.approx(1.0)

    def test_warns_outside_the_derivation_regime(self):
        with pytest.warns(UserWarning):
            box_packing_bound(BoxDomain((0.0,), (1.0,)), 1.0, 2.0)

    def test_monotone_decreasing_in_delta(self):
        box = BoxDomain((0.0, 0.0), (2.0, 3.0))
        for delta in (0.8, 0.4, 0.2, 0.1):
            assert box_packing_bound(box, 1.0, delta / 2) >= box_packing_bound(box, 1.0, delta)

    def test_packing_bounds_are_at_least_one(self):
        # one point always packs: every factor of both products is >= 1
        rng = np.random.default_rng(5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # delta/L >= 1 is outside the derivation regime
            for _ in range(200):
                n = int(rng.integers(1, 4))
                lower = rng.uniform(-5.0, 5.0, n)
                widths = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 5.0, n))
                L, delta, D = rng.uniform(1e-3, 10.0, 3)
                assert box_packing_bound(BoxDomain(lower, lower + widths), L, delta) >= 1.0
                assert ball_packing_bound(D * rng.integers(0, 2), L, delta, n) >= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            box_packing_bound(BoxDomain((0.0,), (1.0,)), 0.0, 0.5)
        with pytest.raises(ValueError):
            box_packing_bound(BoxDomain((0.0,), (1.0,)), 1.0, -0.5)


class TestLatticeCount:
    def test_rectangle(self):
        assert lattice_count(BoxDomain((0.0, 0.0), (3.0, 2.0))) == 12

    def test_no_integer(self):
        with pytest.warns(UserWarning):
            assert lattice_count(BoxDomain((0.2,), (0.8,))) == 0

    def test_single_point(self):
        assert lattice_count(BoxDomain((5.0,), (5.0,))) == 1


class TestBallPacking:
    def test_values(self):
        assert ball_packing_bound(1.0, 1.0, 1.0, 2) == pytest.approx(9.0)
        assert ball_packing_bound(1.0, 1.0, 2.0, 1) == pytest.approx(2.0)
        assert ball_packing_bound(0.0, 1.0, 1.0, 3) == pytest.approx(1.0)  # degenerate ball

    def test_cross_check_by_string_formula(self):
        # guard against transcription errors: recompute via the expression
        # interpreter, a fully independent code path
        for D, L, delta, n in [(1.0, 1.0, 1.0, 2), (2.5, 0.7, 0.3, 3), (1.0, 1.0, 2.0, 1)]:
            formula = parse(f"(2*{L}*{D}/{delta} + 1)^{n}", 1)
            assert ball_packing_bound(D, L, delta, n) == pytest.approx(
                evaluate(formula, np.zeros(1)), rel=1e-12
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            ball_packing_bound(1.0, -1.0, 1.0, 2)


class TestComplexityEnvelopes:
    def test_upper_values(self):
        assert complexity_upper(1.0, 1.0, 1) == pytest.approx(3.0)
        assert complexity_upper(1.0, 0.1, 2) == pytest.approx(441.0)

    def test_upper_monotonicity(self):
        assert complexity_upper(1.0, 0.1, 2) >= 1.0
        assert complexity_upper(1.0, 0.05, 2) > complexity_upper(1.0, 0.1, 2)
        assert complexity_upper(2.0, 0.1, 2) > complexity_upper(1.0, 0.1, 2)

    def test_lower_values(self):
        assert complexity_lower(1.0, 0.5, 1, c=1.0) == pytest.approx(2.0)
        assert complexity_lower(2.0, 0.5, 2, c=1.0) == pytest.approx(1.0)

    def test_lower_validation(self):
        with pytest.raises(ValueError):
            complexity_lower(0.5, 0.5, 1)
        with pytest.raises(ValueError):
            complexity_lower(1.0, 0.5, 1, c=0.0)

    def test_upper_validation(self):
        with pytest.raises(ValueError):
            complexity_upper(0.0, 0.1, 2)


class TestRadiusAsphericity:
    def test_square_inf(self):
        assert box_radius_asphericity(BoxDomain((-1, -1), (1, 1)), NormKind.Inf) == (1.0, 1.0)

    def test_rectangle_inf(self):
        radius, asph = box_radius_asphericity(BoxDomain((0, 0), (4, 2)), NormKind.Inf)
        assert (radius, asph) == (2.0, 2.0)

    def test_square_two(self):
        radius, asph = box_radius_asphericity(BoxDomain((-1, -1), (1, 1)), NormKind.Two)
        assert radius == pytest.approx(math.sqrt(2.0))
        assert asph == pytest.approx(math.sqrt(2.0))

    def test_one_norm(self):
        radius, asph = box_radius_asphericity(BoxDomain((0, 0), (4, 2)), NormKind.One)
        assert radius == pytest.approx(3.0)  # sum of half-widths
        assert asph == pytest.approx(3.0)

    def test_zero_width_coordinate(self):
        box = BoxDomain((0.0, 1.0), (4.0, 1.0))
        with pytest.raises(ValueError):
            box_radius_asphericity(box, NormKind.Inf)
        assert box_radius(box, NormKind.Inf) == 2.0  # radius still available


class TestOverflow:
    # past the float range an upper bound is true but vacuous, and reads inf
    # with no warning; inf is no lower bound, so the lower envelope raises

    def test_box_packing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert box_packing_bound(BoxDomain((0.0, 0.0), (1e200, 1e200)), 1.0, 0.5) == math.inf

    def test_lattice_count(self):
        box = BoxDomain((0.0, 0.0), (1e200, 1e200), integral=(True, True))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lattice_count(box) == math.inf

    @pytest.mark.parametrize("norm, expected", [
        (NormKind.One, 1e200), (NormKind.Two, math.sqrt(2.0) * 5e199), (NormKind.Inf, 5e199),
    ])
    def test_box_radius_past_the_square_range(self, norm, expected):
        # 5e199 squared overflows; the radius is taken again scaled
        box = BoxDomain((0.0, 0.0), (1e200, 1e200))
        assert box_radius(box, norm) == pytest.approx(expected, rel=1e-15)

    def test_ball_packing(self):
        assert ball_packing_bound(1.0, 1.0, 1e-200, 2) == math.inf

    def test_complexity_upper(self):
        assert complexity_upper(1.0, 1e-200, 2) == math.inf

    def test_complexity_lower_raises(self):
        with pytest.raises(ValueError, match="complexity lower bound"):
            complexity_lower(1.0, 1e-200, 2)
