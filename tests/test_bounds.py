import math

import numpy as np
import pytest

from lipcut.bounds import (
    BoundKind,
    BoundReport,
    ball_packing_bound,
    box_packing_bound,
    box_radius,
    box_radius_asphericity,
    complexity_lower,
    complexity_upper,
    lattice_count,
    termination_report,
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


class TestReports:
    def test_termination_report_picks_lattice_for_integral_boxes(self):
        box = BoxDomain((0.0, 0.0), (3.0, 2.0), integral=(True, True))
        report = termination_report(box, 2.0, 1.0)
        assert report.kind is BoundKind.LatticeCount
        assert report.value == 12

    def test_termination_report_box(self):
        report = termination_report(BoxDomain((-1.0,), (1.0,)), 2.0, 1.0)
        assert report.kind is BoundKind.BoxPacking
        assert report.value == pytest.approx(5.0)

    def test_packing_report_validates(self):
        with pytest.raises(ValueError):
            BoundReport(BoundKind.BoxPacking, 0.5)
