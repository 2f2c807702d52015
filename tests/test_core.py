import math

import numpy as np
import pytest

from lipcut.core import (
    BoxDomain,
    ConstraintSpec,
    Cut,
    NormKind,
    ObjectiveSpec,
    RelaxedRegion,
    cut_radius,
    norm_eval,
    positive_part,
    region_membership,
)


class TestNormEval:
    def test_two_norm(self):
        assert norm_eval(NormKind.Two, (1.0, 1.0)) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_inf_norm(self):
        assert norm_eval(NormKind.Inf, (-0.3, 0.7)) == pytest.approx(0.7, abs=0)

    def test_one_norm(self):
        assert norm_eval(NormKind.One, (0.4, 0.4)) == pytest.approx(0.8, abs=1e-15)

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            norm_eval(NormKind.Two, [])

    def test_monotonicity_all_norms(self):
        # |v_i| <= |w_i| for all i must imply norm(v) <= norm(w)
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = rng.integers(1, 6)
            w = rng.normal(size=n) * 3
            v = w * rng.random(n)  # shrink each component toward zero
            for kind in NormKind:
                assert norm_eval(kind, v) <= norm_eval(kind, w) + 1e-15

    def test_positive_definiteness(self):
        rng = np.random.default_rng(8)
        for kind in NormKind:
            assert norm_eval(kind, np.zeros(3)) == 0.0
            for _ in range(50):
                v = rng.normal(size=3)
                if np.any(v != 0):
                    assert norm_eval(kind, v) > 0.0


class TestNormNames:
    @pytest.mark.parametrize("text, kind", [
        ("1", NormKind.One), (1, NormKind.One), (" 2 ", NormKind.Two), ("inf", NormKind.Inf), ("INF", NormKind.Inf),
    ])
    def test_the_enum_values_name_the_norms(self, text, kind):
        assert NormKind.from_string(text) is kind

    @pytest.mark.parametrize("text", ["one", "two", "infinity", "max", "2.0", ""])
    def test_other_spellings_are_refused(self, text):
        with pytest.raises(ValueError, match=r"expected '1', '2' or 'inf'"):
            NormKind.from_string(text)


class TestPositivePart:
    def test_mixed(self):
        assert positive_part((-1.0, 2.0)).tolist() == [0.0, 2.0]

    def test_all_feasible(self):
        assert positive_part((-3.0, -0.5)).tolist() == [0.0, 0.0]

    def test_positive_value_passes_through(self):
        assert positive_part((1.8415,)).tolist() == [1.8415]


class TestCutRadius:
    def test_sin_example_iteration_0(self):
        # violation 1.8415 over L = sqrt(2) gives the first exclusion radius
        assert cut_radius((1.8415,), 1.41421, NormKind.Two) == pytest.approx(1.302, abs=1e-3)

    def test_feasible_point_zero_radius(self):
        assert cut_radius((-1.0, -2.0), 5.0, NormKind.Inf) == 0.0

    def test_sin_example_iteration_1(self):
        assert cut_radius((0.16,), 1.41421, NormKind.Two) == pytest.approx(0.113, abs=1e-3)

    def test_nonpositive_L_rejected(self):
        with pytest.raises(ValueError):
            cut_radius((1.0,), 0.0, NormKind.Two)
        with pytest.raises(ValueError):
            cut_radius((1.0,), -2.0, NormKind.One)
        # a NaN constant would give a NaN radius and an infinite one a radius of 0
        for L in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                cut_radius((1.0,), L, NormKind.Two)

    def test_radius_scales_inversely_with_L(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            r = rng.normal(size=3)
            L = float(rng.uniform(0.1, 5.0))
            alpha = float(rng.uniform(0.1, 10.0))
            for kind in NormKind:
                assert cut_radius(r, alpha * L, kind) == pytest.approx(
                    cut_radius(r, L, kind) / alpha, rel=1e-12, abs=1e-300
                )


def satisfies(cut, x, box=BoxDomain((-10.0, -10.0), (10.0, 10.0))) -> bool:
    """One cut's verdict on x, read off a one-cut region whose box holds x."""
    return region_membership(RelaxedRegion(box, (cut,)), x)


class TestCutSatisfied:
    def test_outside_ball(self):
        cut = Cut((-1.0, -1.0), 1.302, norm=NormKind.Two)
        assert satisfies(cut, (0.0, 0.0))  # distance sqrt(2) >= 1.302

    def test_center_always_excluded(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            center = rng.normal(size=2)
            cut = Cut(center, float(rng.uniform(1e-8, 2.0)), norm=NormKind.One)
            assert not satisfies(cut, center)

    def test_zero_radius_excludes_nothing(self):
        cut = Cut((0.5, 0.5), 0.0)
        assert satisfies(cut, (0.5, 0.5))

    def test_boundary_is_feasible(self):
        cut = Cut((0.0, 0.0), 1.0, norm=NormKind.Inf)
        assert satisfies(cut, (1.0, 0.3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            satisfies(Cut((0.0, 0.0), 1.0), (1.0,))

    def test_non_finite_center_or_radius_rejected(self):
        # a NaN radius would otherwise reach the cut kernel, where it
        # excludes no box and admits no point
        for center, radius in (((0.0, 0.0), math.nan), ((0.0, 0.0), math.inf), ((math.nan, 0.0), 1.0)):
            with pytest.raises(ValueError, match="finite"):
                Cut(center, radius)

    def test_caller_arrays_stay_writable(self):
        # the cut keeps read-only copies; it used to freeze the caller's
        # own float center and bool mask in place
        center, mask = np.array([0.0, 0.0]), np.array([True, False])
        cut = Cut(center, 1.0, mask)
        center[0], mask[1] = 5.0, True
        assert cut.center.tolist() == [0.0, 0.0] and cut.mask.tolist() == [True, False]
        assert not cut.center.flags.writeable and not cut.mask.flags.writeable

    def test_masked_distance(self):
        # distance measured over the first coordinate only
        cut = Cut((0.0, 0.0), 1.0, mask=(True, False), norm=NormKind.Two)
        assert not satisfies(cut, (0.5, 5.0))
        assert satisfies(cut, (1.0, 0.0))


class TestRegionMembership:
    def test_box_only(self):
        region = RelaxedRegion(BoxDomain((-1, -1), (1, 1)))
        assert region_membership(region, (0.2, -0.4))
        assert not region_membership(region, (1.2, 0.0))

    def test_cut_center_excluded(self):
        region = RelaxedRegion(BoxDomain((-1, -1), (1, 1)))
        region = region.with_cut(Cut((-1.0, -1.0), 1.302, norm=NormKind.Two))
        assert not region_membership(region, (-1.0, -1.0))
        assert region_membership(region, (1.0, 1.0))

    def test_integral_tolerance(self):
        region = RelaxedRegion(BoxDomain((0.0,), (3.0,), integral=(True,)))
        assert region_membership(region, (1.0 + 5e-10,))
        assert not region_membership(region, (1.001,))

    def test_membership_mask_agrees_with_scalar(self):
        rng = np.random.default_rng(11)
        box = BoxDomain((-2, -2), (2, 2))
        region = RelaxedRegion(box).with_cut(Cut((0.0, 0.5), 0.8, norm=NormKind.One))
        region = region.with_cut(Cut((1.0, -1.0), 0.5, norm=NormKind.Inf))
        points = rng.uniform(-2.5, 2.5, size=(500, 2))
        mask = region.membership_mask(points)
        for ok, p in zip(mask, points):
            assert ok == region_membership(region, p)


class TestBoxDomain:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            BoxDomain((1.0,), (0.0,))
        with pytest.raises(ValueError):
            BoxDomain((0.0,), (math.inf,))

    def test_integral_needs_a_lattice_point(self):
        with pytest.raises(ValueError):
            BoxDomain((0.2,), (0.8,), integral=(True,))
        BoxDomain((0.2,), (1.1,), integral=(True,))  # contains 1

    def test_integral_bounds_just_off_an_integer(self):
        # an integral coordinate takes the integers in [lower, upper]: none
        # lies in [1 + 1e-10, 1 + 2e-10], though 1 is within INTEGRALITY_TOL
        with pytest.raises(ValueError, match="contains no integer"):
            BoxDomain((1.0 + 1e-10,), (1.0 + 2e-10,), integral=(True,))
        BoxDomain((1.0 - 1e-10,), (1.0 + 2e-10,), integral=(True,))  # contains 1

    def test_a_width_past_the_float_range_is_refused(self):
        # both bounds are finite, their difference is not
        with pytest.raises(ValueError, match=r"coordinate 0: the width of \[-1e\+308, 1e\+308\] overflows"):
            BoxDomain((-1e308, 0.0), (1e308, 1.0))
        with pytest.raises(ValueError, match="coordinate 1: the width"):
            BoxDomain((0.0, -1.7e308), (1.0, 1.7e308), integral=(True, False))
        box = BoxDomain((0.0, -1e308), (1e308, 0.0))
        assert box.widths.tolist() == [1e308, 1e308] and not box.widths.flags.writeable

    def test_empty_box_is_rejected(self):
        with pytest.raises(ValueError, match="at least one coordinate"):
            BoxDomain([], [])
        with pytest.raises(ValueError, match="at least one coordinate"):
            BoxDomain((), (), ())

    def test_lattice_hull(self):
        box = BoxDomain((0.3, -1.2, 2.0, -2.5, 1.0 - 1e-10), (2.7, 5.5, 2.0, -1.0, 1.0 + 2e-10),
                        integral=(True, False, True, True, True))
        assert box.hull_lower.tolist() == [1.0, -1.2, 2.0, -2.0, 1.0]
        assert box.hull_upper.tolist() == [2.0, 5.5, 2.0, -1.0, 1.0]
        assert not (box.hull_lower.flags.writeable or box.hull_upper.flags.writeable)
        with pytest.raises(ValueError):
            box.hull_lower[0] = 0.0
        continuous = BoxDomain((0.3, -1.2), (2.7, 5.5))
        assert np.array_equal(continuous.hull_lower, continuous.lower)
        assert np.array_equal(continuous.hull_upper, continuous.upper)

    def test_caller_arrays_stay_writable(self):
        lower, upper, integral = np.array([0.0, 0.0]), np.array([1.0, 2.0]), np.array([False, True])
        box = BoxDomain(lower, upper, integral)
        lower[0], upper[0], integral[0] = -1.0, 3.0, True
        assert box.lower.tolist() == [0.0, 0.0] and box.upper.tolist() == [1.0, 2.0]
        assert box.integral.tolist() == [False, True]
        assert not any(a.flags.writeable for a in (box.lower, box.upper, box.integral))

    def test_compares_and_hashes_by_identity(self):
        box, twin = BoxDomain((0, 0), (1, 1)), BoxDomain((0, 0), (1, 1))
        assert box == box and not box != box
        assert not box == twin and box != twin
        assert box in {box} and twin not in {box} and len({box, twin}) == 2
        cut, cut_twin = Cut((0.5, 0.5), 0.25), Cut((0.5, 0.5), 0.25)
        assert cut == cut and cut != cut_twin and not cut == cut_twin
        assert cut in {cut} and cut_twin not in {cut} and len({cut, cut_twin}) == 2
        assert RelaxedRegion(box, (cut,)) == RelaxedRegion(box, (cut,))
        assert RelaxedRegion(box, (cut,)) != RelaxedRegion(box, (cut_twin,))

    def test_diameter(self):
        box = BoxDomain((1.0, 0.0), (10.0, 4.0))
        assert box.diameter(NormKind.Two) == pytest.approx(math.sqrt(81 + 16))
        assert box.diameter(NormKind.One) == pytest.approx(13.0)
        assert box.diameter(NormKind.Inf) == pytest.approx(9.0)


class TestSpecConstants:
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    def test_lipschitz_constants_must_be_finite_and_positive(self, value):
        components = (lambda x: x[0],)
        with pytest.raises(ValueError, match="finite and positive"):
            ObjectiveSpec(evaluator=lambda x: x[0], lipschitz_f=value)
        with pytest.raises(ValueError, match="finite and positive"):
            ConstraintSpec(components=components, global_L=value)
        with pytest.raises(ValueError, match="finite and positive"):
            ConstraintSpec(components=components * 2, global_L=1.0, component_L=(1.0, value))
        ConstraintSpec(components=components * 2, global_L=1.0, component_L=(1.0, 2.0))

    def test_batch_only_specs(self):
        batch = (lambda p: p[:, 0], lambda p: -p[:, 1])
        constraint = ConstraintSpec(components=(), global_L=1.0, batch_components=batch)
        assert constraint.m == 2
        assert constraint.evaluate_batch(np.array([[1.0, 2.0]])).tolist() == [[1.0, -2.0]]
        objective = ObjectiveSpec(None, 1.0, batch_evaluator=lambda p: p[:, 0])
        assert objective.evaluate_batch(np.array([[3.0, 0.0]])).tolist() == [3.0]
        # component_L and active_mask are checked against the batch form's m
        with pytest.raises(ValueError, match="component_L length mismatch"):
            ConstraintSpec(components=(), global_L=1.0, batch_components=batch, component_L=(1.0,))
        with pytest.raises(ValueError, match="active_mask length mismatch"):
            ConstraintSpec(components=(), global_L=1.0, batch_components=batch, active_mask=((True, False),))
        with pytest.raises(ValueError, match="batch_components length mismatch"):
            ConstraintSpec(components=(lambda x: x[0],), global_L=1.0, batch_components=batch)

