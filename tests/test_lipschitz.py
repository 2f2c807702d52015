import itertools
import math

import numpy as np
import pytest

from lipcut.core import BoxDomain, NormKind
from lipcut.expr import batch_evaluator, parse
from lipcut.lipschitz import (
    EstimateMethod,
    LipschitzEstimate,
    induced_norm,
    induced_norms,
    jacobian_sup_bound,
    slope_sampling_estimate,
    spectral_norms,
)

NORMS = (NormKind.One, NormKind.Two, NormKind.Inf)


def unit_sphere_points(p: NormKind, count: int = 20000) -> np.ndarray:
    """Dense deterministic sample of the 2-D unit p-sphere (independent
    reference for induced norms: the sup over the sphere)."""
    t = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
    d = np.stack([np.cos(t), np.sin(t)], axis=1)
    if p is NormKind.Two:
        return d
    if p is NormKind.One:
        return d / np.abs(d).sum(axis=1, keepdims=True)
    return d / np.abs(d).max(axis=1)[:, None]


def norm_rows(q: NormKind, m: np.ndarray) -> np.ndarray:
    if q is NormKind.One:
        return np.abs(m).sum(axis=1)
    if q is NormKind.Two:
        return np.sqrt((m * m).sum(axis=1))
    return np.abs(m).max(axis=1)


class TestInducedNorm:
    def test_matches_sphere_supremum_all_nine_pairs(self):
        # in 2-D the unit p-sphere is a curve; a dense sample bounds the
        # induced norm from below to ~1e-7 (the maximum is smooth or
        # polyhedral-vertex-attained in every pair)
        rng = np.random.default_rng(41)
        for m_rows in (1, 2, 3):
            A = rng.normal(size=(m_rows, 2)) * rng.uniform(0.5, 3.0)
            for p in NORMS:
                sphere = unit_sphere_points(p)
                # include the polytope vertices where polyhedral maxima live
                if p is NormKind.One:
                    sphere = np.vstack([sphere, np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])])
                if p is NormKind.Inf:
                    sphere = np.vstack([sphere, np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])])
                images = sphere @ A.T
                for q in NORMS:
                    reference = norm_rows(q, images).max()
                    value = induced_norm(A, p, q)
                    assert value == pytest.approx(reference, rel=1e-6, abs=1e-9)

    def test_two_one_keeps_the_bits_of_its_own_row_sign_enumeration(self):
        # reference: a sign enumeration over the rows, and the sigma_max
        # bound past 14 rows; the library takes the (inf, 2) norm of the
        # transposed view, which must give the same bits
        def replaced(jacobians):
            _, m, _ = jacobians.shape
            if m > 14:
                return spectral_norms(jacobians) * np.sqrt(m), False
            tails = np.array(list(itertools.product((1.0, -1.0), repeat=m - 1))).reshape(2 ** (m - 1), m - 1)
            signs = np.hstack([np.ones((len(tails), 1)), tails])
            images = np.einsum("kmn,sm->ksn", jacobians, signs)
            return np.sqrt(np.sum(images * images, axis=-1)).max(axis=1), True

        rng = np.random.default_rng(53)
        shapes = [(500, m, n) for m in range(1, 7) for n in range(1, 7)]
        shapes += [(50, m, n) for m in (15, 16) for n in range(1, 5)]
        for shape in shapes:
            for scale in (1e-3, 1.0, 1e3):
                jacobians = rng.normal(size=shape) * scale
                values, exact = induced_norms(jacobians, NormKind.Two, NormKind.One)
                expected, expected_exact = replaced(jacobians)
                assert exact is expected_exact
                assert np.array_equal(values, expected), shape

    def test_two_two_matches_svd(self):
        rng = np.random.default_rng(43)
        for shape in ((2, 2), (3, 2), (2, 4), (5, 3)):
            A = rng.normal(size=shape)
            assert induced_norm(A, NormKind.Two, NormKind.Two) == pytest.approx(
                np.linalg.svd(A, compute_uv=False)[0], rel=1e-9
            )

    def test_closed_forms(self):
        A = np.array([[1.0, -2.0], [3.0, 0.5]])
        assert induced_norm(A, NormKind.One, NormKind.One) == pytest.approx(4.0)  # max col abs sum
        assert induced_norm(A, NormKind.Inf, NormKind.Inf) == pytest.approx(3.5)  # max row abs sum
        assert induced_norm(A, NormKind.One, NormKind.Inf) == pytest.approx(3.0)  # max |entry|

    def test_spectral_norms_batch(self):
        rng = np.random.default_rng(47)
        batch = rng.normal(size=(40, 3, 2))
        values = spectral_norms(batch)
        reference = np.linalg.svd(batch, compute_uv=False)[:, 0]
        assert np.allclose(values, reference, rtol=1e-8)


class TestSpectralNorms:
    def test_top_singular_vector_orthogonal_to_a_fixed_start(self):
        # A^T A = 3 u u^T + v v^T with u orthogonal to v = (1, 1.001)/|.|:
        # a power iteration started from v never leaves the eigenvalue 1,
        # while the exact norm is sqrt(3)
        v = np.array([1.0, 1.001]) / np.linalg.norm([1.0, 1.001])
        u = np.array([-v[1], v[0]])
        A = np.linalg.cholesky(3.0 * np.outer(u, u) + np.outer(v, v)).T
        values = spectral_norms(A[None])
        assert values[0] == pytest.approx(math.sqrt(3.0), rel=1e-12)
        assert np.allclose(values, np.linalg.svd(A[None], compute_uv=False)[:, 0], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("shape", [(64, 1, 5), (64, 4, 1), (64, 1, 1), (64, 2, 2), (64, 3, 5)]
                             + [s for k in range(3, 7) for s in ((64, 2, k), (64, k, 2))])
    def test_random_stacks_match_svd(self, shape):
        rng = np.random.default_rng(53)
        batch = rng.normal(size=shape) * rng.uniform(1e-3, 1e3, size=(shape[0], 1, 1))
        reference = np.linalg.svd(batch, compute_uv=False)[:, 0]
        assert np.allclose(spectral_norms(batch), reference, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("shape", [(3, 1, 4), (3, 4, 1), (3, 2, 2), (3, 2, 5), (3, 5, 2), (3, 3, 5),
                                       (0, 2, 2), (0, 2, 6), (0, 6, 2)])
    def test_zero_matrices(self, shape):
        values = spectral_norms(np.zeros(shape))
        assert values.shape == (shape[0],)
        assert (values == 0.0).all()

    def test_rank_one_and_equal_singular_values(self):
        rng = np.random.default_rng(67)
        u, v = rng.normal(size=(50, 2)), rng.normal(size=(50, 4))
        rank_one = np.einsum("ki,kj->kij", u, v)  # (50, 2, 4), sigma_max = |u| |v|
        expected = np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
        assert np.allclose(spectral_norms(rank_one), expected, rtol=1e-12, atol=0)
        assert np.allclose(spectral_norms(np.swapaxes(rank_one, 1, 2)), expected, rtol=1e-12, atol=0)
        # s times a rotation: orthogonal columns of equal length (b = 0, a = c)
        t, s = rng.uniform(0.0, 2.0 * math.pi, 50), rng.uniform(0.5, 2.0, 50)
        rotations = np.stack([np.stack([np.cos(t), -np.sin(t)], 1), np.stack([np.sin(t), np.cos(t)], 1)], 1)
        assert np.allclose(spectral_norms(s[:, None, None] * rotations), s, rtol=1e-12, atol=0)
        assert spectral_norms(np.array([[[3.0, 0.0], [0.0, 3.0]]]))[0] == 3.0

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_entry_scales(self, scale):
        # unscaled squares of these entries underflow to 0 or overflow to inf
        rng = np.random.default_rng(71)
        for shape in ((40, 2, 2), (40, 2, 5), (40, 5, 2)):
            batch = rng.normal(size=shape) * scale
            reference = np.linalg.svd(batch, compute_uv=False)[:, 0]
            values = spectral_norms(batch)
            assert np.isfinite(values).all() and (values > 0).all()
            assert np.allclose(values, reference, rtol=1e-12, atol=0)

    def test_two_wide_stacks_never_reach_the_svd(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        rng = np.random.default_rng(73)
        batches = [rng.normal(size=shape) for k in range(1, 7) for shape in ((16, 2, k), (16, k, 2))]
        references = [np.linalg.svd(b, compute_uv=False)[:, 0] for b in batches]
        monkeypatch.setattr(np.linalg, "svd", refuse)
        for batch, reference in zip(batches, references):
            assert np.allclose(spectral_norms(batch), reference, rtol=1e-12, atol=0)
            values, exact = induced_norms(batch, NormKind.Two, NormKind.Two)
            assert exact and np.allclose(values, reference, rtol=1e-12, atol=0)
        # the (inf, 2) and (2, 1) sigma_max fallbacks beyond the enumeration cap
        wide = rng.normal(size=(4, 2, 16))
        assert not induced_norms(wide, NormKind.Inf, NormKind.Two)[1]
        assert not induced_norms(np.swapaxes(wide, 1, 2), NormKind.Two, NormKind.One)[1]
        # a two-constraint grid estimate on a 2-D box: (4096, 2, 2) Jacobians
        exprs = [parse("sin(x1) * x2", 2), parse("x1 - cos(x2)", 2)]
        box = BoxDomain((-1.0, -1.0), (1.0, 1.0))
        assert jacobian_sup_bound(exprs, box, NormKind.Two, NormKind.Two).value > 0

    @pytest.mark.parametrize("q", [NormKind.One, NormKind.Two])
    def test_sigma_max_fallback_beyond_the_enumeration_cap(self, q):
        # (inf, q) with n = 16 > 14 columns: no sign enumeration, sigma_max
        # scaled by the norm-equivalence constant, flagged inexact
        rng = np.random.default_rng(59)
        batch = rng.normal(size=(8, 3, 16))
        values, exact = induced_norms(batch, NormKind.Inf, q)
        sigma = np.linalg.svd(batch, compute_uv=False)[:, 0]
        factor = math.sqrt(3 * 16) if q is NormKind.One else math.sqrt(16)
        assert not exact
        assert np.allclose(values, sigma * factor, rtol=1e-12, atol=0)
        # still an upper bound: the image of any sign vertex is no longer
        signs = np.where(rng.random((256, 16)) < 0.5, -1.0, 1.0)
        images = np.einsum("kmn,sn->ksm", batch, signs)
        attained = np.abs(images).sum(axis=2) if q is NormKind.One else np.linalg.norm(images, axis=2)
        assert (attained.max(axis=1) <= values).all()


class TestJacobianSupBound:
    BOX2 = BoxDomain((-1.0, -1.0), (1.0, 1.0))

    def test_sin_example_constant(self):
        est = jacobian_sup_bound(
            [parse("-sin(x1) - x2", 2)], self.BOX2, NormKind.Two, NormKind.Two,
            grid_per_dim=64, safety=1.0,
        )
        assert est.value == pytest.approx(math.sqrt(2.0), abs=1e-3)
        assert est.method is EstimateMethod.JacobianGrid
        assert est.exact_norms

    def test_component_constraint_squared(self):
        box = BoxDomain((1.0, 0.0), (10.0, 4.0))
        est = jacobian_sup_bound(
            [parse("cos(6*x1)/2 - x2 + 1.8", 2)], box, NormKind.Two, NormKind.Two,
            grid_per_dim=256, safety=1.0,
        )
        assert est.value**2 == pytest.approx(10.0, rel=0.02)

    def test_linear_map_exact_for_all_nine_pairs(self):
        # constant Jacobian: the grid bound equals the exact induced norm
        A = np.array([[1.5, -2.0], [0.5, 3.0]])
        exprs = [parse("1.5*x1 - 2*x2", 2), parse("0.5*x1 + 3*x2", 2)]
        for p in NORMS:
            for q in NORMS:
                est = jacobian_sup_bound(exprs, self.BOX2, p, q, grid_per_dim=2, safety=1.0)
                assert est.value == pytest.approx(induced_norm(A, p, q), rel=1e-8)

    def test_nested_grid_refinement_is_nondecreasing(self):
        e = parse("sin(3*x1)*cos(2*x2)", 2)
        values = []
        k = 3
        for _ in range(4):
            est = jacobian_sup_bound([e], self.BOX2, NormKind.Two, NormKind.Two, grid_per_dim=k, safety=1.0)
            values.append(est.value)
            k = 2 * k - 1  # superset lattice
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-12

    def test_abs_doubles_the_safety_factor(self):
        est = jacobian_sup_bound(
            [parse("abs(x1 - x2) + x1", 2)], self.BOX2, NormKind.Two, NormKind.Two,
            grid_per_dim=16, safety=1.05,
        )
        assert est.safety_factor == pytest.approx(2.1)

    def test_overflowing_difference_quotient_is_refused(self):
        # the slope of exp(709*x1) near x1 = 1 overflows the double range
        box = BoxDomain((0.0,), (1.0,))
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError, match="finite and positive, got inf"):
                jacobian_sup_bound([parse("exp(709*x1) - 0.5", 1)], box, NormKind.Two, NormKind.Two)

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0, True])
    def test_estimate_must_be_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="finite and positive"):
            LipschitzEstimate(value, EstimateMethod.JacobianGrid, 1.05, 64)

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            jacobian_sup_bound([parse("x1", 1)], BoxDomain((0.0,), (1.0,)), NormKind.Two,
                               NormKind.Two, grid_per_dim=1)


class TestSlopeSampling:
    def test_linear_function(self):
        box = BoxDomain((0.0,), (1.0,))
        est = slope_sampling_estimate(
            lambda pts: 2.0 * pts, box, NormKind.Two, NormKind.Two,
            pairs=10_000, inflation=0.0, seed=1,
        )
        assert 1.9 <= est.value <= 2.0
        assert est.method is EstimateMethod.SlopeSampling

    def test_constant_function_floors_with_warning(self):
        box = BoxDomain((0.0,), (1.0,))
        with pytest.warns(UserWarning):
            est = slope_sampling_estimate(
                lambda pts: np.full(len(pts), 3.0), box, NormKind.Two, NormKind.Two, pairs=100, seed=0,
            )
        assert est.value == 1e-12

    def test_sin_example_bounded_by_true_constant(self):
        box = BoxDomain((-1.0, -1.0), (1.0, 1.0))
        est = slope_sampling_estimate(
            batch_evaluator(parse("-sin(x1) - x2", 2)), box, NormKind.Two, NormKind.Two,
            pairs=100_000, inflation=0.0, seed=3,
        )
        assert 1.30 <= est.value <= 1.4143

    def test_soundness_on_the_sample(self):
        # with zero inflation, every sampled slope is <= the estimate and
        # the argmax pair attains it; re-derive the slopes independently,
        # one pair at a time
        box = BoxDomain((-2.0, 0.5), (1.0, 2.0))
        fn = lambda x: np.array([math.sin(2 * x[0]) + x[1] ** 2, x[0] * x[1]])
        batch = lambda p: np.stack([np.sin(2 * p[:, 0]) + p[:, 1] ** 2, p[:, 0] * p[:, 1]], axis=1)
        est = slope_sampling_estimate(batch, box, NormKind.Two, NormKind.Two, pairs=500,
                                      inflation=0.0, seed=9)
        rng = np.random.default_rng(9)
        xs = box.lower + rng.random((500, 2)) * box.widths
        ys = box.lower + rng.random((500, 2)) * box.widths
        slopes = [
            np.linalg.norm(fn(x) - fn(y)) / np.linalg.norm(x - y) for x, y in zip(xs, ys)
        ]
        assert max(slopes) == pytest.approx(est.value, rel=1e-12)
        assert all(s <= est.value + 1e-12 for s in slopes)

    def test_seed_determinism(self):
        box = BoxDomain((0.0, 0.0), (1.0, 1.0))
        fn = lambda p: (p[:, 0] ** 2 - p[:, 1])[:, None]
        a = slope_sampling_estimate(fn, box, NormKind.Two, NormKind.Two, pairs=200, seed=5)
        b = slope_sampling_estimate(fn, box, NormKind.Two, NormKind.Two, pairs=200, seed=5)
        assert a.value == b.value

    def test_integral_box_redraws_degenerate_pairs_in_order(self):
        # four lattice points: 6 of the 8 first pairs are degenerate
        box = BoxDomain((0.0, 0.0), (1.0, 1.0), (True, True))
        f = lambda p: p[:, 0] + 2.0 * p[:, 1] + 4.0 * p[:, 0] * p[:, 1]
        est = slope_sampling_estimate(f, box, NormKind.Two, NormKind.Two, pairs=8, inflation=0.0, seed=8)
        # re-derived: each degenerate pair, in pair order, redraws its
        # second point until the two differ
        rng = np.random.default_rng(8)
        draw = lambda count: np.floor(rng.random((count, 2)) * 2.0)
        xs, ys = draw(8), draw(8)
        assert (xs == ys).all(axis=1).sum() == 6
        for x, y in zip(xs, ys):
            while (x == y).all():
                y[:] = draw(1)[0]
        slopes = np.abs(f(xs) - f(ys)) / np.linalg.norm(xs - ys, axis=1)
        assert est.value == slopes.max() == 5.0

    def test_one_point_box_cannot_draw_a_pair(self):
        box = BoxDomain((0.0,), (0.5,), (True,))  # the one integer 0
        with pytest.raises(ValueError, match="could not draw"):
            slope_sampling_estimate(lambda p: p[:, 0], box, NormKind.Two, NormKind.Two, pairs=3)

    def test_pairs_validation(self):
        with pytest.raises(ValueError):
            slope_sampling_estimate(lambda p: p, BoxDomain((0.0,), (1.0,)), NormKind.Two,
                                    NormKind.Two, pairs=0)
