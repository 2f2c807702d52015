"""Global Lipschitz-constant estimation.

Two estimators are provided:

* ``jacobian_sup_bound`` takes sup ||Df(z)||_{p,q} over a lattice of the
  box via central-difference Jacobians and exact induced operator norms,
  then applies a safety factor.  It is an estimate, not a certified bound:
  the Jacobian between grid points can exceed the grid maximum by more
  than the safety factor.  On [0, 1] with the default 64-point grid,
  ``cos(63*3.14159265*x1)`` (slope up to about 198) reads about 0, and
  ``exp(-(300*(x1-0.508))^2)`` (about 257) reads 12.0.
* ``slope_sampling_estimate`` takes the maximum difference quotient over
  random point pairs and inflates it.  It estimates from below and is
  therefore heuristic; drivers should refuse it unless explicitly allowed.
  It evaluates the function through one batch callable, (N, n) points to
  N values or (N, m) rows, called once for each side of the pairs.

Induced norms ||A||_{p,q} = sup{||Ax||_q : ||x||_p <= 1} are computed
exactly for all nine {1,2,inf}^2 pairs: column/row reductions where closed
forms exist, the spectral norm (the Euclidean norm of a one-row or
one-column matrix, the closed-form 2-by-2 Gram eigenvalue of a two-row or
two-column one, the batched SVD only when both sides are at least 3), and
sign-vertex enumeration for the (inf,1), (inf,2) and (2,1) pairs.
Enumeration is exact because the maximum of a convex function over the
unit cube is attained at a vertex; beyond ``_ENUM_LIMIT`` dimensions it is
replaced by a sigma_max bound scaled by norm-equivalence constants and the
estimate is flagged as inexact.

``labelled_estimate``, which ``build()`` and ``lipcut estimate-lipschitz``
both call, runs either one under a label that names the constant in errors.

Grid and pair evaluations are order-independent reductions (max), so
results do not depend on evaluation scheduling; sampled pairs are generated
sequentially from the seed before any evaluation.
"""

from __future__ import annotations

import enum
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .core import BoxDomain, NormKind, finite, member, nonnegative, norm_eval_rows, positive, positive_integer
from .expr import batch_evaluator, contains_abs, finite_diff_jacobian_batch

_ENUM_LIMIT = 14  # sign-enumeration cap: 2^(k-1) vertices
_VALUE_FLOOR = 1e-12  # reported for a function that reads as constant


class EstimateMethod(enum.Enum):
    """The two estimators, valued by their command-line names."""

    JacobianGrid = "grid"
    SlopeSampling = "sampling"


@dataclass(frozen=True)
class LipschitzEstimate:
    """An estimated Lipschitz constant.  ``value`` already includes the
    safety/inflation factor and must be finite and positive (an infinite
    value, e.g. from an overflowing difference quotient, would make every
    cut radius 0); ``exact_norms`` is False when an induced-norm fallback
    bound was used."""

    value: float
    method: EstimateMethod
    safety_factor: float
    samples_used: int
    exact_norms: bool = True

    def __post_init__(self):
        object.__setattr__(self, "value", positive(self.value, "Lipschitz estimate"))
        if finite(self.safety_factor, "safety_factor") < 1 and self.method is not EstimateMethod.SlopeSampling:
            raise ValueError(f"safety_factor must be at least 1, got {self.safety_factor!r}")


def spectral_norms(jacobians: np.ndarray) -> np.ndarray:
    """Largest singular value per matrix of an (N, m, n) stack, exact:

    * m == 1 or n == 1: the Euclidean norm of the one row or column;
    * m == 2 or n == 2: the closed form of the 2-by-2 symmetric eigenproblem
      for the Gram matrix [[a, b], [b, c]] of the two columns (or rows),
      sigma_max = s * sqrt((a + c)/2 + hypot((a - c)/2, b)), where s is the
      matrix's largest |entry| and a, b, c come from the entries divided by
      s, so the squares neither overflow nor underflow (a zero matrix
      gives 0);
    * otherwise the batched SVD.

    See Golub & Van Loan, Matrix Computations, 2.3, 8.5 (the 2-by-2
    symmetric Schur decomposition) and 8.6."""
    jacobians = np.asarray(jacobians, dtype=float)
    _, m, n = jacobians.shape
    if m == 1 or n == 1:
        return norm_eval_rows(NormKind.Two, jacobians.reshape(len(jacobians), -1))
    if m == 2 or n == 2:
        pairs = jacobians if n == 2 else np.swapaxes(jacobians, 1, 2)  # (N, k, 2)
        scale = np.abs(pairs).max(axis=(1, 2), initial=0.0)
        u = pairs / np.where(scale > 0, scale, 1.0)[:, None, None]
        a, b, c = (np.einsum("ki,ki->k", u[:, :, i], u[:, :, j]) for i, j in ((0, 0), (0, 1), (1, 1)))
        return scale * np.sqrt(0.5 * (a + c) + np.hypot(0.5 * (a - c), b))
    return np.linalg.svd(jacobians, compute_uv=False)[:, 0]


def _sign_vertices(k: int) -> np.ndarray:
    # one representative per antipodal pair: first entry fixed at +1
    if k == 1:
        return np.ones((1, 1))
    tails = np.array(list(itertools.product((1.0, -1.0), repeat=k - 1)))
    return np.hstack([np.ones((tails.shape[0], 1)), tails])


def induced_norms(jacobians: np.ndarray, domain_norm: NormKind, image_norm: NormKind):
    """Induced (p, q) operator norms of an (N, m, n) stack.

    Returns (values, exact).  ``exact`` is False only when a sign
    enumeration would exceed the dimension cap and the sigma_max fallback
    bound was used instead.
    """
    jacobians = np.asarray(jacobians, dtype=float)
    _, m, n = jacobians.shape
    p, q = member(domain_norm, NormKind, "domain_norm"), member(image_norm, NormKind, "image_norm")

    if p is NormKind.One:
        # max over columns of the q-norm of the column
        col = norm_eval_rows(q, np.swapaxes(jacobians, 1, 2))  # (N, n)
        return col.max(axis=1), True
    if q is NormKind.Inf:
        dual = {NormKind.One: NormKind.Inf, NormKind.Two: NormKind.Two, NormKind.Inf: NormKind.One}[p]
        row = norm_eval_rows(dual, jacobians)  # (N, m)
        return row.max(axis=1), True
    if p is NormKind.Two and q is NormKind.Two:
        return spectral_norms(jacobians), True

    if p is NormKind.Inf:
        # sup over the cube is attained at a sign vertex
        if n <= _ENUM_LIMIT:
            signs = _sign_vertices(n)  # (K, n)
            imgs = np.einsum("kmn,sn->ksm", jacobians, signs)
            vals = norm_eval_rows(q, imgs)  # (N, K)
            return vals.max(axis=1), True
        factor = np.sqrt(m * n) if q is NormKind.One else np.sqrt(n)
        return spectral_norms(jacobians) * factor, False

    # remaining pair: (2, 1); by duality ||A||_{2,1} = ||A^T||_{inf,2}.  The
    # transposed view, not a contiguous copy, keeps the enumeration's bits;
    # the SVD of the transpose would move the fallback's last bits.
    if m > _ENUM_LIMIT:
        return spectral_norms(jacobians) * np.sqrt(m), False
    return induced_norms(np.swapaxes(jacobians, 1, 2), NormKind.Inf, NormKind.Two)


def induced_norm(matrix, domain_norm: NormKind, image_norm: NormKind) -> float:
    """Induced (p, q) norm of a single matrix (exact for supported sizes)."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    values, _ = induced_norms(matrix[None, :, :], domain_norm, image_norm)
    return float(values[0])


def box_grid(box: BoxDomain, grid_per_dim: int) -> np.ndarray:
    """The grid_per_dim**n lattice of the box, corners included."""
    axes = [np.linspace(lo, hi, grid_per_dim) for lo, hi in zip(box.lower, box.upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def jacobian_sup_bound(
    exprs,
    box: BoxDomain,
    domain_norm: NormKind,
    image_norm: NormKind,
    grid_per_dim: int = 64,
    safety: float = 1.05,
) -> LipschitzEstimate:
    """Grid supremum of the induced Jacobian norm, times the safety factor.

    The Jacobians are central differences with the step
    ``lipcut.expr._FD_STEP`` = 1e-6.  A Jacobian that vanishes on the whole
    grid reports ``_VALUE_FLOOR`` = 1e-12 with a warning.

    An estimate: between grid points the Jacobian norm can exceed the grid
    maximum by more than the safety factor (see the module docstring for
    two counterexamples), and an under-estimated constant makes cuts
    unsafe.  The safety factor is doubled when any expression contains
    abs(), whose kinks make the finite-difference Jacobian locally
    unreliable.
    """
    exprs = list(exprs)
    if positive_integer(grid_per_dim, "grid_per_dim") < 2:
        raise ValueError(f"grid_per_dim must be at least 2, got {grid_per_dim!r}")
    if finite(safety, "safety") < 1:
        raise ValueError(f"safety must be at least 1, got {safety!r}")
    points = box_grid(box, grid_per_dim)
    jac = finite_diff_jacobian_batch(exprs, points)
    values, exact = induced_norms(jac, domain_norm, image_norm)
    effective_safety = 2.0 * safety if any(contains_abs(e) for e in exprs) else safety
    value = float(values.max()) * effective_safety
    if value <= 0:
        warnings.warn(f"Jacobian vanished on the whole grid; reporting floor {_VALUE_FLOOR:g}")
        value = _VALUE_FLOOR
    return LipschitzEstimate(
        value=value,
        method=EstimateMethod.JacobianGrid,
        safety_factor=effective_safety,
        samples_used=points.shape[0],
        exact_norms=exact,
    )


def _sample_points(rng: np.random.Generator, box: BoxDomain, count: int) -> np.ndarray:
    """``count`` uniform points of the box, one draw per coordinate: an
    integral coordinate is uniform over the integers of its lattice hull
    [``hull_lower``, ``hull_upper``]."""
    lo, span = box.hull_lower, box.hull_upper - box.hull_lower
    u = rng.random((count, box.dimension))
    return lo + np.where(box.integral, np.floor(u * (span + 1)).clip(0, span), u * span)


def slope_sampling_estimate(
    evaluator,
    box: BoxDomain,
    domain_norm: NormKind,
    image_norm: NormKind,
    pairs: int,
    inflation: float = 0.1,
    seed: int = 0,
) -> LipschitzEstimate:
    """Maximum difference quotient over ``pairs`` random point pairs,
    multiplied by (1 + inflation).

    ``evaluator`` maps an (N, n) array of points to N values or to (N, m)
    rows; values of any other shape raise ValueError.

    This is a lower estimate of the true constant (before inflation it
    equals the largest observed slope), so it is heuristic.  A constant
    function yields ``_VALUE_FLOOR`` = 1e-12 with a warning.  Degenerate
    pairs (identical points, possible on integral domains) have their
    second point re-drawn, in pair order, up to 100 times each.
    """
    pairs, inflation = positive_integer(pairs, "pairs"), nonnegative(inflation, "inflation")
    rng = np.random.default_rng(seed)
    xs = _sample_points(rng, box, pairs)
    ys = _sample_points(rng, box, pairs)
    for i in np.flatnonzero((xs == ys).all(axis=1)):
        tries = 0
        while np.array_equal(xs[i], ys[i]):
            tries += 1
            if tries > 100:
                raise ValueError("could not draw a non-degenerate point pair in 100 tries")
            ys[i] = _sample_points(rng, box, 1)[0]

    def rows(points) -> np.ndarray:
        values = np.asarray(evaluator(points), dtype=float)
        if values.ndim not in (1, 2) or len(values) != pairs:
            raise ValueError(f"evaluator values must have shape ({pairs},) or ({pairs}, m), got shape {values.shape}")
        return values.reshape(pairs, -1)

    num = norm_eval_rows(image_norm, rows(xs) - rows(ys))
    den = norm_eval_rows(domain_norm, xs - ys)
    best = float((num / den).max())
    if best <= 0.0:
        warnings.warn("all sampled slopes are zero (constant function?); reporting floor")
        return LipschitzEstimate(_VALUE_FLOOR, EstimateMethod.SlopeSampling, 1.0 + inflation, pairs)
    return LipschitzEstimate(best * (1.0 + inflation), EstimateMethod.SlopeSampling, 1.0 + inflation, pairs)


def labelled_estimate(label: str, exprs, box: BoxDomain, domain_norm: NormKind, image_norm: NormKind,
                      method: EstimateMethod = EstimateMethod.JacobianGrid, *, grid_per_dim: int = 64,
                      safety: float = 1.05, pairs: int = 10_000, inflation: float = 0.1,
                      seed: int = 0) -> LipschitzEstimate:
    """The constant of the expressions stacked as one vector function:
    ``jacobian_sup_bound`` for ``EstimateMethod.JacobianGrid``, and
    ``slope_sampling_estimate`` over their stacked batch evaluators for
    ``EstimateMethod.SlopeSampling``; any other ``method`` raises.  An
    overflowing slope reads inf without a numpy warning, which
    ``LipschitzEstimate`` refuses.  A ValueError from the estimator, an
    ``EvaluationError`` included, is re-raised, its type and attributes
    kept, with its message prefixed by ``"{label}: "``."""
    member(method, EstimateMethod, "method")
    try:
        with np.errstate(over="ignore"):
            if method is EstimateMethod.JacobianGrid:
                return jacobian_sup_bound(exprs, box, domain_norm, image_norm, grid_per_dim, safety)
            evaluators = [batch_evaluator(e) for e in exprs]
            return slope_sampling_estimate(
                lambda points: np.stack([e(points) for e in evaluators], axis=1),
                box, domain_norm, image_norm, pairs, inflation, seed,
            )
    except ValueError as exc:
        exc.args = (f"{label}: {exc}",)
        raise
