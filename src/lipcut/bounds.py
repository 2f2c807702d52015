"""Closed-form termination and complexity bounds.

For an infeasible problem every pair of iterates stays at least delta/L
apart (delta = the minimum constraint violation over the box), so the
iteration count is bounded by a packing number.  The functions here
evaluate the closed-form packing bounds for boxes, lattices and balls, the
radius/asphericity of a box in each norm, and the iteration-complexity
envelopes for epsilon-approximate solving.  Pure arithmetic, safe
everywhere: an upper bound past the float range reads inf (true but
vacuous), and a lower bound there raises ValueError.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .core import BoxDomain, NormKind, finite, nonnegative, norm_eval, positive, positive_integer


def box_packing_bound(box: BoxDomain, L: float, delta: float) -> float:
    """prod_j ((L/delta) * width_j + 1): max points of pairwise
    distance > delta/L in the box under the max norm.  Derived under
    delta/L < 1; outside that regime the value is still computed but a
    warning is issued."""
    L, delta = positive(L, "L"), positive(delta, "delta")
    if delta / L >= 1.0:
        warnings.warn(f"packing bound derived for delta/L < 1, got {delta / L}")
    with np.errstate(over="ignore"):
        return float(np.prod((L / delta) * box.widths + 1.0))


def lattice_count(box: BoxDomain) -> int | float:
    """prod_j (floor(upper_j) - ceil(lower_j) + 1): lattice points in the
    box, inf past the float range.  Returns 0 with a warning when some
    coordinate admits no integer (the bound is then vacuous)."""
    per_coord = np.floor(box.upper) - np.ceil(box.lower) + 1.0
    if np.any(per_coord < 1.0):
        warnings.warn("box contains no lattice point in some coordinate; bound vacuous")
        return 0
    with np.errstate(over="ignore"):
        count = float(np.prod(per_coord))
    return int(count) if count < math.inf else math.inf


def ball_packing_bound(D: float, L: float, delta: float, n: int) -> float:
    """(2 L D / delta + 1)^n for a Euclidean ball of radius D."""
    D, L, delta, n = nonnegative(D, "D"), positive(L, "L"), positive(delta, "delta"), positive_integer(n, "n")
    return _power(2.0 * L * D / delta + 1.0, n)


def complexity_upper(rho: float, epsilon: float, n: int) -> float:
    """((2 rho + epsilon) / epsilon)^n: oracle calls until an
    epsilon-approximate solution, for a domain of radius rho."""
    rho, epsilon, n = positive(rho, "rho"), positive(epsilon, "epsilon"), positive_integer(n, "n")
    return _power((2.0 * rho + epsilon) / epsilon, n)


def complexity_lower(alpha: float, epsilon: float, n: int, c: float = 1.0) -> float:
    """(c / (alpha * epsilon))^n with asphericity alpha >= 1.

    The constant c is a free parameter (default 1): the underlying lower
    bound only asserts existence of some c > 0.
    """
    if finite(alpha, "alpha") < 1.0:
        raise ValueError(f"asphericity is at least 1 by definition, got {alpha!r}")
    epsilon, n, c = positive(epsilon, "epsilon"), positive_integer(n, "n"), positive(c, "c")
    value = _power(c / (alpha * epsilon), n)
    if value == math.inf:
        raise ValueError(f"complexity lower bound (c / (alpha * epsilon))^n overflows for epsilon = {epsilon}")
    return value


def box_radius(box: BoxDomain, norm: NormKind) -> float:
    """Radius of the smallest norm ball containing the box (centered at the
    box center): the norm of the half-widths.  A sum that overflows while
    every half-width is finite is taken again scaled by the largest one."""
    half = 0.5 * box.widths
    with np.errstate(over="ignore"):
        radius = norm_eval(norm, half)
    if math.isinf(radius) and np.isfinite(half).all():
        scale = float(np.max(np.abs(half)))
        radius = scale * norm_eval(norm, half / scale)
    return radius


def box_radius_asphericity(box: BoxDomain, norm: NormKind) -> tuple[float, float]:
    """(radius, asphericity) of a box: circumscribed-ball radius and its
    ratio to the inscribed-ball radius (= the smallest half-width, in all
    three norms).  A zero-width coordinate makes the asphericity undefined
    and raises; use ``box_radius`` for the radius alone."""
    radius = box_radius(box, norm)
    min_half = float(np.min(0.5 * box.widths))
    if min_half <= 0.0:
        raise ValueError("asphericity undefined for a zero-width coordinate (radius via box_radius)")
    return radius, radius / min_half


def _power(base: float, n: int) -> float:
    """base^n, inf past the float range (a Python float power raises)."""
    try:
        return float(base**n)
    except OverflowError:
        return math.inf
