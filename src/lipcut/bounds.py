"""Closed-form termination and complexity bounds.

For an infeasible problem every pair of iterates stays at least delta/L
apart (delta = the minimum constraint violation over the box), so the
iteration count is bounded by a packing number.  The functions here
evaluate the closed-form packing bounds for boxes, lattices and balls, the
radius/asphericity of a box in each norm, and the iteration-complexity
envelopes for epsilon-approximate solving.  Pure arithmetic, safe
everywhere.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import BoxDomain, NormKind, norm_eval


class BoundKind(enum.Enum):
    BoxPacking = "box-packing"
    LatticeCount = "lattice-count"
    BallPacking = "ball-packing"
    ComplexityLower = "complexity-lower"
    ComplexityUpper = "complexity-upper"


@dataclass(frozen=True)
class BoundReport:
    kind: BoundKind
    value: float
    inputs: dict = field(default_factory=dict)

    def __post_init__(self):
        packing = (BoundKind.BoxPacking, BoundKind.BallPacking)
        if self.kind in packing and self.value < 1.0:
            raise ValueError("a packing bound is at least 1 (one point always packs)")


def box_packing_bound(box: BoxDomain, L: float, delta: float) -> float:
    """prod_j ((L/delta) * width_j + 1): max points of pairwise
    distance > delta/L in the box under the max norm.  Derived under
    delta/L < 1; outside that regime the value is still computed but a
    warning is issued."""
    _check_positive(L=L, delta=delta)
    if delta / L >= 1.0:
        warnings.warn(f"packing bound derived for delta/L < 1, got {delta / L}")
    return float(np.prod((L / delta) * box.widths + 1.0))


def lattice_count(box: BoxDomain) -> int:
    """prod_j (floor(upper_j) - ceil(lower_j) + 1): lattice points in the
    box.  Returns 0 with a warning when some coordinate admits no integer
    (the bound is then vacuous)."""
    per_coord = np.floor(box.upper) - np.ceil(box.lower) + 1.0
    if np.any(per_coord < 1.0):
        warnings.warn("box contains no lattice point in some coordinate; bound vacuous")
        return 0
    return int(round(float(np.prod(per_coord))))


def ball_packing_bound(D: float, L: float, delta: float, n: int) -> float:
    """(2 L D / delta + 1)^n for a Euclidean ball of radius D."""
    _check_positive(L=L, delta=delta, n=n)
    if D < 0:
        raise ValueError("ball radius must be nonnegative")
    return float((2.0 * L * D / delta + 1.0) ** n)


def complexity_upper(rho: float, epsilon: float, n: int) -> float:
    """((2 rho + epsilon) / epsilon)^n: oracle calls until an
    epsilon-approximate solution, for a domain of radius rho."""
    _check_positive(rho=rho, epsilon=epsilon, n=n)
    return float(((2.0 * rho + epsilon) / epsilon) ** n)


def complexity_lower(alpha: float, epsilon: float, n: int, c: float = 1.0) -> float:
    """(c / (alpha * epsilon))^n with asphericity alpha >= 1.

    The constant c is a free parameter (default 1): the underlying lower
    bound only asserts existence of some c > 0.
    """
    if alpha < 1.0:
        raise ValueError("asphericity is at least 1 by definition")
    _check_positive(epsilon=epsilon, n=n, c=c)
    return float((c / (alpha * epsilon)) ** n)


def box_radius(box: BoxDomain, norm: NormKind) -> float:
    """Radius of the smallest norm ball containing the box (centered at the
    box center): the norm of the half-widths."""
    return norm_eval(norm, 0.5 * box.widths)


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


def _check_positive(**values):
    for name, value in values.items():
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")


def termination_report(box: BoxDomain, L: float, delta: float) -> BoundReport:
    """The applicable packing bound: lattice count for all-integral boxes,
    the box bound otherwise."""
    if box.integral.all():
        return BoundReport(BoundKind.LatticeCount, float(lattice_count(box)), {"delta": delta, "L": L})
    value = box_packing_bound(box, L, delta)
    return BoundReport(BoundKind.BoxPacking, value, {"delta": delta, "L": L})
