"""Core geometry: box domains, monotone norms, and norm-ball exclusion cuts.

All types here are immutable after construction.  A ``RelaxedRegion``
stacks its cuts into per-(norm, mask) arrays once, and one chunked kernel
tests points (membership) and boxes (exclusion) against all of them.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

INTEGRALITY_TOL = 1e-9

# Elements in one (rows, cuts) temporary of the stacked cut kernel; bounds
# its memory whatever the number of points and cuts.
_CHUNK_ELEMENTS = 1 << 14


class NormKind(enum.Enum):
    """The three supported p-norms.  All are monotone: |x_i| <= |y_i| for
    every i implies norm(x) <= norm(y)."""

    One = "1"
    Two = "2"
    Inf = "inf"

    @classmethod
    def from_string(cls, text: str) -> "NormKind":
        try:
            return _NORM_ALIASES[str(text).strip().lower()]
        except KeyError:
            raise ValueError(f"unknown norm {text!r}; expected '1', '2' or 'inf'") from None


_NORM_ALIASES = {
    "1": NormKind.One,
    "one": NormKind.One,
    "2": NormKind.Two,
    "two": NormKind.Two,
    "inf": NormKind.Inf,
    "infinity": NormKind.Inf,
    "max": NormKind.Inf,
}


def norm_eval(norm: NormKind, v) -> float:
    """Evaluate the given norm of a vector.

    Raises ValueError on an empty vector.
    """
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise ValueError("norm of an empty vector is undefined")
    if norm is NormKind.One:
        return float(np.sum(np.abs(v)))
    if norm is NormKind.Two:
        return float(np.sqrt(np.sum(v * v)))
    return float(np.max(np.abs(v)))


def norm_eval_rows(norm: NormKind, m: np.ndarray) -> np.ndarray:
    """Row-wise norm of a 2-D array; vectorized companion of norm_eval."""
    if norm is NormKind.One:
        return np.sum(np.abs(m), axis=-1)
    if norm is NormKind.Two:
        return np.sqrt(np.sum(m * m, axis=-1))
    return np.max(np.abs(m), axis=-1)


def positive_part(v) -> np.ndarray:
    """Component-wise max(v_i, 0)."""
    return np.maximum(np.asarray(v, dtype=float), 0.0)


def cut_radius(r_value, L: float, image_norm: NormKind) -> float:
    """Radius of the exclusion ball for constraint values ``r_value``:
    norm of the positive part divided by the Lipschitz constant L.
    """
    if L <= 0:
        raise ValueError(f"Lipschitz constant must be positive, got {L}")
    return norm_eval(image_norm, positive_part(r_value)) / L


@dataclass(frozen=True)
class BoxDomain:
    """A compact axis-aligned box, optionally integer-valued per coordinate."""

    lower: np.ndarray
    upper: np.ndarray
    integral: np.ndarray

    def __init__(self, lower, upper, integral=None):
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower/upper must be 1-D vectors of equal length")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("box bounds must be finite")
        if np.any(lower > upper):
            raise ValueError("lower bound exceeds upper bound")
        if integral is None:
            integral = np.zeros(lower.shape, dtype=bool)
        else:
            integral = np.atleast_1d(np.asarray(integral, dtype=bool))
            if integral.shape != lower.shape:
                raise ValueError("integral mask length mismatch")
        for j in np.flatnonzero(integral):
            if np.ceil(lower[j] - INTEGRALITY_TOL) > np.floor(upper[j] + INTEGRALITY_TOL):
                raise ValueError(f"coordinate {j} is integral but [{lower[j]}, {upper[j]}] contains no integer")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "integral", integral)
        for arr in (self.lower, self.upper, self.integral):
            arr.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.lower.size

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def diameter(self, norm: NormKind) -> float:
        return norm_eval(norm, self.widths)

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != self.lower.shape:
            raise ValueError("dimension mismatch")
        return bool(self.contains_mask(x[None, :], tol)[0])

    def contains_mask(self, points: np.ndarray, tol: float = 0.0) -> np.ndarray:
        """Vectorized ``contains`` for an (N, n) array of points."""
        points = np.asarray(points, dtype=float)
        ok = (points >= self.lower - tol).all(axis=1) & (points <= self.upper + tol).all(axis=1)
        if self.integral.any():
            xi = points[:, self.integral]
            ok &= (np.abs(xi - np.round(xi)) <= INTEGRALITY_TOL).all(axis=1)
        return ok


@functools.lru_cache(maxsize=None)
def _all_true_mask(n: int) -> np.ndarray:
    """The read-only all-true mask of dimension n, shared by every cut made
    without a mask, so a region of K such cuts holds one mask, not K."""
    mask = np.ones(n, dtype=bool)
    mask.setflags(write=False)
    return mask


@dataclass(frozen=True)
class Cut:
    """One norm-ball exclusion: points x with masked-norm(x - center) < radius
    are infeasible.  The boundary (distance exactly equal to the radius) is
    feasible; a radius-0 cut excludes nothing.  ``mask`` selects the
    coordinates over which the distance is measured (all-true by default).
    """

    center: np.ndarray
    radius: float
    mask: np.ndarray
    norm: NormKind

    def __init__(self, center, radius: float, mask=None, norm: NormKind = NormKind.Two):
        center = np.atleast_1d(np.asarray(center, dtype=float))
        radius = float(radius)
        if not (np.isfinite(center).all() and np.isfinite(radius)):
            raise ValueError(f"cut center and radius must be finite, got {center} and {radius}")
        if radius < 0:
            raise ValueError(f"cut radius must be nonnegative, got {radius}")
        if mask is None:
            mask = _all_true_mask(center.size)
        else:
            mask = np.atleast_1d(np.asarray(mask, dtype=bool))
            if mask.shape != center.shape:
                raise ValueError("mask length mismatch")
            if not mask.any():
                raise ValueError("cut mask selects no coordinates")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "norm", norm)
        self.center.setflags(write=False)
        self.mask.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.center.size


def cut_satisfied(cut: Cut, x) -> bool:
    """True iff x lies on or outside the cut's exclusion ball."""
    x = np.asarray(x, dtype=float)
    if x.shape != cut.center.shape:
        raise ValueError("dimension mismatch between cut and point")
    if cut.radius == 0.0:
        return True
    d = (x - cut.center)[cut.mask]
    return norm_eval(cut.norm, d) >= cut.radius


@dataclass(frozen=True)
class RelaxedRegion:
    """A box domain minus the accumulated exclusion balls.

    ``cuts`` is the public tuple of ``Cut``.  Construction also stacks the
    cuts of positive radius into one group per (norm, mask): the masked
    column indices, the centers restricted to them as a (columns, cuts)
    array, and the radii.  ``membership_mask`` and ``excluded_mask`` run
    the same chunked kernel over those groups.
    """

    domain: BoxDomain
    cuts: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "cuts", tuple(self.cuts))
        groups: dict = {}
        for c in self.cuts:
            if c.dimension != self.domain.dimension:
                raise ValueError("cut dimension does not match domain")
            if c.radius > 0.0:
                groups.setdefault((c.norm, c.mask.tobytes()), []).append(c)
        stacked = []
        for (norm, _), members in groups.items():
            cols = [int(j) for j in np.flatnonzero(members[0].mask)]
            centers = np.array([c.center[cols] for c in members]).T.copy()
            radii = np.array([c.radius for c in members])
            centers.setflags(write=False)
            radii.setflags(write=False)
            stacked.append((norm, cols, centers, radii))
        object.__setattr__(self, "_groups", tuple(stacked))

    def with_cut(self, cut: Cut) -> "RelaxedRegion":
        return RelaxedRegion(self.domain, self.cuts + (cut,))

    def membership_mask(self, points: np.ndarray) -> np.ndarray:
        """True for the (N, n) points in the box that satisfy every cut."""
        points = np.asarray(points, dtype=float)
        return self._cut_kernel(points, None, self.domain.contains_mask(points))

    def excluded_mask(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """True for the boxes [los[i], his[i]] lying strictly inside some
        exclusion ball: the farthest box point is closer to the cut center
        than the radius."""
        return self._cut_kernel(los, his, np.zeros(len(los), dtype=bool))

    def _cut_kernel(self, a: np.ndarray, b: np.ndarray | None, out: np.ndarray) -> np.ndarray:
        """Membership when ``b`` is None (``out &=`` distance >= radius for
        every cut), else box exclusion (``out |=`` farthest distance <
        radius for some cut), in blocks of at most _CHUNK_ELEMENTS."""
        membership = b is None
        for norm, cols, centers, radii in self._groups:
            if (not out.any()) if membership else out.all():
                break
            step = max(1, _CHUNK_ELEMENTS // radii.size)
            for s in range(0, len(a), step):
                e = s + step
                dist = _cut_distances(norm, cols, centers, a[s:e], None if membership else b[s:e])
                if membership:
                    out[s:e] &= (dist >= radii).all(axis=1)
                else:
                    out[s:e] |= (dist < radii).any(axis=1)
        return out


def _cut_distances(norm: NormKind, cols: list, centers: np.ndarray, a: np.ndarray, b: np.ndarray | None):
    """(rows, cuts) masked distances from each row of ``a`` to each center,
    or, given ``b``, from the farthest point of each box [a, b].

    One (rows, cuts) slice per masked column, so every numpy loop runs
    along the cuts.  Each offset is a difference taken first, and the
    columns are summed in index order: the bits of ``norm_eval_rows`` on
    the column-major (rows, columns) array that fancy indexing
    ``points[:, mask]`` returns, which is what the per-cut loop computed.
    """
    acc = None
    for j, c in zip(cols, centers):
        t = np.abs(a[:, j, None] - c)
        if b is not None:
            np.maximum(t, np.abs(b[:, j, None] - c), out=t)
        if norm is NormKind.Two:
            t *= t
        if acc is None:
            acc = t
        elif norm is NormKind.Inf:
            np.maximum(acc, t, out=acc)
        else:
            acc += t
    return np.sqrt(acc) if norm is NormKind.Two else acc


def region_membership(region: RelaxedRegion, x) -> bool:
    """x is in the box (integral coordinates integer within 1e-9) and
    satisfies every cut."""
    x = np.asarray(x, dtype=float)
    if x.shape != region.domain.lower.shape:
        raise ValueError("dimension mismatch")
    return bool(region.membership_mask(x[None, :])[0])


@dataclass(frozen=True)
class ObjectiveSpec:
    """Black-box objective with a Lipschitz constant valid for the chosen
    domain norm.  ``batch_evaluator`` optionally maps an (N, n) array to N
    values; when absent the scalar evaluator is looped."""

    evaluator: Callable[[np.ndarray], float]
    lipschitz_f: float
    batch_evaluator: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not self.lipschitz_f > 0:
            raise ValueError(f"objective Lipschitz constant must be positive, got {self.lipschitz_f}")

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        if self.batch_evaluator is not None:
            return np.asarray(self.batch_evaluator(points), dtype=float)
        return np.array([self.evaluator(p) for p in points], dtype=float)


@dataclass(frozen=True)
class ConstraintSpec:
    """Vector-valued constraint r(x) <= 0 given as m scalar evaluators.

    ``global_L`` is a Lipschitz constant of the whole vector map with
    respect to (domain norm, image_norm); ``component_L`` optionally gives
    per-component constants; ``pointwise_L`` optionally evaluates a
    point-dependent constant (never exceeding ``global_L``).
    ``active_mask`` rows mark which coordinates each component depends on.
    """

    components: tuple
    global_L: float
    image_norm: NormKind = NormKind.Two
    component_L: tuple | None = None
    active_mask: tuple | None = None
    pointwise_L: Callable[[np.ndarray], float] | None = None
    batch_components: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("constraint has no components")
        if not self.global_L > 0:
            raise ValueError(f"global Lipschitz constant must be positive, got {self.global_L}")
        if self.component_L is not None:
            comp = tuple(float(v) for v in self.component_L)
            if len(comp) != len(self.components):
                raise ValueError("component_L length mismatch")
            if any(v <= 0 for v in comp):
                raise ValueError("component Lipschitz constants must be positive")
            object.__setattr__(self, "component_L", comp)
        if self.active_mask is not None:
            masks = tuple(np.atleast_1d(np.asarray(m, dtype=bool)) for m in self.active_mask)
            if len(masks) != len(self.components):
                raise ValueError("active_mask length mismatch")
            object.__setattr__(self, "active_mask", masks)
        if self.batch_components is not None:
            object.__setattr__(self, "batch_components", tuple(self.batch_components))

    @property
    def m(self) -> int:
        return len(self.components)

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.array([c(x) for c in self.components], dtype=float)

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """(N, n) points -> (N, m) constraint values."""
        if self.batch_components is not None:
            return np.stack([np.asarray(c(points), dtype=float) for c in self.batch_components], axis=1)
        return np.array([[c(p) for c in self.components] for p in points], dtype=float)


@dataclass(frozen=True)
class Problem:
    """A full problem instance: minimize the objective over the box subject
    to the vector constraint r(x) <= 0, with distances measured in
    ``domain_norm``."""

    domain: BoxDomain
    objective: ObjectiveSpec
    constraint: ConstraintSpec
    domain_norm: NormKind = NormKind.Two
