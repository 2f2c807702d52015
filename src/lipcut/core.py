"""Core geometry: box domains, monotone norms, and norm-ball exclusion cuts.

All types here are immutable after construction and own their arrays.
Every norm is taken by ``_cut_distances``, which adds the terms (absolute
values, squared in the 2-norm; the inf-norm takes their maximum) one at a
time in index order: ``norm_eval`` and ``norm_eval_rows`` pass it the
rows of any array, so distances, violation norms and cut radii
(``cut_radius``, for both cut modes) have the same bits wherever taken.

A ``RelaxedRegion`` stacks its cuts into per-(norm, mask) arrays once, on
first use, and three chunked passes over the stacked cuts share that
routine:

* ``membership_mask``: every (point, cut) pair of a batch of points;
* ``box_relations``: the (box, cut) pairs that a (cuts, boxes) candidate
  mask marks, in one pass: is the box inside the ball (exclusion), does
  the ball touch the box widened by a few ulps, and does the ball hold a
  given point of the box.  The branch and bound's root passes every
  cut.  A child box gets the cuts that touch its parent: it lies inside
  its parent, so its widened box lies inside the parent's (the margin
  cannot grow and rounding is monotone), and a cut that misses the
  parent's widened box can neither exclude the child, touch it nor hold
  its center.  The answers are those of a pass over every cut;
* ``touching_membership``: membership of the (n, boxes, slots) points
  drawn from boxes, a (boxes, slots) mask, each point tested only against
  the cuts that touch its box, one column at a time, and against the
  domain only where the caller says a box's points may leave it.  The
  branch and bound tests the points it harvests this way; every other cut
  is provably satisfied there.

The last two walk the candidate (cut, box) pairs in cut-major order
through one routine, which numbers the pairs, dispatches them by group
and chunks them.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

INTEGRALITY_TOL = 1e-9

# Bounds one chunk of a stacked cut pass: points x cuts in the membership
# pass, or candidate (cut, box) pairs times the points per box (the 4
# sides in the box pass) times the columns in the pair walk, stays within
# this many elements, so memory is bounded whatever the number of points,
# boxes and cuts.
_CHUNK_ELEMENTS = 1 << 14


class NonFiniteValueError(ValueError):
    """A user function returned NaN or an infinity: every value the solver
    reads must be finite.  ``point`` is the input and ``value`` what came
    back (a constraint's whole row)."""

    def __init__(self, what: str, point, value):
        self.point = np.array(point, dtype=float)
        self.value = value
        super().__init__(f"{what} at {self.point} must be finite, got {value}")


def _one_per_point(what: str, points, values) -> np.ndarray:
    """``values`` as floats, when it holds one value per point: shape (N,)."""
    values = np.asarray(values, dtype=float)
    if values.shape != (len(points),):
        raise ValueError(f"{what} must have shape ({len(points)},), one per point, got shape {values.shape}")
    return values


def _finite_values(what: str, points, values: np.ndarray) -> np.ndarray:
    """``values``, one value or row per point, when every entry is finite;
    otherwise NonFiniteValueError at the first point whose value or row is
    not.  An empty batch passes."""
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite.reshape(len(values), -1).all(axis=1)))
        raise NonFiniteValueError(what, points[i], values[i])
    return values


# Checks of inputs: each returns the value the caller stores.
def _checked(value, what: str, rule: str, ok) -> float:
    real = isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool)  # the ABC test is slow
    x = float(value) if real and abs(value) <= sys.float_info.max else math.nan  # float(10**400) raises
    if not ok(x):
        raise ValueError(f"{what} must be {rule}, got {value!r}")
    return x


def finite(value, what: str) -> float:
    return _checked(value, what, "a finite number", math.isfinite)


def positive(value, what: str) -> float:
    return _checked(value, what, "finite and positive", lambda x: x > 0)


def nonnegative(value, what: str) -> float:
    return _checked(value, what, "finite and nonnegative", lambda x: x >= 0)


def positive_integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")
    return int(value)


def _sized(vector: np.ndarray, size: int | None) -> bool:
    return vector.ndim == 1 and vector.size > 0 and size in (None, vector.size)


def finite_vector(value, what: str, size: int | None = None) -> np.ndarray:
    """A read-only float copy of ``value``, which must be a non-empty 1-D
    vector of finite real numbers, ``size`` of them when given: text and
    booleans are not numbers here."""
    vector = np.array(value)
    if vector.dtype.kind not in "iuf" or not _sized(vector, size) or not np.isfinite(vector).all():
        raise ValueError(f"{what} must be a 1-D vector of finite numbers, got {value!r}")
    vector = vector.astype(float, copy=False)
    vector.setflags(write=False)
    return vector


def boolean_vector(value, what: str, size: int | None = None) -> np.ndarray:
    """A read-only copy of ``value``, which must be a non-empty 1-D vector
    of booleans, ``size`` of them when given: text, numbers and index
    lists are not masks here."""
    vector = np.array(value)
    if vector.dtype != bool or not _sized(vector, size):
        raise ValueError(f"{what} must be a list of booleans, one per coordinate, got {value!r}")
    vector.setflags(write=False)
    return vector


def member(value, kind: type[enum.Enum], what: str):
    """``value`` when it is a member of the enum ``kind``; anything else,
    the member's value spelled as text included, raises."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a {kind.__name__}, got {value!r}")
    return value


class NormKind(enum.Enum):
    """The three supported p-norms.  All are monotone: |x_i| <= |y_i| for
    every i implies norm(x) <= norm(y)."""

    One = "1"
    Two = "2"
    Inf = "inf"

    @classmethod
    def from_string(cls, text: str) -> "NormKind":
        """The norm named by its value, "1", "2" or "inf", ignoring case
        and surrounding spaces."""
        try:
            return cls(str(text).strip().lower())
        except ValueError:
            raise ValueError(f"unknown norm {text!r}; expected '1', '2' or 'inf'") from None


def norm_eval(norm: NormKind, v) -> float:
    """The given norm of a vector (a scalar is one term); ValueError when empty."""
    return float(norm_eval_rows(norm, v))


def norm_eval_rows(norm: NormKind, m) -> np.ndarray:
    """The given norm over the last axis of an array of any shape (a
    scalar is one term), in the arithmetic of every cut: ``_cut_distances``
    of the absolute entries, whose terms add in index order whatever the
    array's memory layout.  Raises ValueError on an empty last axis.
    """
    member(norm, NormKind, "norm")
    m = np.asarray(m, dtype=float)
    if m.shape[-1:] == (0,):
        raise ValueError("norm of an empty vector is undefined")
    if m.ndim <= 1:
        return _cut_distances(norm, np.abs(m).reshape(-1, 1))[0]
    # the last axis first, and each of its slices contiguous
    return _cut_distances(norm, np.abs(m.T, order="C")).T


def positive_part(v) -> np.ndarray:
    """Component-wise max(v_i, 0)."""
    return np.maximum(np.asarray(v, dtype=float), 0.0)


def cut_radius(r_value, L: float, image_norm: NormKind) -> float:
    """Radius of the exclusion ball for constraint values ``r_value``:
    norm of the positive part divided by the Lipschitz constant L, which
    must be finite and positive (component cuts: r / L_p, inf-norm, L = 1).
    """
    return norm_eval(image_norm, positive_part(r_value)) / positive(L, "Lipschitz constant L")


@dataclass(frozen=True, eq=False)
class BoxDomain:
    """A compact axis-aligned box of dimension at least 1, optionally
    integer-valued per coordinate.  Boxes compare and hash by identity:
    equal bounds do not make two boxes equal.

    An integral coordinate takes the integers in [lower, upper], of which
    there must be at least one; ``contains`` accepts a value within
    ``INTEGRALITY_TOL`` of such an integer.  ``widths`` is upper - lower,
    which must be finite.  ``hull_lower`` and ``hull_upper`` bound the
    box's lattice hull: ceil(lower) and floor(upper) on integral
    coordinates, the bounds themselves elsewhere.  All arrays are
    read-only."""

    lower: np.ndarray
    upper: np.ndarray
    integral: np.ndarray

    def __init__(self, lower, upper, integral=None):
        lower = finite_vector(lower, "lower")
        upper = finite_vector(upper, "upper", lower.size)
        if np.any(lower > upper):
            raise ValueError("lower bound exceeds upper bound")
        with np.errstate(over="ignore"):
            widths = upper - lower
        if not np.isfinite(widths).all():
            j = np.argmax(~np.isfinite(widths))
            raise ValueError(f"coordinate {j}: the width of [{lower[j]}, {upper[j]}] overflows")
        integral = boolean_vector([False] * lower.size if integral is None else integral, "integral", lower.size)
        hull_lower, hull_upper = lower, upper
        if integral.any():
            hull_lower = np.where(integral, np.ceil(lower), lower)
            hull_upper = np.where(integral, np.floor(upper), upper)
            if np.any(hull_lower > hull_upper):
                j = np.argmax(hull_lower > hull_upper)
                raise ValueError(f"coordinate {j} is integral but [{lower[j]}, {upper[j]}] contains no integer")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "integral", integral)
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "hull_lower", hull_lower)
        object.__setattr__(self, "hull_upper", hull_upper)
        object.__setattr__(self, "_integral_cols", np.flatnonzero(integral))
        for arr in (widths, hull_lower, hull_upper, self._integral_cols):
            arr.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.lower.size

    @property
    def center(self) -> np.ndarray:
        # halves first, so that the sum cannot overflow; a subnormal half
        # rounds (0.5 * 5e-324 is 0), which can carry the sum past a bound
        mid = 0.5 * self.lower + 0.5 * self.upper
        return np.where(mid < self.lower, self.lower, np.where(mid > self.upper, self.upper, mid))

    def diameter(self, norm: NormKind) -> float:
        return norm_eval(norm, self.widths)

    def contains(self, x) -> bool:
        x = finite_vector(x, "x", self.dimension)
        return bool(self.contains_mask(x[None, :])[0])

    def contains_mask(self, points: np.ndarray) -> np.ndarray:
        """Vectorized ``contains`` for an (N, n) array of points."""
        points = np.asarray(points, dtype=float)
        lower, upper = self.lower, self.upper
        ok = ((points >= lower) & (points <= upper)).all(axis=1)
        cols = self._integral_cols
        if cols.size:
            # within INTEGRALITY_TOL of an integer that lies in the box
            xi = points[:, cols]
            k = np.round(xi)
            ok &= ((np.abs(xi - k) <= INTEGRALITY_TOL) & (k >= lower[cols]) & (k <= upper[cols])).all(axis=1)
        return ok


@functools.lru_cache(maxsize=None)
def _full_mask(dim: int) -> np.ndarray:
    """The all-true mask of ``dim`` coordinates, read-only and built once
    per dimension: every maskless cut shares it."""
    out = np.ones(dim, dtype=bool)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False, slots=True)
class Cut:
    """One norm-ball exclusion: points x with masked-norm(x - center) < radius
    are infeasible.  The boundary (distance exactly equal to the radius) is
    feasible; a radius-0 cut excludes nothing.  ``mask`` selects the
    coordinates over which the distance is measured (all-true by default,
    one read-only array shared by the maskless cuts of a dimension).
    Cuts compare and hash by identity, like boxes.
    """

    center: np.ndarray
    radius: float
    mask: np.ndarray
    norm: NormKind

    def __init__(self, center, radius: float, mask=None, norm: NormKind = NormKind.Two):
        center = finite_vector(center, "cut center")
        radius = nonnegative(radius, "cut radius")
        if mask is None:
            mask = _full_mask(center.size)
        else:
            mask = boolean_vector(mask, "cut mask", center.size)
            if not mask.any():
                raise ValueError("cut mask selects no coordinates")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "norm", member(norm, NormKind, "norm"))

    @property
    def dimension(self) -> int:
        return self.center.size


@dataclass(frozen=True)
class RelaxedRegion:
    """A box domain minus the accumulated exclusion balls.

    ``cuts`` is the public tuple of ``Cut``.  The first test against the
    region stacks the cuts of positive radius into one group per (norm,
    mask), in order of first appearance: the masked columns (indices, or
    a slice for a full mask), the centers restricted to them as a
    (columns, cuts) array, and the radii.  The groups laid end to end
    number the stacked cuts 0..K-1, the rows of ``box_relations``'s
    ``touching``.  A region never tested, such as the driver's final
    region, holds no stacked copy of its cuts.
    """

    domain: BoxDomain
    cuts: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "cuts", tuple(self.cuts))
        for c in self.cuts:
            if c.dimension != self.domain.dimension:
                raise ValueError("cut dimension does not match domain")

    @functools.cached_property
    def _stacked(self) -> tuple:
        """The groups, each (norm, columns, centers, radii, first stacked
        index), and the (groups + 1) array of their first stacked indices
        followed by K."""
        groups: dict = {}
        for c in self.cuts:
            if c.radius > 0.0:
                groups.setdefault((c.norm, c.mask.tobytes()), []).append(c)
        stacked, starts = [], [0]
        for (norm, _), members in groups.items():
            mask = members[0].mask
            # a slice selects by views, not copies
            cols = slice(None) if mask.all() else np.flatnonzero(mask)
            centers = np.array([c.center[cols] for c in members]).T.copy()
            radii = np.array([c.radius for c in members])
            centers.setflags(write=False)
            radii.setflags(write=False)
            stacked.append((norm, cols, centers, radii, starts[-1]))
            starts.append(starts[-1] + len(members))
        return tuple(stacked), np.array(starts)

    def with_cut(self, cut: Cut) -> "RelaxedRegion":
        return RelaxedRegion(self.domain, self.cuts + (cut,))

    def membership_mask(self, points: np.ndarray) -> np.ndarray:
        """True for the (N, n) points in the box that satisfy every cut:
        masked distance >= radius."""
        points = np.asarray(points, dtype=float)
        out = self.domain.contains_mask(points)
        for norm, cols, centers, radii, _ in self._stacked[0]:
            if not out.any():
                break
            step = max(1, _CHUNK_ELEMENTS // radii.size)
            for s in range(0, len(points), step):
                a = points[s:s + step, cols]
                dist = _cut_distances(norm, (np.abs(a_j[:, None] - c) for a_j, c in zip(a.T, centers)))
                out[s:s + step] &= (dist >= radii).all(axis=1)
        return out

    @property
    def stacked_cuts(self) -> int:
        """K, the number of stacked cuts (those of positive radius)."""
        return int(self._stacked[1][-1])

    def box_relations(self, los: np.ndarray, his: np.ndarray, mids: np.ndarray, candidates: np.ndarray):
        """One pass over the (cut, box) pairs that ``candidates`` (K, N),
        cut-major, marks for the (N, n) boxes [los[i], his[i]] and one
        point mids[i] of each.  Returns:

        * ``excluded`` (N,): the farthest box point is closer than the
          radius to some cut center, so the box lies strictly inside that
          exclusion ball;
        * ``touching`` (K, N), cut-major: touching[k, i] when the nearest
          point of box i widened by the margin below is closer than the
          radius to the center of cut k;
        * ``mid_violated`` (N,): mids[i] is closer than the radius to some
          cut center (``~membership_mask`` for points in the domain).

        The answers are those of a pass over every cut when each cut left
        out for box i misses box i widened by the margin: the branch and
        bound passes a child box the cuts that touch its parent.
        """
        los = np.asarray(los, dtype=float)
        his = np.asarray(his, dtype=float)
        count, n = los.shape
        # excluded and mid_violated
        flags = np.zeros((2, count), dtype=bool)
        touching = np.zeros(candidates.shape, dtype=bool)
        # Margin.  A point p that the branch and bound draws from a box as
        # lo + s*(hi - lo), s in [0, 1], exceeds hi by less than 4 ulps of
        # max(|lo|, |hi|) (three roundings, each at most one such ulp; the
        # box [-1, 1.5*2^-53] has the corner 2^-52 > hi), so p lies in the
        # widened box [lo - w, hi + w].  Rounding is monotone, so in every
        # column |fl(p_j - c_j)| is at least the computed offset of the
        # widened box's nearest point, max(wlo - c, c - whi, 0); squaring,
        # summing the columns in index order, sqrt and max are monotone
        # too.  So a cut that does not touch the widened box (near >= r)
        # is satisfied by p in exactly the arithmetic of
        # ``membership_mask``.
        #
        # Inheritance.  Splitting only shrinks a box, so a child lies
        # inside its parent, its max(|lo|, |hi|) cannot grow, and neither
        # can w.  Rounding is monotone, so fl(lo' - w') >= fl(lo - w) and
        # fl(hi' + w') <= fl(hi + w): the child's widened box lies inside
        # the parent's.
        # Every point of it, the child's corners and its snapped center
        # included, is therefore at least r from the center of a cut that
        # misses the parent's widened box, in the arithmetic above: that
        # cut cannot exclude the child, touch it or reject its center.
        w = 4.0 * np.spacing(np.maximum(np.abs(los), np.abs(his)))
        # (4, n, N): hi, lo, mid and lo - w, column-major; and (n, N) hi + w
        sides = np.concatenate((his, los, mids, los - w)).reshape(4, count, n).transpose(0, 2, 1)
        whis = (his + w).T
        hits = touching.ravel()
        for norm, cols, centers, radii, k, boxes, pairs in self._candidate_pairs(candidates, 4):
            c = centers.take(k, axis=1)
            d = sides.take(boxes, axis=2)[:, cols] - c
            offsets = _box_offsets(d, c, whis.take(boxes, axis=1)[cols])
            below = _cut_distances(norm, offsets.transpose(1, 0, 2)) < radii.take(k)
            flags[0, boxes[below[0]]] = True
            flags[1, boxes[below[1]]] = True
            hits[pairs[below[2]]] = True
        return flags[0], touching, flags[1]

    def touching_membership(self, points: np.ndarray, touching: np.ndarray, may_leave: np.ndarray) -> np.ndarray:
        """The (N, slots) ``membership_mask`` of the (n, N, slots) points
        drawn from N boxes, testing each point only against the stacked
        cuts that touch its box (``touching``, ``box_relations``'s (K, N)
        answer for those boxes) and against the domain only when the (N,)
        ``may_leave`` marks its box: the caller knows that the points of
        every other box lie in the domain.  The answer is exact for points
        in their box widened by ``box_relations``'s margin.  The pairs are
        walked one column at a time, a ``take`` of the boxes' (N, slots)
        plane of that column per chunk."""
        n, count, slots = points.shape
        out = np.ones((count, slots), dtype=bool)
        if may_leave.any():
            out[may_leave] = self.domain.contains_mask(points[:, may_leave].reshape(n, -1).T).reshape(-1, slots)
        columns = np.arange(n)
        for norm, cols, centers, radii, k, boxes, _ in self._candidate_pairs(touching, slots):
            dist = _cut_distances(norm, (_plane_offsets(points[j], boxes, c.take(k))
                                         for j, c in zip(columns[cols], centers)))
            pair, slot = np.nonzero(dist < radii.take(k)[:, None])
            out[boxes[pair], slot] = False
        return out

    def _candidate_pairs(self, candidates: np.ndarray, width: int):
        """The (cut, box) pairs where ``candidates`` (K, N) holds, numbered
        cut-major (pair = cut * N + box), split by group and each group's
        pairs into chunks of at most ``_CHUNK_ELEMENTS // (width * n)``.
        Yields per chunk the group's norm, columns, centers and radii, and
        the pairs' cuts within the group, boxes and pair numbers."""
        pairs = candidates.ravel().nonzero()[0]  # cut-major: cuts ascend
        cut, box = np.divmod(pairs, candidates.shape[1])
        groups, starts = self._stacked
        bounds = cut.searchsorted(starts)
        step = max(1, _CHUNK_ELEMENTS // (width * self.domain.dimension))
        for (norm, cols, centers, radii, start), a, b in zip(groups, bounds, bounds[1:]):
            for s in range(a, b, step):
                e = min(s + step, b)
                yield norm, cols, centers, radii, cut[s:e] - start, box[s:e], pairs[s:e]


def _plane_offsets(plane: np.ndarray, boxes: np.ndarray, c: np.ndarray) -> np.ndarray:
    """|p - c| for the rows ``boxes`` of one column's (N, slots) ``plane``
    of points and the pairs' cut centers ``c`` in that column."""
    d = plane.take(boxes, axis=0)
    d -= c[:, None]
    return np.abs(d, out=d)


def _box_offsets(d: np.ndarray, c: np.ndarray, whi: np.ndarray) -> np.ndarray:
    """From the differences hi, lo, mid, lo - w minus the cut center c,
    stacked on the first axis of ``d``, and hi + w, the offsets of the
    farthest box point, mid and the widened box's nearest point, stacked
    the same way; computed in place."""
    np.abs(d[:3], out=d[:3])
    np.maximum(d[0], d[1], out=d[1])
    np.subtract(c, whi, out=d[0])
    np.maximum(d[3], d[0], out=d[3])
    np.maximum(d[3], 0.0, out=d[3])
    return d[1:]


def _cut_distances(norm: NormKind, offsets) -> np.ndarray:
    """Norms from ``offsets``: one fresh array of absolute terms per
    column, in index order, as an iterable or stacked on the first axis
    (consumed in place).

    The columns are summed (or, in the inf-norm, maximized) one at a time
    in index order, whatever the number of columns and the memory layout:
    this is lipcut's only norm arithmetic.  The cut passes feed it each
    offset as a difference taken first; ``norm_eval_rows`` feeds it the
    absolute entries of any array, so the one-point checks, the per-cut
    distances and every pass give the same bits.
    """
    acc = None
    for t in offsets:
        if norm is NormKind.Two:
            t *= t
        if acc is None:
            acc = t
        elif norm is NormKind.Inf:
            np.maximum(acc, t, out=acc)
        else:
            acc += t
    return np.sqrt(acc, out=acc) if norm is NormKind.Two else acc


def region_membership(region: RelaxedRegion, x) -> bool:
    """x is in the box (integral coordinates integer within 1e-9) and
    satisfies every cut."""
    x = finite_vector(x, "x", region.domain.dimension)
    return bool(region.membership_mask(x[None, :])[0])


def _over_rows(fn):
    """A one-point function as a batch callable: its values at the rows."""
    return lambda points: np.array([fn(p) for p in points], dtype=float)


@dataclass(frozen=True)
class ObjectiveSpec:
    """Black-box objective with a Lipschitz constant valid for the chosen
    domain norm, given in one of two forms: ``batch_evaluator`` maps an
    (N, n) array to N values, the one-point ``evaluator`` (which may be
    None when ``batch_evaluator`` is given) maps one point to its value and
    is wrapped as a batch callable at construction.  The solver evaluates
    through ``evaluate_batch`` only, which calls that one callable in
    either form and raises ValueError when its values do not have shape
    (N,), ``checks_finite`` or not, and NonFiniteValueError at the first
    NaN or infinite value.

    A ``batch_evaluator`` with a true ``checks_finite`` attribute raises on
    every NaN or infinite value itself, as ``lipcut.expr.batch_evaluator``
    does with an ``EvaluationError`` (a NonFiniteValueError naming the
    node); its values are not scanned again.

    A ``batch_evaluator``'s value for a row must not depend on the other
    rows of its batch, bit for bit, as with ``lipcut.expr``'s elementwise
    numpy evaluation or a per-column sum; a BLAS product such as ``p @ w``
    can break it.  The global oracle's branch and bound measures boxes of
    several tree levels in one call and replays its decisions from those
    values, so its results are those of one call per level only under this
    requirement.  It also evaluates centers of boxes that the replay then
    prunes, so a NaN or infinite value anywhere in the box can stop a
    solve that a one-level search would have finished.  Only the global
    oracle makes such extra evaluations: the local oracle evaluates
    exactly the points and batches of its one-step-at-a-time search."""

    evaluator: Callable[[np.ndarray], float] | None
    lipschitz_f: float
    batch_evaluator: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.evaluator is None and self.batch_evaluator is None:
            raise ValueError("objective needs an evaluator or a batch_evaluator")
        object.__setattr__(self, "lipschitz_f", positive(self.lipschitz_f, "lipschitz_f"))
        batch = self.batch_evaluator if self.batch_evaluator is not None else _over_rows(self.evaluator)
        object.__setattr__(self, "_batch", batch)
        object.__setattr__(self, "_checks_finite", bool(getattr(batch, "checks_finite", False)))

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """(N, n) points -> N values; raises ValueError when the values
        have another shape, and NonFiniteValueError at the first NaN or
        infinite value (its subclass ``EvaluationError`` from a
        ``checks_finite`` evaluator)."""
        values = _one_per_point("objective values", points, self._batch(points))
        return values if self._checks_finite else _finite_values("objective value", points, values)


@dataclass(frozen=True)
class ConstraintSpec:
    """Vector-valued constraint r(x) <= 0 with m components, given in one
    of two forms: ``batch_components``, m callables each mapping an (N, n)
    array to N values, or ``components``, m one-point callables (an empty
    tuple when ``batch_components`` is given).  When both are given their
    lengths must match; one-point components are wrapped as batch
    callables at construction.  The solver evaluates through
    ``evaluate_batch`` only, which calls those callables in either form and
    raises ValueError when a component's values do not have shape (N,),
    and NonFiniteValueError at the first point whose row holds a NaN or an
    infinity, -inf included.

    ``global_L`` is a Lipschitz constant of the whole vector map with
    respect to (domain norm, image_norm); ``component_L`` optionally gives
    per-component constants; ``pointwise_L`` optionally evaluates a
    point-dependent constant (never exceeding ``global_L``) at one point,
    which the driver's vector cuts use whenever it is given.
    ``active_mask`` rows, one per component, each a 1-D vector of booleans,
    mark which coordinates each component depends on.
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
        batch = tuple(map(_over_rows, self.components))
        if self.batch_components is not None:
            batch = tuple(self.batch_components)
            object.__setattr__(self, "batch_components", batch)
            if self.components and len(batch) != len(self.components):
                raise ValueError("batch_components length mismatch")
        if not batch:
            raise ValueError("constraint needs components or batch_components")
        object.__setattr__(self, "_batch", batch)
        object.__setattr__(self, "m", len(batch))
        object.__setattr__(self, "global_L", positive(self.global_L, "global_L"))
        member(self.image_norm, NormKind, "image_norm")
        if self.component_L is not None:
            comp = tuple(positive(v, f"component_L[{p}]") for p, v in enumerate(self.component_L))
            if len(comp) != self.m:
                raise ValueError("component_L length mismatch")
            object.__setattr__(self, "component_L", comp)
        if self.active_mask is not None:
            masks = tuple(boolean_vector(m, f"active_mask[{p}]") for p, m in enumerate(self.active_mask))
            if len(masks) != self.m:
                raise ValueError("active_mask length mismatch")
            object.__setattr__(self, "active_mask", masks)

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """(N, n) points -> (N, m) constraint values; raises ValueError
        when a component's values have another shape than (N,), and
        NonFiniteValueError at the first row holding a NaN or an infinity."""
        values = np.stack([_one_per_point(f"constraint component {p} values", points, c(points))
                           for p, c in enumerate(self._batch)], axis=1)
        return _finite_values("constraint values", points, values)


@dataclass(frozen=True)
class Problem:
    """A full problem instance: minimize the objective over the box subject
    to the vector constraint r(x) <= 0, with distances measured in
    ``domain_norm``."""

    domain: BoxDomain
    objective: ObjectiveSpec
    constraint: ConstraintSpec
    domain_norm: NormKind = NormKind.Two

    def __post_init__(self):
        member(self.domain_norm, NormKind, "domain_norm")
        if any(m.shape != self.domain.lower.shape for m in self.constraint.active_mask or ()):
            raise ValueError(f"active_mask rows must have {self.domain.dimension} entries, one per coordinate")
