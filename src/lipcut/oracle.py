"""Subproblem oracles: minimize an objective over a box minus norm balls.

``solve_global`` is a branch-and-bound scheme driven by the objective's
Lipschitz constant: a sub-box with center c and half-diagonal rho (in the
domain norm) has the lower bound f(c) - L_f * rho.  Sub-boxes lying
strictly inside an exclusion ball are discarded; boxes straddling a ball
boundary are branched, never linearized.  All tie-breaking is
deterministic (longest edge, lowest index; incumbent preference by value,
then lexicographically smallest point), so runs are reproducible
bit-for-bit for a fixed configuration.

``solve_local`` is a compass/pattern search intended to model a purely
local subproblem oracle.  It deliberately has no restart mechanism, so it
can exhibit convergence to poor feasible points when used inside the
cutting driver.

The root box is the domain's lattice hull (``BoxDomain.hull_lower`` and
``hull_upper``).  Splitting keeps integral bounds integers and makes no
empty child, so every box of the search has integer bounds on its
integral coordinates.  The node queue is processed in waves of up to 64
boxes, each split with array operations.  The children of a wave go
through one pass over the region's stacked cuts
(``RelaxedRegion.box_relations``), which says for each (box, cut) pair
it is given whether the box lies inside the ball, whether the ball
touches the box, and whether it holds the box's snapped center.  The
root is given every cut.  Every box keeps on the heap the cuts that
touch it, and its children are given only those: a child lies inside its
parent, so a cut that misses the parent (widened by the pass's margin)
misses the child too, and the answers are those of a pass over every
cut.  Corners and Halton samples of a box are then tested only against
the cuts that touch it; every other cut provably holds for them.
Candidate evaluations are batched, and a wave offers all its feasible
points to the incumbent at once; the incumbent reduction (value, then
lexicographic point) and the global-bound termination test make results
independent of the order within a wave.
"""

from __future__ import annotations

import enum
import functools
import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BoxDomain,
    NormKind,
    ObjectiveSpec,
    RelaxedRegion,
    norm_eval,
    norm_eval_rows,
    region_membership,
)

_WAVE_SIZE = 64
_BOX_MIN_WIDTH = 1e-10  # edges narrower than this are not split
_MAX_SAMPLES = 32
_CORNER_DIM_LIMIT = 5
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class OracleStatus(enum.Enum):
    Infeasible = "infeasible"
    Solved = "solved"


@dataclass(frozen=True)
class OracleConfig:
    """Oracle tolerance and node limit (both positive).  The branch and
    bound splits no edge narrower than ``_BOX_MIN_WIDTH`` = 1e-10."""

    tolerance: float = 1e-6
    node_limit: int = 10_000_000

    def __post_init__(self):
        if not (self.tolerance > 0 and self.node_limit > 0):
            raise ValueError("oracle configuration values must be positive")


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one subproblem solve.  When Solved, ``point`` satisfies
    region membership and ``gap`` bounds value minus the true minimum
    (infinite for local solves, which carry no global certificate)."""

    status: OracleStatus
    point: np.ndarray | None
    value: float
    gap: float
    nodes: int


class ResourceLimitError(RuntimeError):
    """Node limit exhausted; carries the best incumbent found so far."""

    def __init__(self, nodes: int, point, value: float, gap: float):
        self.nodes = nodes
        self.point = point
        self.value = value
        self.gap = gap
        super().__init__(f"node limit reached after {nodes} nodes (incumbent {value}, gap {gap})")


class InfeasibleStartError(RuntimeError):
    """The local oracle could not reach a feasible point from its start.
    Distinct from a certified infeasibility of the region."""


@functools.lru_cache(maxsize=None)
def _halton(dim: int) -> np.ndarray:
    """The first ``_MAX_SAMPLES`` points of the Halton sequence in [0, 1)^dim,
    read-only and built once per dimension."""
    out = np.empty((_MAX_SAMPLES, dim))
    for j in range(dim):
        base = _PRIMES[j % len(_PRIMES)]
        for i in range(_MAX_SAMPLES):
            f, value, k = 1.0, 0.0, i + 1
            while k > 0:
                f /= base
                value += f * (k % base)
                k //= base
            out[i, j] = value
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _corner_pattern(dim: int) -> np.ndarray:
    """The 2^dim corners of [0, 1]^dim, read-only and built once per
    dimension."""
    out = np.array(list(itertools.product((0.0, 1.0), repeat=dim)))
    out.setflags(write=False)
    return out


class _Search:
    def __init__(self, objective, region, config, domain_norm):
        self.objective = objective
        self.region = region
        self.config = config
        self.domain_norm = domain_norm
        self.box = region.domain
        self.n = self.box.dimension
        self.integral = self.box.integral
        self.has_integral = bool(self.integral.any())
        self.heap: list = []
        self.counter = itertools.count()
        self.best_value = math.inf
        self.best_point: np.ndarray | None = None
        self.nodes = 0
        self.discard_floor = math.inf  # min lower bound over discarded boxes
        self.corner_pattern = _corner_pattern(self.n) if self.n <= _CORNER_DIM_LIMIT else None
        self.samples = _halton(self.n)

    # -- evaluation -----------------------------------------------------

    def offer(self, points: np.ndarray, values: np.ndarray) -> None:
        """Order-independent incumbent update: min value, ties broken by the
        lexicographically smallest point."""
        if len(values) == 0:
            return
        order = np.lexsort(tuple(points[:, j] for j in range(self.n - 1, -1, -1)) + (values,))
        i = order[0]
        value, point = float(values[i]), points[i]
        if value < self.best_value or (
            value == self.best_value
            and self.best_point is not None
            and tuple(point) < tuple(self.best_point)
        ):
            self.best_value, self.best_point = value, point.copy()

    # -- geometry -------------------------------------------------------

    def snap(self, points: np.ndarray) -> np.ndarray:
        """Round integral coordinates to the nearest integer.  The integral
        bounds of every box are integers, so a point lo + s*(hi - lo), s in
        [0, 1], rounds into [lo, hi] (hi - lo is exact below 2^53)."""
        if not self.has_integral:
            return points
        points = points.copy()
        cols = np.flatnonzero(self.integral)
        points[:, cols] = np.round(points[:, cols])
        return points

    def rho(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        return norm_eval_rows(self.domain_norm, 0.5 * (his - los))

    # -- main loop --------------------------------------------------------

    def run(self) -> OracleResult:
        tol = self.config.tolerance
        every_cut = np.ones((1, self.region.stacked_cuts), dtype=bool)
        self.admit(self.box.hull_lower[None, :], self.box.hull_upper[None, :], every_cut)
        while self.heap:
            if self.best_point is not None and self.best_value - self.heap[0][0] <= tol:
                return self.finish(self.best_value - self.heap[0][0])
            lbs, los, his, touching = [], [], [], []
            while self.heap and len(lbs) < _WAVE_SIZE:
                lb, _, lo, hi, cuts = heapq.heappop(self.heap)
                if self.best_point is not None and lb >= self.best_value - tol:
                    self.discard_floor = min(self.discard_floor, lb)
                    continue
                lbs.append(lb)
                los.append(lo)
                his.append(hi)
                touching.append(cuts)
            if not lbs:
                break
            self.nodes += len(lbs)
            if self.nodes > self.config.node_limit:
                gap = self.best_value - min(lbs) if self.best_point is not None else math.inf
                raise ResourceLimitError(self.nodes, self.best_point, self.best_value, max(gap, 0.0))
            self.expand(lbs, np.array(los), np.array(his), np.array(touching))

        if self.best_point is None:
            return OracleResult(OracleStatus.Infeasible, None, math.inf, 0.0, self.nodes)
        return self.finish(self.best_value - self.discard_floor)

    def finish(self, gap: float) -> OracleResult:
        gap = max(0.0, gap) if math.isfinite(gap) else 0.0
        return OracleResult(OracleStatus.Solved, self.best_point, self.best_value, gap, self.nodes)

    def expand(self, lbs: list, los: np.ndarray, his: np.ndarray, touching: np.ndarray) -> None:
        """Split each box of a wave at the middle of its longest splittable
        edge (lowest index on ties; integral edges at floor(mid), the upper
        child from floor(mid) + 1) and admit the children: parents in wave
        order, lower child first.  Each child's candidate cuts are the
        cuts that touch its parent, the parent's row of the (boxes, K)
        ``touching``.  Boxes with no splittable edge go into the discard
        floor.  No child is empty and integral bounds stay integers: an
        integral edge [a, b] has an integer width, so it is splittable only
        when b - a >= 1, and then a <= floor(mid) < b; a continuous mid
        lies in [a, b]."""
        widths = his - los
        splittable = widths >= _BOX_MIN_WIDTH
        can = splittable.any(axis=1)
        if not can.all():
            self.discard_floor = min(self.discard_floor, *itertools.compress(lbs, ~can))
            los, his, widths, splittable, touching = los[can], his[can], widths[can], splittable[can], touching[can]
            if len(los) == 0:
                return
        j = np.where(splittable, widths, -np.inf).argmax(axis=1)
        rows = np.arange(len(j))
        a, b = los[rows, j], his[rows, j]
        mid = 0.5 * (a + b)
        upper = mid
        if self.has_integral:
            integral = self.integral[j]
            mid = np.where(integral, np.floor(mid), mid)
            upper = np.where(integral, mid + 1.0, mid)
        clos, chis = los.repeat(2, axis=0), his.repeat(2, axis=0)
        chis[2 * rows, j] = mid
        clos[2 * rows + 1, j] = upper
        self.admit(clos, chis, touching.repeat(2, axis=0))

    def admit(self, los: np.ndarray, his: np.ndarray, candidates: np.ndarray) -> None:
        """Prune, bound and push a batch of non-empty boxes inside the
        domain's lattice hull, with integer bounds on integral coordinates,
        each tested only against its candidate cuts, the rows of the
        (boxes, K) ``candidates``, then harvest incumbent candidates from
        the survivors.  A box's heap entry keeps the cuts that touch it, a
        row view of this batch's answer, for its children."""
        centers = 0.5 * (los + his)
        snapped = self.snap(centers)  # centers itself when nothing is integral
        dead, touching, mid_violated = self.region.box_relations(los, his, snapped, candidates.T)
        if dead.any():
            live = ~dead
            los, his, centers, touching, mid_violated = (
                los[live], his[live], centers[live], touching[:, live], mid_violated[live],
            )
            snapped = snapped[live] if self.has_integral else centers
        if len(los) == 0:
            return

        f_centers = self.objective.evaluate_batch(centers)
        lbs = f_centers - self.objective.lipschitz_f * self.rho(los, his)
        if self.best_point is not None:
            keep = lbs < self.best_value - self.config.tolerance
            if not keep.all():
                self.discard_floor = min(self.discard_floor, float(lbs[~keep].min()))
                los, his, snapped, f_centers, lbs, touching, mid_violated = (
                    los[keep], his[keep], snapped[keep], f_centers[keep], lbs[keep],
                    touching[:, keep], mid_violated[keep],
                )
        for lo, hi, lb, cuts in zip(los, his, lbs, touching.T):
            heapq.heappush(self.heap, (float(lb), next(self.counter), lo, hi, cuts))
        if len(los):
            # a snapped center lies in its box, which lies in the domain's
            # lattice hull: only the cuts can reject it
            self.harvest(los, his, snapped, f_centers, ~mid_violated, touching)

    def harvest(self, los, his, snapped, f_centers, center_ok, touching) -> None:
        """Offer the feasible (snapped) centers, box corners, and Halton
        samples of the boxes whose center is infeasible, in one ``offer``.
        Corners and samples are tested against the domain and only against
        the cuts that touch their box (``touching``); every other cut
        provably holds for them (``RelaxedRegion.box_relations``)."""
        count = len(los)
        found, values = [], []
        if not self.has_integral:
            # feasible centers already carry their objective value
            found.append(snapped[center_ok])
            values.append(f_centers[center_ok])
        blocks = [snapped] if self.has_integral else []
        per_box = 0
        if self.corner_pattern is not None:
            per_box = len(self.corner_pattern)
            blocks.append(self.spread(self.corner_pattern, los, his))
        bad = np.flatnonzero(~center_ok)
        if bad.size:
            blocks.append(self.spread(self.samples, los[bad], his[bad]))
        if blocks:
            pts = np.concatenate(blocks)
            first = count if self.has_integral else 0
            ok = np.empty(len(pts), dtype=bool)
            ok[:first] = center_ok[:first]
            tested = pts[first:]
            if touching.any():
                # the rows of ``tested`` drawn from each box: its corners, then
                # its samples if it has any, else -1
                owners = np.empty((count, per_box + (_MAX_SAMPLES if bad.size else 0)), dtype=np.intp)
                owners[:, :per_box] = np.arange(count * per_box).reshape(count, per_box)
                if bad.size:
                    owners[:, per_box:] = -1
                    owners[bad, per_box:] = np.arange(count * per_box, len(tested)).reshape(bad.size, _MAX_SAMPLES)
                ok[first:] = self.region.touching_membership(tested, owners, touching)
            else:
                ok[first:] = self.box.contains_mask(tested)
            if ok.any():
                found.append(pts.compress(ok, axis=0))
                values.append(self.objective.evaluate_batch(found[-1]))
        if found:
            self.offer(np.concatenate(found), np.concatenate(values))

    def spread(self, pattern, los, his) -> np.ndarray:
        """The points lo + pattern * (hi - lo) of each box, box-major, with
        integral coordinates snapped into the box."""
        # laid out (n, boxes, points) so that numpy loops run along the
        # pattern, then transposed
        lo, span = los.T[:, :, None], (his - los).T[:, :, None]
        return self.snap((lo + pattern.T[:, None, :] * span).transpose(1, 2, 0).reshape(-1, self.n))


def solve_global(
    objective: ObjectiveSpec,
    region: RelaxedRegion,
    config: OracleConfig | None = None,
    domain_norm: NormKind = NormKind.Two,
) -> OracleResult:
    """Certified global minimization over the region.

    ``objective.lipschitz_f`` must be valid for ``domain_norm`` over the
    region's box.  Returns Infeasible when the branch tree is exhausted
    without any feasible point (certification is exact up to sub-boxes
    narrower than ``_BOX_MIN_WIDTH`` = 1e-10, which are never split), else
    Solved once the incumbent minus the smallest surviving lower bound
    drops to the tolerance.  Raises ResourceLimitError past ``node_limit``
    processed nodes.
    """
    config = config or OracleConfig()
    return _Search(objective, region, config, domain_norm).run()


def solve_local(
    objective: ObjectiveSpec,
    region: RelaxedRegion,
    start,
    config: OracleConfig | None = None,
) -> OracleResult:
    """Compass/pattern search from ``start``.

    Probes +/- step along each coordinate (initial step: a quarter of the
    longest box edge; all 2n probes of a step in one membership test and
    the feasible ones in one objective evaluation),
    accepts the best feasible improving probe, halves the step on failure
    and stops once the step falls below 1e-9.  A start
    violating some cut is first pushed radially off the nearest violated
    cut to just outside its boundary (clipped to the box); if that
    projection is still infeasible the search fails with
    InfeasibleStartError.  The reported gap is infinite: local solutions
    carry no global certificate.
    """
    config = config or OracleConfig()
    box = region.domain
    if box.integral.any():
        raise ValueError("the local oracle supports continuous domains only")
    x = np.asarray(start, dtype=float).copy()
    if x.shape != box.lower.shape:
        raise ValueError("start dimension mismatch")
    if np.any(x < box.lower - 1e-12) or np.any(x > box.upper + 1e-12):
        raise ValueError("start must lie within the region's box")
    x = np.clip(x, box.lower, box.upper)

    # the nearest violated cut: the first at the least masked distance
    nearest, least = None, math.inf
    for c in region.cuts:
        d = norm_eval(c.norm, (x - c.center)[c.mask])
        if d < c.radius and d < least:
            nearest, least = c, d
    if nearest is not None:
        x = _project_off_cut(x, nearest, box)
        if not region_membership(region, x):
            raise InfeasibleStartError("projected start is still infeasible for the region")

    fx = float(objective.evaluate_batch(x[None, :])[0])
    evaluations = 1
    step = float(np.max(box.widths)) / 4.0
    # probe 2j + 0 is x - step e_j, probe 2j + 1 is x + step e_j
    probe_rows = np.arange(2 * box.dimension)
    probe_axes = probe_rows // 2
    signs = np.tile((-1.0, 1.0), box.dimension)
    while step >= 1e-9:
        probes = x[None, :].repeat(len(probe_rows), axis=0)
        probes[probe_rows, probe_axes] += signs * step
        feasible = probes[region.membership_mask(probes)]
        evaluations += len(feasible)
        best = None
        for cand, fc in zip(feasible, objective.evaluate_batch(feasible).tolist()):
            if fc >= fx:
                continue
            if best is None or fc < best[0] or (fc == best[0] and tuple(cand) < tuple(best[1])):
                best = (fc, cand)
        if best is None:
            step *= 0.5
        else:
            fx, x = best[0], best[1].copy()
    return OracleResult(OracleStatus.Solved, x, fx, math.inf, evaluations)


def _project_off_cut(x: np.ndarray, cut, box: BoxDomain) -> np.ndarray:
    mask = cut.mask
    direction = (x - cut.center)[mask]
    t = norm_eval(cut.norm, direction)
    if t == 0.0:
        direction = (box.center - cut.center)[mask]
        t = norm_eval(cut.norm, direction)
    if t == 0.0:
        direction = np.zeros(int(mask.sum()))
        direction[0] = 1.0
        t = 1.0
    out = x.copy()
    out[mask] = cut.center[mask] + direction * ((cut.radius + 1e-9) / t)
    return np.clip(out, box.lower, box.upper)


class GlobalOracle:
    """Oracle-interface adapter for the certified global solver."""

    name = "global"

    def __init__(self, config: OracleConfig | None = None, domain_norm: NormKind = NormKind.Two):
        self.config = config or OracleConfig()
        self.domain_norm = domain_norm

    def solve(self, objective: ObjectiveSpec, region: RelaxedRegion, start=None) -> OracleResult:
        return solve_global(objective, region, self.config, self.domain_norm)


class LocalOracle:
    """Oracle-interface adapter for the pattern search; requires a start."""

    name = "local"

    def __init__(self, config: OracleConfig | None = None):
        self.config = config or OracleConfig()

    def solve(self, objective: ObjectiveSpec, region: RelaxedRegion, start=None) -> OracleResult:
        if start is None:
            raise ValueError("the local oracle requires a start point")
        return solve_local(objective, region, start, self.config)
