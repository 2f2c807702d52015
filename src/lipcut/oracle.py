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

The node queue is processed in waves and candidate evaluations are
batched; the incumbent reduction (value, then lexicographic point) and the
global-bound termination test make results independent of the order
within a wave.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    INTEGRALITY_TOL,
    BoxDomain,
    NormKind,
    ObjectiveSpec,
    RelaxedRegion,
    cut_satisfied,
    norm_eval,
    norm_eval_rows,
    region_membership,
)

_WAVE_SIZE = 64
_MAX_SAMPLES = 32
_CORNER_DIM_LIMIT = 5
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class OracleStatus(enum.Enum):
    Infeasible = "infeasible"
    Solved = "solved"


@dataclass(frozen=True)
class OracleConfig:
    """Oracle tolerances and resource limits (all positive)."""

    tolerance: float = 1e-6
    node_limit: int = 10_000_000
    box_min_width: float = 1e-10

    def __post_init__(self):
        if not (self.tolerance > 0 and self.node_limit > 0 and self.box_min_width > 0):
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


def _halton(count: int, dim: int) -> np.ndarray:
    out = np.empty((count, dim))
    for j in range(dim):
        base = _PRIMES[j % len(_PRIMES)]
        for i in range(count):
            f, value, k = 1.0, 0.0, i + 1
            while k > 0:
                f /= base
                value += f * (k % base)
                k //= base
            out[i, j] = value
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
        if self.n <= _CORNER_DIM_LIMIT:
            self.corner_pattern = np.array(list(itertools.product((0.0, 1.0), repeat=self.n)))
        else:
            self.corner_pattern = None
        self.samples = _halton(_MAX_SAMPLES, self.n)

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

    def normalize(self, los: np.ndarray, his: np.ndarray):
        """Snap integral coordinates to the lattice hull; returns
        (los, his, alive) where alive marks non-empty boxes."""
        if not self.has_integral:
            return los, his, np.ones(len(los), dtype=bool)
        los, his = los.copy(), his.copy()
        cols = np.flatnonzero(self.integral)
        los[:, cols] = np.ceil(los[:, cols] - INTEGRALITY_TOL)
        his[:, cols] = np.floor(his[:, cols] + INTEGRALITY_TOL)
        alive = np.all(los <= his, axis=1)
        return los, his, alive

    def snap(self, points: np.ndarray, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Round integral coordinates to the nearest lattice point inside
        the (already normalized) boxes."""
        if not self.has_integral:
            return points
        points = points.copy()
        cols = np.flatnonzero(self.integral)
        points[:, cols] = np.clip(np.round(points[:, cols]), los[:, cols], his[:, cols])
        return points

    def rho(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        return norm_eval_rows(self.domain_norm, 0.5 * (his - los))

    # -- main loop --------------------------------------------------------

    def run(self) -> OracleResult:
        tol = self.config.tolerance
        self.admit(self.box.lower[None, :].copy(), self.box.upper[None, :].copy())
        while self.heap:
            if self.best_point is not None and self.best_value - self.heap[0][0] <= tol:
                return self.finish(self.best_value - self.heap[0][0])
            wave = []
            while self.heap and len(wave) < _WAVE_SIZE:
                lb, _, lo, hi = heapq.heappop(self.heap)
                if self.best_point is not None and lb >= self.best_value - tol:
                    self.discard_floor = min(self.discard_floor, lb)
                    continue
                wave.append((lb, lo, hi))
            if not wave:
                break
            self.nodes += len(wave)
            if self.nodes > self.config.node_limit:
                gap = self.best_value - min(w[0] for w in wave) if self.best_point is not None else math.inf
                raise ResourceLimitError(self.nodes, self.best_point, self.best_value, max(gap, 0.0))
            self.expand(wave)

        if self.best_point is None:
            return OracleResult(OracleStatus.Infeasible, None, math.inf, 0.0, self.nodes)
        return self.finish(self.best_value - self.discard_floor)

    def finish(self, gap: float) -> OracleResult:
        gap = max(0.0, gap) if math.isfinite(gap) else 0.0
        return OracleResult(OracleStatus.Solved, self.best_point, self.best_value, gap, self.nodes)

    def expand(self, wave) -> None:
        los, his = [], []
        for lb, lo, hi in wave:
            j = self.split_coordinate(lo, hi)
            if j is None:
                self.discard_floor = min(self.discard_floor, lb)
                continue
            if self.integral[j]:
                mid = math.floor(0.5 * (lo[j] + hi[j]))
                pairs = ((lo[j], mid), (mid + 1.0, hi[j]))
            else:
                mid = 0.5 * (lo[j] + hi[j])
                pairs = ((lo[j], mid), (mid, hi[j]))
            for a, b in pairs:
                if a > b:
                    continue
                clo, chi = lo.copy(), hi.copy()
                clo[j], chi[j] = a, b
                los.append(clo)
                his.append(chi)
        if los:
            self.admit(np.array(los), np.array(his))

    def admit(self, los: np.ndarray, his: np.ndarray) -> None:
        """Normalize, prune, bound and push a batch of boxes, then harvest
        incumbent candidates from the survivors."""
        los, his, alive = self.normalize(los, his)
        if not alive.all():
            los, his = los[alive], his[alive]
        if len(los) == 0:
            return
        dead = self.region.excluded_mask(los, his)
        if dead.any():
            los, his = los[~dead], his[~dead]
        if len(los) == 0:
            return

        centers = 0.5 * (los + his)
        f_centers = self.objective.evaluate_batch(centers)
        lbs = f_centers - self.objective.lipschitz_f * self.rho(los, his)
        if self.best_point is not None:
            keep = lbs < self.best_value - self.config.tolerance
            if not keep.all():
                self.discard_floor = min(self.discard_floor, float(lbs[~keep].min()))
                los, his, centers, f_centers, lbs = (
                    los[keep], his[keep], centers[keep], f_centers[keep], lbs[keep],
                )
        for lo, hi, lb in zip(los, his, lbs):
            heapq.heappush(self.heap, (float(lb), next(self.counter), lo, hi))
        if len(los):
            self.harvest(los, his, centers, f_centers)

    def split_coordinate(self, lo: np.ndarray, hi: np.ndarray):
        widths = hi - lo
        splittable = widths >= self.config.box_min_width
        if self.has_integral:
            splittable &= ~self.integral | (widths >= 1.0)
        if not splittable.any():
            return None
        return int(np.argmax(np.where(splittable, widths, -np.inf)))

    def harvest(self, los, his, centers, f_centers) -> None:
        snapped = self.snap(centers, los, his)
        center_ok = self.region.membership_mask(snapped)

        if not self.has_integral:
            # feasible centers already carry their objective value
            self.offer(centers[center_ok], f_centers[center_ok])

        blocks = []
        if self.has_integral:
            blocks.append(snapped)
        if self.corner_pattern is not None:
            spans = his - los
            corners = los[:, None, :] + self.corner_pattern[None, :, :] * spans[:, None, :]
            blocks.append(self.snap_blocks(corners, los, his))
        bad = np.flatnonzero(~center_ok)
        if bad.size:
            spans = his[bad] - los[bad]
            sampled = los[bad][:, None, :] + self.samples[None, :, :] * spans[:, None, :]
            blocks.append(self.snap_blocks(sampled, los[bad], his[bad]))
        if not blocks:
            return
        pts = np.vstack([b.reshape(-1, self.n) for b in blocks])
        ok = self.region.membership_mask(pts)
        if ok.any():
            feasible = pts[ok]
            self.offer(feasible, self.objective.evaluate_batch(feasible))

    def snap_blocks(self, pts3, los, his) -> np.ndarray:
        if not self.has_integral:
            return pts3
        k = pts3.shape[1]
        flat = pts3.reshape(-1, self.n)
        return self.snap(flat, np.repeat(los, k, axis=0), np.repeat(his, k, axis=0))


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
    narrower than ``box_min_width``), else Solved once the incumbent minus
    the smallest surviving lower bound drops to the tolerance.  Raises
    ResourceLimitError past ``node_limit`` processed nodes.
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
    longest box edge), accepts the best feasible improving probe, halves
    the step on failure and stops once the step falls below 1e-9.  A start
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

    violated = [c for c in region.cuts if not cut_satisfied(c, x)]
    if violated:
        nearest = min(violated, key=lambda c: norm_eval(c.norm, (x - c.center)[c.mask]))
        x = _project_off_cut(x, nearest, box)
        if not region_membership(region, x):
            raise InfeasibleStartError("projected start is still infeasible for the region")

    evaluations = 0

    def f(p):
        nonlocal evaluations
        evaluations += 1
        return float(objective.evaluator(p))

    fx = f(x)
    step = float(np.max(box.widths)) / 4.0
    while step >= 1e-9:
        best = None
        for j in range(box.dimension):
            for sign in (-1.0, 1.0):
                cand = x.copy()
                cand[j] += sign * step
                if not region_membership(region, cand):
                    continue
                fc = f(cand)
                if fc >= fx:
                    continue
                if best is None or fc < best[0] or (fc == best[0] and tuple(cand) < tuple(best[1])):
                    best = (fc, cand)
        if best is None:
            step *= 0.5
        else:
            fx, x = best
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
