"""Subproblem oracles: minimize an objective over a box minus norm balls.

``GlobalOracle`` is a branch-and-bound scheme driven by the objective's
Lipschitz constant: a sub-box with center c and half-diagonal rho (in the
domain norm) has the lower bound f(c) - L_f * rho.  Sub-boxes lying
strictly inside an exclusion ball are discarded; boxes straddling a ball
boundary are branched, never linearized.  All tie-breaking is
deterministic (longest edge, lowest index; incumbent preference by value,
then lexicographically smallest point), so runs are reproducible
bit-for-bit for a fixed configuration.

``LocalOracle`` is a compass/pattern search intended to model a purely
local subproblem oracle.  It deliberately has no restart mechanism, so it
can exhibit convergence to poor feasible points when used inside the
cutting driver.

The root box is the domain's lattice hull (``BoxDomain.hull_lower`` and
``hull_upper``).  Splitting keeps integral bounds integers and makes no
empty child, so every box of the search has integer bounds on its
integral coordinates.  The node queue is processed in waves of up to 64
boxes: a wave's boxes are split, parents in wave order, lower child
first, and the children admitted, pruned and pushed.

Kernel passes.  The per-box quantities are measured in batches several
tree levels deep (``_Search.descend``).  When a wave pops boxes whose
children are not measured yet, one pass splits them and the levels below,
and measures every box of every level at once: one
``RelaxedRegion.box_relations`` call, which says for each (box, cut) pair
it is given whether the box lies inside the ball, whether the ball
touches the box, and whether it holds the box's snapped center; one
objective call on the live centers, for the lower bounds f(c) - L_f * rho;
and one harvest.  A pass costs a fixed ``_PASS_COST`` = 250 box
measurements plus one per box, so it goes as deep as gives full trees the
least cost per level (``_pass_depth``): two children get four levels
below them, 50 or more children one level below them.  The root shares
the first pass with the five levels below it (63 boxes, by the same
rule), all given every cut.  Its
harvest takes the root first: the replay admits the root alone, so the
root's offer is the incumbent when any box below it is admitted, and it
prunes their harvest as it would a pass of their own.  Every later box is
given only the cuts that touch the wave box it descends from: it
lies inside that box, so a cut that misses that box (widened by the
pass's margin) misses it too, and the answers are those of a pass over
every cut.  The harvest builds the snapped centers, corners and Halton
samples of the live boxes whose bound is below the incumbent minus tol
once, as one (n, boxes, slots) array in the layout of the cut walk (the
samples only for boxes whose center is infeasible), tests them only
against the cuts that touch their box (every other cut provably holds for
them) and against the domain only for boxes whose points may leave it,
evaluates the feasible ones, and keeps each box's least (value, point,
slot): slot order is tie order.

Replay.  Each measured quantity depends only on its box, and the
objective's value for a row does not depend on the other rows of its
batch (``ObjectiveSpec``).  So the waves are then replayed one by one
from the measurements, and every decision that reads the incumbent is
taken at replay time, as a search that measures one level per wave takes
it: the pop order by (lower bound, push counter), the prune at pop time,
the bound prune at admission, the discard floor, the push order, the
incumbent update from the pushed boxes' best points, the termination test
and the node limit.  The incumbent only improves, so every box that the
replay pushes was harvested.  Traces are byte-identical whatever the depth
of a pass; the price is objective evaluations at boxes that the replay
prunes.
The incumbent reduction (value, then lexicographic point) and the
global-bound termination test make results independent of the order
within a wave.
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
    finite_vector,
    member,
    norm_eval,
    norm_eval_rows,
    positive,
    positive_integer,
    region_membership,
)

_WAVE_SIZE = 64
# The fixed cost of one kernel pass, in units of the cost of measuring one
# box: it sets how many tree levels a pass covers (``_pass_depth``), and 0
# gives one level per pass.
_PASS_COST = 250
# One membership test of the local search holds at most this many probes.
_BATCH_BOXES = 128
_BOX_MIN_WIDTH = 1e-10  # edges narrower than this are not split
_MAX_SAMPLES = 32
_CORNER_DIM_LIMIT = 5
# ``_Batch.kid`` markers: no splittable edge; children not measured yet
_LEAF = -2
_UNMEASURED = -1


class OracleStatus(enum.Enum):
    Infeasible = "infeasible"
    Solved = "solved"
    Unresolved = "unresolved"


@dataclass(frozen=True)
class OracleConfig:
    """Oracle tolerance (finite, positive) and node limit (a positive
    integer).  The branch and bound splits no edge narrower than
    ``_BOX_MIN_WIDTH`` = 1e-10.  The local oracle has no tolerance to
    read: its node limit bounds its objective evaluations."""

    tolerance: float = 1e-6
    node_limit: int = 10_000_000

    def __post_init__(self):
        object.__setattr__(self, "tolerance", positive(self.tolerance, "tolerance"))
        object.__setattr__(self, "node_limit", positive_integer(self.node_limit, "node_limit"))


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one subproblem solve.  When Solved, ``point`` satisfies
    region membership and ``gap`` bounds value minus the true minimum
    (infinite for local solves, which carry no global certificate).  With
    no point (Infeasible or Unresolved), ``value`` is a lower bound on the
    region's minimum, +inf when Infeasible, and ``gap`` is 0."""

    status: OracleStatus
    point: np.ndarray | None
    value: float
    gap: float
    nodes: int


class ResourceLimitError(RuntimeError):
    """Node limit exhausted; carries the best incumbent found so far.
    ``trace`` is None from an oracle called directly; ``driver.run`` sets
    it to the iterations completed before the call that ran out."""

    def __init__(self, nodes: int, point, value: float, gap: float):
        self.nodes = nodes
        self.point = point
        self.value = value
        self.gap = gap
        self.trace = None
        super().__init__(f"node limit reached after {nodes} nodes (incumbent {value}, gap {gap})")


class InfeasibleStartError(RuntimeError):
    """The local oracle could not reach a feasible point from its start.
    Distinct from a certified infeasibility of the region."""


def _primes(count: int) -> list:
    """The first ``count`` primes, in order."""
    primes, k = [], 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


@functools.lru_cache(maxsize=None)
def _halton(dim: int) -> np.ndarray:
    """The first ``_MAX_SAMPLES`` points of the Halton sequence in [0, 1)^dim,
    coordinate j in the (j + 1)-th prime base, read-only and built once per
    dimension."""
    out = np.empty((_MAX_SAMPLES, dim))
    for j, base in enumerate(_primes(dim)):
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
    """The 2^dim corners of [0, 1]^dim, none past ``_CORNER_DIM_LIMIT``
    dimensions, read-only and built once per dimension."""
    corners = itertools.product((0.0, 1.0), repeat=dim) if dim <= _CORNER_DIM_LIMIT else ()
    out = np.array(list(corners)).reshape(-1, dim)
    out.setflags(write=False)
    return out


def _pass_depth(boxes: int) -> int:
    """The tree levels of one kernel pass over ``boxes`` >= 1 boxes and
    their descendants: the d that minimizes the pass's cost per level,
    (``_PASS_COST`` + boxes * (2^d - 1)) / d for full trees, the least on
    a tie.  That cost falls and then rises with d, and d + 1 costs less per
    level than d exactly when boxes * ((d - 1) * 2^d + 1) < ``_PASS_COST``."""
    depth = 1
    while boxes * ((depth - 1) * 2**depth + 1) < _PASS_COST:
        depth += 1
    return depth


@dataclass(frozen=True, eq=False, slots=True)
class _Batch:
    """The boxes of one kernel pass, several tree levels deep, and what the
    replay reads of them.  For box i: ``los[i]`` and ``his[i]``; its
    column ``touching[:, i]`` of the cuts that touch it; ``dead[i]``, it
    lies inside an exclusion ball; ``lb[i]``, its lower bound (NaN when
    dead); ``kid[i]``, the index of its lower child in this batch (the
    upper child follows it), ``_LEAF`` or ``_UNMEASURED``; ``best[i]``,
    None or the (kind, value, point) it offers the incumbent.  The
    per-box fields are lists, which the replay reads faster than arrays."""

    los: np.ndarray
    his: np.ndarray
    touching: np.ndarray
    dead: list
    lb: list
    kid: list
    best: list


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
        self.corner_pattern = _corner_pattern(self.n)
        self.samples = _halton(self.n)

    # -- geometry -------------------------------------------------------

    def snap(self, points: np.ndarray) -> np.ndarray:
        """Round integral coordinates to the nearest integer.  The integral
        bounds of every box are integers, so a point lo + s*(hi - lo), s in
        [0, 1], rounds into [lo, hi] (hi - lo is exact below 2^53)."""
        if not self.has_integral:
            return points
        points = points.copy()
        cols = np.flatnonzero(self.integral)
        points[..., cols] = np.round(points[..., cols])
        return points

    def rho(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        return norm_eval_rows(self.domain_norm, 0.5 * (his - los))

    # -- main loop --------------------------------------------------------

    def run(self) -> OracleResult:
        tol = self.config.tolerance
        # the root and the levels below it share the first pass, tested
        # against every cut; the root's offer prunes the harvest of the rest
        every_cut = np.ones((1, self.region.stacked_cuts), dtype=bool)
        hull = self.box.hull_lower[None, :], self.box.hull_upper[None, :]
        self.admit([(self.measure(*self.grow(*hull, every_cut, _pass_depth(1)), root=True), 0)])
        while self.heap:
            if self.best_point is not None and self.best_value - self.heap[0][0] <= tol:
                return self.finish(self.best_value - self.heap[0][0])
            lbs, wave = [], []
            while self.heap and len(lbs) < _WAVE_SIZE:
                lb, _, batch, i = heapq.heappop(self.heap)
                if self.best_point is not None and lb >= self.best_value - tol:
                    self.discard_floor = min(self.discard_floor, lb)
                    continue
                lbs.append(lb)
                wave.append((batch, i))
            if not lbs:
                break
            self.nodes += len(lbs)
            if self.nodes > self.config.node_limit:
                gap = self.best_value - min(lbs) if self.best_point is not None else math.inf
                raise ResourceLimitError(self.nodes, self.best_point, self.best_value, max(gap, 0.0))
            self.expand(lbs, wave)

        if self.best_point is None:
            # the floor is finite when some box too narrow to split lies
            # outside every ball: it may hold a point that no draw found
            status = OracleStatus.Infeasible if self.discard_floor == math.inf else OracleStatus.Unresolved
            return OracleResult(status, None, self.discard_floor, 0.0, self.nodes)
        return self.finish(self.best_value - self.discard_floor)

    def finish(self, gap: float) -> OracleResult:
        gap = max(0.0, gap) if math.isfinite(gap) else 0.0
        return OracleResult(OracleStatus.Solved, self.best_point, self.best_value, gap, self.nodes)

    def expand(self, lbs: list, wave: list) -> None:
        """Admit the children of a wave of measured boxes, (batch, index)
        pairs: parents in wave order, lower child first.  Boxes with no
        splittable edge go into the discard floor.  The boxes whose
        children no kernel pass has measured yet get one pass
        (``descend``) for all of them."""
        kids = [batch.kid[i] for batch, i in wave]
        if _LEAF in kids:
            self.discard_floor = min(self.discard_floor, *(lb for lb, k in zip(lbs, kids) if k == _LEAF))
        fresh = [box for box, k in zip(wave, kids) if k == _UNMEASURED]
        if fresh:
            measured = self.descend(
                np.array([batch.los[i] for batch, i in fresh]),
                np.array([batch.his[i] for batch, i in fresh]),
                np.array([batch.touching[:, i] for batch, i in fresh]),
            )
            lower = itertools.count(0, 2)
        children = []
        for (batch, i), k in zip(wave, kids):
            if k == _UNMEASURED:
                batch, k = measured, next(lower)
            if k != _LEAF:
                children += ((batch, k), (batch, k + 1))
        self.admit(children)

    def admit(self, boxes: list) -> None:
        """Admit measured boxes, (batch, index) pairs, in order: drop those
        inside an exclusion ball, put those whose bound is not below the
        incumbent minus tol into the discard floor, push the rest, and
        update the incumbent from the pushed boxes' best points.  The
        least (value, point) replaces it when its value is lower, or equal
        with a smaller point, so the update does not depend on the order
        within a wave.  Equal points (0.0 and -0.0) go to the least kind
        (center, corner, sample), then to the first pushed box: the order
        in which one harvest of the pushed boxes would list them."""
        limit = self.best_value - self.config.tolerance  # inf with no incumbent
        pruned, offered = [], []
        for batch, i in boxes:
            if batch.dead[i]:
                continue
            lb = batch.lb[i]
            if lb < limit:
                heapq.heappush(self.heap, (lb, next(self.counter), batch, i))
                if batch.best[i] is not None:
                    offered.append(batch.best[i])
            else:
                pruned.append(lb)
        if pruned:
            self.discard_floor = min(self.discard_floor, *pruned)
        if offered:
            # the least (value, point, kind), comparing points only on a tie
            least = min([o[1] for o in offered])
            tied = [o for o in offered if o[1] == least]
            _, value, point = min(tied, key=lambda o: (tuple(o[2]), o[0])) if len(tied) > 1 else tied[0]
            if value < self.best_value or (
                value == self.best_value
                and self.best_point is not None
                and tuple(point) < tuple(self.best_point)
            ):
                self.best_value, self.best_point = value, point.copy()

    # -- kernel passes ----------------------------------------------------

    def descend(self, los: np.ndarray, his: np.ndarray, touching: np.ndarray) -> "_Batch":
        """One kernel pass over the children of the splittable boxes
        [los, his], each tested against its parent's row of the (boxes, K)
        ``touching``, and over their descendants: d levels in all, d the
        ``_pass_depth`` of the children.  Boxes 2j and 2j + 1 of the batch
        are the children of box j."""
        _, clos, chis = self.split(los, his)
        return self.measure(*self.grow(clos, chis, touching.repeat(2, axis=0), _pass_depth(len(clos))))

    def split(self, los: np.ndarray, his: np.ndarray):
        """Split each box that has an edge at least ``_BOX_MIN_WIDTH`` wide
        at the middle of its longest such edge (lowest index on ties;
        integral edges at floor(mid), the upper child from floor(mid) + 1).
        Returns the indices of the split boxes and their children, lower
        child first.  No child is empty and integral bounds stay integers:
        an integral edge [a, b] has an integer width, so it is splittable
        only when b - a >= 1, and then a <= floor(mid) < b; a continuous
        mid, 0.5 * a + 0.5 * b, lies in [a, b], since b - a >= 1e-10 dwarfs
        the rounding of a subnormal half."""
        widths = his - los
        if self.has_integral or (widths.size and widths.min() < _BOX_MIN_WIDTH):
            widths[widths < _BOX_MIN_WIDTH] = -np.inf
            j = widths.argmax(axis=1)
            can = np.flatnonzero(widths[np.arange(len(j)), j] > -np.inf)
            los, his, j = los[can], his[can], j[can]
        else:
            # continuous boxes with no narrow edge, as in every split call
            # of comp-cuts and random-batch: every box splits, no masking
            j = widths.argmax(axis=1)
            can = np.arange(len(j))
        rows = np.arange(len(can))
        mid = 0.5 * los[rows, j] + 0.5 * his[rows, j]
        upper = mid
        if self.has_integral:
            integral = self.integral[j]
            mid = np.where(integral, np.floor(mid), mid)
            upper = np.where(integral, mid + 1.0, mid)
        clos, chis = los.repeat(2, axis=0), his.repeat(2, axis=0)
        chis[2 * rows, j] = mid
        clos[2 * rows + 1, j] = upper
        return can, clos, chis

    def grow(self, los: np.ndarray, his: np.ndarray, candidates: np.ndarray, depth: int):
        """The boxes [los, his] and the tree levels below them, every
        splittable box split by ``split``, ``depth`` levels in all.
        Returns the boxes level by level; the (K, boxes) candidate cuts of
        each, its first-level ancestor's row of the (boxes, K)
        ``candidates``; and ``_Batch.kid``."""
        levels, ancestors, kids = [(los, his)], [np.arange(len(los))], []
        end = 0
        for level in range(depth):
            lo, hi = levels[-1]
            end += len(lo)
            kid = np.full(len(lo), _LEAF)
            kids.append(kid)
            if level == depth - 1:
                kid[(hi - lo >= _BOX_MIN_WIDTH).any(axis=1)] = _UNMEASURED
                break
            can, clos, chis = self.split(lo, hi)
            kid[can] = end + 2 * np.arange(len(can))
            levels.append((clos, chis))
            ancestors.append(ancestors[-1][can].repeat(2))
        los, his = (np.concatenate(side) for side in zip(*levels))
        return los, his, candidates[np.concatenate(ancestors)].T, np.concatenate(kids)

    def measure(self, los: np.ndarray, his: np.ndarray, candidates: np.ndarray, kid: np.ndarray,
                root: bool = False) -> "_Batch":
        """One kernel pass over boxes of several tree levels, each tested
        only against its candidate cuts, the columns of the (K, boxes)
        ``candidates``: ``box_relations``, one objective call on the live
        centers, and the harvest of the live boxes whose bound is below
        the incumbent minus tol.  The incumbent only improves, so the
        replay (``admit``) pushes no other box.  With ``root``, box 0 is
        the root, which the replay admits alone before any box below it,
        so its offer is the incumbent that prunes the harvest of the rest
        (``harvest``'s ``bounds``)."""
        centers = 0.5 * los + 0.5 * his
        snapped = self.snap(centers)  # centers itself when nothing is integral
        dead, touching, mid_violated = self.region.box_relations(los, his, snapped, candidates)
        live = np.flatnonzero(~dead)
        f_centers = np.full(len(los), math.nan)
        lbs = f_centers.copy()
        if live.size:
            f_centers[live] = self.objective.evaluate_batch(centers[live])
            lbs[live] = f_centers[live] - self.objective.lipschitz_f * self.rho(los[live], his[live])
        kept = live[lbs[live] < self.best_value - self.config.tolerance]
        best = [None] * len(los)
        if kept.size:
            found = self.harvest(los[kept], his[kept], snapped[kept], f_centers[kept], ~mid_violated[kept],
                                 touching[:, kept], lbs[kept] if root and kept[0] == 0 else None)
            for i, kind, value, point in zip(*found):
                best[kept[i]] = (kind, value, point)
        return _Batch(los, his, touching, dead.tolist(), lbs.tolist(), kid.tolist(), best)

    def harvest(self, los, his, snapped, f_centers, center_ok, touching, bounds=None):
        """Each box's best feasible point among its (snapped) center, its
        corners (n <= 5), and its Halton samples when its center is
        infeasible: the slots of ``draw``'s (n, boxes, slots) array.  Points
        are tested only against the cuts that touch their box
        (``touching``), and against the domain only when they may leave
        it.  Given the boxes' lower ``bounds``, box 0 is the root: its
        points are evaluated first, and a later box whose bound is not below
        the root's least value minus tol has none.  Returns the boxes that
        have one, ascending, and for each the point's kind (0 center, 1
        corner, 2 sample), value and the point: the least (value, point,
        slot).  Slot order is the tie order."""
        samples_from = 1 + len(self.corner_pattern)  # after the center and the corners
        pts, may_leave = self.draw(los, his, snapped, ~center_ok)
        valid = self.region.touching_membership(pts, touching, may_leave)
        valid[:, 0] &= center_ok
        valid[center_ok, samples_from:] = False
        values = np.full(valid.shape, np.inf)
        if not self.has_integral:
            # feasible centers already carry their objective value
            values[:, 0] = np.where(valid[:, 0], f_centers, np.inf)
        fresh = valid & (values == np.inf)
        if bounds is not None:
            if fresh[0].any():
                values[0, fresh[0]] = self.objective.evaluate_batch(pts[:, 0, fresh[0]].T)
            fresh[0] = False
            pruned = ~(bounds < values[0].min() - self.config.tolerance)
            pruned[0] = False
            values[pruned], fresh[pruned] = np.inf, False
        if fresh.any():
            values[fresh] = self.objective.evaluate_batch(pts[:, fresh].T)
        least = values.min(axis=1)
        boxes = np.flatnonzero(least < np.inf)
        tied = values[boxes] == least[boxes, None]
        slot = tied.argmax(axis=1)
        if tied.sum() > boxes.size:
            # the least point, then the least slot: each box's first in a stable sort
            rows, cols = np.nonzero(tied)
            order = np.lexsort(tuple(pts[::-1, boxes[rows], cols]) + (rows,))
            slot = cols[order[np.diff(rows[order], prepend=-1) > 0]]
        kind = np.minimum(slot, 1) + (slot >= samples_from)
        return boxes.tolist(), kind.tolist(), values[boxes, slot].tolist(), pts[:, boxes, slot].T

    def draw(self, los, his, snapped, bad):
        """The harvest's points of the boxes [los, his], built once as one
        (n, boxes, slots) array, the layout of the cut walk: slot 0 the
        snapped center, slots 1..2^n the corners (n <= 5), then, when some
        box is ``bad``, 32 slots holding the Halton samples of the bad
        boxes and zeros for the rest.  Integral rows are rounded as
        ``snap`` rounds them.

        Also returns the (boxes,) mask of the boxes whose points may leave
        the domain: those whose upper corner lo + (hi - lo), computed as
        ``spread`` computes it, lies past the domain's lattice hull, or
        whose lo or snapped center lies outside it (the center
        0.5 * lo + 0.5 * hi of a box with subnormal bounds can round out of
        [lo, hi]).  Every other point lies in the domain: rounding is
        monotone, so a drawn coordinate lies in [lo, that corner], and
        rounding to an integer is monotone too, so a drawn integral
        coordinate lies in the hull's integers [lo, round(corner)]."""
        n, count = self.n, len(los)
        samples_from = 1 + len(self.corner_pattern)
        slots = samples_from + (_MAX_SAMPLES if bad.any() else 0)
        pts = np.zeros((n, count, slots))
        lo, span = los.T, (his - los).T
        pts[:, :, 0] = snapped.T
        pts[:, :, 1:samples_from] = self.spread(self.corner_pattern, lo, span)
        if slots > samples_from:
            pts[:, bad, samples_from:] = self.spread(self.samples, lo[:, bad], span[:, bad])
        if self.has_integral:
            rows = np.flatnonzero(self.integral)
            pts[rows] = np.round(pts[rows])
        may_leave = ((np.maximum(los + (his - los), snapped) > self.box.hull_upper)
                     | (np.minimum(los, snapped) < self.box.hull_lower)).any(axis=1)
        return pts, may_leave

    @staticmethod
    def spread(pattern, lo, span) -> np.ndarray:
        """The (n, boxes, points) points lo + pattern * span of each box,
        from the (n, boxes) lower bounds ``lo`` and widths ``span`` and the
        (points, n) ``pattern``: numpy loops run along the pattern."""
        return lo[:, :, None] + pattern.T[:, None, :] * span[:, :, None]


class GlobalOracle:
    """Certified global minimization over the region.

    ``objective.lipschitz_f`` must be valid for ``domain_norm`` over the
    region's box.  ``solve`` returns Solved once the incumbent minus the
    smallest surviving lower bound drops to the tolerance.  When the branch
    tree is exhausted without any feasible point it returns Infeasible, a
    certificate, only if every box lies inside an exclusion ball.  Boxes
    narrower than ``_BOX_MIN_WIDTH`` = 1e-10 are never split, and one that
    no ball covers may hold a feasible point that none of its center,
    corners and samples is (an equality written as |h(x)| <= 0 has such
    points), so then it returns Unresolved, with the least lower bound of
    those boxes as ``value``.  It raises ResourceLimitError past
    ``node_limit`` processed nodes, and ignores ``start``.
    """

    def __init__(self, config: OracleConfig | None = None, domain_norm: NormKind = NormKind.Two):
        self.config = config or OracleConfig()
        self.domain_norm = member(domain_norm, NormKind, "domain_norm")

    def solve(self, objective: ObjectiveSpec, region: RelaxedRegion, start=None) -> OracleResult:
        return _Search(objective, region, self.config, self.domain_norm).run()


class LocalOracle:
    """Compass/pattern search from a start point, which ``solve`` requires
    to be finite and in the box (Kolda, Lewis & Torczon, "Optimization by
    direct search", SIAM Review 2003).

    Probes +/- step along each coordinate (initial step: a quarter of the
    longest box edge; the feasible probes of a step in one objective
    evaluation), accepts the best feasible improving probe (the least
    value, then the least point), halves the step on failure and stops
    once the step falls below 1e-9.  It raises ResourceLimitError once its
    objective evaluations exceed ``node_limit``.

    One membership test covers a step and the halvings below it, 2n probes
    per level, as many levels as ``_BATCH_BOXES`` = 128 probes hold (at
    least one; every level down to 1e-9 in 1-D).  Membership is pure cut
    geometry and answers each probe on its own, so the levels are then
    replayed in order: the evaluation count and node limit, the objective
    call on the level's feasible probes, and the move or the halving are
    those of a search testing one step at a time.  The objective is
    evaluated exactly where, when and in the batches that such a search
    evaluates it; after a move the next test starts at the new point.

    A start violating some cut is first pushed radially off the nearest
    violated cut to just outside its boundary (clipped to the box); if
    that projection is still infeasible the search fails with
    InfeasibleStartError.  The reported gap is infinite: local solutions
    carry no global certificate.
    """

    def __init__(self, config: OracleConfig | None = None):
        self.config = config or OracleConfig()

    def solve(self, objective: ObjectiveSpec, region: RelaxedRegion, start=None) -> OracleResult:
        if start is None:
            raise ValueError("the local oracle requires a start point")
        box = region.domain
        if box.integral.any():
            raise ValueError("the local oracle supports continuous domains only")
        x = finite_vector(start, "start", box.dimension)
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
        n = box.dimension
        # the levels of one membership test: a step and its halvings, 2n
        # probes each, as many as one batch of _BATCH_BOXES holds
        depth = max(1, _BATCH_BOXES // (2 * n))
        # probe 2j + 0 of a level is x - s e_j, probe 2j + 1 is x + s e_j
        probe_rows = np.arange(2 * n)
        probe_axes = probe_rows // 2
        signs = np.tile((-1.0, 1.0), n)
        while step >= 1e-9:
            steps = [step]
            while len(steps) < depth and steps[-1] * 0.5 >= 1e-9:
                steps.append(steps[-1] * 0.5)
            probes = np.empty((len(steps), 2 * n, n))
            probes[...] = x
            probes[:, probe_rows, probe_axes] += np.multiply.outer(steps, signs)
            feasible_rows = region.membership_mask(probes.reshape(-1, n)).reshape(len(steps), 2 * n)
            # replay the levels in order, as a search testing one level at a time
            for level, s in enumerate(steps):
                feasible = probes[level, feasible_rows[level]]
                evaluations += len(feasible)
                if evaluations > self.config.node_limit:
                    raise ResourceLimitError(evaluations, x, fx, math.inf)
                best = None
                for cand, fc in zip(feasible, objective.evaluate_batch(feasible).tolist()):
                    if fc >= fx:
                        continue
                    if best is None or fc < best[0] or (fc == best[0] and tuple(cand) < tuple(best[1])):
                        best = (fc, cand)
                if best is None:
                    step = s * 0.5
                else:
                    fx, x, step = best[0], best[1].copy(), s
                    break
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
