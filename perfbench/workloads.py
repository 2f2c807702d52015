"""The four benchmark workloads.  Each is a closed loop over *units*: a
unit starts when the previous one returns.  A unit is one whole solve (or
block of solves) so that traces can be fingerprinted; it yields one or
more *ops*, the items whose latency is reported:

* ``comp-cuts``: a unit is one 100-iteration solve of ``comp-example``;
  an op is one driver iteration.
* ``random-batch``: a unit is a block of four consecutive problems of the
  generator (two 1-D, two 2-D) and is one op.  A single problem's latency
  is bimodal (solved at once, or run to the iteration cap), which puts its
  median in the gap between the two modes; a block's is not.
* ``norm-lattice``: a unit is a pair of problems, one per norm pair, with
  their cut reformulation, LP export and enumeration checks; one op.
* ``local-walk``: a unit is one 20-iteration local-oracle walk; one op.

Every unit checks its outputs; a failed check fails all the unit's ops.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import generators
from spans import ClockedOracle, Tracer, spanned, traced_problem
from lipcut import (
    CutMode,
    DriverConfig,
    GlobalOracle,
    InfeasibleStartError,
    LocalOracle,
    NormKind,
    OracleConfig,
    SolveStatus,
    build,
    export_lp,
    get_builtin,
    reformulate_1norm,
    reformulate_infnorm,
    run,
    trace_to_csv,
    verify_by_enumeration,
)

COMP_OPTIMUM = 6.763847783176571
GAP_TARGET = 0.02


@dataclass
class Solve:
    """One ``run()`` call as seen from outside: the problem it was given,
    the outcome (None after InfeasibleStartError) and the oracle clock."""

    problem: object
    outcome: object
    clock: ClockedOracle
    start: float
    end: float

    @property
    def trace(self):
        return self.outcome.trace if self.outcome is not None else ()

    def to_gap(self, reference: float | None = None) -> tuple[float, float]:
        """The interval from the start of the solve until the oracle value
        is first within GAP_TARGET of ``reference`` (relative), by default
        the solve's own final value.  Solves with no value take their whole
        duration."""
        values = [rec.objective for rec in self.trace]
        if not values:
            return (self.start, self.end)
        if reference is None:
            reference = values[-1]
        for k, value in enumerate(values):
            if reference - value <= GAP_TARGET * abs(reference):
                return (self.start, self.clock.returns[k])
        return (self.start, self.end)


@dataclass
class UnitResult:
    """Times are kept as (start, end) perf_counter intervals, so that the
    loop can take the gauge's samples out of them and scale them (see
    gauge.py): ``latencies`` has one interval per op, and a unit's time to
    gap is the sum of its ``to_gap`` intervals."""

    ops: int
    latencies: list
    to_gap: list
    fingerprint: str
    failures: list = field(default_factory=list)
    solves: list = field(default_factory=list)
    gap_pct: float | None = None
    interval: tuple = (0.0, 0.0)  # the whole unit, set by the loop


def timed_run(problem, oracle, config, tracer: Tracer | None, host) -> Solve:
    clock = ClockedOracle(oracle, tracer, host)
    if tracer is not None:
        problem = traced_problem(problem, tracer)
    start = perf_counter()
    try:
        outcome = spanned(tracer, "driver.run", run, problem, clock, config)
    except InfeasibleStartError:
        outcome = None
    return Solve(problem, outcome, clock, start, perf_counter())


def fingerprint(solves) -> str:
    digest = hashlib.sha256()
    for s in solves:
        if s.outcome is None:
            digest.update(b"infeasible-start\n")
        else:
            digest.update(s.outcome.status.value.encode() + b"\n")
            digest.update(trace_to_csv(s.trace, s.problem.domain.dimension).encode())
    return digest.hexdigest()


class Workload:
    name = ""
    tail_pct = 90.0
    setup_repeats = 5
    ops_per_unit = 1

    def setup(self, seed: int, tracer: Tracer | None = None) -> list:
        """Generate and build the pool; returns the units' inputs."""
        raise NotImplementedError

    def unit(self, item, tracer: Tracer | None = None, host=None) -> UnitResult:
        """Run one unit; ``host`` is the gauge.Gauge of an untraced run."""
        raise NotImplementedError

    def built(self, item) -> list:
        """The BuiltProblems of one pool item."""
        return list(item)

    @property
    def min_ops(self) -> int:
        """Enough ops that the tail percentile has ten samples beyond it."""
        return math.ceil(10 / (1 - self.tail_pct / 100))


def _build(definition, tracer: Tracer | None):
    return spanned(tracer, "problems.build", build, definition)


class CompCuts(Workload):
    """Published comp-example, component cuts, eps 1e-6, 100 iterations.
    The input does not depend on the seed; the seed only draws the point
    set of the traced run's cut-kernel replay."""

    name = "comp-cuts"
    tail_pct = 95.0
    setup_repeats = 101
    ops_per_unit = 100

    def setup(self, seed, tracer=None):
        return [_build(get_builtin("comp-example"), tracer)]

    def built(self, item):
        return [item]

    def unit(self, built, tracer=None, host=None):
        problem = built.problem
        solve = timed_run(
            problem,
            GlobalOracle(OracleConfig(tolerance=1e-6), problem.domain_norm),
            DriverConfig(epsilon=1e-6, max_iterations=100, cut_mode=CutMode.Component),
            tracer,
            host,
        )
        bounds = [solve.start] + solve.clock.starts[1:] + [solve.end]
        gap = (COMP_OPTIMUM - solve.outcome.lower_bound) / COMP_OPTIMUM
        failures = []
        if len(solve.trace) != 100:
            failures.append(f"comp-cuts: {len(solve.trace)} iterations, expected 100")
        if not gap <= GAP_TARGET:
            failures.append(f"comp-cuts: final gap {100 * gap:.3f}% > 2%")
        return UnitResult(
            ops=len(solve.trace),
            latencies=list(zip(bounds, bounds[1:])),
            to_gap=[solve.to_gap(COMP_OPTIMUM)],
            fingerprint=fingerprint([solve]),
            failures=failures,
            solves=[solve],
            gap_pct=100 * gap,
        )


class RandomBatch(Workload):
    """Acceptance criteria 5-7: constants estimated by build() (grid
    64/dim), global oracle tol 1e-6, eps 1e-3 without the floor, at most
    10 iterations."""

    name = "random-batch"
    tail_pct = 80.0
    setup_repeats = 5
    block = 4
    pool = 48

    def setup(self, seed, tracer=None):
        built = [_build(d, tracer) for d in generators.random_batch(seed, self.pool)]
        return [built[i:i + self.block] for i in range(0, self.pool, self.block)]

    def unit(self, block, tracer=None, host=None):
        start = perf_counter()
        solves, failures = [], []
        for built in block:
            problem = built.problem
            solve = timed_run(
                problem,
                GlobalOracle(OracleConfig(tolerance=1e-6), problem.domain_norm),
                DriverConfig(epsilon=1e-3, epsilon_floor=False, max_iterations=10),
                tracer,
                host,
            )
            failures += _revisits(solve)
            solves.append(solve)
        return UnitResult(
            ops=1,
            latencies=[(start, perf_counter())],
            to_gap=[s.to_gap() for s in solves],
            fingerprint=fingerprint(solves),
            failures=failures,
            solves=solves,
        )


def _revisits(solve) -> list:
    """Criterion 6: no iterate lies strictly inside an earlier cut."""
    out = []
    records = solve.trace
    for i, earlier in enumerate(records):
        if earlier.radius <= 0:
            continue
        for later in records[i + 1:]:
            if np.linalg.norm(later.point - earlier.point) < earlier.radius - 1e-12:
                out.append(f"random-batch: iterate {later.k} inside cut {earlier.k}")
    return out


class NormLattice(Workload):
    """3-D problems over the (1, inf) and (inf, 1) norm pairs with certified
    constants, global oracle tol 1e-3, eps 1e-3, at most 10 iterations.
    Every cut is reformulated (big-M twice the box's 1-norm diameter, so
    the encoding is exact on the box), exported as LP, and every later
    iterate is checked against every earlier cut by enumeration."""

    name = "norm-lattice"
    tail_pct = 80.0
    setup_repeats = 5
    pool = 24

    def setup(self, seed, tracer=None):
        pool = [(_build(d, tracer), objective) for d, objective in generators.norm_lattice(seed, self.pool)]
        return [pool[i:i + 2] for i in range(0, self.pool, 2)]

    def built(self, pair):
        return [built for built, _ in pair]

    def unit(self, pair, tracer=None, host=None):
        start = perf_counter()
        solves, failures = [], []
        for built, objective in pair:
            problem = built.problem
            solve = timed_run(
                problem,
                GlobalOracle(OracleConfig(tolerance=1e-3), problem.domain_norm),
                DriverConfig(epsilon=1e-3, max_iterations=10),
                tracer,
                host,
            )
            solves.append(solve)
            failures += _reform_checks(problem, solve.trace, objective, tracer)
        return UnitResult(
            ops=1,
            latencies=[(start, perf_counter())],
            to_gap=[s.to_gap() for s in solves],
            fingerprint=fingerprint(solves),
            failures=failures,
            solves=solves,
        )


def _reform_checks(problem, trace, objective, tracer) -> list:
    box = problem.domain
    big_m = 2.0 * box.diameter(NormKind.One)
    reformulate = reformulate_1norm if problem.domain_norm is NormKind.One else reformulate_infnorm
    systems = [(rec.k, spanned(tracer, "reform.reformulate", reformulate, rec.point, rec.radius, big_m))
               for rec in trace if rec.radius > 0]
    failures = []
    for k, system in systems:
        for later in trace[k + 1:]:
            if not spanned(tracer, "reform.verify", verify_by_enumeration, system, later.point):
                failures.append(f"norm-lattice: iterate {later.k} rejected by cut {k}")
    lp = spanned(tracer, "reform.export", export_lp, [s for _, s in systems], objective, box)
    if tracer is not None:
        tracer.counts["reform.lp_bytes"] += len(lp.encode())
        tracer.counts["reform.rows"] += sum(s.constraint_count for _, s in systems)
        tracer.counts["reform.systems"] += len(systems)
    return failures


class LocalWalk(Workload):
    """The bad-local builtin (the local-oracle pathology of criterion 2)
    walked by the local oracle from seeded, stratified starts in
    [-1, -0.25], exact mode, its 20-iteration budget.  Every probe goes
    through the scalar path: region_membership, cut_satisfied and
    Expr.eval."""

    name = "local-walk"
    tail_pct = 90.0
    setup_repeats = 101
    pool = 32

    def setup(self, seed, tracer=None):
        built = _build(get_builtin("bad-local"), tracer)
        # one start per stratum of [-1, -0.25]: the walk's cost depends on
        # its start, so stratifying keeps the mix the same for every seed
        u = np.random.default_rng(seed).random(self.pool)
        starts = -1.0 + 0.75 * (np.arange(self.pool) + u) / self.pool
        return [(built, float(s)) for s in starts]

    def built(self, item):
        return [item[0]]

    def unit(self, item, tracer=None, host=None):
        built, x0 = item
        problem = built.problem
        solve = timed_run(
            problem,
            LocalOracle(OracleConfig()),
            DriverConfig(max_iterations=20, initial_start=np.array([x0])),
            tracer,
            host,
        )
        return UnitResult(
            ops=1,
            latencies=[(solve.start, solve.end)],
            to_gap=[solve.to_gap()],
            fingerprint=fingerprint([solve]),
            failures=_walk_checks(solve),
            solves=[solve],
        )


def _walk_checks(solve) -> list:
    """Solved points are feasible; otherwise the walk follows the local
    oracle's documented recurrence x(k+1) = x(k) - x(k)^3/3 from below 0."""
    if solve.outcome is None:
        return []
    if solve.outcome.status is SolveStatus.Solved:
        return [] if solve.trace[-1].violation_max <= 1e-14 else ["local-walk: accepted point is infeasible"]
    xs = [rec.point[0] for rec in solve.trace]
    for prev, cur in zip(xs, xs[1:]):
        if not (abs(cur - (prev - prev**3 / 3.0)) <= 1e-5 and prev < cur < 0):
            return [f"local-walk: step {prev!r} -> {cur!r} leaves the recurrence"]
    return []


WORKLOADS = {w.name: w for w in (CompCuts(), RandomBatch(), NormLattice(), LocalWalk())}


def smoke() -> list:
    """Untimed builtin checks run on every invocation: statuses as the
    README documents them, and trace fingerprints pinned here (the trace
    CSV bytes are a contract).  Returns failure messages."""
    cases = [
        ("sin-example", None, SolveStatus.Solved,
         "3950f06b1e2ef9d13fd2387f3e497c08b45e9eb2bbbdc262017c9409ae55448e"),
        ("bad-local", -1.0, SolveStatus.IterationLimit,
         "143b0a6aa0e03f3c54d1346218c6d8573bbc5573a06b35bd156046e8a0f866fe"),
        ("bad-local", None, SolveStatus.Solved,
         "b9bbe45b080dceca2d945f8aa321d6523307828705a139ef077bcee6b26c5a63"),
        ("infeasible-1d", None, SolveStatus.InfeasibleCertified,
         "2c408432c6eecbf4ab6fda7aaea188a1b50fb032a871d1ac95e0b4f3f769a726"),
    ]
    failures = []
    for name, start, status, pinned in cases:
        built = build(get_builtin(name))
        problem = built.problem
        if start is None:
            label, oracle = f"{name}/global", GlobalOracle(OracleConfig(tolerance=1e-6), problem.domain_norm)
        else:
            label, oracle = f"{name}/local", LocalOracle(OracleConfig())
        config = DriverConfig(
            epsilon=built.epsilon,
            max_iterations=built.max_iterations,
            cut_mode=built.cut_mode,
            initial_start=None if start is None else np.array([start]),
        )
        outcome = run(problem, oracle, config)
        digest = hashlib.sha256(trace_to_csv(outcome.trace, problem.domain.dimension).encode()).hexdigest()
        if outcome.status is not status:
            failures.append(f"smoke {label}: status {outcome.status.value}, expected {status.value}")
        if digest != pinned:
            failures.append(f"smoke {label}: trace fingerprint {digest}, expected {pinned}")
    return failures
