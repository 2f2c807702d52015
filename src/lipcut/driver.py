"""The cutting driver: iteratively solve relaxed subproblems and exclude
norm balls around infeasible incumbents until acceptance, certified
infeasibility, or the iteration limit.

The loop per iteration k:

1. The oracle minimizes the objective over the current relaxed region;
   Infeasible certifies the original problem infeasible.  Unresolved (no
   feasible point found, but boxes too narrow to split that no cut
   covers) ends the run with the oracle's lower bound and no certificate.
2. The constraint vector is evaluated at the returned point, as a
   one-row ``evaluate_batch`` call, which raises NonFiniteValueError on a
   NaN or infinite component.
3. Acceptance: every component <= 0 in exact mode (violations up to 1e-14
   are treated as zero to avoid degenerate zero-radius cuts), or
   <= epsilon in approximate mode.
4. Otherwise a cut is added at the point.  Vector mode uses radius
   ||r_+|| / L, with the constraint's point-dependent constant L(x) as L
   whenever the constraint carries one (``pointwise_L``), and the union
   of the components' active-coordinate masks; component mode adds ONE
   cut with the maximal per-component radius max_p r_p(x)_+ / L_p, which
   is the inf-norm radius of r(x) / L_p at L = 1, recording the first
   attaining component and using that component's mask.  Both radii come
   from ``cut_radius``, and the masks from a table built once per run.
   When every component has the same mask, or none has one, the
   maximal-radius ball contains all smaller concentric per-component
   balls, so the single cut yields the same region as they do.  With
   different masks each component's ball is a cylinder over its own
   coordinates, and the single cut is still valid but weaker: it keeps
   points that another component's cylinder excludes.  In approximate
   mode the radius is floored at epsilon by default so excluded balls
   never degenerate.

The driver loop is inherently sequential; each run owns its oracle.
Independent problems may run concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    ConstraintSpec,
    Cut,
    NormKind,
    Problem,
    RelaxedRegion,
    cut_radius,
    finite_vector,
    member,
    nonnegative,
    norm_eval,
    positive_integer,
    positive_part,
)
from .oracle import OracleResult, OracleStatus, ResourceLimitError

_EXACT_FEAS_TOL = 1e-14


class CutMode(enum.Enum):
    Vector = "vector"
    Component = "component"


class SolveStatus(enum.Enum):
    InfeasibleCertified = "infeasible-certified"
    Solved = "solved"
    IterationLimit = "iteration-limit"
    Unresolved = "unresolved"


@dataclass(frozen=True, eq=False)
class DriverConfig:
    """Driver behavior.

    ``epsilon`` = 0 requests exact constraint satisfaction; positive
    epsilon accepts points with every component violation <= epsilon.
    ``epsilon_floor`` (radius = max(radius, epsilon)) defaults to on in
    approximate mode and never applies in exact mode.  Component mode
    requires per-component Lipschitz constants and a constraint without a
    point-dependent constant (``ConstraintSpec.pointwise_L``).
    ``initial_start``, the local oracle's first start (the box center when
    None), is stored as a read-only copy: a 1-D vector of finite numbers.
    Configs compare and hash by identity, like boxes.
    """

    epsilon: float = 0.0
    max_iterations: int = 100
    cut_mode: CutMode = CutMode.Vector
    epsilon_floor: bool | None = None
    initial_start: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "epsilon", nonnegative(self.epsilon, "epsilon"))
        object.__setattr__(self, "max_iterations", positive_integer(self.max_iterations, "max_iterations"))
        member(self.cut_mode, CutMode, "cut_mode")
        if self.epsilon_floor is None:
            object.__setattr__(self, "epsilon_floor", self.epsilon > 0)
        if self.epsilon_floor and self.epsilon == 0:
            raise ValueError("the epsilon floor requires epsilon > 0")
        if self.initial_start is not None:
            object.__setattr__(self, "initial_start", finite_vector(self.initial_start, "initial_start"))


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """One row of the solve trace.  ``radius`` is 0 exactly when the
    iterate was accepted as (epsilon-)feasible."""

    k: int
    point: np.ndarray
    objective: float
    violation_norm: float
    violation_max: float
    radius: float
    attaining_component: int | None
    oracle_nodes: int
    oracle_gap: float


@dataclass(frozen=True, slots=True)
class SolveOutcome:
    """Driver outcome.  ``lower_bound`` is the last oracle value minus its
    gap (+inf when the first oracle call certifies infeasibility; the
    oracle's own lower bound when Unresolved ends the run).  The
    region only shrinks from one iteration to the next, so the relaxed
    minimum never exceeds the true optimum, and with the global oracle,
    whose value exceeds the relaxed minimum by at most its gap, the bound
    is certified.  The local oracle reports an infinite gap, so its bound
    is -inf."""

    status: SolveStatus
    trace: tuple
    final_point: np.ndarray | None
    lower_bound: float
    final_region: RelaxedRegion


def run(problem: Problem, oracle, config: DriverConfig | None = None) -> SolveOutcome:
    """Run the cutting loop on ``problem`` with the given subproblem oracle
    (an object exposing solve(objective, region, start)).  An oracle
    that states a ``domain_norm``, as ``GlobalOracle`` does, must bound in
    the problem's domain norm, the norm of its Lipschitz constants.  An
    oracle's ResourceLimitError is re-raised with ``trace`` set to the
    iterations completed before it."""
    config = config or DriverConfig()
    constraint = problem.constraint
    if getattr(oracle, "domain_norm", problem.domain_norm) is not problem.domain_norm:
        raise ValueError(
            f"the global oracle bounds in the {oracle.domain_norm.value}-norm, "
            f"but the problem's domain norm is the {problem.domain_norm.value}-norm"
        )
    if config.cut_mode is CutMode.Component and constraint.component_L is None:
        raise ValueError("component cut mode requires per-component Lipschitz constants")
    if constraint.pointwise_L is not None and config.cut_mode is CutMode.Component:
        raise ValueError("point-dependent constants are supported in vector cut mode only")

    region = RelaxedRegion(problem.domain)
    trace: list[IterationRecord] = []
    start = config.initial_start if config.initial_start is not None else problem.domain.center
    accept_tol = config.epsilon if config.epsilon > 0 else _EXACT_FEAS_TOL
    # the cut masks, one per component and then their union for vector
    # cuts; None, which a mask of no coordinate becomes, selects them all
    masks = [None] * (constraint.m + 1)
    if constraint.active_mask is not None:
        rows = constraint.active_mask + (np.any(constraint.active_mask, axis=0),)
        masks = [row if row.any() else None for row in rows]

    for k in range(config.max_iterations):
        try:
            result: OracleResult = oracle.solve(problem.objective, region, start=np.asarray(start, dtype=float))
        except ResourceLimitError as exc:
            exc.trace = tuple(trace)
            raise
        if result.status is OracleStatus.Infeasible:
            return SolveOutcome(SolveStatus.InfeasibleCertified, tuple(trace), None, _lower_bound(trace), region)
        if result.status is OracleStatus.Unresolved:
            return SolveOutcome(SolveStatus.Unresolved, tuple(trace), None, result.value - result.gap, region)

        x = np.asarray(result.point, dtype=float)
        violations = constraint.evaluate_batch(x[None, :])[0]
        viol_norm = norm_eval(constraint.image_norm, positive_part(violations))
        viol_max = float(violations.max())

        if viol_max <= accept_tol:
            trace.append(
                IterationRecord(k, x, result.value, viol_norm, viol_max, 0.0, None, result.nodes, result.gap)
            )
            return SolveOutcome(SolveStatus.Solved, tuple(trace), x, _lower_bound(trace), region)

        radius, component = _cut_geometry(constraint, violations, x, config)
        if config.epsilon_floor:
            radius = max(radius, config.epsilon)
        cut = Cut(x, radius, masks[-1 if component is None else component], problem.domain_norm)
        # the cut's read-only copy of x is the iterate from here on
        trace.append(IterationRecord(
            k, cut.center, result.value, viol_norm, viol_max, radius, component, result.nodes, result.gap,
        ))
        region = region.with_cut(cut)
        start = cut.center

    return SolveOutcome(SolveStatus.IterationLimit, tuple(trace), None, _lower_bound(trace), region)


def _lower_bound(trace) -> float:
    """The last oracle value minus its gap; +inf for an empty trace."""
    return trace[-1].objective - trace[-1].oracle_gap if trace else math.inf


def _cut_geometry(constraint: ConstraintSpec, violations: np.ndarray, x: np.ndarray, config: DriverConfig):
    """Radius and attaining component (None for a vector cut, or when no
    component attains a positive radius) of the next cut."""
    if config.cut_mode is CutMode.Vector:
        L = constraint.global_L
        if constraint.pointwise_L is not None:
            L = float(constraint.pointwise_L(x))
            if not 0 < L <= constraint.global_L:
                raise ValueError(
                    f"point-dependent Lipschitz constant pointwise_L at {x} must lie in "
                    f"(0, global_L = {constraint.global_L}], got {L}"
                )
        return cut_radius(violations, L, constraint.image_norm), None
    scaled = violations / np.asarray(constraint.component_L)
    radius = cut_radius(scaled, 1.0, NormKind.Inf)
    return radius, int(np.argmax(scaled)) if radius > 0 else None


def normalized_problem(problem: Problem) -> Problem:
    """Rescale the constraint by 1 / (rho(domain) * L): all violations and
    constants shrink by the same factor, so cut geometry is unchanged and
    epsilon acquires the scale-free interpretation."""
    from .bounds import box_radius

    scale = 1.0 / (box_radius(problem.domain, problem.domain_norm) * problem.constraint.global_L)
    old = problem.constraint

    def scaled(fn):
        return lambda x, _fn=fn: _fn(x) * scale

    constraint = replace(
        old,
        components=tuple(scaled(c) for c in old.components),
        global_L=old.global_L * scale,
        component_L=tuple(v * scale for v in old.component_L) if old.component_L is not None else None,
        pointwise_L=scaled(old.pointwise_L) if old.pointwise_L is not None else None,
        batch_components=tuple(scaled(c) for c in old.batch_components)
        if old.batch_components is not None
        else None,
    )
    return replace(problem, constraint=constraint)


# --------------------------------------------------------------------------
# trace serialization

def trace_columns(dimension: int) -> list[str]:
    """The header of a trace CSV over ``dimension`` coordinates."""
    return ["k"] + [f"x{j + 1}" for j in range(dimension)] + [
        "f", "viol_norm", "viol_max", "radius", "component", "oracle_nodes", "oracle_gap",
    ]


def trace_to_csv(trace, dimension: int) -> str:
    """CSV with header ``trace_columns(dimension)``: k,x1..xn,f,viol_norm,
    viol_max,radius,component,oracle_nodes,oracle_gap; 17 significant
    digits, UNIX newlines."""
    lines = [",".join(trace_columns(dimension))]
    for rec in trace:
        row = [str(rec.k)]
        row += [_fmt(v) for v in rec.point]
        row += [_fmt(rec.objective), _fmt(rec.violation_norm), _fmt(rec.violation_max), _fmt(rec.radius)]
        row.append("" if rec.attaining_component is None else str(rec.attaining_component))
        row.append(str(rec.oracle_nodes))
        row.append(_fmt(rec.oracle_gap))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    return f"{value:.17g}"
