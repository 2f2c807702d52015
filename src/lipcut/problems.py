"""Problem definitions: the YAML problem-file format and the builtin
catalog.

A problem file is one flat YAML document with the keys

    dimension: 2
    bounds: [[-1.0, 1.0], [-1.0, 1.0]]
    integral: [false, false]          # optional
    norm: "2"                         # domain norm: "1" | "2" | "inf"
    image_norm: "2"
    objective: "abs(x1 - x2) + x1"
    objective_L: 2.23606797749979     # optional; estimated when absent
    constraints:
      - expr: "-sin(x1) - x2"
        L: 1.4142135623730951         # optional per-component constant
        mask: [1, 2]                  # optional active coordinates (1-based)
    global_L: 1.4142135623730951      # optional; estimated when absent
    epsilon: 1.0e-4                   # optional
    max_iterations: 25                # optional
    cut_mode: "vector"                # optional: "vector" | "component"

Missing Lipschitz constants are estimated at load time (grid bound, 64
points per dimension, safety 1.05; or slope sampling over 10,000 pairs,
inflation 0.1) and the estimates are reported back to the caller.
Builtin problems carry their published constants verbatim so solver
traces stay reproducible and independent of estimator drift.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, field

import numpy as np
import yaml

from .core import BoxDomain, ConstraintSpec, NormKind, ObjectiveSpec, Problem
from .driver import CutMode
from .expr import batch_evaluator, parse
from .lipschitz import LipschitzEstimate, labelled_estimate

_KEYS = {
    "dimension", "bounds", "integral", "norm", "image_norm", "objective",
    "objective_L", "constraints", "global_L", "epsilon", "max_iterations", "cut_mode",
}
_CONSTRAINT_KEYS = {"expr", "L", "mask"}


@dataclass(frozen=True)
class ConstraintDef:
    expr: str
    L: float | None = None
    mask: tuple | None = None  # 1-based coordinate indices


@dataclass(frozen=True)
class ProblemDefinition:
    dimension: int
    bounds: tuple
    norm: NormKind
    image_norm: NormKind
    objective: str
    constraints: tuple
    integral: tuple | None = None
    objective_L: float | None = None
    global_L: float | None = None
    epsilon: float | None = None
    max_iterations: int | None = None
    cut_mode: CutMode | None = None
    name: str = ""


@dataclass
class BuiltProblem:
    """A ProblemDefinition compiled to evaluators, plus driver defaults and
    notes about any constants estimated at load time."""

    problem: Problem
    exprs: dict
    epsilon: float
    max_iterations: int
    cut_mode: CutMode
    estimated: dict = field(default_factory=dict)


class _Loader(yaml.SafeLoader):
    """``yaml.SafeLoader`` plus the YAML 1.2 float forms that YAML 1.1
    reads as strings: an exponent without a decimal point or without a
    sign (``1e-4``, ``1.0e4``, ``1E5``)."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def load_problem_file(path) -> ProblemDefinition:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = yaml.load(handle, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ValueError(f"problem file {path} is not valid YAML: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"problem file {path} is not a mapping")
    return definition_from_dict(data, name=str(path))


def definition_from_dict(data: dict, name: str = "") -> ProblemDefinition:
    unknown = set(data) - _KEYS
    if unknown:
        raise ValueError(f"unknown problem keys: {sorted(unknown)}")
    for key in ("dimension", "bounds", "norm", "image_norm", "objective", "constraints"):
        if key not in data:
            raise ValueError(f"problem file is missing required key {key!r}")
    dimension = _integer(data["dimension"], "dimension")
    if dimension < 1:
        raise ValueError("dimension must be positive")
    if not isinstance(data["bounds"], (list, tuple)) or not all(
        isinstance(b, (list, tuple)) and len(b) == 2 for b in data["bounds"]
    ):
        raise ValueError("bounds must be a list of [lower, upper] pairs, one per coordinate")
    bounds = tuple((_number(lo, "bounds entry"), _number(hi, "bounds entry")) for lo, hi in data["bounds"])
    if len(bounds) != dimension:
        raise ValueError("bounds length does not match dimension")
    integral = None
    if data.get("integral") is not None:
        if not isinstance(data["integral"], (list, tuple)):
            raise ValueError("integral must be a list of booleans, one per coordinate")
        integral = tuple(data["integral"])
        if not all(isinstance(b, (bool, np.bool_)) for b in integral):
            raise ValueError(f"integral must be a list of booleans, one per coordinate, got {data['integral']!r}")
        if len(integral) != dimension:
            raise ValueError("integral length does not match dimension")
    if not isinstance(data["constraints"], (list, tuple)):
        raise ValueError("constraints must be a list of mappings with an 'expr' key")
    constraints = []
    for p, entry in enumerate(data["constraints"], start=1):
        if not isinstance(entry, dict):
            raise ValueError(f"constraint {p} must be a mapping with an 'expr' key, got {entry!r}")
        unknown = set(entry) - _CONSTRAINT_KEYS
        if unknown:
            raise ValueError(f"unknown constraint keys: {sorted(unknown)}")
        if "expr" not in entry:
            raise ValueError(f"constraint {p} is missing required key 'expr'")
        mask = entry.get("mask")
        if mask and not isinstance(mask, (list, tuple)):
            raise ValueError(f"constraint {p} mask must be a list of coordinate indices, got {mask!r}")
        mask = tuple(_integer(i, f"constraint {p} mask entry") for i in mask) if mask else None
        if mask and not all(1 <= i <= dimension for i in mask):
            raise ValueError(f"constraint mask indices out of range: {mask}")
        constraints.append(ConstraintDef(str(entry["expr"]), _optional(entry, "L", _number, f"constraint {p} L"), mask))
    if not constraints:
        raise ValueError("a problem needs at least one constraint")
    cut_mode = CutMode(data["cut_mode"]) if data.get("cut_mode") else None
    return ProblemDefinition(
        dimension=dimension,
        bounds=bounds,
        norm=NormKind.from_string(data["norm"]),
        image_norm=NormKind.from_string(data["image_norm"]),
        objective=str(data["objective"]),
        constraints=tuple(constraints),
        integral=integral,
        objective_L=_optional(data, "objective_L", _number),
        global_L=_optional(data, "global_L", _number),
        epsilon=_optional(data, "epsilon", _number),
        max_iterations=_optional(data, "max_iterations", _integer),
        cut_mode=cut_mode,
        name=name,
    )


def _optional(data: dict, key: str, read, what: str | None = None):
    """``read(data[key], what)``, or None when the key is absent or null."""
    return read(data[key], what or key) if data.get(key) is not None else None


def _number(value, what: str) -> float:
    """``value`` as a finite float; a bool, a string, NaN or inf raises."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, what: str) -> int:
    """``value`` as an int; a bool, a string or a fractional number raises."""
    whole = isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def build(
    definition: ProblemDefinition,
    estimator: str = "grid",
    seed: int = 0,
) -> BuiltProblem:
    """Compile a definition to a runnable Problem, estimating any missing
    Lipschitz constants with the chosen estimator: ``"grid"`` is
    ``jacobian_sup_bound`` with its defaults (64 points per dimension,
    safety 1.05), anything else ``slope_sampling_estimate`` over 10,000
    pairs from ``seed`` with its default inflation 0.1.  Per-component
    constants are estimated when ``cut_mode`` is component, and otherwise
    kept only when the file gives all of them.  A failed estimate raises
    ValueError prefixed with the constant's ``BuiltProblem.estimated`` key
    (``labelled_estimate``)."""
    box = BoxDomain(
        [b[0] for b in definition.bounds],
        [b[1] for b in definition.bounds],
        definition.integral,
    )
    objective_expr = parse(definition.objective, definition.dimension)
    constraint_exprs = [parse(c.expr, definition.dimension) for c in definition.constraints]
    estimated: dict[str, LipschitzEstimate] = {}

    def estimate(key: str, exprs) -> float:
        est = labelled_estimate(key, exprs, box, definition.norm, definition.image_norm, estimator,
                                seed=seed)
        estimated[key] = est
        return est.value

    objective_L = definition.objective_L
    if objective_L is None:
        objective_L = estimate("objective_L", [objective_expr])

    component_L = [c.L for c in definition.constraints]
    if definition.cut_mode is CutMode.Component or all(v is not None for v in component_L):
        for p, value in enumerate(component_L):
            if value is None:
                component_L[p] = estimate(f"constraint_{p + 1}_L", [constraint_exprs[p]])
        component_L_out = tuple(float(v) for v in component_L)
    else:
        component_L_out = None

    global_L = definition.global_L
    if global_L is None:
        global_L = estimate("global_L", constraint_exprs)

    masks = None
    if any(c.mask for c in definition.constraints):
        masks = []
        for c in definition.constraints:
            m = np.zeros(definition.dimension, dtype=bool)
            if c.mask:
                m[[i - 1 for i in c.mask]] = True
            else:
                m[:] = True
            masks.append(m)
        masks = tuple(masks)

    constraint = ConstraintSpec(
        components=(),
        global_L=float(global_L),
        image_norm=definition.image_norm,
        component_L=component_L_out,
        active_mask=masks,
        batch_components=tuple(batch_evaluator(e) for e in constraint_exprs),
    )
    objective = ObjectiveSpec(
        evaluator=None,
        lipschitz_f=float(objective_L),
        batch_evaluator=batch_evaluator(objective_expr),
    )
    problem = Problem(domain=box, objective=objective, constraint=constraint, domain_norm=definition.norm)
    return BuiltProblem(
        problem=problem,
        exprs={"objective": objective_expr, "constraints": constraint_exprs},
        epsilon=definition.epsilon if definition.epsilon is not None else 0.0,
        max_iterations=definition.max_iterations if definition.max_iterations is not None else 100,
        cut_mode=definition.cut_mode or CutMode.Vector,
        estimated=estimated,
    )


# --------------------------------------------------------------------------
# builtin catalog

_SQRT2 = math.sqrt(2.0)
_SQRT5 = math.sqrt(5.0)


def builtin_problems() -> dict[str, ProblemDefinition]:
    """The five builtin instances.  Lipschitz constants are the published
    values, fixed rather than re-estimated, so traces are reproducible."""
    catalog = {}
    catalog["sin-example"] = ProblemDefinition(
        name="sin-example",
        dimension=2,
        bounds=((-1.0, 1.0), (-1.0, 1.0)),
        norm=NormKind.Two,
        image_norm=NormKind.Two,
        objective="abs(x1 - x2) + x1",
        objective_L=_SQRT5,
        constraints=(ConstraintDef("-sin(x1) - x2", L=_SQRT2),),
        global_L=_SQRT2,
        epsilon=1e-4,
        max_iterations=25,
    )
    catalog["bad-local"] = ProblemDefinition(
        name="bad-local",
        dimension=1,
        bounds=((-1.0, 1.0),),
        norm=NormKind.Two,
        image_norm=NormKind.Two,
        objective="-abs(x1)",
        objective_L=1.0,
        constraints=(ConstraintDef("-(x1^3)/3", L=1.0),),
        global_L=1.0,
        epsilon=0.0,
        max_iterations=20,
    )
    catalog["comp-example"] = ProblemDefinition(
        name="comp-example",
        dimension=2,
        bounds=((1.0, 10.0), (0.0, 4.0)),
        norm=NormKind.Two,
        image_norm=NormKind.Two,
        objective="x1 + 4*x2",
        objective_L=math.sqrt(17.0),
        constraints=(
            ConstraintDef("cos(6*x1)/2 - x2 + 1.8", L=math.sqrt(10.0)),
            ConstraintDef("-2*sin(4*x1)/sqrt(x1) + x2 - 2", L=math.sqrt(42.83)),
        ),
        global_L=math.sqrt(50.83),
        epsilon=1e-6,
        max_iterations=100,
    )
    catalog["comp-example-manipulated"] = ProblemDefinition(
        name="comp-example-manipulated",
        dimension=2,
        bounds=((1.0, 10.0), (0.0, 4.0)),
        norm=NormKind.Two,
        image_norm=NormKind.Two,
        objective="x1 + 4*x2",
        objective_L=math.sqrt(17.0),
        constraints=(
            ConstraintDef("cos(6*x1)/2 - x2 + 1.8", L=math.sqrt(15.0)),
            ConstraintDef("cos(6*x1)/2 - x2 + 1.8", L=math.sqrt(15.0)),
        ),
        global_L=math.sqrt(20.0),
        epsilon=1e-6,
        max_iterations=100,
    )
    catalog["infeasible-1d"] = ProblemDefinition(
        name="infeasible-1d",
        dimension=1,
        bounds=((-1.0, 1.0),),
        norm=NormKind.Two,
        image_norm=NormKind.Two,
        objective="x1",
        objective_L=1.0,
        constraints=(ConstraintDef("x1^2 + 1", L=2.0),),
        global_L=2.0,
        epsilon=0.0,
        max_iterations=10,
    )
    return catalog


def get_builtin(name: str) -> ProblemDefinition:
    catalog = builtin_problems()
    if name not in catalog:
        raise KeyError(f"unknown builtin {name!r}; available: {', '.join(sorted(catalog))}")
    return catalog[name]
