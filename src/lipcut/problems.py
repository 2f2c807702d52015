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
from dataclasses import MISSING, dataclass, field, fields, replace

import yaml

from .core import (
    BoxDomain,
    ConstraintSpec,
    NormKind,
    ObjectiveSpec,
    Problem,
    boolean_vector,
    finite,
    member,
    nonnegative,
    positive,
    positive_integer,
)
from .driver import CutMode, DriverConfig
from .expr import batch_evaluator, parse
from .lipschitz import EstimateMethod, LipschitzEstimate, labelled_estimate


@dataclass(frozen=True)
class ConstraintDef:
    expr: str
    L: float | None = None
    mask: tuple | None = None  # 1-based coordinate indices


@dataclass(frozen=True)
class ProblemDefinition:
    """A problem as a file spells it.  Construction reads and checks every
    field, whoever builds the definition: the norms and the cut mode may
    be given as text, a constraint as a mapping with ``ConstraintDef``'s
    keys, and counts as whole floats; an empty cut mode reads as absent.
    The numbers must also lie in the ranges the solver reads them in:
    ``objective_L``, ``global_L`` and every constraint ``L`` positive,
    ``epsilon`` nonnegative and ``max_iterations`` at least 1, whether or
    not the caller goes on to ``build`` the definition."""

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

    def __post_init__(self):
        dimension = positive_integer(_integer(self.dimension, "dimension"), "dimension")
        if not isinstance(self.bounds, (list, tuple)) or not all(
            isinstance(b, (list, tuple)) and len(b) == 2 for b in self.bounds
        ):
            raise ValueError("bounds must be a list of [lower, upper] pairs, one per coordinate")
        bounds = tuple((finite(lo, "bounds entry"), finite(hi, "bounds entry")) for lo, hi in self.bounds)
        if len(bounds) != dimension:
            raise ValueError("bounds length does not match dimension")
        integral = self.integral
        if integral is not None:
            integral = tuple(boolean_vector(integral, "integral", dimension).tolist())
        if not isinstance(self.constraints, (list, tuple)):
            raise ValueError("constraints must be a list of mappings with an 'expr' key")
        constraints = tuple(_constraint(entry, p, dimension) for p, entry in enumerate(self.constraints, start=1))
        if not constraints:
            raise ValueError("a problem needs at least one constraint")
        checked = {
            "dimension": dimension, "bounds": bounds, "integral": integral, "constraints": constraints,
            "cut_mode": CutMode(self.cut_mode) if self.cut_mode else None,
            "norm": _norm(self.norm), "image_norm": _norm(self.image_norm), "objective": str(self.objective),
        }
        # a value that is not a number is refused by its read, a number out
        # of range by its rule
        for key, read, rule in (("objective_L", finite, positive), ("global_L", finite, positive),
                                ("epsilon", finite, nonnegative), ("max_iterations", _integer, positive_integer)):
            if getattr(self, key) is not None:
                checked[key] = rule(read(getattr(self, key), key), key)
        for key, value in checked.items():
            object.__setattr__(self, key, value)


def _constraint(entry, p: int, dimension: int) -> ConstraintDef:
    """Constraint ``p`` of a definition, a ``ConstraintDef`` or a mapping
    with its keys, checked."""
    if isinstance(entry, dict):
        unknown = set(entry) - {f.name for f in fields(ConstraintDef)}
        if unknown:
            raise ValueError(f"unknown constraint keys: {sorted(unknown, key=str)}")
        if "expr" not in entry:
            raise ValueError(f"constraint {p} is missing required key 'expr'")
        entry = ConstraintDef(entry["expr"], entry.get("L"), entry.get("mask"))
    elif not isinstance(entry, ConstraintDef):
        raise ValueError(f"constraint {p} must be a mapping with an 'expr' key, got {entry!r}")
    mask = entry.mask
    if mask is not None and not isinstance(mask, (list, tuple)):
        raise ValueError(f"constraint {p} mask must be a list of coordinate indices, got {mask!r}")
    mask = tuple(_integer(i, f"constraint {p} mask entry") for i in mask) if mask else None
    if mask and not all(1 <= i <= dimension for i in mask):
        raise ValueError(f"constraint mask indices out of range: {mask}")
    L = None if entry.L is None else positive(finite(entry.L, f"constraint {p} L"), f"constraint {p} L")
    return ConstraintDef(str(entry.expr), L, mask)


def _norm(value) -> NormKind:
    return value if isinstance(value, NormKind) else NormKind.from_string(value)


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
    """The definition that a problem file's mapping spells.  Its keys are
    the fields of ``ProblemDefinition`` other than ``name``; the
    constructor checks the values."""
    keys = [f for f in fields(ProblemDefinition) if f.name != "name"]
    unknown = set(data) - {f.name for f in keys}
    if unknown:
        raise ValueError(f"unknown problem keys: {sorted(unknown, key=str)}")
    for key in (f.name for f in keys if f.default is MISSING):
        if key not in data:
            raise ValueError(f"problem file is missing required key {key!r}")
    return ProblemDefinition(**data, name=name)


def _integer(value, what: str) -> int:
    """``value`` as an int; a bool, a string or a fractional number raises."""
    whole = isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def compile_definition(definition: ProblemDefinition):
    """A definition's box, parsed objective and list of parsed constraints."""
    box = BoxDomain(*zip(*definition.bounds), definition.integral)
    objective = parse(definition.objective, definition.dimension)
    return box, objective, [parse(c.expr, definition.dimension) for c in definition.constraints]


def build(
    definition: ProblemDefinition,
    estimator: EstimateMethod = EstimateMethod.JacobianGrid,
    seed: int = 0,
) -> BuiltProblem:
    """Compile a definition to a runnable Problem, estimating any missing
    Lipschitz constants with the chosen estimator: ``JacobianGrid`` is
    ``jacobian_sup_bound`` with its defaults (64 points per dimension,
    safety 1.05), ``SlopeSampling`` ``slope_sampling_estimate`` over 10,000
    pairs from ``seed`` with its default inflation 0.1; anything else
    raises before any work.  Per-component constants are estimated when
    ``cut_mode`` is component, and otherwise kept only when the file gives
    all of them.  A failed estimate raises with its message prefixed by the
    constant's ``BuiltProblem.estimated`` key (``labelled_estimate``)."""
    member(estimator, EstimateMethod, "estimator")
    box, objective_expr, constraint_exprs = compile_definition(definition)
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
        component_L_out = tuple(component_L)
    else:
        component_L_out = None

    global_L = definition.global_L
    if global_L is None:
        global_L = estimate("global_L", constraint_exprs)

    masks = None
    if any(c.mask for c in definition.constraints):
        # a constraint without a mask depends on every coordinate
        coordinates = range(1, definition.dimension + 1)
        masks = tuple([not c.mask or i in c.mask for i in coordinates] for c in definition.constraints)

    constraint = ConstraintSpec(
        components=(),
        global_L=global_L,
        image_norm=definition.image_norm,
        component_L=component_L_out,
        active_mask=masks,
        batch_components=tuple(batch_evaluator(e) for e in constraint_exprs),
    )
    objective = ObjectiveSpec(
        evaluator=None,
        lipschitz_f=objective_L,
        batch_evaluator=batch_evaluator(objective_expr),
    )
    problem = Problem(domain=box, objective=objective, constraint=constraint, domain_norm=definition.norm)
    return BuiltProblem(
        problem=problem,
        exprs={"objective": objective_expr, "constraints": constraint_exprs},
        epsilon=definition.epsilon if definition.epsilon is not None else DriverConfig.epsilon,
        max_iterations=definition.max_iterations if definition.max_iterations is not None
        else DriverConfig.max_iterations,
        cut_mode=definition.cut_mode or DriverConfig.cut_mode,
        estimated=estimated,
    )


# --------------------------------------------------------------------------
# builtin catalog

_SQRT2 = math.sqrt(2.0)
_SQRT5 = math.sqrt(5.0)


def _catalog() -> dict[str, ProblemDefinition]:
    catalog = {}
    catalog["sin-example"] = ProblemDefinition(
        name="sin-example",
        dimension=2,
        bounds=((-1.0, 1.0), (-1.0, 1.0)),
        norm=NormKind.Two, image_norm=NormKind.Two,
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
        norm=NormKind.Two, image_norm=NormKind.Two,
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
        norm=NormKind.Two, image_norm=NormKind.Two,
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
    catalog["comp-example-manipulated"] = replace(
        catalog["comp-example"],
        name="comp-example-manipulated",
        constraints=(ConstraintDef("cos(6*x1)/2 - x2 + 1.8", L=math.sqrt(15.0)),) * 2,
        global_L=math.sqrt(20.0),
    )
    catalog["infeasible-1d"] = ProblemDefinition(
        name="infeasible-1d",
        dimension=1,
        bounds=((-1.0, 1.0),),
        norm=NormKind.Two, image_norm=NormKind.Two,
        objective="x1",
        objective_L=1.0,
        constraints=(ConstraintDef("x1^2 + 1", L=2.0),),
        global_L=2.0,
        epsilon=0.0,
        max_iterations=10,
    )
    return catalog


# checked once: the definitions are frozen, so all callers share them
_BUILTINS = _catalog()


def builtin_problems() -> dict[str, ProblemDefinition]:
    """The five builtin instances.  Lipschitz constants are the published
    values, fixed rather than re-estimated, so traces are reproducible."""
    return dict(_BUILTINS)


def get_builtin(name: str) -> ProblemDefinition:
    if name not in _BUILTINS:
        raise KeyError(f"unknown builtin {name!r}; available: {', '.join(sorted(_BUILTINS))}")
    return _BUILTINS[name]
