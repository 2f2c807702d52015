"""The two forms of a user spec solve alike: one-point callables, which the
specs loop over the rows of a batch, and batch callables give
byte-identical traces, and a NaN or an infinity stops a solve in either
form as it does from an expression."""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipcut.core import BoxDomain, ConstraintSpec, NonFiniteValueError, NormKind, ObjectiveSpec, Problem
from lipcut.driver import CutMode, DriverConfig, run, trace_to_csv
from lipcut.expr import batch_evaluator, evaluate, parse
from lipcut.oracle import GlobalOracle, LocalOracle, OracleConfig
from lipcut.problems import build, definition_from_dict


def coef(lo: float, hi: float):
    """A coefficient in [lo, hi] with four decimals, as problem files write
    them."""
    return st.integers(round(lo * 10_000), round(hi * 10_000)).map(lambda k: f"{k / 10_000:.4f}")


@st.composite
def trig_problems(draw):
    """A random 1-D or 2-D trig-polynomial problem, shaped like the
    acceptance suite's random batch, with grid-estimated constants."""
    dim = draw(st.sampled_from((1, 2)))
    sine = f"{draw(coef(0.3, 1.2))}*sin({draw(coef(0.5, 3.0))}*x1 + {draw(coef(0.0, 6.28))})"
    if dim == 1:
        exprs = [f"{sine} + {draw(coef(-1.0, 1.0))}*x1 + {draw(coef(-0.6, 0.4))}"]
        objective = f"{draw(coef(-1.0, 1.0))}*x1 + 0.5*sin({draw(coef(0.5, 2.0))}*x1)"
    else:
        exprs = [
            f"{sine} + {draw(coef(0.3, 1.2))}*cos({draw(coef(0.5, 3.0))}*x2)"
            f" + {draw(coef(-1.0, 1.0))}*x2 + {draw(coef(-0.6, 0.4))}"
        ]
        if draw(st.booleans()):
            exprs.append(f"{draw(coef(0.3, 1.0))}*x1 - x2 + {draw(coef(-0.5, 0.5))}")
        objective = (
            f"{draw(coef(-1.0, 1.0))}*x1 + {draw(coef(-1.0, 1.0))}*x2"
            f" + 0.4*cos({draw(coef(0.5, 2.0))}*x1)"
        )
    bounds = [[-1.0 - draw(st.floats(0.0, 0.5)), 1.0 + draw(st.floats(0.0, 0.5))] for _ in range(dim)]
    return definition_from_dict({
        "dimension": dim,
        "bounds": bounds,
        "norm": "2",
        "image_norm": "2",
        "objective": objective,
        "constraints": [{"expr": e} for e in exprs],
    })


def one_point_problem(built):
    """The built problem with one-point-only specs over the same
    expressions and constants."""
    problem = built.problem
    objective = replace(
        problem.objective, evaluator=partial(evaluate, built.exprs["objective"]), batch_evaluator=None,
    )
    constraint = replace(
        problem.constraint,
        components=tuple(partial(evaluate, e) for e in built.exprs["constraints"]),
        batch_components=None,
    )
    return replace(problem, objective=objective, constraint=constraint)


def batch_only_problem(built):
    """The built problem with batch-only specs made here, so the test does
    not rest on what ``build()`` fills in."""
    problem = built.problem
    objective = ObjectiveSpec(None, problem.objective.lipschitz_f, batch_evaluator(built.exprs["objective"]))
    constraint = replace(
        problem.constraint,
        components=(),
        batch_components=tuple(batch_evaluator(e) for e in built.exprs["constraints"]),
    )
    return replace(problem, objective=objective, constraint=constraint)


@settings(max_examples=30, deadline=None)
@given(definition=trig_problems(), mode=st.sampled_from(CutMode))
def test_one_point_and_batch_specs_give_identical_traces(definition, mode):
    built = build(replace(definition, cut_mode=CutMode.Component))
    config = DriverConfig(epsilon=1e-3, max_iterations=8, cut_mode=mode)
    traces = []
    for problem in (one_point_problem(built), batch_only_problem(built)):
        outcome = run(problem, GlobalOracle(OracleConfig(tolerance=1e-4), NormKind.Two), config)
        traces.append(trace_to_csv(outcome.trace, definition.dimension))
    assert traces[0] == traces[1]


def test_a_spec_with_neither_form_is_rejected():
    with pytest.raises(ValueError, match="evaluator or a batch_evaluator"):
        ObjectiveSpec(None, 1.0, batch_evaluator=None)
    for batch in (None, ()):
        with pytest.raises(ValueError, match="components or batch_components"):
            ConstraintSpec(components=(), global_L=1.0, batch_components=batch)


# each value with an expression that takes it at x1 = 0: log(0) is -inf
NON_FINITE = {"nan": (math.nan, "log(x1) - log(x1)"), "+inf": (math.inf, "-log(x1)"),
              "-inf": (-math.inf, "log(x1)")}


def spec_callables(form: str, value: float, text: str):
    """The one-point and batch callables of a function in the given form:
    ``text`` parsed, or the constant ``value``."""
    if form == "expression":
        return None, batch_evaluator(parse(text, 1))
    if form == "one-point":
        return (lambda x: value), None
    return None, (lambda p: np.full(len(p), value))


@pytest.mark.parametrize("value, text", NON_FINITE.values(), ids=NON_FINITE.keys())
@pytest.mark.parametrize("form", ["expression", "one-point", "batch"])
@pytest.mark.parametrize("role", ["objective", "constraint"])
def test_a_non_finite_value_stops_the_solve_in_every_form(role, form, value, text):
    # the local oracle from x1 = 0 evaluates the objective there first and
    # returns that point, where the constraint is evaluated next
    one_point, batch = spec_callables(form, value, text)
    objective = ObjectiveSpec(None, 1.0, batch_evaluator(parse("x1", 1)))
    constraint = ConstraintSpec((), 1.0, batch_components=(batch_evaluator(parse("x1 - 1", 1)),))
    if role == "objective":
        objective = ObjectiveSpec(one_point, 1.0, batch)
    else:
        constraint = ConstraintSpec((one_point,) if one_point else (), 1.0,
                                    batch_components=(batch,) if batch else None)
    problem = Problem(BoxDomain((0.0,), (1.0,)), objective, constraint, NormKind.Two)
    with pytest.raises(NonFiniteValueError, match="at \\[0\\.\\]") as info:
        run(problem, LocalOracle(), DriverConfig(initial_start=(0.0,)))
    # the value, or the constraint's one-component row
    assert info.value.point.tolist() == [0.0] and np.array_equal(np.ravel(info.value.value), [value], equal_nan=True)


@pytest.mark.parametrize("form", ["one-point", "batch"])
def test_the_first_row_with_a_non_finite_value_is_named(form):
    # rows 1 and 3 are finite; row 2 holds a NaN in its second component
    def second(x):
        return math.nan if x[0] == 2.0 else 0.0

    if form == "one-point":
        constraint = ConstraintSpec((lambda x: x[0], second), 1.0)
    else:
        constraint = ConstraintSpec((), 1.0, batch_components=(
            lambda p: p[:, 0], lambda p: np.array([second(x) for x in p])))
    points = np.array([[1.0], [2.0], [3.0]])
    with pytest.raises(NonFiniteValueError, match=r"^constraint values at \[2\.\] must be finite") as info:
        constraint.evaluate_batch(points)
    assert info.value.point.tolist() == [2.0]
    assert np.array_equal(info.value.value, [2.0, math.nan], equal_nan=True)
    assert constraint.evaluate_batch(points[:0]).size == 0


def _first_row_only(points):
    """A mistyped batch objective: the first row's value alone."""
    return points[0, 0] + 2 * points[0, 1]


def _first_row_only_checked(points):
    return _first_row_only(points)


_first_row_only_checked.checks_finite = True


@pytest.mark.parametrize("role, evaluator", [("objective", _first_row_only), ("objective", _first_row_only_checked),
                                             ("constraint component 0", _first_row_only)],
                         ids=["objective", "objective-checks-finite", "constraint"])
def test_a_batch_value_that_is_not_one_per_point_is_refused(role, evaluator):
    # numpy broadcast the objective's one value to every row, and the
    # solve ended solved at (-0.4375, -0.125), whose value is -0.6875; the
    # minimum of x1 + 2*x2 over the disc is -sqrt(5)/2
    def linear(points):
        return points[:, 0] + 2 * points[:, 1]

    def disc(points):
        return points[:, 0] ** 2 + points[:, 1] ** 2 - 0.25

    objective = ObjectiveSpec(None, 3.0, batch_evaluator=evaluator if role == "objective" else linear)
    constraint = ConstraintSpec((), 3.0, batch_components=(disc if role == "objective" else evaluator,))
    problem = Problem(BoxDomain((-1.0, -1.0), (1.0, 1.0)), objective, constraint, NormKind.Two)
    message = rf"^{role} values must have shape \(\d+,\), one per point, got shape \(\)$"
    with pytest.raises(ValueError, match=message):
        run(problem, GlobalOracle(OracleConfig(), NormKind.Two), DriverConfig())
