"""The two forms of a user spec solve alike: one-point callables, which the
specs loop over the rows of a batch, and batch callables give
byte-identical traces."""

from dataclasses import replace
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipcut.core import ConstraintSpec, NormKind, ObjectiveSpec
from lipcut.driver import CutMode, DriverConfig, run, trace_to_csv
from lipcut.expr import batch_evaluator, evaluate
from lipcut.oracle import GlobalOracle, OracleConfig
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
