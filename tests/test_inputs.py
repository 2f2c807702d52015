"""One rule for scalar inputs.  Every entry point refuses a boolean, NaN,
an infinity, a fractional count or a string with a ValueError that names
the argument, and stores a numpy scalar as a Python float or int.  A norm,
cut-mode or estimator argument refuses anything but a member of its enum,
its value spelled as text included, and a ``ProblemDefinition`` is checked
by the rules of a problem file whoever builds it.  A coordinate vector
must be a 1-D vector of finite numbers and a mask a 1-D vector of
booleans, one entry per coordinate: text, booleans as numbers, numbers
or indices as a mask, a scalar and a 2-D array are refused.  The rules
live in ``lipcut.core`` and ``ProblemDefinition``; the entry points whose
own tests already take bad values as a parameter keep those rows there."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from lipcut.bounds import ball_packing_bound, box_packing_bound, complexity_lower, complexity_upper
from lipcut.core import (BoxDomain, ConstraintSpec, Cut, NormKind, ObjectiveSpec, Problem, RelaxedRegion, cut_radius,
                         region_membership)
from lipcut.driver import DriverConfig
from lipcut.expr import evaluate, finite_diff_jacobian, parse
from lipcut.lipschitz import (EstimateMethod, LipschitzEstimate, induced_norm, jacobian_sup_bound,
                              labelled_estimate, slope_sampling_estimate)
from lipcut.oracle import GlobalOracle, LocalOracle, OracleConfig
from lipcut.problems import ConstraintDef, ProblemDefinition, build, get_builtin
from lipcut.reform import feasible_interval, reformulate_1norm, reformulate_infnorm, verify_by_enumeration

BOX = BoxDomain((0.0, 0.0), (1.0, 1.0))
LINE = BoxDomain((0.0,), (1.0,))
TWO = NormKind.Two
SYSTEM = reformulate_1norm((0.0, 0.0), 1.0, 4.0)


def first(points):
    return points[:, 0]


def constraint(**kwargs):
    return ConstraintSpec(**{"components": (), "global_L": 1.0, "batch_components": (first,), **kwargs})


def definition(**kwargs):
    return ProblemDefinition(**{"dimension": 2, "bounds": ((0.0, 1.0), (0.0, 1.0)), "norm": TWO, "image_norm": TWO,
                                "objective": "x1", "constraints": (ConstraintDef("x1 - x2"),), **kwargs})


REFUSALS = {
    "oracle-tolerance-bool": (lambda: OracleConfig(tolerance=True), "tolerance"),
    "oracle-tolerance-string": (lambda: OracleConfig(tolerance="1e-6"), "tolerance"),
    "oracle-node-limit-fractional": (lambda: OracleConfig(node_limit=1.5), "node_limit"),
    "oracle-node-limit-bool": (lambda: OracleConfig(node_limit=True), "node_limit"),
    "cut-radius-bool": (lambda: Cut([0.0], True), "cut radius"),
    "cut-radius-string": (lambda: Cut([0.0], "1"), "cut radius"),
    "cut-radius-L-bool": (lambda: cut_radius((1.0,), True, TWO), "Lipschitz constant L"),
    "estimate-safety-nan": (lambda: LipschitzEstimate(1.0, EstimateMethod.JacobianGrid, math.nan, 64),
                            "safety_factor"),
    "grid-fractional": (lambda: jacobian_sup_bound([parse("x1", 1)], LINE, TWO, TWO, grid_per_dim=2.5),
                        "grid_per_dim"),
    "grid-safety-nan": (lambda: jacobian_sup_bound([parse("x1", 1)], LINE, TWO, TWO, safety=math.nan), "safety"),
    "sampling-pairs-fractional": (lambda: slope_sampling_estimate(first, LINE, TWO, TWO, pairs=2.5), "pairs"),
    "sampling-inflation-nan": (lambda: slope_sampling_estimate(first, LINE, TWO, TWO, pairs=10, inflation=math.nan),
                               "inflation"),
    "packing-delta-bool": (lambda: box_packing_bound(BOX, 1.0, True), "delta"),
    "ball-packing-n-fractional": (lambda: ball_packing_bound(1.0, 1.0, 0.1, n=2.5), "n"),
    "ball-packing-D-nan": (lambda: ball_packing_bound(math.nan, 1.0, 0.1, 2), "D"),
    "complexity-rho-inf": (lambda: complexity_upper(math.inf, 0.1, 2), "rho"),
    "complexity-alpha-nan": (lambda: complexity_lower(math.nan, 0.1, 2), "alpha"),
    "complexity-c-string": (lambda: complexity_lower(2.0, 0.1, 2, c="1"), "c"),
    "parse-dimension-fractional": (lambda: parse("x1", 2.5), "dimension"),
    "parse-dimension-bool": (lambda: parse("x1", True), "dimension"),
    "unknown-estimator": (lambda: build(replace(get_builtin("sin-example"), global_L=None), estimator="gird"),
                          "estimator"),
    "unknown-estimator-unused": (lambda: build(get_builtin("sin-example"), estimator="gird"), "estimator"),
    # an estimator is an EstimateMethod member; its command-line name is text
    "estimator-text": (lambda: build(get_builtin("sin-example"), estimator="sampling"), "estimator"),
    "estimate-method-text": (lambda: labelled_estimate("L", [parse("x1", 1)], LINE, TWO, TWO, "grid"), "method"),
    "short-mask-row": (lambda: Problem(BOX, ObjectiveSpec(None, 1.0, batch_evaluator=first),
                                       constraint(active_mask=((True,),))), "active_mask"),
    "cut-norm-text": (lambda: Cut([0.0], 1.0, norm="2"), "norm"),
    "constraint-image-norm-text": (lambda: constraint(image_norm="2"), "image_norm"),
    "problem-domain-norm-text": (lambda: Problem(BOX, ObjectiveSpec(None, 1.0, batch_evaluator=first), constraint(),
                                                 domain_norm="2"), "domain_norm"),
    "global-oracle-norm-text": (lambda: GlobalOracle(OracleConfig(), "2"), "domain_norm"),
    "driver-cut-mode-text": (lambda: DriverConfig(cut_mode="vector"), "cut_mode"),
    "induced-norm-text": (lambda: induced_norm(np.eye(2), "2", "2"), "domain_norm"),
    "definition-short-bounds": (lambda: definition(bounds=((0.0, 1.0),)), "bounds length"),
    "definition-mask-zero": (lambda: definition(constraints=(ConstraintDef("x1", mask=(0,)),)),
                             "constraint mask indices"),
    "definition-mask-past-dimension": (lambda: definition(constraints=(ConstraintDef("x1", mask=(1, 3)),)),
                                       "constraint mask indices"),
    "definition-no-constraints": (lambda: definition(constraints=()), "a problem needs"),
    "definition-mask-zero-scalar": (lambda: definition(constraints=({"expr": "x1", "mask": 0},)), "constraint 1 mask"),
    # coordinate vectors and masks
    "box-lower-text": (lambda: BoxDomain(("0", "0"), ("1", "1")), "lower"),
    "box-lower-scalar": (lambda: BoxDomain(0.0, 1.0), "lower"),
    "box-lower-2d": (lambda: BoxDomain(((0.0, 0.0),), ((1.0, 1.0),)), "lower"),
    "box-upper-bool": (lambda: BoxDomain((0.0, 0.0), (True, True)), "upper"),
    "box-upper-short": (lambda: BoxDomain((0.0, 0.0), (1.0,)), "upper"),
    "box-integral-text": (lambda: BoxDomain((0.0, 0.0), (1.0, 1.0), integral=["false", "false"]), "integral"),
    "box-integral-int": (lambda: BoxDomain((0.0, 0.0), (1.0, 1.0), integral=[0, 1]), "integral"),
    "cut-center-text": (lambda: Cut(("0", "0"), 0.5), "cut center"),
    "cut-center-scalar": (lambda: Cut(0.0, 0.5), "cut center"),
    "cut-mask-index": (lambda: Cut((0.0, 0.0, 0.0), 0.5, mask=(1, 2, 3)), "cut mask"),
    "cut-mask-short": (lambda: Cut((0.0, 0.0), 0.5, mask=(True,)), "cut mask"),
    "active-mask-index": (lambda: constraint(active_mask=((1, 2),)), "active_mask[0]"),
    "active-mask-text": (lambda: constraint(active_mask=(["false", "false"],)), "active_mask[0]"),
    "definition-integral-short": (lambda: definition(integral=(True,)), "integral must be a list"),
    "reform-center-text": (lambda: reformulate_1norm(("0", "0"), 1.0, 4.0), "cut center"),
    "reform-center-scalar": (lambda: reformulate_infnorm(0.0, 1.0, 4.0), "cut center"),
    "verify-x-nan": (lambda: verify_by_enumeration(SYSTEM, (math.nan, 0.0)), "x"),
    "verify-x-long": (lambda: verify_by_enumeration(SYSTEM, (0.0, 0.0, 0.0)), "x"),
    "interval-x-short": (lambda: feasible_interval(SYSTEM, (0.0,), {}), "x"),
    "membership-x-text-bool": (lambda: region_membership(RelaxedRegion(BOX), ("0.5", True)), "x"),
    "membership-x-nan": (lambda: region_membership(RelaxedRegion(BOX), (math.nan, 0.5)), "x"),
    "contains-x-2d": (lambda: BOX.contains(((0.5, 0.5),)), "x"),
    "local-start-short": (lambda: LocalOracle().solve(ObjectiveSpec(None, 1.0, batch_evaluator=first),
                                                      RelaxedRegion(BOX), start=(0.5,)), "start must be a 1-D vector"),
    "evaluate-x-text-bool": (lambda: evaluate(parse("x1 + x2", 2), ("0.5", True)), "x must be a 1-D vector"),
    "evaluate-x-scalar": (lambda: evaluate(parse("x1 + x2", 2), 0.5), "x must be a 1-D vector"),
    "evaluate-x-short": (lambda: evaluate(parse("x1 + x2", 2), (0.5,)), "too few coordinates for x2:"),
    "jacobian-x-text": (lambda: finite_diff_jacobian([parse("x1", 1)], ("0.5",)), "x must be a 1-D vector"),
    "jacobian-x-scalar": (lambda: finite_diff_jacobian([parse("x1", 1)], 0.5), "x must be a 1-D vector"),
    "jacobian-x-short": (lambda: finite_diff_jacobian([parse("x1", 2), parse("x2", 2)], (0.5,)),
                         "too few coordinates for x2:"),
}


@pytest.mark.parametrize("make, name", REFUSALS.values(), ids=REFUSALS.keys())
def test_each_entry_point_refuses_a_bad_input_by_name(make, name):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} "):
        make()


def test_numpy_scalars_are_stored_as_python_numbers():
    f64, i64 = np.float64, np.int64
    oracle = OracleConfig(tolerance=f64(1e-6), node_limit=i64(5))
    driver = DriverConfig(epsilon=f64(0.1), max_iterations=i64(4))
    objective = ObjectiveSpec(None, f64(2.0), batch_evaluator=first)
    spec = constraint(global_L=f64(1.0), component_L=(f64(1.0),))
    stored = [
        oracle.tolerance, oracle.node_limit, driver.epsilon, driver.max_iterations, objective.lipschitz_f,
        spec.global_L, *spec.component_L, Cut([0.0], f64(0.5)).radius,
        LipschitzEstimate(f64(1.5), EstimateMethod.JacobianGrid, 1.05, 64).value,
    ]
    assert [type(v) for v in stored] == [float, int, float, int, float, float, float, float, float]
    assert stored == [1e-6, 5, 0.1, 4, 2.0, 1.0, 1.0, 0.5, 1.5]
