"""Command-line frontend.

Subcommands:

* ``solve``               run the cutting driver on a problem file or builtin
* ``bounds``              print termination/complexity bounds for a problem
* ``estimate-lipschitz``  print Lipschitz-constant estimates
* ``emit-milp``           write cut reformulations as an LP file

Exit codes for ``solve``: 0 solved, 2 infeasibility certified, 3 iteration
limit, 1 any error.  Identical invocations (same flags, same seed) produce
byte-identical traces and LP files.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import bounds as bounds_mod
from .core import NormKind
from .driver import (
    CutMode,
    DriverConfig,
    DriverResourceError,
    SolveStatus,
    normalized_problem,
    run,
    trace_to_csv,
)
from .expr import EvaluationError
from .lipschitz import EstimateMethod, labelled_estimate
from .oracle import GlobalOracle, InfeasibleStartError, LocalOracle, OracleConfig
from .problems import build, builtin_problems, get_builtin, load_problem_file
from .reform import default_big_M, export_lp, reformulate_1norm, reformulate_infnorm

_EXIT_SOLVED = 0
_EXIT_ERROR = 1
_EXIT_INFEASIBLE = 2
_EXIT_ITERATION_LIMIT = 3


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError, EvaluationError, DriverResourceError, InfeasibleStartError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ERROR


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lipcut", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the cutting driver")
    _problem_flags(solve)
    solve.add_argument("--oracle", choices=("global", "local"), default="global")
    solve.add_argument("--eps", type=float, default=None, help="approximation guarantee (overrides the file)")
    solve.add_argument("--max-iters", type=int, default=None)
    solve.add_argument("--mode", choices=("vector", "component"), default=None)
    solve.add_argument("--trace", default=None, help="write the iteration trace CSV here")
    solve.add_argument("--allow-heuristic-L", action="store_true",
                       help="permit sampling-based Lipschitz estimates (unsafe: cuts may cut optima)")
    solve.add_argument("--lipschitz-method", choices=("grid", "sampling"), default="grid",
                       help="estimator for constants missing from the problem file")
    solve.add_argument("--oracle-tol", type=float, default=1e-6)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--start", default=None, help="comma-separated start point (local oracle)")
    solve.add_argument("--normalize", action="store_true",
                       help="rescale constraints by 1/(rho(domain)*L) before solving")
    solve.set_defaults(handler=_cmd_solve)

    bnd = sub.add_parser("bounds", help="termination and complexity bounds")
    _problem_flags(bnd)
    bnd.add_argument("--delta", type=float, default=None, help="minimum violation for the packing bound")
    bnd.add_argument("--eps", type=float, default=None, help="accuracy for the complexity bounds")
    bnd.add_argument("--c", type=float, default=1.0, help="free constant of the complexity lower bound")
    bnd.set_defaults(handler=_cmd_bounds)

    est = sub.add_parser("estimate-lipschitz", help="estimate Lipschitz constants")
    _problem_flags(est)
    est.add_argument("--method", choices=("grid", "sampling"), default="grid")
    est.add_argument("--grid", type=int, default=64)
    est.add_argument("--pairs", type=int, default=10_000)
    est.add_argument("--inflation", type=float, default=0.1)
    est.add_argument("--seed", type=int, default=0)
    est.set_defaults(handler=_cmd_estimate)

    milp = sub.add_parser("emit-milp", help="export cuts as a big-M LP file")
    _problem_flags(milp)
    milp.add_argument("--trace", default=None, help="take cut centers/radii from this trace CSV")
    milp.add_argument("--cut", action="append", default=[],
                      help="explicit cut 'c1,c2,...;radius' (repeatable)")
    milp.add_argument("--norm", choices=("1", "inf"), required=True)
    milp.add_argument("--out", required=True)
    milp.add_argument("--big-M", type=float, default=None, dest="big_m",
                      help="default: box diameter (1-norm)")
    milp.set_defaults(handler=_cmd_emit_milp)
    return parser


def _problem_flags(sub) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--problem", help="path to a problem YAML file")
    group.add_argument("--builtin", help="builtin name: " + ", ".join(sorted(builtin_problems())))


def _load(args, **build_kwargs):
    definition = get_builtin(args.builtin) if args.builtin else load_problem_file(args.problem)
    built = build(definition, **build_kwargs)
    for label, est in built.estimated.items():
        print(f"estimated {label} = {est.value:.17g} ({est.method.value}, "
              f"safety {est.safety_factor:g}, {est.samples_used} samples)")
    return built


def _cmd_solve(args) -> int:
    if args.lipschitz_method == "sampling" and not args.allow_heuristic_L:
        print("error: sampling-based Lipschitz estimates are heuristic; pass --allow-heuristic-L to accept them",
              file=sys.stderr)
        return _EXIT_ERROR
    mode = CutMode(args.mode) if args.mode else None
    built = _load(
        args,
        estimator=args.lipschitz_method,
        seed=args.seed,
        need_component_L=mode is CutMode.Component,
    )
    if any(e.method is EstimateMethod.SlopeSampling for e in built.estimated.values()):
        print("warning: solving with heuristic (sampling-based) Lipschitz constants", file=sys.stderr)

    problem = normalized_problem(built.problem) if args.normalize else built.problem
    oracle_config = OracleConfig(tolerance=args.oracle_tol)
    if args.oracle == "global":
        oracle = GlobalOracle(oracle_config, problem.domain_norm)
    else:
        oracle = LocalOracle(oracle_config)
    start = None
    if args.start is not None:
        start = np.array([float(v) for v in args.start.split(",")])
    config = DriverConfig(
        epsilon=args.eps if args.eps is not None else built.epsilon,
        max_iterations=args.max_iters if args.max_iters is not None else built.max_iterations,
        cut_mode=mode or built.cut_mode,
        initial_start=start,
    )
    outcome = run(problem, oracle, config)

    print(f"status: {outcome.status.value}")
    if outcome.final_point is not None:
        print("final point: " + ", ".join(f"{v:.17g}" for v in outcome.final_point))
        print(f"objective: {outcome.trace[-1].objective:.17g}")
    print(f"certified lower bound: {outcome.lower_bound:.17g}")
    print(f"iterations: {len(outcome.trace)}")
    if args.trace:
        with open(args.trace, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(trace_to_csv(outcome.trace, problem.domain.dimension))
        print(f"trace written to {args.trace}")
    return {
        SolveStatus.Solved: _EXIT_SOLVED,
        SolveStatus.InfeasibleCertified: _EXIT_INFEASIBLE,
        SolveStatus.IterationLimit: _EXIT_ITERATION_LIMIT,
    }[outcome.status]


def _cmd_bounds(args) -> int:
    if args.delta is None and args.eps is None:
        print("error: bounds needs --delta and/or --eps", file=sys.stderr)
        return _EXIT_ERROR
    built = _load(args)
    problem = built.problem
    box = problem.domain
    if args.delta is not None:
        if box.integral.all():  # the lattice count, else the box packing
            kind, value = "lattice-count", bounds_mod.lattice_count(box)
        else:
            kind, value = "box-packing", bounds_mod.box_packing_bound(box, problem.constraint.global_L, args.delta)
        print(f"packing bound ({kind}): {value:.17g}")
    radius = bounds_mod.box_radius(box, problem.domain_norm)
    print(f"radius: {radius:.17g}")
    try:
        _, asph = bounds_mod.box_radius_asphericity(box, problem.domain_norm)
        print(f"asphericity: {asph:.17g}")
        have_asph = True
    except ValueError:
        print("asphericity: undefined (zero-width coordinate)")
        have_asph = False
    if args.eps is not None:
        upper = bounds_mod.complexity_upper(radius, args.eps, box.dimension)
        print(f"complexity upper: {upper:.17g}")
        if have_asph:
            lower = bounds_mod.complexity_lower(asph, args.eps, box.dimension, args.c)
            print(f"complexity lower: {lower:.17g} (c = {args.c:g})")
    return _EXIT_SOLVED


def _cmd_estimate(args) -> int:
    definition = get_builtin(args.builtin) if args.builtin else load_problem_file(args.problem)
    built = build(definition)  # uses the file's constants; estimates below are fresh
    exprs = built.exprs["constraints"]
    problem = built.problem
    squared = problem.domain_norm is NormKind.Two and problem.constraint.image_norm is NormKind.Two
    groups = [(f"constraint {p}", [e]) for p, e in enumerate(exprs, start=1)] + [("vector", exprs)]
    for label, group in groups:
        estimate = labelled_estimate(
            label, group, problem.domain, problem.domain_norm, problem.constraint.image_norm, args.method,
            grid_per_dim=args.grid, safety=1.0, pairs=args.pairs, inflation=args.inflation, seed=args.seed,
        )
        extra = f" (L^2 = {estimate.value ** 2:.17g})" if squared else ""
        note = "" if estimate.exact_norms else " [norm-equivalence bound]"
        print(f"{label}: L = {estimate.value:.17g}{extra} "
              f"[{estimate.method.value}, {estimate.samples_used} samples]{note}")
    return _EXIT_SOLVED


def _cmd_emit_milp(args) -> int:
    built = _load(args)
    box = built.problem.domain
    cuts = []
    if args.trace:
        cuts.extend(_cuts_from_trace(args.trace, box.dimension))
    for text in args.cut:
        cuts.append(_parse_cut_flag(text, box.dimension))
    big_m = args.big_m if args.big_m is not None else default_big_M(box, NormKind.One)
    reformulate = reformulate_1norm if args.norm == "1" else reformulate_infnorm
    systems = [reformulate(center, radius, big_m) for center, radius in cuts]
    objective = _objective_coefficients(built)
    text = export_lp(systems, objective, box)
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    n_cont = sum(len(s.continuous_vars) - s.n for s in systems) + box.dimension
    n_bin = sum(len(s.binary_vars) for s in systems)
    n_rows = sum(s.constraint_count for s in systems)
    print(f"wrote {args.out}: {n_cont} continuous vars, {n_bin} binaries, {n_rows} cut constraints")
    return _EXIT_SOLVED


def _cuts_from_trace(path: str, dimension: int):
    out = []
    with open(path, "r", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            radius = float(row["radius"])
            if radius <= 0:
                continue
            center = [float(row[f"x{j + 1}"]) for j in range(dimension)]
            out.append((center, radius))
    return out


def _parse_cut_flag(text: str, dimension: int):
    try:
        center_text, radius_text = text.split(";")
        center = [float(v) for v in center_text.split(",")]
        radius = float(radius_text)
    except ValueError:
        raise ValueError(f"bad --cut value {text!r}; expected 'c1,c2,...;radius'") from None
    if len(center) != dimension:
        raise ValueError(f"--cut center has {len(center)} coordinates, problem has {dimension}")
    return center, radius


def _objective_coefficients(built) -> dict:
    """Linear x-coefficients of the objective for the LP header, taken by
    finite differences at the box center (exact for linear objectives)."""
    from .expr import finite_diff_jacobian

    box = built.problem.domain
    row = finite_diff_jacobian([built.exprs["objective"]], box.center)[0]
    return {f"x{j + 1}": float(row[j]) for j in range(box.dimension) if abs(row[j]) > 1e-12}


if __name__ == "__main__":
    raise SystemExit(main())
