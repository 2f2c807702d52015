import math
import re
import warnings

import numpy as np
import pytest
import yaml

from lipcut.cli import main
from lipcut.core import BoxDomain, NormKind
from lipcut.driver import DriverConfig, run, trace_to_csv
from lipcut.expr import EvaluationError, parse
from lipcut.lipschitz import EstimateMethod, labelled_estimate
from lipcut.oracle import GlobalOracle
from lipcut.problems import (
    ProblemDefinition,
    build,
    builtin_problems,
    definition_from_dict,
    get_builtin,
    load_problem_file,
)
from lipcut.reform import reformulate_1norm, reformulate_infnorm, verify_by_enumeration

SIN_FILE = {
    "dimension": 2,
    "bounds": [[-1.0, 1.0], [-1.0, 1.0]],
    "norm": "2",
    "image_norm": "2",
    "objective": "abs(x1 - x2) + x1",
    "objective_L": math.sqrt(5.0),
    "constraints": [{"expr": "-sin(x1) - x2", "L": math.sqrt(2.0)}],
    "global_L": math.sqrt(2.0),
    "epsilon": 1.0e-4,
}


# a problem file whose numbers use the exponent forms that YAML 1.1 reads
# as strings: no decimal point, or an unsigned exponent
EXPONENT_FILE = """\
dimension: 2
bounds: [[-1e0, 1.0], [-1.0, 1.0]]
norm: "2"
image_norm: "2"
objective: {objective}
objective_L: 3E0
constraints:
  - expr: "-sin(x1) - x2"
global_L: 1.5e0
epsilon: 1e-4
"""


class TestBuiltins:
    def test_catalog_has_exactly_five(self):
        catalog = builtin_problems()
        assert sorted(catalog) == [
            "bad-local", "comp-example", "comp-example-manipulated", "infeasible-1d", "sin-example",
        ]

    def test_comp_example_second_constraint(self):
        defn = get_builtin("comp-example")
        assert defn.constraints[1].expr == "-2*sin(4*x1)/sqrt(x1) + x2 - 2"
        assert defn.constraints[0].L**2 == pytest.approx(10.0)
        assert defn.constraints[1].L**2 == pytest.approx(42.83)
        assert defn.global_L**2 == pytest.approx(50.83)

    def test_manipulated_variant(self):
        defn = get_builtin("comp-example-manipulated")
        assert defn.constraints[0].expr == defn.constraints[1].expr == "cos(6*x1)/2 - x2 + 1.8"
        assert defn.constraints[0].L**2 == pytest.approx(15.0)
        assert defn.global_L**2 == pytest.approx(20.0)

    def test_builtins_carry_fixed_constants(self):
        for name in builtin_problems():
            built = build(get_builtin(name))
            assert built.estimated == {}

    def test_unknown_builtin(self):
        with pytest.raises(KeyError):
            get_builtin("nope")


# (key, value, the error message) of a problem file with one bad number; a
# key "constraint L" sets the first constraint's L
BAD_NUMBERS = [
    ("max_iterations", 2.7, "max_iterations must be an integer, got 2.7"),
    ("max_iterations", True, "max_iterations must be an integer, got True"),
    ("epsilon", True, "epsilon must be a finite number, got True"),
    ("epsilon", math.nan, "epsilon must be a finite number, got nan"),
    ("objective_L", "0.001", "objective_L must be a finite number, got '0.001'"),
    ("bounds", [["-1", 1.0], [-1.0, 1.0]], "bounds entry must be a finite number, got '-1'"),
    ("bounds", [[-1.0, 1.0], [-math.inf, 1.0]], "bounds entry must be a finite number, got -inf"),
    ("bounds", [[False, 1.0], [-1.0, 1.0]], "bounds entry must be a finite number, got False"),
    ("constraint L", math.nan, "constraint 1 L must be a finite number, got nan"),
    ("constraint L", "2", "constraint 1 L must be a finite number, got '2'"),
]
BAD_NUMBER_IDS = ["fractional-max-iterations", "boolean-max-iterations", "boolean-epsilon", "nan-epsilon",
                  "string-objective-L", "string-bound", "inf-bound", "boolean-bound",
                  "nan-constraint-L", "string-constraint-L"]


# (key, value, the error message) of a problem file with one number out of
# the range the solver reads it in; the messages are core's
OUT_OF_RANGE = [
    ("objective_L", 0, "objective_L must be finite and positive, got 0.0"),
    ("objective_L", -1, "objective_L must be finite and positive, got -1.0"),
    ("constraint L", 0, "constraint 1 L must be finite and positive, got 0.0"),
    ("global_L", -2, "global_L must be finite and positive, got -2.0"),
    ("epsilon", -0.5, "epsilon must be finite and nonnegative, got -0.5"),
    ("max_iterations", 0, "max_iterations must be a positive integer, got 0"),
]
OUT_OF_RANGE_IDS = ["zero-objective-L", "negative-objective-L", "zero-constraint-L", "negative-global-L",
                    "negative-epsilon", "zero-max-iterations"]

# every subcommand, with the flags it needs besides the problem
SUBCOMMANDS = {
    "solve": [],
    "bounds": ["--eps", "0.1"],
    "estimate-lipschitz": [],
    "emit-milp": ["--norm", "1", "--out", "cuts.lp"],
}

# a 1-D file without constants whose objective sqrt(x1) has no value at the
# default grid's central-difference step to x1 = -1e-6
SQRT_FILE = {"dimension": 1, "bounds": [[0.0, 1.0]], "norm": "2", "image_norm": "2", "objective": "sqrt(x1)",
             "constraints": [{"expr": "x1 - 0.5"}]}


def bad_number_file(key, value) -> dict:
    if key == "constraint L":
        return dict(SIN_FILE, constraints=[dict(SIN_FILE["constraints"][0], L=value)])
    return dict(SIN_FILE, **{key: value})


class TestProblemFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sin.yaml"
        path.write_text(yaml.safe_dump(SIN_FILE))
        defn = load_problem_file(path)
        assert defn.dimension == 2
        assert defn.norm is NormKind.Two
        built = build(defn)
        assert built.problem.constraint.global_L == pytest.approx(math.sqrt(2.0))
        assert built.epsilon == pytest.approx(1e-4)

    def test_exponent_forms_load_as_floats(self, tmp_path):
        # YAML 1.1 reads these as strings; problem files read them as YAML 1.2
        path = tmp_path / "exp.yaml"
        path.write_text(EXPONENT_FILE.format(objective="1e-3"))
        defn = load_problem_file(path)
        assert defn.epsilon == 1e-4
        assert defn.global_L == 1.5
        assert defn.objective_L == 3.0
        assert defn.bounds == ((-1.0, 1.0), (-1.0, 1.0))
        assert defn.objective == "0.001"  # an expression keeps a bare number's value

    def test_quoted_exponent_stays_a_string(self, tmp_path):
        path = tmp_path / "quoted.yaml"
        path.write_text(EXPONENT_FILE.format(objective="x1").replace("epsilon: 1e-4", 'epsilon: "1e-4"'))
        with pytest.raises(ValueError, match="epsilon must be a finite number, got '1e-4'"):
            load_problem_file(path)

    def test_unknown_key_rejected(self):
        bad = dict(SIN_FILE, typo_key=1)
        with pytest.raises(ValueError):
            definition_from_dict(bad)

    def test_missing_key_rejected(self):
        bad = {k: v for k, v in SIN_FILE.items() if k != "objective"}
        with pytest.raises(ValueError):
            definition_from_dict(bad)

    def test_missing_L_is_estimated_with_grid(self):
        data = {k: v for k, v in SIN_FILE.items() if k not in ("global_L", "objective_L")}
        built = build(definition_from_dict(data))
        assert set(built.estimated) == {"global_L", "objective_L"}
        est = built.estimated["global_L"]
        assert est.method is EstimateMethod.JacobianGrid
        assert est.safety_factor == pytest.approx(1.05)
        assert est.value == pytest.approx(math.sqrt(2.0) * 1.05, rel=1e-3)
        # the objective contains abs: safety doubled
        assert built.estimated["objective_L"].safety_factor == pytest.approx(2.1)

    @pytest.mark.parametrize("estimator", list(EstimateMethod), ids=lambda m: m.value)
    @pytest.mark.parametrize("key", ["objective_L", "constraint_1_L", "global_L"])
    def test_a_failed_estimate_names_its_constant(self, key, estimator):
        # exp(709*x1) overflows its difference quotients near x1 = 1
        blowup = "exp(709*x1) - 0.5"
        data = dict(SIN_FILE, dimension=1, bounds=[[0.0, 1.0]], objective="x1", objective_L=1.0,
                    constraints=[{"expr": "x1 - 0.5", "L": 1.0}], global_L=1.0)
        if key == "objective_L":
            data.update(objective=blowup, objective_L=None)
        elif key == "constraint_1_L":
            # component mode estimates the missing per-component constant
            data.update(constraints=[{"expr": blowup}], cut_mode="component")
        else:
            data.update(constraints=[{"expr": blowup, "L": 1.0}], global_L=None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{key}: Lipschitz estimate must be finite and positive, got inf"):
                build(definition_from_dict(data), estimator=estimator)

    def test_a_failed_evaluation_names_its_constant(self):
        # the grid's central differences step to x1 = -1e-6, where x1^1.5 is NaN
        data = dict(SIN_FILE, dimension=1, bounds=[[0.0, 1.0]], objective="x1^1.5", objective_L=None,
                    constraints=[{"expr": "x1 - 0.5", "L": 1.0}], global_L=1.0)
        message = "objective_L: non-finite value nan at [-1.e-06] in 'x1^1.5'"
        with pytest.raises(EvaluationError, match=f"^{re.escape(message)}$") as info:
            build(definition_from_dict(data))
        assert str(info.value.subexpression) == "x1^1.5"

    def test_a_definition_built_in_python_reads_what_a_file_spells(self):
        data = dict(SIN_FILE, norm="1", image_norm="inf", max_iterations=4, cut_mode="")
        from_file = definition_from_dict(data)
        in_python = ProblemDefinition(
            dimension=2.0, bounds=[[-1, 1], (-1.0, 1.0)], norm=" 1", image_norm="Inf", objective=SIN_FILE["objective"],
            constraints=[{"expr": "-sin(x1) - x2", "L": math.sqrt(2.0)}], objective_L=math.sqrt(5.0),
            global_L=math.sqrt(2.0), epsilon=1e-4, max_iterations=4.0, cut_mode="",
        )
        assert in_python == from_file and in_python.norm is NormKind.One and in_python.image_norm is NormKind.Inf
        traces = []
        for definition in (from_file, in_python):
            built = build(definition)
            config = DriverConfig(built.epsilon, built.max_iterations, built.cut_mode)
            traces.append(trace_to_csv(run(built.problem, GlobalOracle(domain_norm=NormKind.One), config).trace, 2))
        assert traces[0] == traces[1]

    def test_built_specs_are_batch_only(self):
        built = build(get_builtin("comp-example"))
        objective, constraint = built.problem.objective, built.problem.constraint
        assert objective.evaluator is None and constraint.components == ()
        assert constraint.m == 2
        values = constraint.evaluate_batch(np.array([[1.0, 0.0], [2.0, 1.0]]))
        assert values.shape == (2, 2)

    def test_integral_valued_numbers_are_accepted(self):
        data = dict(SIN_FILE, dimension=2.0, integral=[False, True])
        data["constraints"] = [{"expr": "-sin(x1) - x2", "L": 1.5, "mask": [2.0]}]
        definition = definition_from_dict(data)
        assert definition.dimension == 2 and definition.integral == (False, True)
        assert definition.constraints[0].mask == (2,)

    def test_constraint_mask(self):
        data = dict(SIN_FILE)
        data["constraints"] = [{"expr": "-sin(x1) - x2", "L": 1.5, "mask": [1]}]
        built = build(definition_from_dict(data))
        assert built.problem.constraint.active_mask[0].tolist() == [True, False]

    def test_a_constraint_without_a_mask_is_active_everywhere(self):
        data = dict(SIN_FILE, dimension=3, bounds=[[-1.0, 1.0]] * 3)
        data["constraints"] = [{"expr": "x1 - 2", "L": 1.0, "mask": [1]}, {"expr": "x2 + x3 - 3", "L": 1.5},
                               {"expr": "x3 - 2", "L": 1.0, "mask": [3]}]
        masks = build(definition_from_dict(data)).problem.constraint.active_mask
        assert [m.tolist() for m in masks] == [[True, False, False], [True, True, True], [False, False, True]]

    @pytest.mark.parametrize("key, value, message", BAD_NUMBERS, ids=BAD_NUMBER_IDS)
    def test_a_bad_number_is_refused(self, key, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            definition_from_dict(bad_number_file(key, value))

    @pytest.mark.parametrize("key, value, message", OUT_OF_RANGE, ids=OUT_OF_RANGE_IDS)
    def test_a_number_out_of_range_is_refused(self, key, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            definition_from_dict(bad_number_file(key, value))

    def test_numbers_of_every_real_type_are_read(self):
        data = dict(SIN_FILE, bounds=[[-1, 1], [np.float64(-1.0), 1.0]], epsilon=0, max_iterations=7.0)
        definition = definition_from_dict(data)
        assert definition.bounds == ((-1.0, 1.0), (-1.0, 1.0)) and definition.epsilon == 0.0
        assert definition.max_iterations == 7 and type(definition.max_iterations) is int


class TestCliSolve:
    def test_sin_example(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        code = main(["solve", "--builtin", "sin-example", "--eps", "1e-4",
                     "--oracle-tol", "1e-8", "--trace", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: solved" in out
        lines = trace.read_text().splitlines()
        assert lines[0].startswith("k,x1,x2,")
        assert len(lines) == 5  # header + 4 iterations (exact oracle)

    def test_exponent_forms_solve_like_decimal_forms(self, tmp_path, capsys):
        text = EXPONENT_FILE.format(objective='"abs(x1 - x2) + x1"')
        decimal = (text.replace("-1e0", "-1.0").replace("3E0", "3.0")
                   .replace("1.5e0", "1.5").replace("1e-4", "0.0001"))
        outputs = []
        for name, body in (("exp.yaml", text), ("dec.yaml", decimal)):
            path = tmp_path / name
            path.write_text(body)
            assert main(["solve", "--problem", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "status: solved" in outputs[0]

    def test_trace_determinism(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            assert main(["solve", "--builtin", "sin-example", "--eps", "1e-4",
                         "--trace", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_bad_local_local_oracle(self, tmp_path):
        trace = tmp_path / "bad.csv"
        code = main(["solve", "--builtin", "bad-local", "--oracle", "local",
                     "--start", "-1", "--max-iters", "20", "--trace", str(trace)])
        assert code == 3  # iteration limit
        rows = trace.read_text().splitlines()[1:]
        xs = [float(r.split(",")[1]) for r in rows]
        assert len(xs) == 20
        for prev, cur in zip(xs, xs[1:]):
            assert cur == pytest.approx(prev - prev**3 / 3.0, abs=1e-5)

    def test_bad_local_global_oracle(self, capsys):
        code = main(["solve", "--builtin", "bad-local", "--oracle", "global"])
        out = capsys.readouterr().out
        assert code == 0
        final = [l for l in out.splitlines() if l.startswith("final point:")][0]
        assert float(final.split(":")[1]) == pytest.approx(1.0, abs=1e-6)

    def test_infeasible_exit_code(self):
        assert main(["solve", "--builtin", "infeasible-1d"]) == 2

    @pytest.mark.parametrize("center, value, scale, epsilon", [
        ("0.3", 0.3, 1, 0), ("1/3", 1 / 3, 1, 0), ("0.7", 0.7, 1, 0), ("0.123456789", 0.123456789, 1, 0),
        ("0.3", 0.3, 3, 0), ("0.3", 0.3, 1, 1e-12),
    ])
    def test_an_equality_with_exact_constants_is_unresolved(self, tmp_path, capsys, center, value, scale, epsilon):
        # x1 = center is feasible, so no infeasibility is certified: the run
        # ends unresolved with a plain lower bound and exit code 3
        path = tmp_path / "eq.yaml"
        path.write_text(yaml.safe_dump({
            "dimension": 1, "bounds": [[0.0, 1.0]], "norm": "2", "image_norm": "2",
            "objective": "x1", "objective_L": 1, "constraints": [{"expr": f"{scale} * abs(x1 - {center})"}],
            "global_L": scale, "epsilon": epsilon,
        }))
        assert main(["solve", "--problem", str(path)]) == 3
        out = capsys.readouterr().out
        assert out.startswith("status: unresolved\nlower bound: ")
        bound = float(out.splitlines()[1].split(": ")[1])
        assert value - 1e-6 < bound <= value

    def test_component_mode_flag(self, capsys):
        code = main(["solve", "--builtin", "comp-example", "--mode", "component",
                     "--max-iters", "3"])
        assert code == 3

    def test_error_exit_code(self, capsys):
        assert main(["solve", "--problem", "/nonexistent/file.yaml"]) == 1

    @pytest.mark.parametrize("text, message", [
        ("dimension: [1\n", "is not valid YAML"),
        (yaml.safe_dump(dict(SIN_FILE, constraints=5)), "constraints must be a list"),
        (yaml.safe_dump(dict(SIN_FILE, constraints=["x1"])), "constraint 1 must be a mapping"),
        (yaml.safe_dump(dict(SIN_FILE, bounds=[0, 1])), "bounds must be a list of [lower, upper] pairs"),
        (yaml.safe_dump(dict(SIN_FILE, integral=5)), "integral must be a list of booleans"),
        (yaml.safe_dump(dict(SIN_FILE, constraints=[{"expr": "x1", "mask": 5}])),
         "constraint 1 mask must be a list of coordinate indices"),
        (yaml.safe_dump(dict(SIN_FILE, constraints=[{"L": 1.0}])), "constraint 1 is missing required key 'expr'"),
        (yaml.safe_dump(dict(SIN_FILE, constraints=[{"expr": "x1", 1: 2, "typo": 3}])),
         "unknown constraint keys: [1, 'typo']"),
        (yaml.safe_dump(dict(SIN_FILE, integral=["false", "true"])), "integral must be a list of booleans"),
        (yaml.safe_dump(dict(SIN_FILE, integral=[0, 1])), "integral must be a list of booleans"),
        (yaml.safe_dump(dict(SIN_FILE, dimension=2.7)), "dimension must be an integer, got 2.7"),
        (yaml.safe_dump(dict(SIN_FILE, dimension="2")), "dimension must be an integer, got '2'"),
        (yaml.safe_dump(dict(SIN_FILE, constraints=[{"expr": "x1", "mask": [1.9]}])),
         "constraint 1 mask entry must be an integer, got 1.9"),
        (yaml.safe_dump(dict(SIN_FILE, constraints=[{"expr": "x1", "mask": [True]}])),
         "constraint 1 mask entry must be an integer, got True"),
    ], ids=["invalid-yaml", "constraints-not-a-list", "constraint-not-a-mapping", "bounds-not-pairs",
            "integral-not-a-list", "mask-not-a-list", "constraint-without-expr", "mixed-unknown-keys",
            "integral-strings", "integral-numbers", "fractional-dimension", "string-dimension", "fractional-mask",
            "boolean-mask"])
    def test_malformed_file_is_an_error_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        assert main(["solve", "--problem", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("key, value, message", BAD_NUMBERS, ids=BAD_NUMBER_IDS)
    def test_a_bad_number_is_an_error_line(self, tmp_path, capsys, key, value, message):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(bad_number_file(key, value)))
        assert main(["solve", "--problem", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1e-3"])
    def test_a_bad_eps_flag_is_an_error_line(self, capsys, eps):
        # a NaN epsilon once ran silently in exact mode
        assert main(["solve", "--builtin", "sin-example", f"--eps={eps}"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: epsilon must be finite and nonnegative, got {float(eps)!r}\n"
        assert captured.out == ""

    def test_oracle_tol_with_the_local_oracle_is_an_error_line(self, capsys):
        assert main(["solve", "--builtin", "bad-local", "--oracle", "local", "--start", "-1",
                     "--oracle-tol", "1e-2"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --oracle-tol sets the global oracle's tolerance; the local oracle has none\n"
        assert captured.out == ""

    def test_start_with_the_global_oracle_is_an_error_line(self, capsys):
        # the global oracle ignores a start, even one of the wrong dimension
        assert main(["solve", "--builtin", "sin-example", "--start", "5,5,5"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --start sets the local oracle's start point; the global oracle has none\n"
        assert captured.out == ""

    @pytest.mark.parametrize("start", ["nan", "inf"])
    def test_a_non_finite_start_is_an_error_line(self, capsys, start):
        # a NaN start once reached the objective, whose error blamed 'x1'
        assert main(["solve", "--builtin", "bad-local", "--oracle", "local", "--start", start]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: initial_start must be a 1-D vector of finite numbers")
        assert captured.out == ""

    def test_oracle_tol_defaults_to_the_oracle_default(self, tmp_path, capsys):
        traces = [tmp_path / "default.csv", tmp_path / "given.csv"]
        assert main(["solve", "--builtin", "sin-example", "--trace", str(traces[0])]) == 0
        assert main(["solve", "--builtin", "sin-example", "--oracle-tol", "1e-6", "--trace", str(traces[1])]) == 0
        assert traces[0].read_bytes() == traces[1].read_bytes()

    def test_mode_flag_replaces_the_file_cut_mode(self, tmp_path, capsys):
        data = dict(SIN_FILE, cut_mode="component", constraints=[{"expr": "-sin(x1) - x2"}])
        path = tmp_path / "component.yaml"
        path.write_text(yaml.safe_dump(data))
        # vector mode reads no per-component constant, so none is estimated
        assert main(["solve", "--problem", str(path), "--mode", "vector"]) == 0
        assert "constraint_1_L" not in capsys.readouterr().out
        assert main(["solve", "--problem", str(path)]) == 0
        assert "estimated constraint_1_L = " in capsys.readouterr().out

    def test_evaluation_error_exit_code(self, tmp_path, capsys):
        # sqrt(x1) is undefined at the first iterate, x1 = -1
        data = dict(SIN_FILE, dimension=1, bounds=[[-1.0, 1.0]], objective="x1", objective_L=1.0,
                    constraints=[{"expr": "sqrt(x1)", "L": 1.0}], global_L=1.0)
        path = tmp_path / "sqrt.yaml"
        path.write_text(yaml.safe_dump(data))
        assert main(["solve", "--problem", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite value nan at [-1.] in 'sqrt(x1)'")

    # estimate-lipschitz estimates none of the file's constants, only its own
    @pytest.mark.parametrize("command, label", [("solve", "global_L"), ("estimate-lipschitz", "constraint 1")],
                             ids=["solve", "estimate-lipschitz"])
    def test_overflowing_lipschitz_estimate_is_an_error_line(self, tmp_path, capsys, command, label):
        # the difference quotient of exp(709*x1) near x1 = 1 overflows to inf
        data = {k: v for k, v in SIN_FILE.items() if k != "global_L"}
        data.update(dimension=1, bounds=[[0.0, 1.0]], objective="x1", objective_L=1.0,
                    constraints=[{"expr": "exp(709*x1) - 0.5"}])
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(data))
        # the message names the constant, and no bare numpy warning precedes it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--problem", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {label}: Lipschitz estimate must be finite and positive, got inf")
        assert "trace" not in captured.out and "status" not in captured.out

    @pytest.mark.parametrize("method", ["grid", "sampling"])
    @pytest.mark.parametrize("label", ["constraint 1", "vector"])
    def test_estimate_lipschitz_names_its_failed_estimate(self, tmp_path, capsys, method, label):
        # every constant is given, so only the command's own estimates fail:
        # exp(709*x1) overflows its slopes near x1 = 1; two finite slopes of
        # 9e307 overflow only in the stacked (1, 1) norm, their sum
        data = dict(SIN_FILE, dimension=1, bounds=[[0.0, 1.0]], objective="x1", objective_L=1.0, global_L=1.0)
        if label == "constraint 1":
            data.update(constraints=[{"expr": "exp(709*x1) - 0.5", "L": 1.0}])
        else:
            data.update(norm="1", image_norm="1",
                        constraints=[{"expr": "9e307*x1 - 1", "L": 1.0}, {"expr": "9e307*x1 - 2", "L": 1.0}])
        path = tmp_path / "overflow.yaml"
        path.write_text(yaml.safe_dump(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate-lipschitz", "--problem", str(path), "--method", method]) == 1
        assert capsys.readouterr().err == f"error: {label}: Lipschitz estimate must be finite and positive, got inf\n"

    def test_infinite_given_constant_is_an_error_line(self, tmp_path, capsys):
        path = tmp_path / "inf.yaml"
        path.write_text(yaml.safe_dump(dict(SIN_FILE, global_L=math.inf)))
        assert main(["solve", "--problem", str(path)]) == 1
        assert capsys.readouterr().err == "error: global_L must be a finite number, got inf\n"

    def test_exit_code_contract_over_all_builtins(self):
        # 0 solved / 2 infeasible / 3 iteration limit, nothing else
        expected = {
            "sin-example": 0,
            "bad-local": 0,
            "comp-example": 3,
            "comp-example-manipulated": 3,
            "infeasible-1d": 2,
        }
        for name, code in expected.items():
            assert main(["solve", "--builtin", name, "--max-iters", "4"]) == code, name

    def test_sampling_refused_without_flag(self, tmp_path, capsys):
        data = {k: v for k, v in SIN_FILE.items() if k != "global_L"}
        path = tmp_path / "p.yaml"
        path.write_text(yaml.safe_dump(data))
        assert main(["solve", "--problem", str(path), "--lipschitz-method", "sampling"]) == 1
        err = capsys.readouterr().err
        assert "allow-heuristic-L" in err

    def test_sampling_allowed_with_flag(self, tmp_path, capsys):
        data = {k: v for k, v in SIN_FILE.items() if k != "global_L"}
        path = tmp_path / "p.yaml"
        path.write_text(yaml.safe_dump(data))
        code = main(["solve", "--problem", str(path), "--lipschitz-method", "sampling",
                     "--allow-heuristic-L", "--seed", "4"])
        assert code in (0, 3)
        captured = capsys.readouterr()
        assert "estimated global_L" in captured.out
        assert "heuristic" in captured.err

    def test_normalize_flag(self):
        assert main(["solve", "--builtin", "sin-example", "--normalize",
                     "--eps", "5e-5"]) == 0

    @pytest.mark.parametrize("argv", [
        ["solve", "--builtin", "sin-example", "--mode", "bogus"],
        ["solve", "--builtin", "sin-example", "--eps", "abc"],
        ["solve"],
        ["emit-milp", "--builtin", "sin-example", "--norm", "2", "--out", "cuts.lp"],
        [],
    ], ids=["bad-choice", "bad-number", "no-problem", "bad-subcommand-choice", "no-command"])
    def test_a_usage_error_exits_1_not_the_certificate_code(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        assert "usage: lipcut" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["solve", "--help"])
        assert info.value.code == 0
        assert "--lipschitz-method {grid,sampling}" in capsys.readouterr().out

    def test_threads_flag(self, capsys):
        # the oracle thread pool is gone: argparse rejects the old flag, with
        # the exit code of every error (2 certifies infeasibility)
        with pytest.raises(SystemExit) as info:
            main(["solve", "--builtin", "bad-local", "--threads", "2"])
        assert info.value.code == 1
        assert "--threads" in capsys.readouterr().err


class TestCliBounds:
    def test_infeasible_1d_packing_bound(self, capsys):
        code = main(["bounds", "--builtin", "infeasible-1d", "--delta", "1"])
        out = capsys.readouterr().out
        assert code == 0
        line = [l for l in out.splitlines() if "packing bound" in l][0]
        assert "box-packing" in line
        assert float(line.split(":")[1]) == pytest.approx(5.0)

    def test_lattice_bound(self, tmp_path, capsys):
        data = dict(SIN_FILE)
        data.update(
            dimension=2, bounds=[[0.0, 3.0], [0.0, 2.0]], integral=[True, True],
            objective="x1 + x2", objective_L=2.0,
            constraints=[{"expr": "x1 - 10", "L": 1.0}], global_L=1.0,
        )
        path = tmp_path / "lattice.yaml"
        path.write_text(yaml.safe_dump(data))
        code = main(["bounds", "--problem", str(path), "--delta", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        line = [l for l in out.splitlines() if "packing bound" in l][0]
        assert "lattice-count" in line
        assert float(line.split(":")[1]) == 12.0

    def test_complexity_bounds(self, capsys):
        code = main(["bounds", "--builtin", "sin-example", "--eps", "0.1", "--c", "1.0"])
        out = capsys.readouterr().out
        assert code == 0
        rho = math.sqrt(2.0)
        upper = [l for l in out.splitlines() if "complexity upper" in l][0]
        assert float(upper.split(":")[1]) == pytest.approx(((2 * rho + 0.1) / 0.1) ** 2)
        lower = [l for l in out.splitlines() if "complexity lower" in l][0]
        assert float(lower.split(":")[1].split("(")[0]) == pytest.approx(
            (1.0 / (math.sqrt(2.0) * 0.1)) ** 2
        )

    def test_requires_delta_or_eps(self, capsys):
        assert main(["bounds", "--builtin", "sin-example"]) == 1

    def test_mixed_box_uses_box_packing(self, tmp_path, capsys):
        # the lattice count needs every coordinate integral
        data = dict(SIN_FILE, bounds=[[0.0, 3.0], [0.0, 2.0]], integral=[True, False])
        path = tmp_path / "mixed.yaml"
        path.write_text(yaml.safe_dump(data))
        assert main(["bounds", "--problem", str(path), "--delta", "1"]) == 0
        line = [l for l in capsys.readouterr().out.splitlines() if "packing bound" in l][0]
        assert line.startswith("packing bound (box-packing): ")

    def test_zero_width_coordinate_has_no_asphericity(self, tmp_path, capsys):
        data = dict(SIN_FILE, bounds=[[-1.0, 1.0], [0.5, 0.5]])
        path = tmp_path / "flat.yaml"
        path.write_text(yaml.safe_dump(data))
        assert main(["bounds", "--problem", str(path), "--eps", "0.1"]) == 0
        out = capsys.readouterr().out
        assert out == "radius: 1\nasphericity: undefined (zero-width coordinate)\ncomplexity upper: 441\n"

    def test_overflowing_complexity_bounds(self, capsys):
        # the upper envelope is vacuous past the float range; the lower one
        # has no value there, and says so on an error line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bounds", "--builtin", "sin-example", "--eps", "1e-200"]) == 1
        captured = capsys.readouterr()
        assert "complexity upper: inf\n" in captured.out
        assert captured.err.startswith("error: complexity lower bound")

    def test_radius_of_a_box_past_the_square_range(self, tmp_path, capsys):
        # the squared half-widths overflow; the radius, about 7.07e199, does not
        data = dict(SIN_FILE, bounds=[[0.0, 1e200]] * 2, integral=[True] * 2)
        path = tmp_path / "vast.yaml"
        path.write_text(yaml.safe_dump(data))
        assert main(["bounds", "--problem", str(path), "--delta", "1"]) == 0
        out = capsys.readouterr().out
        assert "radius: 7.0710678118654752e+199\n" in out
        assert "asphericity: 1.4142135623730951\n" in out

    def test_a_box_whose_width_overflows_is_an_error(self, tmp_path, capsys):
        data = dict(SIN_FILE, bounds=[[-1e308, 1e308], [-1.0, 1.0]])
        path = tmp_path / "overflowing.yaml"
        path.write_text(yaml.safe_dump(data))
        assert main(["bounds", "--problem", str(path), "--delta", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: coordinate 0: the width of [-1e+308, 1e+308] overflows\n"

    def test_a_packing_bound_outside_its_regime_warns_on_one_line(self, capsys):
        assert main(["bounds", "--builtin", "bad-local", "--delta", "1"]) == 0
        assert capsys.readouterr().err == "warning: packing bound derived for delta/L < 1, got 1.0\n"

    def test_overflowing_lattice_count(self, tmp_path, capsys):
        # 1e330 lattice points; the radius, about 8.7e109, is still finite
        data = dict(SIN_FILE, dimension=3, bounds=[[0.0, 1e110]] * 3, integral=[True] * 3)
        path = tmp_path / "huge.yaml"
        path.write_text(yaml.safe_dump(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bounds", "--problem", str(path), "--delta", "1"]) == 0
        assert "packing bound (lattice-count): inf\n" in capsys.readouterr().out


class TestCliEstimate:
    def test_sin_example_grid(self, capsys):
        code = main(["estimate-lipschitz", "--builtin", "sin-example", "--method", "grid"])
        out = capsys.readouterr().out
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("constraint 1")][0]
        value = float(line.split("L = ")[1].split(" ")[0])
        assert value == pytest.approx(math.sqrt(2.0), abs=1e-3)

    def test_comp_example_prints_squares(self, capsys):
        code = main(["estimate-lipschitz", "--builtin", "comp-example", "--grid", "128"])
        out = capsys.readouterr().out
        assert code == 0
        assert "L^2 = " in out
        first = [l for l in out.splitlines() if l.startswith("constraint 1")][0]
        l1_sq = float(first.split("L^2 = ")[1].split(")")[0])
        assert l1_sq == pytest.approx(10.0, rel=0.02)

    def test_estimates_no_constant_it_does_not_print(self, tmp_path, capsys):
        # the default grid would estimate objective_L, and sqrt(x1) is NaN
        # at its central-difference step to x1 = -1e-6
        data = {"dimension": 1, "bounds": [[0.0, 1.0]], "norm": "2", "image_norm": "2", "objective": "sqrt(x1)",
                "constraints": [{"expr": "x1 - 0.5"}]}
        path = tmp_path / "sqrt.yaml"
        path.write_text(yaml.safe_dump(data))
        assert main(["estimate-lipschitz", "--problem", str(path), "--method", "sampling"]) == 0
        captured = capsys.readouterr()
        assert [line.split(":")[0] for line in captured.out.splitlines()] == ["constraint 1", "vector"]
        assert captured.err == ""

    def test_constant_constraint_sampling_floor(self, tmp_path, capsys):
        data = dict(SIN_FILE)
        data["constraints"] = [{"expr": "0*x1 - 1", "L": 1.0}]
        path = tmp_path / "const.yaml"
        path.write_text(yaml.safe_dump(data))
        code = main(["estimate-lipschitz", "--problem", str(path), "--method", "sampling", "--pairs", "50"])
        assert code == 0
        out, err = capsys.readouterr()
        # one line per floored estimate, constraint 1's and the vector's
        assert err == "warning: all sampled slopes are zero (constant function?); reporting floor\n" * 2
        line = [l for l in out.splitlines() if l.startswith("constraint 1")][0]
        assert float(line.split("L = ")[1].split(" ")[0]) == pytest.approx(1e-12)


class TestCliEmitMilp:
    def test_two_cuts_from_flags(self, tmp_path, capsys):
        out_path = tmp_path / "cuts.lp"
        code = main(["emit-milp", "--builtin", "sin-example", "--norm", "1",
                     "--cut", "0,0;1", "--cut", "0.5,0.5;0.25", "--out", str(out_path)])
        assert code == 0
        text = out_path.read_text()
        rows = [l for l in text.splitlines() if l.lstrip().startswith("cut")]
        assert len(rows) == 22  # 11 per 1-norm cut
        printed = capsys.readouterr().out
        assert "4 binaries" in printed

    def test_cuts_from_trace(self, tmp_path):
        trace = tmp_path / "t.csv"
        assert main(["solve", "--builtin", "sin-example", "--eps", "1e-4",
                     "--trace", str(trace)]) == 0
        out_path = tmp_path / "from_trace.lp"
        assert main(["emit-milp", "--builtin", "sin-example", "--norm", "1",
                     "--trace", str(trace), "--out", str(out_path)]) == 0
        text = out_path.read_text()
        # 3 cutting iterations -> 3 1-norm systems of 5n+1 = 11 rows
        rows = [l for l in text.splitlines() if l.lstrip().startswith("cut")]
        assert len(rows) == 33
        # a 1-norm ball lies inside the 2-norm ball of its radius, so the
        # exported cuts keep the accepted point; inf-norm balls would not
        lines = trace.read_text().splitlines()
        accepted = [float(v) for v in lines[-1].split(",")[1:3]]
        cuts = [([float(v) for v in row.split(",")[1:3]], float(row.split(",")[6])) for row in lines[1:-1]]
        assert len(cuts) == 3
        assert all(verify_by_enumeration(reformulate_1norm(c, r, 4.0), accepted) for c, r in cuts)
        assert not all(verify_by_enumeration(reformulate_infnorm(c, r, 4.0), accepted) for c, r in cuts)

    @pytest.mark.parametrize("norm, code", [("2", 1), ("1", 1), ("inf", 0)])
    def test_inf_norm_export_of_a_trace_needs_an_inf_norm_domain(self, tmp_path, capsys, norm, code):
        # the constants hold in all three domain norms
        path = tmp_path / "p.yaml"
        path.write_text(yaml.safe_dump(dict(SIN_FILE, norm=norm, objective="x1 + 2*x2", objective_L=3.0,
                                            global_L=2.0, constraints=[{"expr": "-sin(x1) - x2", "L": 2.0}])))
        trace, out_path = tmp_path / "t.csv", tmp_path / "cuts.lp"
        assert main(["solve", "--problem", str(path), "--max-iters", "5", "--trace", str(trace)]) == 3
        capsys.readouterr()
        assert main(["emit-milp", "--problem", str(path), "--norm", "inf",
                     "--trace", str(trace), "--out", str(out_path)]) == code
        err = capsys.readouterr().err
        if code:
            assert err == (f"error: the trace's cuts are {norm}-norm balls, and --norm inf would export larger "
                           "ones that can exclude feasible points; use --norm 1\n")
            assert not out_path.exists()
        else:
            assert err == "" and "cut0_wsum" in out_path.read_text()

    def test_zero_cuts(self, tmp_path):
        out_path = tmp_path / "empty.lp"
        assert main(["emit-milp", "--builtin", "sin-example", "--norm", "1",
                     "--out", str(out_path)]) == 0
        text = out_path.read_text()
        assert "Bounds" in text and "cut0" not in text

    def test_bad_cut_flag(self, tmp_path):
        assert main(["emit-milp", "--builtin", "sin-example", "--norm", "1",
                     "--cut", "garbage", "--out", str(tmp_path / "x.lp")]) == 1

    @pytest.mark.parametrize("flags, message", [
        (["--cut", "nan,0;1"], "cut center must be a 1-D vector of finite numbers, got [nan, 0.0]\n"),
        (["--cut", "0,0;nan"], "cut radius must be finite and positive"),
        (["--cut", "0,0;inf"], "cut radius must be finite and positive"),
        (["--cut", "0,0;1", "--big-M", "inf"], "big-M must be finite and positive"),
    ], ids=["nan-center", "nan-radius", "inf-radius", "inf-big-M"])
    def test_non_finite_cut_is_an_error_line(self, tmp_path, capsys, flags, message):
        out_path = tmp_path / "x.lp"
        assert main(["emit-milp", "--builtin", "sin-example", "--norm", "1", "--out", str(out_path)] + flags) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out_path.exists()

    @pytest.mark.parametrize("traced, exported", [("comp-example", "infeasible-1d"), ("infeasible-1d", "comp-example")],
                             ids=["2-D-trace-1-D-problem", "1-D-trace-2-D-problem"])
    def test_a_trace_of_another_dimension_is_refused(self, tmp_path, capsys, traced, exported):
        trace, out_path = tmp_path / "t.csv", tmp_path / "cuts.lp"
        main(["solve", "--builtin", traced, "--max-iters", "3", "--trace", str(trace)])
        capsys.readouterr()
        assert main(["emit-milp", "--builtin", exported, "--norm", "1", "--trace", str(trace),
                     "--out", str(out_path)]) == 1
        n, m = get_builtin(traced).dimension, get_builtin(exported).dimension
        header = ",".join(trace_to_csv([], m).splitlines())
        assert capsys.readouterr().err == (f"error: trace {trace} is {n}-D and the problem {m}-D: "
                                           f"a trace of this problem has the header {header}\n")
        assert not out_path.exists()


class TestEachSubcommandReadsWhatItPrints:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    @pytest.mark.parametrize("key, value, message", BAD_NUMBERS + OUT_OF_RANGE, ids=BAD_NUMBER_IDS + OUT_OF_RANGE_IDS)
    def test_every_subcommand_refuses_a_malformed_number(self, tmp_path, monkeypatch, capsys, command,
                                                         key, value, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.yaml").write_text(yaml.safe_dump(bad_number_file(key, value)))
        assert main([command, "--problem", "bad.yaml"] + SUBCOMMANDS[command]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert not (tmp_path / "cuts.lp").exists()

    def test_emit_milp_and_bounds_read_no_constant_of_a_file_without_them(self, tmp_path, capsys):
        # the objective's constant cannot be estimated, and neither command uses it
        lp_files = []
        for name, data in (("sqrt", SQRT_FILE), ("given", dict(SQRT_FILE, objective_L=1))):
            path, out_path = tmp_path / f"{name}.yaml", tmp_path / f"{name}.lp"
            path.write_text(yaml.safe_dump(data))
            assert main(["emit-milp", "--problem", str(path), "--norm", "1", "--cut", "0.25;0.1",
                         "--out", str(out_path)]) == 0
            assert main(["bounds", "--problem", str(path), "--eps", "0.1"]) == 0
            captured = capsys.readouterr()
            assert "estimated" not in captured.out and captured.err == ""
            lp_files.append(out_path.read_bytes())
        assert lp_files[0] == lp_files[1]

    def test_a_box_packing_bound_estimates_global_L_alone(self, tmp_path, capsys):
        path = tmp_path / "sqrt.yaml"
        path.write_text(yaml.safe_dump(SQRT_FILE))
        assert main(["bounds", "--problem", str(path), "--delta", "0.5"]) == 0
        estimate = labelled_estimate("global_L", [parse("x1 - 0.5", 1)], BoxDomain([0.0], [1.0]),
                                     NormKind.Two, NormKind.Two)
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("estimated")]
        assert lines == [f"estimated global_L = {estimate.value:.17g} (grid, safety 1.05, 64 samples)"]

    def test_bounds_and_emit_milp_build_no_solver_problem(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("build() called")

        monkeypatch.setattr("lipcut.cli.build", refuse)
        monkeypatch.setattr("lipcut.problems.build", refuse)
        estimates = []

        def counted(label, *args, **kwargs):
            estimates.append(label)
            return labelled_estimate(label, *args, **kwargs)

        monkeypatch.setattr("lipcut.cli.labelled_estimate", counted)
        lattice = dict(SQRT_FILE, integral=[True])
        for name, data in (("sqrt", SQRT_FILE), ("lattice", lattice)):
            (tmp_path / f"{name}.yaml").write_text(yaml.safe_dump(data))
        runs = [
            (["bounds", "--problem", str(tmp_path / "sqrt.yaml"), "--eps", "0.1"], []),
            (["bounds", "--problem", str(tmp_path / "lattice.yaml"), "--delta", "0.5", "--eps", "0.1"], []),
            (["bounds", "--builtin", "comp-example", "--delta", "0.5", "--eps", "0.1"], []),
            (["bounds", "--problem", str(tmp_path / "sqrt.yaml"), "--delta", "0.5"], ["global_L"]),
            (["emit-milp", "--problem", str(tmp_path / "sqrt.yaml"), "--norm", "inf", "--cut", "0.5;0.1",
              "--out", str(tmp_path / "cuts.lp")], []),
            (["emit-milp", "--builtin", "sin-example", "--norm", "1", "--out", str(tmp_path / "cuts.lp")], []),
        ]
        for argv, labels in runs:
            estimates.clear()
            assert main(argv) == 0, argv
            assert estimates == labels, argv
        assert capsys.readouterr().err == ""
