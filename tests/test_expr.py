import math

import numpy as np
import pytest

from lipcut.core import NonFiniteValueError
from lipcut.expr import (
    Const,
    EvaluationError,
    ExpressionError,
    batch_evaluator,
    contains_abs,
    evaluate,
    finite_diff_jacobian,
    parse,
)


class TestParseEval:
    def test_sin_constraint(self):
        e = parse("-sin(x1) - x2", 2)
        assert evaluate(e, (-1.0, -1.0)) == pytest.approx(math.sin(1.0) + 1.0, abs=1e-15)

    def test_constant_zero(self):
        assert evaluate(parse("0", 1), (3.0,)) == 0.0

    def test_linear_objective(self):
        e = parse("x1 + 4*x2", 2)
        assert evaluate(e, (1.0, 0.5)) == pytest.approx(3.0)
        # an extra coordinate is ignored, as batch_evaluator ignores an extra column
        assert evaluate(e, (1.0, 0.5, 7.0)) == pytest.approx(3.0)

    def test_component_constraint(self):
        e = parse("cos(6*x1)/2 - x2 + 1.8", 2)
        assert evaluate(e, (1.0, 0.0)) == pytest.approx(math.cos(6.0) / 2 + 1.8, abs=1e-15)

    def test_precedence_power_over_unary_minus(self):
        assert evaluate(parse("-x1^2", 1), (3.0,)) == -9.0

    def test_left_associativity(self):
        assert evaluate(parse("x1 - x2 - x3", 3), (1.0, 2.0, 3.0)) == -4.0
        assert evaluate(parse("x1 / x2 / x3", 3), (12.0, 2.0, 3.0)) == 2.0

    def test_signed_literal_exponent(self):
        assert evaluate(parse("2^-2", 1), (0.0,)) == 0.25
        assert evaluate(parse("x1^-1", 1), (4.0,)) == 0.25

    def test_scientific_notation(self):
        assert evaluate(parse("1e-3 + x1", 1), (0.0,)) == pytest.approx(1e-3)

    def test_min_max(self):
        assert evaluate(parse("min(x1, x2, 0.5)", 2), (2.0, -1.0)) == -1.0
        assert evaluate(parse("max(x1, -x1)", 1), (-3.0,)) == 3.0

    def test_whitespace_insignificant(self):
        a = parse("  - sin( x1 )-x2 ", 2)
        b = parse("-sin(x1) - x2", 2)
        for pt in [(-1.0, -1.0), (0.3, 0.7)]:
            assert evaluate(a, pt) == evaluate(b, pt)


class TestErrors:
    def test_syntax_error_has_position(self):
        with pytest.raises(ExpressionError) as info:
            parse("x1 + * x2", 2)
        assert info.value.position == 5

    def test_undefined_variable_index(self):
        with pytest.raises(ExpressionError):
            parse("x3 + 1", 2)
        with pytest.raises(ExpressionError):
            parse("x0", 2)

    def test_non_constant_exponent(self):
        with pytest.raises(ExpressionError):
            parse("x1^x2", 2)
        with pytest.raises(ExpressionError):
            parse("x1^(2)", 1)

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionError):
            parse("foo(x1)", 1)

    def test_empty(self):
        with pytest.raises(ExpressionError):
            parse("   ", 1)

    def test_sqrt_of_negative(self):
        e = parse("sqrt(x1)", 1)
        with pytest.raises(EvaluationError) as info:
            evaluate(e, (-1.0,))
        assert "sqrt" in str(info.value)

    def test_log_of_nonpositive(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("log(x1)", 1), (0.0,))

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("1/x1", 1), (0.0,))

    def test_negative_base_fractional_exponent(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("x1^0.5", 1), (-2.0,))


class TestPrinterRoundTrip:
    CASES = [
        ("-sin(x1) - x2", 2),
        ("cos(6*x1)/2 - x2 + 1.8", 2),
        ("-2*sin(4*x1)/sqrt(x1 + 3) + x2 - 2", 2),
        ("abs(x1 - x2) + x1", 2),
        ("-(x1^3)/3", 1),
        ("x1^2 - 2^-1*x2 + min(x1, max(x2, 0.1))", 2),
        ("exp(-x1^2) + log(x2 + 2) + tan(x1/4)", 2),
    ]

    def test_round_trip_evaluates_identically(self):
        rng = np.random.default_rng(17)
        for text, dim in self.CASES:
            e = parse(text, dim)
            e2 = parse(str(e), dim)
            for _ in range(100):
                x = rng.uniform(0.1, 1.0, size=dim)
                assert evaluate(e2, x) == pytest.approx(evaluate(e, x), rel=1e-15, abs=1e-15)

    def test_parse_determinism(self):
        e1 = parse("x1*x2 - sin(x1)", 2)
        e2 = parse("x1*x2 - sin(x1)", 2)
        x = (0.3, -0.8)
        assert evaluate(e1, x) == evaluate(e2, x)


class TestFiniteDiffJacobian:
    def test_sin_constraint_at_origin(self):
        e = parse("-sin(x1) - x2", 2)
        row = finite_diff_jacobian([e], (0.0, 0.0))[0]
        assert row == pytest.approx([-1.0, -1.0], abs=1e-9)

    def test_linear(self):
        e = parse("x1", 2)
        row = finite_diff_jacobian([e], (0.7, -0.3))[0]
        assert row == pytest.approx([1.0, 0.0], abs=1e-10)
        assert finite_diff_jacobian([e], (0.7, -0.3, 5.0))[0] == pytest.approx([1.0, 0.0, 0.0], abs=1e-10)

    def test_square(self):
        e = parse("x1^2", 1)
        assert finite_diff_jacobian([e], (3.0,))[0][0] == pytest.approx(6.0, abs=1e-6)

    def test_analytic_suite(self):
        # central differences vs hand derivatives, 1e-5 relative
        rng = np.random.default_rng(23)
        cases = [
            ("x1^3 - 2*x1*x2", lambda x: (3 * x[0] ** 2 - 2 * x[1], -2 * x[0])),
            ("sin(x1)*cos(x2)", lambda x: (math.cos(x[0]) * math.cos(x[1]), -math.sin(x[0]) * math.sin(x[1]))),
            ("exp(x1 - x2)", lambda x: (math.exp(x[0] - x[1]), -math.exp(x[0] - x[1]))),
            ("sqrt(x1 + 2) + tan(x2/3)", lambda x: (0.5 / math.sqrt(x[0] + 2), (1 / math.cos(x[1] / 3) ** 2) / 3)),
        ]
        for text, grad in cases:
            e = parse(text, 2)
            for _ in range(20):
                x = rng.uniform(-1.0, 1.0, size=2)
                num = finite_diff_jacobian([e], x)[0]
                ref = np.array(grad(x))
                assert np.allclose(num, ref, rtol=1e-5, atol=1e-7)

    def test_multiple_rows(self):
        exprs = [parse("x1 + x2", 2), parse("x1*x2", 2)]
        jac = finite_diff_jacobian(exprs, (2.0, 3.0))
        assert jac.shape == (2, 2)
        assert np.allclose(jac, [[1.0, 1.0], [3.0, 2.0]], atol=1e-7)


class TestBatchEvaluation:
    def test_matches_scalar(self):
        # a one-point call is a one-row batch: the same bits as the N-row call
        rng = np.random.default_rng(29)
        for text, dim in TestPrinterRoundTrip.CASES:
            e = parse(text, dim)
            pts = rng.uniform(0.1, 1.0, size=(64, dim))
            assert [evaluate(e, x) for x in pts] == batch_evaluator(e)(pts).tolist(), text

    def test_domain_violation_raises(self):
        run = batch_evaluator(parse("sqrt(x1)", 1))
        with pytest.raises(EvaluationError):
            run(np.array([[1.0], [-1.0]]))

    def test_overflow_names_the_node(self):
        with pytest.raises(EvaluationError) as info:
            evaluate(parse("exp(x1)", 1), (1000.0,))
        assert str(info.value.subexpression) == "exp(x1)"

    def test_locate_pass_names_the_deepest_non_finite_node(self):
        e = parse("1 + sqrt(x1)", 1)
        with pytest.raises(EvaluationError) as info:
            evaluate(e, (-1.0,))
        assert str(info.value.subexpression) == "sqrt(x1)"
        # the batch names the first non-finite row
        with pytest.raises(EvaluationError, match=r"at \[-2\.\]") as info:
            batch_evaluator(e)(np.array([[1.0], [-2.0], [-3.0]]))
        assert str(info.value.subexpression) == "sqrt(x1)"

    def test_an_evaluation_error_is_a_non_finite_value_error(self):
        # one error family: the handlers of NonFiniteValueError and of
        # ValueError catch it, with the point and the expression's value
        e = parse("1 + log(x1)", 1)
        with pytest.raises(NonFiniteValueError) as info:
            batch_evaluator(e)(np.array([[1.0], [0.0]]))
        assert isinstance(info.value, EvaluationError) and not isinstance(info.value, ArithmeticError)
        assert info.value.point.tolist() == [0.0] and info.value.value == -math.inf
        assert str(info.value) == "non-finite value -inf at [0.] in 'log(x1)'"
        with pytest.raises(ValueError, match=r"^non-finite value nan at \[-1\.\] in 'sqrt\(x1\)'$"):
            evaluate(parse("sqrt(x1)", 1), (-1.0,))

    def test_masked_intermediate_is_not_an_error(self):
        # 1/x1 is inf at 0, and min masks it: only the value counts
        e = parse("min(1/x1, 0)", 1)
        assert evaluate(e, (0.0,)) == 0.0
        assert batch_evaluator(e)(np.array([[0.0], [2.0]])).tolist() == [0.0, 0.0]


def consts(e):
    """The Const nodes of an expression."""
    own = (e,) if isinstance(e, Const) else ()
    return own + tuple(c for child in e.children() for c in consts(child))


class TestConstants:
    def test_constant_only_expression_gives_one_fresh_value_per_row(self):
        for text in ("2", "3*sin(1)"):
            e = parse(text, 2)
            expected = evaluate(e, (0.0, 0.0))
            for rows in (1, 3, 64):
                out = batch_evaluator(e)(np.zeros((rows, 2)))
                assert out.shape == (rows,) and out.tolist() == [expected] * rows, text
                assert out.flags.writeable
                assert not any(np.shares_memory(out, c._eval_batch([])) for c in consts(e))
                out[:] = -1.0  # the next call is not affected
                assert batch_evaluator(e)(np.zeros((rows, 2))).tolist() == [expected] * rows

    def test_min_max_fold_constants_bit_for_bit(self):
        rng = np.random.default_rng(31)
        pts = np.concatenate(([[0.0], [-0.0], [1.0], [2.0], [1.5]], rng.uniform(-3, 3, size=(59, 1))))
        for text in ("min(1, x1, 2)", "max(1, x1, 2)", "max(x1, 0.5, -x1)", "min(2, 1)"):
            e = parse(text, 1)
            assert [evaluate(e, x) for x in pts] == batch_evaluator(e)(pts).tolist(), text

    def test_const_array_is_read_only(self):
        value = Const(2.0)._eval_batch([np.zeros(5)])
        assert value.shape == (1,) and value[0] == 2.0
        with pytest.raises(ValueError):
            value[0] = 3.0


def test_contains_abs():
    assert contains_abs(parse("abs(x1 - x2) + x1", 2))
    assert contains_abs(parse("-abs(x1)", 1))
    assert not contains_abs(parse("sin(x1) + x2^2", 2))
