"""A small arithmetic expression language for defining objectives and
constraints in text form.

Grammar (whitespace insignificant, ASCII):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' signed_number)*
    atom    := number | variable | func '(' expr (',' expr)* ')' | '(' expr ')'

Precedence is ^ > unary minus > * / > + -, with + - * / left-associative.
Exponents must be numeric literals (optionally signed).  Variables are
x1..xn for a declared dimension n.  Functions: sin, cos, tan, sqrt, abs,
exp, log, min, max (min/max take two or more arguments, the rest exactly
one).

Every node has one evaluator, over numpy columns of an (N, n) point
array; ``evaluate`` at one point is a one-row call of ``batch_evaluator``.
Arithmetic is IEEE double with numpy's functions, and a value is an error
exactly when it is non-finite: a NaN or an infinity at the root raises
``EvaluationError``, a ``lipcut.core.NonFiniteValueError``, while a
non-finite intermediate that ``min``/``max`` masks (``min(1/x1, 0)`` at
x1 = 0) is not an error.  Expr objects are immutable; evaluation is
reentrant and safe to call concurrently.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import NonFiniteValueError, positive_integer

_FUNCTIONS = {"sin", "cos", "tan", "sqrt", "abs", "exp", "log", "min", "max"}
_VARIADIC = {"min", "max"}
_FD_STEP = 1e-6  # central-difference step of the finite-difference Jacobians


class ExpressionError(ValueError):
    """Syntax or validation error in an expression, with a position."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class EvaluationError(NonFiniteValueError):
    """A non-finite value (sqrt of a negative, log of a non-positive value,
    division by zero, overflow) of an expression: a ``NonFiniteValueError``
    whose ``point`` is the input and ``value`` the expression's value there.
    ``subexpression`` is the deepest node that is non-finite while its
    children are finite; the message gives that node's value."""

    def __init__(self, subexpression: "Expr", point, value, node_value):
        self.subexpression = subexpression
        self.point = np.array(point, dtype=float)
        self.value = value
        ValueError.__init__(self, f"non-finite value {node_value} at {self.point} in '{subexpression}'")


class Expr:
    """Base class for AST nodes.  Subclasses are frozen dataclasses."""

    __slots__ = ()

    def children(self) -> tuple:
        """The direct subexpressions, in evaluation order."""
        return ()

    def _eval_batch(self, cols: list) -> np.ndarray:
        """Values at the points whose coordinates are the columns ``cols``."""
        raise NotImplementedError

    def __str__(self) -> str:
        """Text that re-parses to an equivalent expression."""
        return self._fmt()

    def _fmt(self, parent: int = 0) -> str:
        raise NotImplementedError


# precedence levels used when printing: addition 1, multiplication 2,
# unary minus 3, power 4, atoms 5
@dataclass(frozen=True)
class Const(Expr):
    """A literal.  It evaluates to one shared, read-only one-element array,
    which numpy broadcasts against the columns; ``batch_evaluator`` gives a
    constant-only expression one fresh value per row."""

    value: float

    def __post_init__(self):
        array = np.array([self.value], dtype=float)
        array.setflags(write=False)
        object.__setattr__(self, "_array", array)

    def _eval_batch(self, cols):
        return self._array

    def _fmt(self, parent=0):
        if self.value < 0:
            s = repr(self.value)
            return f"({s})" if parent > 0 else s
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    index: int  # zero-based

    def _eval_batch(self, cols):
        return cols[self.index]

    def _fmt(self, parent=0):
        return f"x{self.index + 1}"


@dataclass(frozen=True)
class Neg(Expr):
    child: Expr

    def children(self):
        return (self.child,)

    def _eval_batch(self, cols):
        return -self.child._eval_batch(cols)

    def _fmt(self, parent=0):
        s = f"-{self.child._fmt(3)}"
        return f"({s})" if parent > 3 else s


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * /
    left: Expr
    right: Expr

    def children(self):
        return (self.left, self.right)

    def _eval_batch(self, cols):
        a = self.left._eval_batch(cols)
        b = self.right._eval_batch(cols)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        return a / b

    def _fmt(self, parent=0):
        prec = 1 if self.op in "+-" else 2
        # left operand shares this precedence (left associativity); the
        # right operand needs one level more to survive re-parsing
        s = f"{self.left._fmt(prec)} {self.op} {self.right._fmt(prec + 1)}"
        return f"({s})" if parent > prec else s


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: float  # literal by construction

    def children(self):
        return (self.base,)

    def _eval_batch(self, cols):
        return self.base._eval_batch(cols) ** self.exponent

    def _fmt(self, parent=0):
        # a signed bare literal re-parses as an exponent; parens would not
        s = f"{self.base._fmt(5)}^{repr(self.exponent)}"
        return f"({s})" if parent > 4 else s


@dataclass(frozen=True)
class Call(Expr):
    name: str
    args: tuple

    def children(self):
        return self.args

    def _eval_batch(self, cols):
        vals = [a._eval_batch(cols) for a in self.args]
        if self.name in _VARIADIC:
            # folded left to right, as ufunc.reduce over stacked rows does;
            # a constant argument is one element, broadcast
            fold = np.minimum if self.name == "min" else np.maximum
            return functools.reduce(fold, vals)
        if self.name == "abs":
            return np.abs(vals[0])
        return getattr(np, self.name)(vals[0])

    def _fmt(self, parent=0):
        return f"{self.name}({', '.join(a._fmt(0) for a in self.args)})"


# --------------------------------------------------------------------------
# tokenizer / parser

_OPS = set("+-*/^(),")


def _tokenize(text: str):
    tokens = []  # (kind, value, position)
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            seen_exp = False
            while j < n:
                c = text[j]
                if c.isdigit() or c == ".":
                    j += 1
                elif c in "eE" and j + 1 < n and (text[j + 1].isdigit() or text[j + 1] in "+-") and not seen_exp:
                    seen_exp = True
                    j += 2
                else:
                    break
            try:
                value = float(text[i:j])
            except ValueError:
                raise ExpressionError(f"invalid number {text[i:j]!r}", i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ExpressionError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, dimension: int):
        self.tokens = tokens
        self.pos = 0
        self.dimension = dimension

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, position = self.next()
        if kind != "op" or value != op:
            raise ExpressionError(f"expected {op!r}, found {value!r}", position)

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                node = BinOp(value, node, self.parse_term())
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.next()
                node = BinOp(value, node, self.parse_unary())
            else:
                return node

    def parse_unary(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.next()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        node = self.parse_atom()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "^":
                self.next()
                node = Pow(node, self.parse_exponent())
            else:
                return node

    def parse_exponent(self) -> float:
        # exponents must be (optionally signed) numeric literals
        kind, value, position = self.next()
        sign = 1.0
        if kind == "op" and value == "-":
            sign = -1.0
            kind, value, position = self.next()
        if kind != "num":
            raise ExpressionError("exponent must be a constant numeric literal", position)
        return sign * value

    def parse_atom(self) -> Expr:
        kind, value, position = self.next()
        if kind == "num":
            return Const(value)
        if kind == "op" and value == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if kind == "name":
            if value in _FUNCTIONS:
                self.expect_op("(")
                args = [self.parse_expr()]
                while self.peek()[:2] == ("op", ","):
                    self.next()
                    args.append(self.parse_expr())
                self.expect_op(")")
                if value in _VARIADIC:
                    if len(args) < 2:
                        raise ExpressionError(f"{value} needs at least two arguments", position)
                elif len(args) != 1:
                    raise ExpressionError(f"{value} takes exactly one argument", position)
                return Call(value, tuple(args))
            if value.startswith("x") and value[1:].isdigit():
                index = int(value[1:])
                if not 1 <= index <= self.dimension:
                    raise ExpressionError(
                        f"variable {value} out of range for dimension {self.dimension}", position
                    )
                return Var(index - 1)
            raise ExpressionError(f"unknown identifier {value!r}", position)
        raise ExpressionError(f"unexpected token {value!r}", position)


def parse(text: str, dimension: int) -> Expr:
    """Parse an expression over variables x1..x<dimension>."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("empty expression")
    parser = _Parser(_tokenize(text), positive_integer(dimension, "dimension"))
    node = parser.parse_expr()
    kind, value, position = parser.peek()
    if kind != "end":
        raise ExpressionError(f"trailing input {value!r}", position)
    return node


def evaluate(expression: Expr, x) -> float:
    """The value at one point: a one-row call of ``batch_evaluator``."""
    return float(batch_evaluator(expression)(np.asarray(x, dtype=float)[None, :])[0])


def batch_evaluator(expression: Expr):
    """Compile to a vectorized evaluator over an (N, n) point array.

    numpy produces NaN/inf where a value is undefined or overflows.  On the
    first non-finite row a locate pass over that row alone finds the node
    named by the ``EvaluationError``: from the root, it follows the first
    non-finite child until every child is finite.
    """

    def run(points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        cols = [points[:, j].copy() for j in range(points.shape[1])]
        with np.errstate(all="ignore"):
            out = expression._eval_batch(cols)
            if out.shape[0] != len(points) or not out.flags.writeable:
                # a constant-only expression: one value for every row
                out = out.repeat(len(points))
            finite = np.isfinite(out)
            if not finite.all():
                i = int(np.argmin(finite))
                row = [c[i:i + 1] for c in cols]
                node = _locate(expression, row)
                raise EvaluationError(node, points[i], out[i], node._eval_batch(row)[0])
        return out

    run.checks_finite = True  # ObjectiveSpec need not scan its values again
    return run


def _locate(node: Expr, row: list) -> Expr:
    """From ``node``, non-finite at the one-row columns ``row``, follow the
    first non-finite child until every child is finite."""
    for child in node.children():
        if not np.isfinite(child._eval_batch(row)[0]):
            return _locate(child, row)
    return node


def contains_abs(expression: Expr) -> bool:
    """True if any subexpression is an abs() call (non-differentiable)."""
    if isinstance(expression, Call) and expression.name == "abs":
        return True
    return any(contains_abs(c) for c in expression.children())


def finite_diff_jacobian(exprs, x) -> np.ndarray:
    """Central-difference Jacobian of a list of expressions at x, the
    one-row case of ``finite_diff_jacobian_batch``.

    Entry (q, j) = (e_q(x + h u_j) - e_q(x - h u_j)) / (2 h) with the step
    h = ``_FD_STEP`` = 1e-6.  Evaluation errors propagate.
    """
    return finite_diff_jacobian_batch(exprs, np.asarray(x, dtype=float)[None, :])[0]


def finite_diff_jacobian_batch(exprs, points: np.ndarray) -> np.ndarray:
    """Vectorized Jacobians for an (N, n) array of points -> (N, m, n),
    with the step ``_FD_STEP``."""
    h = _FD_STEP
    points = np.asarray(points, dtype=float)
    n_points, n = points.shape
    evaluators = [batch_evaluator(e) for e in exprs]
    out = np.empty((n_points, len(evaluators), n))
    for j in range(n):
        shift = np.zeros(n)
        shift[j] = h
        plus = points + shift
        minus = points - shift
        for q, run in enumerate(evaluators):
            out[:, q, j] = (run(plus) - run(minus)) / (2.0 * h)
    return out
