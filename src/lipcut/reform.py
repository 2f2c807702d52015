"""Mixed-binary reformulation of 1-norm and infinity-norm exclusion cuts.

A cut ||x - a||_p >= b with p in {1, inf} is encoded with continuous
variables y_i (|x_i - a_i|) and binaries z_i selecting the sign, plus, for
the infinity norm, continuous w_i and one-hot binaries u_i selecting the
maximal coordinate.  ``verify_by_enumeration`` decides feasibility of a
fixed x by enumerating the binaries and propagating intervals over the
continuous variables, which is exact for these system shapes.  It tries
the assignment that x itself selects first (z_i = 1 where x_i < a_i and,
for the infinity norm, u one-hot at the first maximal |x_i - a_i|), then
the others in lexicographic order; since the answer is whether any
assignment propagates and propagation has no side effects, the order
changes only how soon a feasible point is accepted.

The big-M caveat: the sign-selection rows require M >= 2 * max_i |x_i -
a_i| to admit every norm-feasible x.  ``default_big_M`` returns the box
diameter (a common heuristic); for skewed boxes, or any 1-D box, that can
fall short of the requirement, in which case the system may wrongly reject
norm-feasible points (never the converse: any point the system accepts
satisfies the norm inequality regardless of M).  The test suite pins one
such counterexample.

All functions are pure; everything here is safe for concurrent use.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import BoxDomain, NormKind, finite_vector, norm_eval, positive

_SENSES = ("<=", ">=", "=")
_FEASTOL = 1e-9


@dataclass(frozen=True)
class LinearConstraint:
    name: str
    coefs: tuple  # ((var, coef), ...) in deterministic order
    sense: str
    rhs: float

    def __post_init__(self):
        if self.sense not in _SENSES:
            raise ValueError(f"bad sense {self.sense!r}")


@dataclass(frozen=True, eq=False)
class ReformSystem:
    """One reformulated cut: variable rosters plus linear rows.  Systems
    compare and hash by identity, like ``Cut`` and ``BoxDomain``.

    ``norm`` is the cut's norm, ``NormKind.One`` or ``NormKind.Inf``.
    ``continuous_vars`` lists the given x_i first, then the auxiliaries;
    y_i and w_i are nonnegative by explicit rows.
    """

    norm: NormKind
    n: int
    center: np.ndarray
    radius: float
    big_M: float
    continuous_vars: tuple
    binary_vars: tuple
    linear_constraints: tuple

    @property
    def constraint_count(self) -> int:
        return len(self.linear_constraints)


def _shared_block(center: np.ndarray, big_M: float):
    """The y/z sign-selection rows common to both norms."""
    n = center.size
    rows = []
    for i in range(1, n + 1):
        a = float(center[i - 1])
        x, y, z = f"x{i}", f"y{i}", f"z{i}"
        rows.append(LinearConstraint(f"ylb{i}", ((y, 1.0), (x, -1.0), (z, big_M)), ">=", -a))
        rows.append(LinearConstraint(f"yub{i}", ((y, 1.0), (x, -1.0), (z, -big_M)), "<=", -a))
        rows.append(LinearConstraint(f"yrlb{i}", ((y, 1.0), (x, 1.0), (z, -big_M)), ">=", a - big_M))
        rows.append(LinearConstraint(f"yrub{i}", ((y, 1.0), (x, 1.0), (z, big_M)), "<=", a + big_M))
    for i in range(1, n + 1):
        rows.append(LinearConstraint(f"ypos{i}", ((f"y{i}", 1.0),), ">=", 0.0))
    return rows


def _validate(center, radius: float, big_M: float):
    return finite_vector(center, "cut center"), positive(radius, "cut radius"), positive(big_M, "big-M")


def _names(prefix: str, n: int) -> tuple:
    return tuple(f"{prefix}{i}" for i in range(1, n + 1))


def _system(norm: NormKind, center, radius: float, big_M: float, rows: list, aux=(), binaries=()) -> ReformSystem:
    """The cut's system: continuous x, y and ``aux``, binaries z and
    ``binaries``, and the ``rows`` followed by the shared y/z block."""
    n = center.size
    return ReformSystem(norm, n, center, radius, big_M, _names("x", n) + _names("y", n) + aux,
                        _names("z", n) + binaries, tuple(rows + _shared_block(center, big_M)))


def reformulate_1norm(center, radius: float, big_M: float) -> ReformSystem:
    """sum_i |x_i - a_i| >= b as 5n+1 linear rows over n binaries."""
    center, radius, big_M = _validate(center, radius, big_M)
    rows = [LinearConstraint("sum", tuple((y, 1.0) for y in _names("y", center.size)), ">=", radius)]
    return _system(NormKind.One, center, radius, big_M, rows)


def reformulate_infnorm(center, radius: float, big_M: float) -> ReformSystem:
    """max_i |x_i - a_i| >= b: the shared y/z block plus w/u rows picking
    out the maximal |x_i - a_i| (9n+2 rows over 2n binaries)."""
    center, radius, big_M = _validate(center, radius, big_M)
    n = center.size
    ys, ws, us = _names("y", n), _names("w", n), _names("u", n)
    rows = [LinearConstraint("wsum", tuple((w, 1.0) for w in ws), ">=", radius)]
    for i, (y, w, u) in enumerate(zip(ys, ws, us), start=1):
        rows.append(LinearConstraint(f"wub{i}", ((w, 1.0), (y, -1.0), (u, big_M)), "<=", big_M))
        rows.append(LinearConstraint(f"wpos{i}", ((w, 1.0),), ">=", 0.0))
        rows.append(LinearConstraint(f"wcap{i}", ((w, 1.0), (u, -big_M)), "<=", 0.0))
    rows.append(LinearConstraint("usum", tuple((u, 1.0) for u in us), "=", 1.0))
    for i, y in enumerate(ys, start=1):
        rows.append(LinearConstraint(f"wmax{i}", tuple((w, 1.0) for w in ws) + ((y, -1.0),), ">=", 0.0))
    return _system(NormKind.Inf, center, radius, big_M, rows, aux=ws, binaries=us)


def default_big_M(box: BoxDomain, norm: NormKind) -> float:
    """The box diameter in the given norm (the usual big-M suggestion;
    see the module docstring for when it is too small)."""
    return box.diameter(norm)


# --------------------------------------------------------------------------
# enumeration verifier

def verify_by_enumeration(system: ReformSystem, x) -> bool:
    """True iff some assignment of the binaries admits continuous values
    satisfying every row with x fixed.

    Per assignment the rows are reduced by interval propagation: rows with
    one free variable tighten its interval directly, multi-variable rows
    tighten each variable against the extremes of the others, and finally
    every row is checked for satisfiability at interval extremes.  For the
    two system shapes produced here this procedure is exact.

    The assignment x selects (``_selected_assignment``) is propagated
    first, then every other one in ``itertools.product`` order.  The order
    cannot change the answer, since each propagation is independent of the
    others; it only makes a norm-feasible x, with a big-M large enough,
    cost one propagation instead of up to 2^(binaries).
    """
    x = finite_vector(x, "x", system.n)
    n_bin = len(system.binary_vars)
    if 2**n_bin > 2**20:
        raise ValueError("dimension too large for enumeration")
    fixed_base = {f"x{i + 1}": float(x[i]) for i in range(system.n)}
    free_names = [v for v in system.continuous_vars if v not in fixed_base]

    selected = _selected_assignment(system, x)
    rest = (a for a in itertools.product((0.0, 1.0), repeat=n_bin) if a != selected)
    for assignment in itertools.chain((selected,), rest):
        fixed = dict(fixed_base)
        fixed.update(zip(system.binary_vars, assignment))
        if _propagate(system, fixed, free_names) is not None:
            return True
    return False


def _selected_assignment(system: ReformSystem, x: np.ndarray) -> tuple:
    """The binaries x itself selects: z_i = 1 exactly when x_i < a_i (the
    branch pinning y_i = a_i - x_i), and for the infinity norm u one-hot at
    the first index of the largest |x_i - a_i|."""
    bits = tuple(1.0 if xi < ai else 0.0 for xi, ai in zip(x, system.center))
    if system.norm is NormKind.Inf:
        k = int(np.argmax(np.abs(x - system.center)))
        bits += tuple(1.0 if i == k else 0.0 for i in range(system.n))
    return bits


def _tighten(lo: dict, hi: dict, var: str, coef: float, bound: float, lower: bool) -> bool:
    if not math.isfinite(bound):
        return False
    # coef * var >= bound (lower) or <= bound (upper)
    value = bound / coef
    if (coef > 0) == lower:
        if value > lo[var] + _FEASTOL:
            lo[var] = value
            return True
    elif value < hi[var] - _FEASTOL:
        hi[var] = value
        return True
    return False


def feasible_interval(system: ReformSystem, x, assignment: dict):
    """Diagnostic companion of the verifier: the propagated [lo, hi]
    intervals of the continuous auxiliaries for one binary assignment, or
    None when infeasible.  Used to examine the selected-binary semantics
    (e.g. that any feasible assignment pins y_i = |x_i - a_i|)."""
    x = finite_vector(x, "x", system.n)
    fixed = {f"x{i + 1}": float(x[i]) for i in range(system.n)}
    fixed.update({k: float(v) for k, v in assignment.items()})
    return _propagate(system, fixed, [v for v in system.continuous_vars if v not in fixed])


def _propagate(system: ReformSystem, fixed: dict, free_names):
    """The propagated {var: (lo, hi)} intervals of the ``free_names`` with
    every other variable held at its ``fixed`` value, or None when some
    row cannot be satisfied."""
    lo = {v: -math.inf for v in free_names}
    hi = {v: math.inf for v in free_names}
    # reduce each row to (free coefs, residual rhs); rows without free
    # variables are checked immediately (this filters non-one-hot u's)
    reduced = []
    for row in system.linear_constraints:
        rhs = row.rhs
        coefs = []
        for var, coef in row.coefs:
            if var in fixed:
                rhs -= coef * fixed[var]
            else:
                coefs.append((var, coef))
        if not coefs:
            ok = (
                (row.sense == ">=" and rhs <= _FEASTOL)
                or (row.sense == "<=" and rhs >= -_FEASTOL)
                or (row.sense == "=" and abs(rhs) <= _FEASTOL)
            )
            if not ok:
                return None
            continue
        reduced.append((coefs, row.sense, rhs))
    for _ in range(2 * len(free_names) + 4):
        changed = False
        for coefs, sense, rhs in reduced:
            for var, coef in coefs:
                rest_max = rest_min = 0.0
                for other, ocoef in coefs:
                    if other == var:
                        continue
                    rest_max += ocoef * (hi[other] if ocoef > 0 else lo[other])
                    rest_min += ocoef * (lo[other] if ocoef > 0 else hi[other])
                if sense in (">=", "="):
                    changed |= _tighten(lo, hi, var, coef, rhs - rest_max, lower=True)
                if sense in ("<=", "="):
                    changed |= _tighten(lo, hi, var, coef, rhs - rest_min, lower=False)
        for v in free_names:
            if lo[v] > hi[v] + _FEASTOL:
                return None
        if not changed:
            break
    for coefs, sense, rhs in reduced:
        best_max = sum(c * (hi[v] if c > 0 else lo[v]) for v, c in coefs)
        best_min = sum(c * (lo[v] if c > 0 else hi[v]) for v, c in coefs)
        if sense in (">=", "=") and best_max < rhs - _FEASTOL:
            return None
        if sense in ("<=", "=") and best_min > rhs + _FEASTOL:
            return None
    return {v: (lo[v], hi[v]) for v in free_names}


# --------------------------------------------------------------------------
# LP export

def export_lp(systems, objective: dict, box: BoxDomain, two_norm_cuts=()) -> str:
    """Render cut systems as a CPLEX-LP-dialect text (Minimize / Subject To
    / Bounds / Binaries / End).

    ``objective`` maps x-variable names to coefficients.  Constraint rows
    of cut k are named ``cut{k}_{tag}``; auxiliary variables keep their
    bare names for a single system and gain a ``_c{k}`` suffix when
    several systems are exported.  ``two_norm_cuts`` optionally emits
    2-norm cuts as quadratic rows ``-2 a.x + [ x^2 ... ] >= b^2 - |a|^2``
    over the masked coordinates, |a|^2 summed in index order as every
    lipcut norm is (these suit quadratic solvers; there is no exact linear
    encoding).  Output is deterministic, 17 significant digits.
    """
    systems = list(systems)
    dims = {s.n for s in systems} | {c.dimension for c in two_norm_cuts}
    if dims and dims != {box.dimension}:
        raise ValueError("systems, cuts and box must share one dimension")

    def aux_name(k: int, var: str) -> str:
        if var.startswith("x"):
            return var
        return var if len(systems) == 1 else f"{var}_c{k}"

    lines = ["Minimize"]
    terms = [(f"x{j + 1}", objective.get(f"x{j + 1}", 0.0)) for j in range(box.dimension)]
    terms = [(v, c) for v, c in terms if c != 0.0]
    lines.append(" obj: " + (_linear_text(terms) if terms else "0 x1"))
    lines.append("Subject To")
    binaries = []
    for k, system in enumerate(systems):
        binaries.extend(aux_name(k, b) for b in system.binary_vars)
        for row in system.linear_constraints:
            named = [(aux_name(k, v), c) for v, c in row.coefs]
            lines.append(f" cut{k}_{row.name}: {_linear_text(named)} {row.sense} {_num(row.rhs)}")
    base = len(systems)
    for j, cut in enumerate(two_norm_cuts):
        if cut.norm is not NormKind.Two:
            raise ValueError("quadratic export applies to 2-norm cuts only")
        k = base + j
        idx = [i for i in range(cut.dimension) if cut.mask[i]]
        lin = [(f"x{i + 1}", -2.0 * cut.center[i]) for i in idx if cut.center[i] != 0.0]
        quad = " + ".join(f"x{i + 1} ^ 2" for i in idx)
        rhs = cut.radius**2 - norm_eval(NormKind.One, cut.center[idx] ** 2)
        lin_text = (_linear_text(lin) + " + ") if lin else ""
        lines.append(f" cut{k}_ball: {lin_text}[ {quad} ] >= {_num(rhs)}")
    lines.append("Bounds")
    for j in range(box.dimension):
        lines.append(f" {_num(box.lower[j])} <= x{j + 1} <= {_num(box.upper[j])}")
    if binaries:
        lines.append("Binaries")
        lines.append(" " + " ".join(binaries))
    if box.integral.any():
        lines.append("Generals")
        lines.append(" " + " ".join(f"x{j + 1}" for j in np.flatnonzero(box.integral)))
    lines.append("End")
    return "\n".join(lines) + "\n"


def _linear_text(terms) -> str:
    parts = []
    for var, coef in terms:
        if not parts:
            if coef == 1.0:
                parts.append(var)
            elif coef == -1.0:
                parts.append(f"- {var}")
            else:
                parts.append(f"{_num(coef)} {var}")
            continue
        sign = "+" if coef >= 0 else "-"
        mag = abs(coef)
        parts.append(f"{sign} {var}" if mag == 1.0 else f"{sign} {_num(mag)} {var}")
    return " ".join(parts)


def _num(value: float) -> str:
    return f"{value:.17g}"
