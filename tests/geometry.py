"""Closed-form plane geometry and reference norms shared by the test
modules (independent of lipcut, so they can serve as references for the
solver's iterates and arithmetic).  A norm is named by its value, "1", "2"
or "inf", or by a member of ``NormKind``."""

import math

import numpy as np


def circle_intersections(a, R, b, r):
    """Analytic intersection points of the circle of radius R about a and
    the circle of radius r about b, as (left of a->b, right of a->b)."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    d = np.linalg.norm(b - a)
    l = (d * d - r * r + R * R) / (2 * d)
    h = math.sqrt(R * R - l * l)
    u = (b - a) / d
    perp = np.array([-u[1], u[0]])
    return a + l * u + h * perp, a + l * u - h * perp


def _kind(norm) -> str:
    return getattr(norm, "value", norm)


def index_order_norm(norm, v) -> float:
    """The norm of a vector with its terms added one at a time in index order."""
    kind, acc = _kind(norm), 0.0
    for t in np.abs(v).tolist():
        acc = max(acc, t) if kind == "inf" else acc + (t * t if kind == "2" else t)
    return math.sqrt(acc) if kind == "2" else acc


def pairwise_norm(norm, v) -> float:
    """numpy's norm of a vector: ``np.sum`` adds 8 or more terms pairwise."""
    kind, v = _kind(norm), np.asarray(v, dtype=float)
    if kind == "inf":
        return float(np.max(np.abs(v)))
    return float(np.sum(np.abs(v))) if kind == "1" else float(np.sqrt(np.sum(v * v)))
