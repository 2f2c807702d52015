"""Seeded problem generators.  They produce only ``ProblemDefinition``s
(plus, for the norm lattice, the linear objective's coefficients that the
LP export needs); the library never sees a seed.

Each workload draws from a fixed base stream, and ``--seed`` scales every
continuous draw by a factor in [1 - JITTER, 1 + JITTER).  Seed 0 is the
unperturbed stream: for the random batch that is exactly the suite of
acceptance criteria 5-7.  Every trace changes with the seed, but the mix
of easy and hard problems does not.  With fresh draws per seed the share
of problems that run to the iteration cap changed from seed to seed, and
with a 2% perturbation the batch's node count still ranged over 25%; a
run of a few seconds cannot average either out.
"""

from __future__ import annotations

import numpy as np

from lipcut import NormKind, induced_norm
from lipcut.problems import ConstraintDef, ProblemDefinition, definition_from_dict

JITTER = 0.002
RANDOM_BATCH_BASE = 2024
NORM_LATTICE_BASE = 11


class PerturbedStream:
    """A base generator whose uniform draws are scaled by 1 + JITTER * u,
    u uniform in [-1, 1) from the seed's own stream.  Structural draws
    (``random``) come from the base stream untouched."""

    def __init__(self, base: int, seed: int):
        self.base = np.random.default_rng(base)
        self.jitter = np.random.default_rng(seed) if seed else None

    def uniform(self, lo: float, hi: float) -> float:
        value = self.base.uniform(lo, hi)
        if self.jitter is not None:
            value *= 1.0 + JITTER * (2.0 * self.jitter.random() - 1.0)
        return value

    def random(self) -> float:
        return self.base.random()


def random_batch(seed: int, count: int) -> list[ProblemDefinition]:
    """The acceptance-criteria generator: alternating 1-D and 2-D problems
    with trigonometric constraints and no Lipschitz constants, so ``build``
    estimates every constant."""
    rng = PerturbedStream(RANDOM_BATCH_BASE, seed)
    return [_random_definition(rng, 1 if i % 2 == 0 else 2) for i in range(count)]


def _random_definition(rng, dim: int) -> ProblemDefinition:
    w1 = rng.uniform(0.5, 3.0)
    a1 = rng.uniform(0.3, 1.2)
    phase = rng.uniform(0, 6.28)
    c = rng.uniform(-0.6, 0.4)
    if dim == 1:
        b = rng.uniform(-1.0, 1.0)
        exprs = [f"{a1:.4f}*sin({w1:.4f}*x1 + {phase:.4f}) + {b:.4f}*x1 + {c:.4f}"]
        objective = f"{rng.uniform(-1, 1):.4f}*x1 + 0.5*sin({rng.uniform(0.5, 2):.4f}*x1)"
    else:
        w2 = rng.uniform(0.5, 3.0)
        d = rng.uniform(0.3, 1.2)
        b = rng.uniform(-1.0, 1.0)
        exprs = [
            f"{a1:.4f}*sin({w1:.4f}*x1 + {phase:.4f}) + {d:.4f}*cos({w2:.4f}*x2) + {b:.4f}*x2 + {c:.4f}"
        ]
        if rng.random() < 0.5:
            exprs.append(f"{rng.uniform(0.3, 1.0):.4f}*x1 - x2 + {rng.uniform(-0.5, 0.5):.4f}")
        objective = (
            f"{rng.uniform(-1, 1):.4f}*x1 + {rng.uniform(-1, 1):.4f}*x2"
            f" + 0.4*cos({rng.uniform(0.5, 2):.4f}*x1)"
        )
    bounds = [[-1.0 - rng.uniform(0, 0.5), 1.0 + rng.uniform(0, 0.5)] for _ in range(dim)]
    return definition_from_dict({
        "dimension": dim,
        "bounds": bounds,
        "norm": "2",
        "image_norm": "2",
        "objective": objective,
        "constraints": [{"expr": e} for e in exprs],
    })


def norm_lattice(seed: int, count: int) -> list[tuple[ProblemDefinition, dict]]:
    """3-D problems with certified constants.  Draw i has domain norm 1 and
    image norm inf when i is even, the reverse when odd; x3 is integral on
    about half the draws.  The objective is linear.  Constants come from an
    elementwise bound M >= |dr/dx| put through ``induced_norm``, which is
    valid because both norms are monotone."""
    rng = PerturbedStream(NORM_LATTICE_BASE, seed)
    out = []
    for i in range(count):
        p, q = (NormKind.One, NormKind.Inf) if i % 2 == 0 else (NormKind.Inf, NormKind.One)
        integral = rng.random() < 0.5
        a, w1, phase = _r4(rng.uniform(0.3, 1.2)), _r4(rng.uniform(0.5, 3.0)), _r4(rng.uniform(0, 6.28))
        b, w2 = _r4(rng.uniform(0.3, 1.2)), _r4(rng.uniform(0.5, 3.0))
        d, c1 = _r4(rng.uniform(-1, 1)), _r4(rng.uniform(-0.6, 0.4))
        e1, e2, c2 = _r4(rng.uniform(0.3, 1.0)), _r4(rng.uniform(-1, 1)), _r4(rng.uniform(-0.5, 0.5))
        coefs = [_r4(rng.uniform(-1, 1)) for _ in range(3)]
        widths = [1.0 + rng.uniform(0, 0.5) for _ in range(2)]
        exprs = (
            f"{a}*sin({w1}*x1 + {phase}) + {b}*cos({w2}*x2) + {d}*x3 + {c1}",
            f"{e1}*x1 + {e2}*x2 - x3 + {c2}",
        )
        bound = np.array([[a * w1, b * w2, abs(d)], [abs(e1), abs(e2), 1.0]])
        definition = ProblemDefinition(
            name=f"norm-lattice-{i}",
            dimension=3,
            bounds=((-widths[0], widths[0]), (-widths[1], widths[1]), (-2.0, 2.0)),
            norm=p,
            image_norm=q,
            objective=" + ".join(f"{v}*x{j + 1}" for j, v in enumerate(coefs)),
            constraints=tuple(ConstraintDef(e) for e in exprs),
            integral=(False, False, bool(integral)),
            objective_L=induced_norm(np.abs(coefs)[None, :], p, q),
            global_L=induced_norm(bound, p, q),
        )
        out.append((definition, {f"x{j + 1}": v for j, v in enumerate(coefs)}))
    return out


def _r4(value: float) -> float:
    """Round to the 4 decimals the expression text carries, so the
    derivative bound is computed from the coefficients actually parsed."""
    return round(float(value), 4)
