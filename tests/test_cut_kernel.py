"""The stacked cut kernel of ``RelaxedRegion`` against a per-cut reference.

The reference below is the plain loop over ``Cut`` objects that the kernel
replaced: one masked norm per cut, ``>= radius`` for a satisfied point and
``< radius`` (at the farthest box point) for an excluded box.  The kernel
must agree with it exactly, boundary points included, because the trace
CSV bytes depend on every such comparison.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lipcut.core import (
    _CHUNK_ELEMENTS,
    BoxDomain,
    Cut,
    NormKind,
    RelaxedRegion,
    region_membership,
)


def ref_norm_rows(norm, m):
    if norm is NormKind.One:
        return np.sum(np.abs(m), axis=-1)
    if norm is NormKind.Two:
        return np.sqrt(np.sum(m * m, axis=-1))
    return np.max(np.abs(m), axis=-1)


def ref_norm(norm, v):
    if norm is NormKind.One:
        return float(np.sum(np.abs(v)))
    if norm is NormKind.Two:
        return float(np.sqrt(np.sum(v * v)))
    return float(np.max(np.abs(v)))


def ref_cut_satisfied_mask(cut, points):
    if cut.radius == 0.0:
        return np.ones(points.shape[0], dtype=bool)
    d = points[:, cut.mask] - cut.center[cut.mask]
    return ref_norm_rows(cut.norm, d) >= cut.radius


def ref_membership_mask(region, points):
    ok = region.domain.contains_mask(points)
    for c in region.cuts:
        if not ok.any():
            break
        ok &= ref_cut_satisfied_mask(c, points)
    return ok


def ref_excluded_mask(region, los, his):
    out = np.zeros(len(los), dtype=bool)
    for cut in region.cuts:
        if cut.radius <= 0:
            continue
        c = cut.center[cut.mask]
        far = np.maximum(np.abs(los[:, cut.mask] - c), np.abs(his[:, cut.mask] - c))
        out |= ref_norm_rows(cut.norm, far) < cut.radius
        if out.all():
            break
    return out


def ref_region_membership(region, x):
    box = region.domain
    if np.any(x < box.lower) or np.any(x > box.upper):
        return False
    if box.integral.any():
        xi = x[box.integral]
        if np.any(np.abs(xi - np.round(xi)) > 1e-9):
            return False
    for cut in region.cuts:
        if cut.radius != 0.0 and ref_norm(cut.norm, (x - cut.center)[cut.mask]) < cut.radius:
            return False
    return True


coord = st.floats(-4.0, 4.0, allow_nan=False)
# multiples of 1/8: center +/- radius and the distances between such
# points are exact, so boundary points land exactly on the ball
dyadic = st.integers(-32, 32).map(lambda k: k / 8.0)


def vectors(n, elements=coord):
    return st.lists(elements, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=float))


def in_box(box):
    """Points of the box, integral coordinates on the lattice, so the box
    test passes and the cut tests decide membership."""
    n = box.dimension
    return vectors(n, st.floats(0.0, 1.0)).map(
        lambda u: np.where(box.integral, np.round(box.lower + u * box.widths), box.lower + u * box.widths)
    )


@st.composite
def cases(draw):
    """A region of 0-30 cuts over a 1-4 dim box, plus points and boxes to
    test against it.

    Cuts mix norms, partial masks and zero radii.  Some radii are exactly
    the computed distance from the center to a drawn point, or to the
    farthest point of a drawn box, so that point or box sits on the ball's
    boundary in floating point.  Points also include points anywhere,
    lattice-snapped points and center +/- radius along one masked axis of
    the 1- and inf-norm cuts."""
    n = draw(st.integers(1, 4))
    integral = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    lower, upper = [], []
    for j in range(n):
        if integral[j]:
            lo = draw(st.integers(-3, 2))
            hi = lo + draw(st.integers(0, 3))
        else:
            lo = draw(coord)
            hi = lo + draw(st.floats(0.0, 4.0))
        lower.append(float(lo))
        upper.append(float(hi))
    box = BoxDomain(lower, upper, integral)

    points = [draw(in_box(box)) for _ in range(draw(st.integers(0, 12)))]
    points += [draw(vectors(n)) for _ in range(draw(st.integers(0, 4)))]
    points += [np.round(p) for p in points[: draw(st.integers(0, len(points)))]]
    los = [draw(vectors(n)) for _ in range(draw(st.integers(0, 10)))]
    his = [lo + draw(vectors(n, st.floats(0.0, 3.0))) for lo in los]

    cuts = []
    for _ in range(draw(st.integers(0, 30))):
        norm = draw(st.sampled_from(list(NormKind)))
        mask = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=n, max_size=n).filter(any)))
        m = np.ones(n, dtype=bool) if mask is None else np.array(mask)
        center = draw(st.one_of(vectors(n), vectors(n, dyadic)))
        kind = draw(st.sampled_from(("zero", "float", "dyadic", "point", "box")))
        if kind == "zero":
            radius = 0.0
        elif kind == "float":
            radius = draw(st.floats(0.0, 3.0))
        elif kind == "dyadic":
            radius = draw(st.integers(0, 24)) / 8.0
        elif kind == "point":
            p = draw(in_box(box))
            radius = ref_norm(norm, (p - center)[m])
            points.append(p)
        else:
            lo = draw(vectors(n))
            hi = lo + draw(vectors(n, st.floats(0.0, 3.0)))
            radius = ref_norm(norm, np.maximum(np.abs(lo - center), np.abs(hi - center))[m])
            los.append(lo)
            his.append(hi)
        cut = Cut(center, radius, mask, norm)
        cuts.append(cut)
        if norm is not NormKind.Two and draw(st.booleans()):
            p = center.copy()
            p[draw(st.sampled_from(list(np.flatnonzero(m))))] += draw(st.sampled_from((-1.0, 1.0))) * radius
            points.append(p)
        if draw(st.booleans()):
            half = draw(st.floats(0.0, 2.0)) * radius
            los.append(center - half)
            his.append(center + half)

    def stack(rows):
        return np.array(rows, dtype=float).reshape(-1, n)

    return RelaxedRegion(box, tuple(cuts)), stack(points), stack(los), stack(his)


@settings(max_examples=200, deadline=None)
@given(case=cases())
def test_kernel_matches_per_cut_reference(case):
    region, points, los, his = case
    # the whole cut set, then each cut alone, so that no boundary point
    # hides inside another cut's ball
    for r in (region,) + tuple(RelaxedRegion(region.domain, (c,)) for c in region.cuts):
        assert np.array_equal(r.membership_mask(points), ref_membership_mask(r, points))
        assert [region_membership(r, p) for p in points] == [ref_region_membership(r, p) for p in points]
        assert np.array_equal(r.excluded_mask(los, his), ref_excluded_mask(r, los, his))


def test_kernel_spans_several_chunks():
    rng = np.random.default_rng(17)
    n, cuts = 3, 30
    box = BoxDomain((-2.0, -2.0, 0.0), (2.0, 2.0, 4.0), (False, False, True))
    masks = (None, (True, False, True), (False, True, False))
    region = RelaxedRegion(box, tuple(
        Cut(rng.uniform(-2, 2, n), rng.uniform(0.0, 0.8) * (k % 7 != 0), masks[k % 3], list(NormKind)[k % 3])
        for k in range(cuts)
    ))
    points = rng.uniform(-2.2, 2.2, size=(3000, n))
    points[::2, 2] = np.round(points[::2, 2]) + 2.0
    assert len(points) * cuts * n > 4 * _CHUNK_ELEMENTS
    assert np.array_equal(region.membership_mask(points), ref_membership_mask(region, points))

    los = rng.uniform(-2.2, 2.2, size=(3000, n))
    his = los + rng.uniform(0.0, 0.3, size=(3000, n))
    dead = region.excluded_mask(los, his)
    assert np.array_equal(dead, ref_excluded_mask(region, los, his))
    assert 0 < dead.sum() < len(dead)


def test_kernel_with_eight_or_more_masked_columns():
    # With 8 or more terms numpy sums the column-major rows of the per-cut
    # loop in index order, but a lone row or a 1-D vector pairwise, so the
    # old loop's bits depended on the batch size and the old one-point
    # check differed from it.  The kernel always sums in index order: the
    # old loop on a batch.  Each radius is that loop's distance to a drawn
    # point, so a change of summation order moves points across the
    # boundary.
    rng = np.random.default_rng(23)
    n = 10
    box = BoxDomain(-np.ones(n), np.ones(n))
    masks = (None, np.arange(n) < 8, np.arange(n) % 3 == 0)
    cuts, anchors = [], []
    for k in range(60):
        norm = (NormKind.One, NormKind.Two)[k % 2]
        m = np.ones(n, dtype=bool) if masks[k % 3] is None else masks[k % 3]
        center = rng.uniform(-1, 1, n) * np.logspace(-3, 0, n)
        p = rng.uniform(-1, 1, n)
        twin = np.vstack([p, p])  # two rows: the batch order
        cuts.append(Cut(center, ref_norm_rows(norm, twin[:, m] - center[m])[0], masks[k % 3], norm))
        anchors.append(p)
    points = np.vstack([anchors, rng.uniform(-1, 1, size=(200, n))])
    los = points - rng.uniform(0, 0.05, size=points.shape)
    for r in (RelaxedRegion(box, (c,)) for c in cuts):
        expected = ref_membership_mask(r, points)
        assert np.array_equal(r.membership_mask(points), expected)
        assert [region_membership(r, p) for p in points[:70]] == list(expected[:70])
        assert np.array_equal(r.excluded_mask(los, points), ref_excluded_mask(r, los, points))
