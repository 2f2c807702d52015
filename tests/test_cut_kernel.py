"""The stacked cut kernel of ``RelaxedRegion`` against a per-cut reference.

The reference below is the plain loop over ``Cut`` objects that the kernel
replaced: one masked norm per cut, ``>= radius`` for a satisfied point and
``< radius`` (at the farthest box point) for an excluded box.  The kernel
must agree with it exactly, boundary points included, because the trace
CSV bytes depend on every such comparison.

The branch and bound tests the points it harvests from a box only against
the cuts that touch the box (``box_relations``, ``touching_membership``).  The
last tests check, on points built by the branch and bound's own code, that
this gives exactly the dense kernel's answer, and that the descendants of
a box that one kernel pass measures, several tree levels deep, given only
the cuts that touch that box, get exactly the answers of a box pass over
every cut.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lipcut.core import (
    _CHUNK_ELEMENTS,
    BoxDomain,
    Cut,
    NormKind,
    RelaxedRegion,
    region_membership,
)
from lipcut.oracle import _BOX_MIN_WIDTH, OracleConfig, _Search


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
        assert np.array_equal(box_excluded(r, los, his), ref_excluded_mask(r, los, his))


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
    dead = box_excluded(region, los, his)
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
        assert np.array_equal(box_excluded(r, los, points), ref_excluded_mask(r, los, points))


# -- the box pass and the touching-cut test of the branch and bound --------


def every_cut(region, count):
    """The all-true (K, count) candidate mask: every cut for every box."""
    return np.ones((region.stacked_cuts, count), dtype=bool)


def box_excluded(region, los, his):
    """``box_relations``'s ``excluded`` over every cut: the boxes lying
    strictly inside some exclusion ball."""
    return region.box_relations(los, his, los, every_cut(region, len(los)))[0]


def harvested(region, los, his):
    """The lattice hulls of the boxes [los, his] (ceil/floor on integral
    columns) without the empty ones, their snapped centers, and the
    (boxes, slots, n) points the branch and bound draws from them, built by
    its own code: the snapped center, the corners and the Halton samples
    of every box."""
    s = _Search(None, region, OracleConfig(), NormKind.Two)
    integral = region.domain.integral
    los, his = np.where(integral, np.ceil(los), los), np.where(integral, np.floor(his), his)
    nonempty = (los <= his).all(axis=1)
    los, his = los[nonempty], his[nonempty]
    snapped = s.snap(0.5 * (los + his))
    slots = (snapped[:, None], s.spread(s.corner_pattern, los, his), s.spread(s.samples, los, his))
    return los, his, snapped, np.concatenate(slots, axis=1)


def dense_membership(region, points):
    """``membership_mask`` of the (boxes, slots, n) points, as (boxes, slots)."""
    return region.membership_mask(points.reshape(-1, region.domain.dimension)).reshape(points.shape[:2])


def magnitudes():
    """Floats of mixed sign over many binades, so that box corners land
    within a few ulps of their bounds."""
    return st.builds(
        lambda sign, m, e: sign * m * 2.0 ** e,
        st.sampled_from((-1.0, 1.0)), st.floats(1.0, 2.0), st.integers(-60, 8),
    )


@st.composite
def sub_boxes(draw):
    """A 1-3 dim domain with bounds of mixed sign and magnitude and some
    integral coordinates, and sub-boxes of it (some degenerate, some
    sharing its faces), as lattice hulls."""
    n = draw(st.integers(1, 3))
    integral = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    lower, upper = [], []
    for j in range(n):
        if integral[j]:
            lo = draw(st.integers(-4, 3))
            lower.append(float(lo))
            upper.append(float(lo + draw(st.integers(0, 4))))
        else:
            a, b = draw(magnitudes()), draw(magnitudes())
            lower.append(min(a, b))
            upper.append(max(a, b))
    box = BoxDomain(lower, upper, integral)
    count = draw(st.integers(1, 6))
    u = np.array(draw(st.lists(st.sampled_from((0.0, 0.25, 0.5, 0.999, 1.0)) | st.floats(0, 1),
                               min_size=2 * count * n, max_size=2 * count * n))).reshape(2, count, n)
    # lower + 1.0 * width can round past upper: clip into the domain
    los = np.minimum(box.lower + np.minimum(u[0], u[1]) * box.widths, box.upper)
    his = np.minimum(np.maximum(box.lower + np.maximum(u[0], u[1]) * box.widths, los), box.upper)
    los, his, *_ = harvested(RelaxedRegion(box), los, his)
    return box, los, his


def cuts_about(draw, box, points):
    """0-8 cuts of mixed norms and masks, centered at or near the points.
    Some radii are the distance from the center to one of the points, so
    that point lies on the ball's boundary in floating point."""
    n = box.dimension
    cuts = []
    for _ in range(draw(st.integers(0, 8))):
        norm = draw(st.sampled_from(list(NormKind)))
        mask = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=n, max_size=n).filter(any)))
        m = np.ones(n, dtype=bool) if mask is None else np.array(mask)
        anchor = points[draw(st.integers(0, len(points) - 1))] if len(points) else box.center
        offset = np.array(draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n))) * box.widths
        center = anchor + draw(st.sampled_from((0.0, 1e-15, 1e-3, 0.3))) * offset
        if len(points) and draw(st.booleans()):
            p = points[draw(st.integers(0, len(points) - 1))]
            radius = ref_norm(norm, (p - center)[m])
        else:
            radius = draw(st.floats(0.0, 1.0)) * max(float(box.widths.max()), 1e-12)
        cuts.append(Cut(center, radius, mask, norm))
    return tuple(cuts)


@st.composite
def box_cases(draw):
    """Sub-boxes of a domain (``sub_boxes``) and cuts about the points the
    branch and bound harvests from them."""
    box, los, his = draw(sub_boxes())
    points = harvested(RelaxedRegion(box), los, his)[3].reshape(-1, box.dimension)
    return RelaxedRegion(box, cuts_about(draw, box, points)), los, his


@settings(max_examples=300, deadline=None)
@given(case=box_cases())
def test_box_pass_and_touching_pairs_match_the_dense_kernel(case):
    region, los, his = case
    los, his, snapped, points = harvested(region, los, his)
    excluded, touching, mid_violated = region.box_relations(los, his, snapped, every_cut(region, len(los)))
    assert np.array_equal(excluded, box_excluded(region, los, his))
    assert np.array_equal(excluded, ref_excluded_mask(region, los, his))
    live = ~excluded
    dense = dense_membership(region, points)
    assert np.array_equal(dense.ravel(), ref_membership_mask(region, points.reshape(-1, region.domain.dimension)))
    assert np.array_equal(region.touching_membership(points, touching)[live], dense[live])
    # snapped centers (slot 0) lie in the domain: the box pass decides them alone
    assert np.array_equal(~mid_violated[live], dense[live, 0])


def test_overshooting_corner_stays_rejected():
    # The corner lo + 1.0 * (hi - lo) of [-1, 1.5 * 2^-53] is 2^-52 > hi.
    # It lies inside the ball, but the unwidened box does not reach the
    # ball (its nearest point hi is 1.33e-16 from the center); the margin
    # makes the cut touch the box, so the corner is still tested.
    hi = 1.5 * 2.0 ** -53
    region = RelaxedRegion(BoxDomain((-1.0,), (1.0,)), (Cut((3e-16,), 1e-16),))
    los, his, snapped, points = harvested(region, np.array([[-1.0]]), np.array([[hi]]))
    corner = points[0, 2]  # slot 0 is the center, slots 1 and 2 the corners
    assert corner[0] == 2.0 ** -52 > hi
    excluded, touching, _ = region.box_relations(los, his, snapped, every_cut(region, len(los)))
    assert not excluded[0] and touching[0, 0]
    ok = region.touching_membership(points, touching)
    assert not region.membership_mask(corner[None])[0] and not ok[0, 2]
    assert np.array_equal(ok, dense_membership(region, points))


# -- inherited candidate cuts -------------------------------------------------


def descendants(region, los, his, touching):
    """What one kernel pass of the branch and bound measures below the
    splittable boxes [los, his] (its own ``descend``): their children and
    the tree levels below those, with their snapped centers, and the
    (K, descendants) candidate mask each gets, the column of the
    (K, boxes) ``touching`` of its ancestor among the boxes."""
    s = _Search(None, region, OracleConfig(), NormKind.Two)
    made = []
    s.measure = lambda *batch: made.append(batch)
    can = (his - los >= _BOX_MIN_WIDTH).any(axis=1)
    if not can.any():
        return los[:0], his[:0], los[:0], touching[:, :0]
    s.descend(los[can], his[can], touching.T[can])
    dlos, dhis, candidates, _ = made[0]
    return dlos, dhis, s.snap(0.5 * (dlos + dhis)), candidates


@st.composite
def inheritance_cases(draw):
    """Parent boxes (``sub_boxes``) and cuts about the points the branch
    and bound harvests from the parents and from their descendants."""
    box, los, his = draw(sub_boxes())
    bare = RelaxedRegion(box)
    dlos, dhis, *_ = descendants(bare, los, his, every_cut(bare, len(los)))
    points = np.vstack([harvested(bare, lo, hi)[3].reshape(-1, box.dimension)
                        for lo, hi in ((los, his), (dlos, dhis))])
    return RelaxedRegion(box, cuts_about(draw, box, points)), los, his


# The upper child [-0.4999999999999998, 3*2^-53] of this parent has the
# corner 7*2^-54 past its upper bound.  The ball of radius 2^-54 about
# that corner holds it and reaches the child only through the margin.
OVERSHOOTING_CHILD = (
    RelaxedRegion(BoxDomain((-1.0,), (1.0,)), (Cut((7 * 2.0 ** -54,), 2.0 ** -54),)),
    np.array([[-1.0]]),
    np.array([[3 * 2.0 ** -53]]),
)


@settings(max_examples=300, deadline=None)
@given(case=inheritance_cases())
@example(case=OVERSHOOTING_CHILD)
def test_children_tested_against_their_parents_touching_cuts_match_every_cut(case):
    region, los, his = case
    los, his, snapped, *_ = harvested(region, los, his)
    touching = region.box_relations(los, his, snapped, every_cut(region, len(los)))[1]
    dlos, dhis, dsnapped, candidates = descendants(region, los, his, touching)
    inherited = region.box_relations(dlos, dhis, dsnapped, candidates)
    full = region.box_relations(dlos, dhis, dsnapped, every_cut(region, len(dlos)))
    for mine, every in zip(inherited, full):  # excluded, touching, mid_violated
        assert np.array_equal(mine, every)
    # and what the branch and bound then harvests from the live descendants
    # gets the dense kernel's answer
    points = harvested(region, dlos, dhis)[3]
    live = ~inherited[0]
    ok = region.touching_membership(points, inherited[1])
    assert np.array_equal(ok[live], dense_membership(region, points)[live])
