"""The exact envelopes on integers against the ``Fraction`` arithmetic they
replaced.

``lower_envelope`` finds the hull and the labels of exact points on their
integer numerators over one common denominator per axis, and
``alpha_envelope`` rates the grouping baseline on integers over
``L**K * lcm_t C(K, t)``.  The oracle below is the envelope as it was
computed in ``Fraction``s: the monotone chain on the points' own (M, rate)
pairs, each distinct M's level read by bisection and interpolation, and a
point on the curve iff its rate equals that level.  Both must give the same
vertices, to the type of each M and rate, and the same labels.
"""

import bisect
import operator
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from codedcache import (
    ABOVE,
    BOUNDARY,
    VERTEX,
    RatePoint,
    alpha_envelope,
    alpha_points,
    lower_envelope,
)
from codedcache.rates import _exact_envelope


def _cross(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _interpolate(vertices, m):
    i = bisect.bisect_left(vertices, m, key=operator.itemgetter(0))
    if i == 0:
        return vertices[0][1]
    (x0, y0), (x1, y1) = vertices[i - 1], vertices[i]
    return y0 + (y1 - y0) * (m - x0) / (x1 - x0)


def _fraction_envelope(points):
    """The vertices and labels of the lower envelope of exact `points`, all
    in ``Fraction`` arithmetic: the exact branch of ``lower_envelope`` as it
    was, with its hull and its bisection lookup."""
    best = {}
    for pt in points:
        cur = best.get(pt.m)
        if cur is None or pt.rate < cur[1]:
            best[pt.m] = (pt.m, pt.rate)
    hull = []
    for node in sorted(best.values()):
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], node) <= 0:
            hull.pop()
        hull.append(node)
    levels = {m: _interpolate(hull, Fraction(m)) for m in best}
    labels = []
    vertex_set = set(hull)
    for pt in points:
        on_curve = pt.rate == levels[pt.m]
        if on_curve and (pt.m, pt.rate) in vertex_set:
            labels.append(VERTEX)
        else:
            labels.append(BOUNDARY if on_curve else ABOVE)
    return tuple(hull), tuple(labels)


def _typed(vertices):
    return [(type(m), m, type(r), r) for m, r in vertices]


_ms = st.one_of(
    st.integers(0, 12),
    st.builds(Fraction, st.integers(0, 36), st.sampled_from([1, 2, 3, 4, 6])),
)
_rates = st.builds(Fraction, st.integers(0, 60), st.integers(1, 12))


@st.composite
def _exact_points(draw):
    """Exact points with int or Fraction Ms, repeated Ms (int and Fraction
    of one value among them), repeated points and collinear runs."""
    pts = [RatePoint(m, r, "x") for m, r in draw(st.lists(st.tuples(_ms, _rates), max_size=12))]
    for _ in range(draw(st.integers(0, 3))):
        start, rate = draw(_ms), draw(_rates) + 6
        step, slope = draw(st.sampled_from([1, Fraction(1, 2), 2])), draw(_rates) / 3
        for k in range(draw(st.integers(2, 5))):
            m = start + k * step
            if draw(st.booleans()):
                m = int(m) if m.denominator == 1 else m
            pts.append(RatePoint(m, rate - k * slope * step, "run"))
    if pts and draw(st.booleans()):
        pts.append(draw(st.sampled_from(pts)))
    if not pts:
        pts.append(RatePoint(draw(_ms), draw(_rates), "x"))
    return draw(st.permutations(pts))


@settings(max_examples=400, deadline=None)
@given(_exact_points())
@example([RatePoint(1, Fraction(1), "a"), RatePoint(Fraction(1), Fraction(1), "b")])
@example([RatePoint(Fraction(1), Fraction(2), "a"), RatePoint(1, Fraction(1), "b")])
@example([RatePoint(0, Fraction(2), "a"), RatePoint(1, Fraction(1), "b"), RatePoint(2, Fraction(0), "c")])
def test_lower_envelope_on_integers_equals_the_fraction_envelope(points):
    env = lower_envelope(points)
    vertices, labels = _fraction_envelope(points)
    assert _typed(env.vertices) == _typed(vertices)
    assert env.labels == labels
    for pt in points:
        assert env.value(pt.m) == _interpolate(vertices, Fraction(pt.m))


def test_exact_envelope_reads_any_positive_scale_per_axis():
    # the keys may scale each axis by its own positive factor
    pts = [
        RatePoint(Fraction(0), Fraction(2), "a"),
        RatePoint(Fraction(1, 2), Fraction(7, 4), "above"),
        RatePoint(Fraction(1), Fraction(3, 4), "b"),
        RatePoint(Fraction(3, 2), Fraction(3, 8), "boundary"),
        RatePoint(Fraction(2), Fraction(0), "c"),
    ]
    for a, b in ((2, 8), (6, 40), (10, 16)):
        keys = [(int(pt.m * a), int(pt.rate * b)) for pt in pts]
        env = _exact_envelope(tuple(pts), keys)
        assert env.labels == (VERTEX, ABOVE, VERTEX, BOUNDARY, VERTEX)
        assert env.vertices == ((0, 2), (1, Fraction(3, 4)), (2, 0))


@st.composite
def _exact_popularities(draw):
    """1-4 files, zero entries included, each with its own denominator."""
    shares = st.builds(Fraction, st.integers(0, 9), st.integers(1, 12))
    raw = draw(st.lists(shares, min_size=1, max_size=4))
    if not any(raw):
        raw[0] = Fraction(1)
    return [w / sum(raw) for w in raw]


@settings(max_examples=60, deadline=None)
@given(users=st.integers(1, 8), popularity=_exact_popularities())
@example(users=8, popularity=[Fraction(2, 5), Fraction(3, 10), Fraction(1, 5), Fraction(1, 10)])
def test_alpha_envelope_on_integers_equals_the_fraction_envelope_of_every_point(users, popularity):
    got = alpha_envelope(users, popularity)
    vertices, _ = _fraction_envelope(alpha_points(users, popularity))
    assert _typed(got.vertices) == _typed(vertices)
    # the candidates' labels, found on alpha_envelope's own integer keys,
    # are the Fraction labels of the candidates
    assert got.labels == _fraction_envelope(got.points)[1]
    assert all(type(pt.m) is Fraction and type(pt.rate) is Fraction for pt in got.points)
