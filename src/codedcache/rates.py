"""Expected delivery rates, closed-form curves, and the memory-rate region.

Expectations are taken over i.i.d. user requests: ``R = sum_d P(d) R(d)``
with ``P(d)`` the product of per-file request probabilities.  The
expectation of a rate function, a scheduler's or the chain bound's, is a
sum over one demand law: the ``C(N+K-1, K)`` demand multisets, at most
``ENUMERATION_LIMIT`` of them, each weighed by its probability times its
number of request vectors.  The law depends on the popularity alone, so a
sweep builds it once, and each distinct sub-problem of its placements is
rated once, at a sorted representative.  Monte Carlo draws demands and
rates them through the same memo.  The grouping baseline serves every
group alone, so by linearity of expectation its rate is a sum over groups
and cache levels.  Its closed kernel takes each term over the law of the
number of distinct files of the group that are requested; with a
scheduler, each term is the expectation of the group's own placement plus
one fully cached file that stands for every file outside the group.  The
baseline's memory-rate envelope is built from the groups' own lower
hulls, since a grouping's points are the Minkowski sum of its groups'
points; no sweep lists every (M, R) point.  An envelope is read at a
cache size by bisection on its vertices.  No numerical solver is used:
the K = 3 comparison's crossings are closed-form roots.

A popularity is exact or float as a whole: an entry written as a string,
int or ``Fraction`` is read exactly, a float as it is, and one float
entry makes every entry a float (``placement._normalize_popularity``, the
one place that decides).  An exact popularity gives exact ``Fraction``
expectations; floats appear only for float popularities and plotting
grids.  Every kernel reads the normalized popularity through
:func:`_on_one_denominator`: integer weights over L, the lcm of its
denominators, for an exact popularity, the floats themselves otherwise.
So the exact analytic path runs on integers: the demand law's
coefficients are integers over ``L**K``, the baseline's level rates
integers over ``L**K * lcm_t C(K, t)``, and its candidates' M integers
over K.  Hulls, rate sums and the envelope's labels are integer
operations, and a ``Fraction`` is made only where one is returned: once
per law coefficient, level rate or candidate (M, rate) pair, and for the
hull slopes that order the baseline's walk.  Float popularities run the
same code with the floats themselves, so their bits do not depend on
this.
"""

from __future__ import annotations

import bisect
import csv
import heapq
import itertools
import math
import operator
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, Sequence

from .combinatorics import _require_int
from .delivery import Scheduler, exhaustive_rate
from .delivery import exhaustive_schedule  # noqa: F401  bench/tests/test_bench.py reads this binding
from .errors import LimitExceededError, ValidationError
from .placement import (
    PlacementConfig,
    _normalize_popularity,
    _parse_number,
    make_config,
    place,
)

Number = Fraction | float

ENUMERATION_LIMIT = 10**6
# most (M, R) points alpha_points lists, and alpha_envelope's candidate bound
_MAX_POINTS = 20_000


# ---------------------------------------------------------------------------
# Expectation over request vectors
# ---------------------------------------------------------------------------


def _demand_law(popularity: Sequence[Number], users: int) -> list:
    """The ``(rep, weight * P(rep))`` pairs, in multiset order, of the
    demands of `users` users over ``len(popularity)`` files that have
    nonzero probability: ``rep`` a sorted representative and ``weight`` the
    number of request vectors that sort to it.  `popularity` is
    normalized; each coefficient is built from its integer weights over L
    (:func:`_on_one_denominator`) and made one ``Fraction`` over ``L**K``,
    or from the floats themselves.  Raises :class:`LimitExceededError`
    when the ``C(N+K-1, K)`` multisets exceed ``ENUMERATION_LIMIT``."""
    files = len(popularity)
    count = comb(files + users - 1, users)
    if count > ENUMERATION_LIMIT:
        raise LimitExceededError(
            f"{count} demand multisets exceed the limit {ENUMERATION_LIMIT}; "
            "use expected_rate_mc instead"
        )
    weights, scale = _on_one_denominator(popularity)
    whole = None if scale is None else scale**users
    law = []
    for rep in itertools.combinations_with_replacement(range(1, files + 1), users):
        vectors = math.factorial(users)
        prob = 1
        for f, c in Counter(rep).items():
            vectors //= math.factorial(c)
            prob *= weights[f - 1] ** c
        if prob:
            law.append((rep, vectors * prob if whole is None else Fraction(vectors * prob, whole)))
    return law


def _memo_rate(cache, rate_of: Callable, memo: dict) -> Callable:
    """The rate of ``rate_of(cache, rep)`` on a sorted representative of
    `cache`'s demands, looked up in, and added to, `memo`: the one rate
    reader of :func:`_scheduled_expectation` and :func:`expected_rate_mc`.
    `rate_of` is a scheduler or a rate function such as ``exhaustive_rate``
    or ``chain_bound``: a returned ``Fraction`` is the rate, anything else
    is a schedule and gives its ``.rate``.

    A representative's key is, in user order, each user's requested file
    as its holder-mask row and its position among the distinct requested
    files in ascending order.  Files with equal rows have equal piece
    counts.  The sub-problem contract: `rate_of` reads only the requested
    files' rows, in file order, and which users share a file, so equal
    keys have equal rates, across placements of one user count too; a
    memo serves one rate function.  Every scheduler of ``SCHEDULERS``
    meets it, and so do ``exhaustive_rate``, whose rate is the exhaustive
    scheduler's, and ``chain_bound``, which reads only the requested
    files' masks and which users share a file.
    """

    def rate(rep: tuple[int, ...]) -> Fraction:
        position = {f: j for j, f in enumerate(sorted(set(rep)))}
        key = tuple((cache.masks[f - 1], position[f]) for f in rep)
        if key not in memo:
            out = rate_of(cache, rep)
            memo[key] = out if isinstance(out, Fraction) else out.rate
        return memo[key]

    return rate


def _scheduled_expectation(cfg: PlacementConfig, rate_of: Callable, memo: dict, law: list):
    """The expectation of `rate_of` on the placement of `cfg` over `law`,
    the :func:`_demand_law` of ``cfg.popularity``, with sub-problem rates
    shared through `memo` (see :func:`_memo_rate`).  The terms are added in
    law order by a loop: ``sum`` compensates float sums from Python 3.12 on."""
    rate = _memo_rate(place(cfg), rate_of, memo)
    total = 0
    for rep, coefficient in law:
        total += coefficient * rate(rep)
    return total


def expected_rate_exact(cfg: PlacementConfig, scheduler: Scheduler):
    """Exact expected rate of `scheduler`, a scheduler or a rate function
    (see :func:`_memo_rate`), on the placement of `cfg`.

    Demand vectors are grouped by multiset, and each multiset is rated at
    its sorted representative.  So the result is the expected rate of
    scheduling the sorted demand and relabeling the users back, which
    both placements allow.  That is the scheduler's own expectation only
    if relabeling the users never changes its rate.  The exhaustive
    scheduler's rate on ``beta`` placements never changes: every piece has
    one size, so the rate is a minimum message count.  The greedy
    scheduler's can: at K = 5, r = (3, 2) the demand (1, 2, 1, 2, 2) costs
    9/10 and (2, 1, 2, 2, 1) costs 14/15.  Each distinct sub-problem is
    scheduled once, under the contract stated at :func:`_memo_rate`.
    The call builds its own demand law (:func:`_demand_law`); the sweeps,
    :func:`beta_points` and the scheduler path of
    :func:`alpha_expected_rate`, build one per popularity and share it
    across their placements.
    Exact rational popularity gives an exact rational result.  Raises
    :class:`LimitExceededError`, before anything is placed, when the
    ``C(N+K-1, K)`` multisets exceed ``ENUMERATION_LIMIT``.
    """
    law = _demand_law(cfg.popularity, cfg.users)
    return _scheduled_expectation(cfg, scheduler, {}, law)


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo estimate with its standard error."""

    value: float
    stderr: float
    samples: int


def expected_rate_mc(
    cfg: PlacementConfig, scheduler: Scheduler, samples: int, seed: int
) -> MCEstimate:
    """Unbiased Monte Carlo estimate of the expected rate.

    Deterministic for a fixed seed: ``random.Random(seed)`` draws every
    user's request.  `scheduler` is a scheduler or a rate function (see
    :func:`_memo_rate`).  Each draw is sorted and rated through the memoised
    rate that :func:`_scheduled_expectation` uses, so every distinct
    sub-problem is scheduled once; as for :func:`expected_rate_exact`, this estimates
    the expected rate of scheduling each sorted demand, which differs from
    the scheduler's own when its rate depends on user labels.
    """
    _require_int("samples", samples, 1)
    _require_int("seed", seed, 0)
    k = cfg.users
    weights = [float(p) for p in cfg.popularity]
    draws = random.Random(seed).choices(range(1, cfg.num_files + 1), weights, k=samples * k)
    counts = Counter(tuple(sorted(draws[i : i + k])) for i in range(0, len(draws), k))
    rate = _memo_rate(place(cfg), scheduler, {})
    rates = {rep: float(rate(rep)) for rep in counts}
    mean = sum(c * rates[rep] for rep, c in counts.items()) / samples
    if samples > 1:
        var = sum(c * (rates[rep] - mean) ** 2 for rep, c in counts.items()) / (samples - 1)
        stderr = math.sqrt(var / samples)
    else:
        stderr = 0.0
    return MCEstimate(value=mean, stderr=stderr, samples=samples)


# ---------------------------------------------------------------------------
# Closed forms for the 3-user / 2-file setup at cache size 1
# ---------------------------------------------------------------------------


def _as_p(p) -> Number:
    p = _parse_number(p, "probability")
    # doubling is exact for a float, so a float is checked without the two
    # float-to-Fraction builds of a comparison with Fraction(1, 2)
    if not (2 * p >= 1 and p <= 1):
        raise ValidationError(
            f"probability of the popular file must be in [1/2, 1], got {p}; "
            "mirror the distribution first if needed"
        )
    return p


def _const(p: Number, num: int, den: int) -> Number:
    # a parsed p is a Fraction or a float: the type test skips Fraction's ABC check
    return num / den if type(p) is float else Fraction(num, den)


def _shared_chains(p: Number) -> Number:  # beta r = (2, 1)
    return _const(p, 2, 3) - p**3 / 3


def _popular_only(p: Number) -> Number:  # beta r = (3, 0), also alpha's two groups
    return 1 - p**3


def _one_group(p: Number) -> Number:  # alpha's one memory-shared group
    q = 1 - p
    return _const(p, 2, 3) - (p**3 + q**3) / 6


def _beta_at(p: Number) -> Number:
    return min(_shared_chains(p), _popular_only(p))


def _alpha_at(p: Number) -> Number:
    return min(_one_group(p), _popular_only(p))


def rate_beta_closed(p) -> Number:
    """Expected rate of the cross-group strategy at cache size 1:
    min of the (2, 1) and (3, 0) placements."""
    return _beta_at(_as_p(p))


def rate_alpha_closed(p) -> Number:
    """Expected rate of the grouping baseline at cache size 1:
    min of the one-group (memory-shared) and two-group placements."""
    return _alpha_at(_as_p(p))


# ---------------------------------------------------------------------------
# Achievable (M, R) points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatePoint:
    """An achievable cache-size / expected-rate pair with its provenance."""

    m: Fraction
    rate: Number
    label: str
    params: tuple[int, ...] | None = None


def memory_rate_table(p) -> tuple[RatePoint, ...]:
    """The nine documented (M, R) pairs of the cross-group strategy for the
    3-user / 2-file setup, one per replication pair."""
    p = _as_p(p)
    q = 1 - p
    rows: list[tuple[tuple[int, int], Number]] = [
        ((0, 0), 2 - p**3 - q**3),
        ((1, 0), _const(p, 5, 3) - p**3 - _const(p, 2, 3) * q**3),
        ((1, 1), 1 - p**3 / 3 - q**3 / 3),
        ((2, 1), _shared_chains(p)),
        ((3, 0), _popular_only(p)),
        ((2, 2), _const(p, 1, 3)),
        ((3, 1), _const(p, 2, 3) - _const(p, 2, 3) * p**3),
        ((3, 2), _const(p, 1, 3) - _const(p, 1, 3) * p**3),
        ((3, 3), _const(p, 0, 1)),
    ]
    return tuple(
        RatePoint(
            m=Fraction(r1 + r2, 3),
            rate=rate,
            label=f"beta r=({r1},{r2})",
            params=(r1, r2),
        )
        for (r1, r2), rate in rows
    )


# ---------------------------------------------------------------------------
# Lower convex envelope
# ---------------------------------------------------------------------------

VERTEX = "vertex"
BOUNDARY = "boundary"
ABOVE = "above"

_FLOAT_TOL = 1e-12


def _cross(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _lower_hull(nodes, collinear: bool, tol=0) -> list:
    """The lower convex hull of `nodes`, given in strictly increasing x, by
    the monotone chain.  A node collinear with its neighbours stays on the
    hull iff `collinear`; otherwise a node stays only where it lies more
    than `tol` below the chord of its neighbours, the rule by which
    :func:`lower_envelope` puts a float point on the curve."""
    hull: list = []
    for node in nodes:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # b's height below the chord from a to node, times its width
            turn = _cross(a, b, node)
            if turn > tol * (node[0] - a[0]) or collinear and turn == 0:
                break
            hull.pop()
        hull.append(node)
    return hull


def _interpolate(vertices: Sequence[tuple[Fraction, Number]], m: Number) -> Number:
    """The rate at `m` of the piecewise linear curve through `vertices`, in
    strictly increasing M, on the segment that ends at the first vertex at
    or beyond `m` (found by bisection); the first vertex gives its rate."""
    i = bisect.bisect_left(vertices, m, key=operator.itemgetter(0))
    if i == 0:
        return vertices[0][1]
    (x0, y0), (x1, y1) = vertices[i - 1], vertices[i]
    return y0 + (y1 - y0) * (m - x0) / (x1 - x0)


@dataclass(frozen=True)
class Envelope:
    """Lower convex envelope of achievable points over cache size."""

    points: tuple[RatePoint, ...]
    vertices: tuple[tuple[Fraction, Number], ...]
    labels: tuple[str, ...]

    def value(self, m) -> Number:
        """The envelope's rate at cache size `m`, read like any other number
        of the package: a string, int or Fraction exactly, a finite float as
        it is; anything else raises :class:`ValidationError`, as does an `m`
        outside the vertices' range.  See :func:`_interpolate`."""
        m = _parse_number(m, "cache size")
        lo, hi = self.vertices[0][0], self.vertices[-1][0]
        if not lo <= m <= hi:
            raise ValidationError(f"cache size {m} outside envelope domain [{lo}, {hi}]")
        return _interpolate(self.vertices, m)


def _exact_envelope(pts: tuple[RatePoint, ...], keys: Sequence[tuple[int, int]]) -> Envelope:
    """The :func:`lower_envelope` of exact points `pts`, given ``keys[i]``,
    point i's (M, rate) as two integers: ``(M * a, rate * b)`` for one
    positive a and one positive b shared by every point.  Scaling an axis
    keeps the hull and every turn's sign, so the hull is found on the keys
    and its vertices are the winning points' own ``(m, rate)``.  A point
    not at a vertex is on the `boundary` iff it lies on the hull segment
    that ends at the first vertex at or beyond its M, by one cross-multiplied
    integer test; no ``Fraction`` is made."""
    best: dict[int, int] = {}
    for i, (x, y) in enumerate(keys):
        j = best.get(x)
        if j is None or y < keys[j][1]:
            best[x] = i
    hull = _lower_hull(sorted((*keys[i], i) for i in best.values()), collinear=False)
    xs = [x for x, _, _ in hull]
    corners = {(x, y) for x, y, _ in hull}
    labels = []
    for x, y in keys:
        k = bisect.bisect_left(xs, x)
        if (x, y) in corners:
            labels.append(VERTEX)
        elif k and _cross(hull[k - 1], hull[k], (x, y)) == 0:
            labels.append(BOUNDARY)
        else:
            labels.append(ABOVE)
    vertices = tuple((pts[i].m, pts[i].rate) for _, _, i in hull)
    return Envelope(points=pts, vertices=vertices, labels=tuple(labels))


def lower_envelope(points: Sequence[RatePoint]) -> Envelope:
    """Lower convex envelope over M; classifies every input point as a
    `vertex`, on the `boundary` (collinear, non-vertex), or `above`, against
    the rate :meth:`Envelope.value` gives at its M.

    When every M is an int or ``Fraction`` and every rate a ``Fraction``,
    each axis is put on one common denominator, the lcm of its
    denominators, and the hull and the labels are found on those integer
    numerators (:func:`_exact_envelope`); the vertices are the input's own
    ``(m, rate)`` pairs, and no ``Fraction`` is made.  Float or mixed input
    takes each distinct M's level from the hull once, and one rule serves
    the hull and the labels: a point is on the curve within ``_FLOAT_TOL``
    of its rate, so a hull vertex lies more than ``_FLOAT_TOL`` below the
    chord of its neighbours, and a turn of rounding size leaves a
    collinear point on the `boundary`."""
    pts = tuple(points)
    if not pts:
        raise ValidationError("at least one point is required")
    if all(type(pt.m) in (int, Fraction) and type(pt.rate) is Fraction for pt in pts):
        xs, _ = _on_one_denominator([pt.m for pt in pts])
        ys, _ = _on_one_denominator([pt.rate for pt in pts])
        return _exact_envelope(pts, list(zip(xs, ys)))
    best: dict[Fraction, tuple[Fraction, Number]] = {}
    for pt in pts:
        cur = best.get(pt.m)
        if cur is None or pt.rate < cur[1]:
            best[pt.m] = (pt.m, pt.rate)
    hull = _lower_hull(sorted(best.values()), collinear=False, tol=_FLOAT_TOL)
    levels = {m: _interpolate(hull, _parse_number(m, "cache size")) for m in best}
    labels = []
    vertex_set = set(hull)
    for pt in pts:
        level = levels[pt.m]
        exact = isinstance(pt.rate, Fraction) and isinstance(level, Fraction)
        on_curve = (pt.rate == level) if exact else bool(
            abs(float(pt.rate) - float(level)) <= _FLOAT_TOL
        )
        if on_curve and (pt.m, pt.rate) in vertex_set:
            labels.append(VERTEX)
        elif on_curve:
            labels.append(BOUNDARY)
        else:
            labels.append(ABOVE)
    return Envelope(points=pts, vertices=tuple(hull), labels=tuple(labels))


# ---------------------------------------------------------------------------
# Grouping baseline machinery
# ---------------------------------------------------------------------------


def classic_rate(users: int, t: int, distinct: int) -> Fraction:
    """Expected-rate kernel of the classic single-group scheme: delivery
    cost for `distinct` distinct requested files at integer cache level
    `t`, counting only the non-redundant XOR rounds."""
    _require_int("user count", users, 1)
    _require_int("cache level", t)
    _require_int("distinct file count", distinct)
    if not 0 <= t <= users:
        raise ValidationError(f"cache level {t} outside [0, {users}]")
    if not 0 <= distinct <= users:
        raise ValidationError(f"distinct file count {distinct} outside [0, {users}]")
    if distinct == 0:
        return Fraction(0)
    return Fraction(comb(users, t + 1) - comb(users - distinct, t + 1), comb(users, t))


def memory_share(users: int, size: int, memory) -> tuple[tuple[Fraction, int], ...]:
    """Decompose a per-group cache size into one or two integer levels.

    Returns ``((weight, t), ...)`` where each level-``t`` placement is
    applied to a positive `weight` fraction of every file in the group.
    """
    _require_int("user count", users, 1)
    _require_int("group size", size, 1)
    memory = Fraction(_parse_number(memory, "group memory"))
    t = Fraction(users) * memory / size
    if not 0 <= t <= users:
        raise ValidationError(f"group memory {memory} needs cache level {t} outside [0, {users}]")
    lo = t.numerator // t.denominator
    if lo == t:
        return ((Fraction(1), int(lo)),)
    hi = lo + 1
    w_hi = t - lo
    return ((1 - w_hi, int(lo)), (w_hi, int(hi)))


def _on_one_denominator(values: Sequence) -> tuple[tuple, int | None]:
    """Exact `values`, ints and ``Fraction``s, as integer numerators over
    one common denominator L, the lcm of their denominators, and L; any
    other values as they are, and None.  An exact popularity becomes
    integer weights over L, and a float popularity stays its floats."""
    if all(isinstance(v, (int, Fraction)) for v in values):
        scale = math.lcm(*(v.denominator for v in values))
        return tuple(v.numerator * (scale // v.denominator) for v in values), scale
    return tuple(values), None


@lru_cache(maxsize=None)
def _binomial_row(n: int) -> tuple[int, ...]:
    """``C(n, c)`` for ``c = 0..n``, made once per process and n."""
    return tuple(comb(n, c) for c in range(n + 1))


def _distinct_law(users: int, weights: tuple, rest) -> list:
    """Law of the number of distinct files of one group that `users`
    i.i.d. users request, from the group's files' `weights` and the files
    outside's `rest`: integer weights over their total L
    (:func:`_on_one_denominator`) give entry d as the integer
    ``P(D = d) * L**users``, and float popularities give P(D = d) itself,
    for d = 0..users.

    A dynamic program over the group's files.  ``ways[j][d]`` weighs the
    ways for j of the users to request d distinct files among the files
    seen so far; file f takes c of the other ``users - j`` users with
    weight ``C(users - j, c) * p_f**c``, with each power taken once per
    file and each binomial row ``C(users - j, .)`` read from
    :func:`_binomial_row`.  The users left over request a file outside the
    group, each with weight `rest`.  On integer weights ``ways[j][d]`` is
    an integer over ``L**j``, and no gcd is taken.
    """
    ways = [[0] * (users + 1) for _ in range(users + 1)]
    ways[0][0] = 1
    for p in weights:
        powers = [p**c for c in range(users + 1)]
        nxt = [row[:] for row in ways]
        for j in range(users):
            free = users - j
            row = _binomial_row(free)
            for d in range(j + 1):
                w = ways[j][d]
                if not w:
                    continue
                for c in range(1, free + 1):
                    nxt[j + c][d + 1] += w * row[c] * powers[c]
        ways = nxt
    law = [0] * (users + 1)
    for j in range(users + 1):
        stay = rest ** (users - j)
        for d in range(j + 1):
            law[d] += ways[j][d] * stay
    return law


def _binomial_lcm(users: int) -> int:
    """``lcm_t C(users, t)``: every :func:`classic_rate` at `users` users is
    an integer over it."""
    return math.lcm(*(comb(users, t) for t in range(users + 1)))


@lru_cache(maxsize=1024, typed=True)
def _level_sums(users: int, weights: tuple, rest) -> tuple:
    """Expected :func:`classic_rate` of one group at every cache level
    ``t = 0..users``, over the law of its distinct requested files, on the
    integers: `weights` are the group's files' and `rest` the files
    outside's integer weights over their total L, and entry t is the rate
    times ``L**users * _binomial_lcm(users)``, an integer.  Float
    popularities run the same sums with the rates themselves, each term
    ``w * classic_rate`` as a float.

    Only the counts of nonzero probability are rated, at most
    ``len(weights) + 1`` of the ``users + 1``.  ``typed=True`` keys the
    cache on the type of `rest`, an int or a float however the group's
    weights compare, so a float group never reuses an exact result.
    """
    law = [(d, w) for d, w in enumerate(_distinct_law(users, weights, rest)) if w]
    exact = isinstance(rest, int)
    unit = _binomial_lcm(users) if exact else None
    sums = []
    for t in range(users + 1):
        # classic_rate(users, t, d) is (C(K, t + 1) - C(K - d, t + 1)) / C(K, t)
        top, below = comb(users, t + 1), comb(users, t)
        gains = [(w, top - comb(users - d, t + 1)) for d, w in law]
        if exact:
            sums.append(sum(w * g for w, g in gains) * (unit // below))
        else:
            sums.append(sum(w * (g / below) for w, g in gains))
    return tuple(sums)


def _groups(sizes: Sequence[int], pop: tuple, zero):
    """``(size, group popularity, popularity outside)`` of every contiguous
    group of `pop`, in group order, with each total started at `zero`:
    `pop` is a normalized popularity, exact or as floats, or its integer
    weights (:func:`_on_one_denominator`)."""
    lo = 0
    for size in sizes:
        hi = lo + size
        # the other files' total, not 1 - q_g: a float popularity sums to 1
        # only within a tolerance, and this total keeps the result equal to
        # the sum over demands
        rest = sum(pop[:lo], zero) + sum(pop[hi:], zero)
        yield size, pop[lo:hi], rest
        lo = hi


def alpha_expected_rate(
    users: int,
    sizes: Sequence[int],
    memories: Sequence,
    popularity: Sequence,
    scheduler: Scheduler | None = None,
):
    """Expected rate of the grouping baseline for a given memory split.

    Every group is served alone: its cache level is memory-shared into at
    most two integer levels, each placed with the one-level scheme.  By
    linearity of expectation the rate is ``sum_g sum_(w, t) w * R_g(t)``,
    with ``R_g(t)`` the expected rate of group g alone at level t.
    Without `scheduler`, ``R_g(t) = E[classic_rate(K, t, D_g)]`` over the
    exact law of D_g, the number of the group's files that are requested
    (:func:`_distinct_law`): no demand is enumerated, ``N**K`` is not
    bounded, and each group's level rates are read from the kernel of
    :func:`alpha_envelope` (:func:`_alpha_levels`), which caches them
    across calls, and made one ``Fraction`` per term.  With
    `scheduler` set, a scheduler or a rate function (e.g. the exhaustive
    solver or its rate, see :func:`_memo_rate`), ``R_g(t)`` is
    :func:`expected_rate_exact` of the group's own ``alpha`` config: its
    files at ``r = t`` and, when the files outside it have popularity
    ``rest > 0``, one more file of popularity `rest` at ``r = K``.  Every
    user caches that file, so a user who draws it needs nothing.  One memo
    of sub-problem rates is shared by every group and level of the call,
    and each group's demand law (:func:`_demand_law`) is computed once
    and shared by its levels.
    The limit is checked per group: :class:`LimitExceededError` is raised,
    before that group is placed, when its ``C(N_g + K - 1, K)`` multisets
    exceed ``ENUMERATION_LIMIT`` (N_g is the group size, plus 1 if a file
    outside the group has nonzero popularity).
    """
    if len(sizes) != len(memories):
        raise ValidationError("sizes and memories must have the same length")
    # memory_share checks the user count and every group size
    shares = [memory_share(users, s, m) for s, m in zip(sizes, memories)]
    pop = _normalize_popularity(popularity)
    if sum(sizes) != len(pop):
        raise ValidationError("group sizes must cover every file exactly once")
    levels_of, zero, whole = _alpha_levels(users, pop)
    total = 0
    if scheduler is None:
        for share, sums in zip(shares, levels_of(sizes)):
            for w, t in share:
                total += w * (sums[t] if whole is None else Fraction(sums[t], whole))
        return total
    memo: dict = {}
    for (size, group_pop, rest), share in zip(_groups(sizes, pop, zero), shares):
        law = None  # the group's demand law, shared by its levels
        for w, t in share:
            if rest:
                cfg = make_config(users, [size, 1], [t, users], group_pop + (rest,), "alpha")
            else:
                cfg = make_config(users, [size], [t], group_pop, "alpha")
            if law is None:
                law = _demand_law(cfg.popularity, users)
            total += w * _scheduled_expectation(cfg, scheduler, memo, law)
    return total


def beta_points(
    users: int,
    sizes: Sequence[int],
    popularity: Sequence,
    scheduler: Callable = exhaustive_rate,
) -> tuple[RatePoint, ...]:
    """Achievable points of the cross-group strategy for one grouping:
    every valid non-increasing replication vector, rated by `scheduler`, a
    scheduler or rate function (see :func:`_memo_rate`); by default the
    exhaustive scheduler's rate, :func:`exhaustive_rate`.

    Each point is :func:`expected_rate_exact` of its placement, but the
    rates of the sub-problems are shared across the sweep: two vectors that
    agree on the groups a demand requests, r = (2, 2) and (2, 0) on a
    demand of group-1 files say, schedule it once, under the contract
    stated at :func:`_memo_rate`.  Only the placement changes along the
    sweep, so the demand law (:func:`_demand_law`) is computed once, before
    anything is placed, and every placement is rated against it.  Raises
    :class:`LimitExceededError`, before anything is placed, when the
    ``C(N+K-1, K)`` multisets exceed ``ENUMERATION_LIMIT``."""
    configs = [
        make_config(users, sizes, list(r), popularity, strategy="beta")
        for r in itertools.combinations_with_replacement(range(users, -1, -1), len(sizes))
    ]
    law = _demand_law(configs[0].popularity, users)
    memo: dict = {}
    out = []
    for cfg in configs:
        rate = _scheduled_expectation(cfg, scheduler, memo, law)
        r = cfg.r_vector
        out.append(RatePoint(cfg.memory, rate, label=f"beta r={r}", params=r))
    return tuple(out)


def _compositions(total: int):
    """Every ordered split of `total` into positive parts, in lexicographic order."""
    for first in range(1, total):
        for rest in _compositions(total - first):
            yield (first,) + rest
    yield (total,)


def _alpha_levels(users: int, pop: tuple) -> tuple[Callable, Number, int | None]:
    """The grouping baseline's kernel on one common denominator, for a
    normalized popularity, shared by :func:`alpha_points`,
    :func:`alpha_envelope` and :func:`alpha_expected_rate`: a function that
    gives, for a grouping, every group's :func:`_level_sums` over the
    popularity's integer weights (:func:`_on_one_denominator`); the zero
    they add from; and the denominator ``L**K * _binomial_lcm(K)`` they
    share, or None for a float popularity, whose level sums are the float
    rates."""
    weights, scale = _on_one_denominator(pop)
    zero = 0 if scale else 0.0

    def levels(comp: tuple) -> list[tuple]:
        return [_level_sums(users, gw, rest) for _, gw, rest in _groups(comp, weights, zero)]

    whole = scale**users * _binomial_lcm(users) if scale else None
    return levels, zero, whole


def _alpha_key(comp: tuple, levels: list, ts: tuple, zero) -> tuple[int, Number]:
    """The grouping baseline's point for groups `comp` at levels `ts` as
    ``(K * M, rate sum)``, the rate sum the sum of the groups'
    :func:`_level_sums` from `zero`."""
    x = sum(t * s for t, s in zip(ts, comp))
    return x, sum((rates[t] for rates, t in zip(levels, ts)), zero)


def _alpha_point(users: int, whole: int | None, comp: tuple, ts: tuple, key: tuple) -> RatePoint:
    """The :class:`RatePoint` of an :func:`_alpha_key`: M and an exact rate
    become one ``Fraction`` each here, over K and over `whole`."""
    x, y = key
    rate = y if whole is None else Fraction(y, whole)
    return RatePoint(Fraction(x, users), rate, label=f"alpha groups={comp} t={ts}", params=ts)


def alpha_points(users: int, popularity: Sequence) -> tuple[RatePoint, ...]:
    """Achievable points of the grouping baseline: every contiguous
    grouping of the file list with every integer cache level per group.

    A point's rate is what :func:`alpha_expected_rate` gives for the
    memories ``t_g * size_g / K``: the sum over groups of each group's
    expected rate at its level ``t_g``.  The sum over groupings of
    ``(K + 1)**G`` points grows fast; :func:`alpha_envelope` gives the
    envelope of these points without listing them."""
    _require_int("user count", users, 1)
    pop = _normalize_popularity(popularity)
    levels_of, zero, whole = _alpha_levels(users, pop)
    out = []
    for comp in _compositions(len(pop)):
        count = (users + 1) ** len(comp)
        if len(out) + count > _MAX_POINTS:
            raise LimitExceededError(f"grouping sweep exceeds {_MAX_POINTS} points")
        levels = levels_of(comp)
        for ts in itertools.product(range(users + 1), repeat=len(comp)):
            out.append(_alpha_point(users, whole, comp, ts, _alpha_key(comp, levels, ts, zero)))
    return tuple(out)


def _hull_steps(size: int, rates: Sequence) -> list[tuple[Number, int]]:
    """The edges of one group's lower hull over the points
    ``(t * size, rates[t])``, ``t = 0..K``, in hull order, each as its slope
    and the level it ends at.  Collinear levels stay on the hull: a level
    leaves it only at a strict turn.  Integer rates give exact ``Fraction``
    slopes, float rates float slopes."""
    hull = _lower_hull([(t * size, y) for t, y in enumerate(rates)], collinear=True)
    slope = operator.truediv if isinstance(rates[0], float) else Fraction
    return [(slope(y1 - y0, x1 - x0), x1 // size) for (x0, y0), (x1, y1) in zip(hull, hull[1:])]


def alpha_envelope(users: int, popularity: Sequence) -> Envelope:
    """The lower envelope of :func:`alpha_points`, from at most
    ``2**(N-1) + K (N+1) 2**(N-2)`` candidate points instead of every point.

    A grouping's rate is a sum of per-group terms, so its points form a
    Minkowski sum, and the lower hull of a Minkowski sum is the sum of the
    groups' lower hulls.  For each grouping the walk starts with every
    group at level 0 and takes the groups' hull edges in slope order, one
    group's edges in their own order (a global sort of float slopes can
    reorder one group's edges and skip a vertex); every level vector it
    visits is a candidate, rated as :func:`alpha_points` rates it.  The
    vertices equal those of ``lower_envelope(alpha_points(...))``; the
    returned ``points`` and ``labels`` are the candidates and their labels.

    An exact popularity is rated on the integers: every group's level
    rates are integers over one common denominator ``L**K * lcm_t C(K, t)``
    (:func:`_alpha_levels`), so the groups' hulls, the candidates' rate
    sums and the envelope's hull and labels (:func:`_exact_envelope`) take
    no gcd; only the hull slopes, which order the walk, are ``Fraction``s,
    and each candidate's M and rate become one ``Fraction`` each at the
    end.  A float popularity runs the same walk on the float rates.
    Raises :class:`LimitExceededError`, before any grouping is rated, when
    the candidate bound exceeds the limit of :func:`alpha_points`."""
    _require_int("user count", users, 1)
    pop = _normalize_popularity(popularity)
    n = len(pop)
    # one start per grouping, plus at most K edges per group over all groupings
    bound = 2 ** (n - 1) + users * (n + 1) * 2**n // 4
    if bound > _MAX_POINTS:
        raise LimitExceededError(
            f"grouping sweep needs up to {bound} points, more than {_MAX_POINTS}"
        )
    levels_of, zero, whole = _alpha_levels(users, pop)
    candidates = []
    for comp in _compositions(n):
        levels = levels_of(comp)
        edges = [
            [(slope, g, t) for slope, t in _hull_steps(size, rates)]
            for g, (size, rates) in enumerate(zip(comp, levels))
        ]
        ts = [0] * len(comp)
        candidates.append((comp, tuple(ts), _alpha_key(comp, levels, ts, zero)))
        for _, g, t in heapq.merge(*edges, key=lambda edge: edge[0]):
            ts[g] = t
            candidates.append((comp, tuple(ts), _alpha_key(comp, levels, ts, zero)))
    points = tuple(_alpha_point(users, whole, *candidate) for candidate in candidates)
    if whole is None:
        return lower_envelope(points)
    return _exact_envelope(points, [key for _, _, key in candidates])


# ---------------------------------------------------------------------------
# Strategy comparison at cache size 1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateCurve:
    """Sampled curve with a strictly increasing abscissa."""

    label: str
    xname: str
    samples: tuple[tuple[Number, Number], ...]

    def __post_init__(self) -> None:
        xs = [x for x, _ in self.samples]
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise ValidationError("curve abscissa must be strictly increasing")

    @property
    def xs(self) -> tuple[Number, ...]:
        return tuple(x for x, _ in self.samples)

    @property
    def ys(self) -> tuple[Number, ...]:
        return tuple(y for _, y in self.samples)


@dataclass(frozen=True)
class StrategyComparison:
    """Both rate curves plus crossover and best-gain statistics."""

    alpha: RateCurve
    beta: RateCurve
    alpha_branch_threshold: float
    equal_threshold: float
    max_gain_p: float
    max_gain_ratio: float


def default_p_grid(points: int = 101) -> tuple[float, ...]:
    _require_int("points", points, 1)
    # an evenly spaced grid's floats: i * step + 0.5, and the end point exact
    if points == 1:
        return (0.5,)
    step = 0.5 / (points - 1)
    return tuple(0.5 + i * step for i in range(points - 1)) + (1.0,)


def compare_strategies(p_grid: Sequence | None = None) -> StrategyComparison:
    """Compare the two strategies at cache size 1 for the 3-user / 2-file
    setup: sampled curves, the two crossover probabilities and the point of
    largest relative gain, all in closed form.

    Each grid entry is read once, as :func:`rate_alpha_closed` reads it: a
    string, int or Fraction exactly, a finite float as it is.  That value
    is the curves' abscissa and is what both closed forms are taken at, so
    ``"9/10"`` and ``"0.95"`` are ordered as numbers.

    The alpha branches meet at the real root p* of ``2p**3 - p**2 + p - 1``;
    ``p = x + 1/6`` gives ``x**3 + (5/12) x - 23/54``, solved by Cardano's
    formula.  The beta branches meet where ``p**3 = 1/2``.  The gain
    ``R_beta / R_alpha`` peaks at p*: below it the ratio is
    ``_shared_chains / _one_group``, which falls; up to ``2**(-1/3)`` it is
    ``(1 + 1 / (1 - p**3)) / 3``, which rises; beyond, it is 1.
    """
    grid = [_as_p(p) for p in (p_grid if p_grid is not None else default_p_grid())]
    if not grid:
        raise ValidationError("the probability grid cannot be empty")
    alpha = RateCurve("R_alpha", "p", tuple((p, _alpha_at(p)) for p in grid))
    beta = RateCurve("R_beta", "p", tuple((p, _beta_at(p)) for p in grid))

    h = 23 / 108  # cube roots as ** (1 / 3): math.cbrt needs Python 3.11
    s = math.sqrt(h**2 + (5 / 36) ** 3)
    branch = 1 / 6 + (h + s) ** (1 / 3) - (s - h) ** (1 / 3)
    return StrategyComparison(
        alpha=alpha,
        beta=beta,
        alpha_branch_threshold=branch,
        equal_threshold=2 ** (-1 / 3),
        max_gain_p=branch,
        max_gain_ratio=rate_beta_closed(branch) / rate_alpha_closed(branch),
    )


# ---------------------------------------------------------------------------
# Curve output
# ---------------------------------------------------------------------------


def _curve_rows(curves: Sequence[RateCurve]) -> list[list[str]]:
    """The CSV rows of curves over a shared abscissa: the header, then one
    row per point with every number as ``.12g``."""
    if not curves:
        raise ValidationError("no curves to write")
    xs = curves[0].xs
    for c in curves:
        if c.xs != xs or c.xname != curves[0].xname:
            raise ValidationError("curves must share the same abscissa")
    rows = [[curves[0].xname] + [c.label for c in curves]]
    rows += [[f"{float(v):.12g}" for v in point] for point in zip(xs, *(c.ys for c in curves))]
    return rows


def write_curves_csv(path, curves: Sequence[RateCurve]) -> None:
    """One column per curve over a shared abscissa."""
    rows = _curve_rows(curves)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
