import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codedcache import (
    ABOVE,
    BOUNDARY,
    VERTEX,
    BudgetExceededError,
    DeliverySchedule,
    LimitExceededError,
    RateCurve,
    RatePoint,
    ValidationError,
    alpha_envelope,
    alpha_expected_rate,
    alpha_points,
    beta_points,
    chain_bound,
    classic_rate,
    compare_strategies,
    default_p_grid,
    exhaustive_rate,
    exhaustive_schedule,
    expected_rate_exact,
    expected_rate_mc,
    greedy_schedule,
    lower_envelope,
    make_config,
    memory_rate_table,
    memory_share,
    place_beta,
    rate_alpha_closed,
    rate_beta_closed,
    split_by_popularity,
    toy_config,
    toy_schedule,
    write_curves_csv,
)
from codedcache import delivery, rates
from codedcache.placement import _parse_number
from codedcache.rates import _compositions

EXHAUSTIVE = lambda cache, demand: exhaustive_schedule(cache, demand)
TOY = lambda cache, demand: toy_schedule(demand)

P_GRID_21 = [Fraction(1, 2) + Fraction(k, 40) for k in range(21)]


# ---------------------------------------------------------------------------
# exact expectation
# ---------------------------------------------------------------------------


def test_degenerate_distribution_forces_single_demand():
    cfg = toy_config(Fraction(1))
    assert expected_rate_exact(cfg, TOY) == Fraction(1, 3)


def test_toy_scheduler_matches_closed_form_exactly():
    for p in P_GRID_21:
        cfg = toy_config(p)
        assert expected_rate_exact(cfg, TOY) == Fraction(2, 3) - p**3 / 3


def test_symmetric_and_full_enumeration_agree():
    # the multiset sum equals the sum over all N**K request vectors
    cfg = toy_config(Fraction(3, 5))
    cache = place_beta(cfg)
    full = sum(
        math.prod(cfg.popularity[f - 1] for f in vec) * toy_schedule(vec, cache).rate
        for vec in itertools.product((1, 2), repeat=3)
    )
    assert expected_rate_exact(cfg, TOY) == full


def test_single_level_row_matches_its_closed_form():
    for p in (Fraction(1, 2), Fraction(4, 5)):
        q = 1 - p
        cfg = make_config(3, [1, 1], [1, 0], [p, q])
        got = expected_rate_exact(cfg, EXHAUSTIVE)
        assert got == Fraction(5, 3) - p**3 - Fraction(2, 3) * q**3


def _unreachable(*args, **kwargs):
    raise AssertionError("placed before the enumeration guard")


def test_enumeration_limit_points_to_monte_carlo(monkeypatch):
    # C(29, 10) = 20,030,010 demand multisets exceed ENUMERATION_LIMIT
    cfg = make_config(10, [20], [1], [Fraction(1, 20)] * 20)
    monkeypatch.setattr(rates, "place", _unreachable)
    with pytest.raises(LimitExceededError, match="expected_rate_mc"):
        expected_rate_exact(cfg, EXHAUSTIVE)


def test_enumeration_limit_counts_the_multisets_rated():
    # 2**20 request vectors exceed ENUMERATION_LIMIT, but only the 21
    # demand multisets are rated
    cfg = make_config(20, [2], [0], [Fraction(1, 2)] * 2)
    distinct = lambda cache, demand: DeliverySchedule((), Fraction(len(set(demand))))
    assert expected_rate_exact(cfg, distinct) == 2 - Fraction(2, 2**20)


def test_float_popularity_gives_float_rate():
    got = expected_rate_exact(toy_config(0.765), TOY)
    assert isinstance(got, float)
    assert got == pytest.approx(2 / 3 - 0.765**3 / 3, abs=1e-12)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def test_mc_degenerate_distribution_has_zero_stderr():
    est = expected_rate_mc(toy_config(Fraction(1)), TOY, samples=1000, seed=1)
    assert est.value == pytest.approx(1 / 3)
    assert est.stderr == 0.0


def test_mc_single_sample_has_zero_stderr():
    est = expected_rate_mc(toy_config(0.7), TOY, samples=1, seed=1)
    assert est.samples == 1 and est.stderr == 0.0


def test_mc_close_to_closed_form():
    est = expected_rate_mc(toy_config(0.765), TOY, samples=1_000_000, seed=42)
    closed = rate_beta_closed(0.765)
    assert abs(est.value - closed) <= 3 * est.stderr


def test_mc_seed_determinism():
    a = expected_rate_mc(toy_config(0.7), TOY, samples=10_000, seed=7)
    b = expected_rate_mc(toy_config(0.7), TOY, samples=10_000, seed=7)
    assert (a.value, a.stderr) == (b.value, b.stderr)
    c = expected_rate_mc(toy_config(0.7), TOY, samples=10_000, seed=8)
    assert (a.value, a.stderr) != (c.value, c.stderr)


def test_mc_stderr_shrinks_like_root_n():
    small = expected_rate_mc(toy_config(0.7), TOY, samples=10_000, seed=3)
    large = expected_rate_mc(toy_config(0.7), TOY, samples=160_000, seed=3)
    ratio = large.stderr / small.stderr
    assert 0.15 <= ratio <= 0.35  # ideal 1/4 at 16x the samples


def test_mc_rejects_bad_sample_count():
    with pytest.raises(ValidationError):
        expected_rate_mc(toy_config(0.7), TOY, samples=0, seed=1)


def _counting(scheduler):
    """`scheduler`, recording the memo key of every call: each user's
    requested file as its holder-mask row and its position among the
    distinct requested files."""
    keys = []

    def counted(cache, demand):
        position = {f: j for j, f in enumerate(sorted(set(demand)))}
        keys.append(tuple((cache.masks[f - 1], position[f]) for f in demand))
        return scheduler(cache, demand)

    return counted, keys


def test_mc_schedules_each_sub_problem_once():
    # two files of one group share a mask row, so (1, 1, 1) and (2, 2, 2)
    # are one sub-problem: the four multisets make three keys
    counted, keys = _counting(exhaustive_schedule)
    cfg = make_config(3, [2], [1])
    est = expected_rate_mc(cfg, counted, samples=1000, seed=1)
    assert len(keys) == len(set(keys)) == 3
    assert est.value == expected_rate_mc(cfg, EXHAUSTIVE, samples=1000, seed=1).value


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_closed_forms_at_endpoints():
    assert rate_beta_closed(1.0) == 0
    assert rate_alpha_closed(1.0) == 0
    assert rate_beta_closed(Fraction(1, 2)) == Fraction(5, 8)
    assert rate_alpha_closed(Fraction(1, 2)) == Fraction(5, 8)
    assert rate_beta_closed(0.5) == pytest.approx(0.625)


def test_closed_form_branches():
    # below the cube-root-of-a-half point the coded branch wins
    p = Fraction(3, 4)
    assert rate_beta_closed(p) == Fraction(2, 3) - p**3 / 3
    p = Fraction(9, 10)
    assert rate_beta_closed(p) == 1 - p**3


def test_closed_forms_reject_out_of_range():
    for bad in (0.3, 1.2, Fraction(1, 4)):
        with pytest.raises(ValidationError):
            rate_beta_closed(bad)
        with pytest.raises(ValidationError):
            rate_alpha_closed(bad)


@pytest.mark.parametrize("p", [0.5, 1.0, Fraction(1, 2), "1/2"], ids=repr)
def test_closed_forms_accept_the_range_ends(p):
    assert rate_alpha_closed(p) == rate_beta_closed(p)


@pytest.mark.parametrize(
    "p", [math.nextafter(0.5, 0), math.nextafter(1.0, 2), "1.0000000000000000001"], ids=repr
)
def test_closed_forms_reject_just_outside_the_range(p):
    with pytest.raises(ValidationError):
        rate_alpha_closed(p)
    with pytest.raises(ValidationError):
        rate_beta_closed(p)


def test_memory_rate_table_rows():
    p = Fraction(153, 200)
    q = 1 - p
    table = {pt.params: (pt.m, pt.rate) for pt in memory_rate_table(p)}
    assert table[(0, 0)] == (0, 2 - p**3 - q**3)
    assert table[(2, 2)] == (Fraction(4, 3), Fraction(1, 3))
    assert table[(3, 3)] == (2, 0)
    assert table[(2, 1)] == (1, Fraction(2, 3) - p**3 / 3)


def test_memory_rate_table_certified_by_search():
    for p in (Fraction(1, 2), Fraction(1)):
        for pt in memory_rate_table(p):
            cfg = make_config(3, [1, 1], list(pt.params), [p, 1 - p])
            assert expected_rate_exact(cfg, EXHAUSTIVE) == pt.rate


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------


def test_envelope_single_point():
    env = lower_envelope([RatePoint(Fraction(1), Fraction(1, 2), "x")])
    assert env.vertices == ((Fraction(1), Fraction(1, 2)),)
    assert env.labels == (VERTEX,)
    assert env.value(1) == Fraction(1, 2)


def test_envelope_excludes_interior_point_at_degenerate_popularity():
    env = lower_envelope(memory_rate_table(Fraction(1)))
    by_params = {pt.params: lab for pt, lab in zip(env.points, env.labels)}
    assert by_params[(2, 2)] == ABOVE
    assert by_params[(3, 0)] == VERTEX
    assert by_params[(0, 0)] == VERTEX
    # collinear point: stays on the curve but is not a vertex
    assert by_params[(1, 0)] == BOUNDARY
    assert (Fraction(4, 3), Fraction(1, 3)) not in env.vertices


def test_envelope_collinear_points_flagged_boundary():
    pts = [
        RatePoint(Fraction(0), Fraction(2), "a"),
        RatePoint(Fraction(1), Fraction(1), "b"),
        RatePoint(Fraction(2), Fraction(0), "c"),
    ]
    env = lower_envelope(pts)
    assert env.labels == (VERTEX, BOUNDARY, VERTEX)
    assert env.value(Fraction(1, 2)) == Fraction(3, 2)


def test_envelope_interpolates():
    env = lower_envelope(memory_rate_table(Fraction(3, 4)))
    assert env.value(Fraction(0)) == 2 - Fraction(3, 4) ** 3 - Fraction(1, 4) ** 3
    assert env.value(2) == 0
    with pytest.raises(ValidationError):
        env.value(Fraction(5, 2))


@pytest.mark.parametrize("m", ["abc", "1/0", None, True], ids=["text", "zero-denominator", "none", "bool"])
def test_envelope_value_rejects_what_is_no_number(m):
    env = lower_envelope(memory_rate_table(Fraction(3, 4)))
    with pytest.raises(ValidationError):
        env.value(m)


def test_envelope_value_reads_strings_fractions_and_floats():
    env = lower_envelope(memory_rate_table(Fraction(3, 4)))
    half = env.value(Fraction(1, 2))
    assert env.value("1/2") == half
    assert isinstance(env.value("1/2"), Fraction)
    assert env.value(0.5) == pytest.approx(float(half))


def test_envelope_rate_non_increasing_for_achievable_points():
    rng = random.Random(123)
    for _ in range(200):
        p = Fraction(rng.randint(100, 200), 200)
        env = lower_envelope(memory_rate_table(p))
        rates = [r for _, r in env.vertices]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert env.vertices[-1][1] == 0


def test_envelope_requires_points():
    with pytest.raises(ValidationError):
        lower_envelope([])


def test_envelope_labels_each_point_at_its_own_level():
    pts = alpha_points(4, [Fraction(2, 5), Fraction(3, 10), Fraction(1, 5), Fraction(1, 10)])
    env = lower_envelope(pts)
    want = []
    for pt in pts:
        level = env.value(pt.m)
        if pt.rate == level and (pt.m, pt.rate) in env.vertices:
            want.append(VERTEX)
        else:
            want.append(BOUNDARY if pt.rate == level else ABOVE)
    assert env.labels == tuple(want)
    assert {VERTEX, ABOVE} <= set(want)


def _scan_value(vertices, m):
    """The envelope's rate at `m` by a linear scan over its segments: the
    first segment whose ends enclose `m` gives it."""
    m = _parse_number(m, "cache size")
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:]):
        if x0 <= m <= x1:
            if m == x0:
                return y0
            return y0 + (y1 - y0) * (m - x0) / (x1 - x0)
    return vertices[-1][1]


def _scan_envelope(points):
    """The vertices and labels of the lower envelope, each distinct M's
    level read by :func:`_scan_value`.  Float input keeps a vertex only
    more than 1e-12 below its neighbours' chord, the tolerance of its
    labels."""
    best = {}
    for pt in points:
        if pt.m not in best or pt.rate < best[pt.m][1]:
            best[pt.m] = (pt.m, pt.rate)
    exact = all(type(pt.m) in (int, Fraction) and type(pt.rate) is Fraction for pt in points)
    tol = 0 if exact else 1e-12
    hull = []
    for node in sorted(best.values()):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            below = rates._cross(a, b, node) / (node[0] - a[0])
            if below > tol:
                break
            hull.pop()
        hull.append(node)
    levels = {m: _scan_value(hull, m) for m in best}
    labels = []
    for pt in points:
        level = levels[pt.m]
        if isinstance(pt.rate, Fraction) and isinstance(level, Fraction):
            on_curve = pt.rate == level
        else:
            on_curve = abs(float(pt.rate) - float(level)) <= 1e-12
        if on_curve and (pt.m, pt.rate) in hull:
            labels.append(VERTEX)
        else:
            labels.append(BOUNDARY if on_curve else ABOVE)
    return hull, labels


def _bits(value):
    """A number's type and value, a float's to the bit."""
    return type(value).__name__, value.hex() if isinstance(value, float) else value


def _random_envelope_points(rng):
    """Points with Fraction, int or float M, or Fraction and float M mixed,
    exact or float rates, repeated Ms and a collinear run or two."""
    as_m = rng.choice(
        [
            lambda k: Fraction(k, 4),
            lambda k: k,
            lambda k: k / 4,
            lambda k: rng.choice([Fraction(k, 4), k / 4]),
        ]
    )
    exact = rng.random() < 0.5

    def as_rate(r):
        return r if exact else float(r)

    pts = []
    for _ in range(rng.randint(1, 14)):
        rate = Fraction(rng.randint(0, 48), rng.randint(1, 12))
        pts.append(RatePoint(as_m(rng.randint(0, 16)), as_rate(rate), "x"))
    for _ in range(rng.randint(0, 2)):
        start, rate = rng.randint(0, 12), Fraction(rng.randint(12, 48), 4)
        slope = Fraction(rng.randint(0, 8), 3)
        for k in range(rng.randint(2, 5)):
            pts.append(RatePoint(as_m(start + k), as_rate(rate - k * slope), "run"))
    if not exact and rng.random() < 0.5:
        pts.append(RatePoint(as_m(rng.randint(0, 16)), rng.random() * 4, "noise"))
    rng.shuffle(pts)
    return pts


def test_envelope_lookup_is_the_linear_scan_bit_for_bit():
    rng = random.Random(2026)
    midpoints, seen = 0, set()
    for _ in range(400):
        pts = _random_envelope_points(rng)
        env = lower_envelope(pts)
        hull, labels = _scan_envelope(pts)
        assert [tuple(map(_bits, v)) for v in env.vertices] == [tuple(map(_bits, v)) for v in hull]
        assert env.labels == tuple(labels)
        ms = [x for x, _ in hull] + [pt.m for pt in pts]
        mids = [(x0 + x1) / 2 for (x0, _), (x1, _) in zip(hull, hull[1:])]
        midpoints += len(mids)
        for m in ms + mids:
            value = env.value(m)
            assert _bits(value) == _bits(_scan_value(hull, m)), (pts, m)
            seen.add(type(value))
        seen.update(labels)
    assert midpoints > 500
    assert {VERTEX, BOUNDARY, ABOVE, Fraction, float} <= seen


# ---------------------------------------------------------------------------
# grouping baseline machinery
# ---------------------------------------------------------------------------


def test_classic_rate_kernel_values():
    assert classic_rate(3, 0, 2) == 2
    assert classic_rate(3, 1, 1) == Fraction(2, 3)
    assert classic_rate(3, 1, 2) == 1
    assert classic_rate(3, 2, 1) == Fraction(1, 3)
    assert classic_rate(3, 3, 2) == 0
    assert classic_rate(3, 1, 0) == 0
    assert classic_rate(3, 1, 3) == 1
    with pytest.raises(ValidationError):
        classic_rate(3, 1, 4)  # more distinct files than users
    for t in (-1, 4):
        with pytest.raises(ValidationError, match=rf"cache level {t} outside \[0, 3\]"):
            classic_rate(3, t, 1)


@pytest.mark.parametrize(
    "args", [(3, True, 1), (3, "1", 1), (3, 1.0, 1), (3, 1, True), (3.0, 1, 1)], ids=repr
)
def test_classic_rate_rejects_arguments_that_are_no_int(args):
    with pytest.raises(ValidationError, match="must be an integer"):
        classic_rate(*args)


def test_classic_rate_certified_by_search():
    # one group of two files: the kernel matches the exhaustive solver
    for t in (0, 1, 2, 3):
        cfg = make_config(3, [2], [t], [Fraction(1, 2), Fraction(1, 2)])
        cache = place_beta(cfg)
        for demand in itertools.product((1, 2), repeat=3):
            got = exhaustive_schedule(cache, demand).rate
            assert got == classic_rate(3, t, len(set(demand)))


def test_memory_share_integer_and_fractional():
    assert memory_share(3, 2, Fraction(2, 3)) == ((Fraction(1), 1),)
    assert memory_share(3, 2, 1) == ((Fraction(1, 2), 1), (Fraction(1, 2), 2))
    assert memory_share(3, 1, Fraction(1, 3)) == ((Fraction(1), 1),)
    with pytest.raises(ValidationError):
        memory_share(3, 1, 2)  # more memory than the group holds


@pytest.mark.parametrize(
    "memory", ["abc", math.nan, "1/0", math.inf, None, True], ids=repr
)
def test_memory_share_rejects_what_is_not_a_number(memory):
    with pytest.raises(ValidationError, match="not a number"):
        memory_share(3, 1, memory)


THIRDS = [Fraction(1, 3)] * 3


@pytest.mark.parametrize(
    "call",
    [
        lambda: alpha_points(0, [1]),
        lambda: alpha_points(-1, [1]),
        lambda: alpha_points(True, [1]),
        lambda: alpha_expected_rate(3, [1.5, 1.5], [0, 0], THIRDS),
        lambda: alpha_expected_rate(0, [1], [0], [1]),
        lambda: alpha_expected_rate(3, [4, -1], [0, 0], THIRDS),
        lambda: memory_share(0, 1, 0),
        lambda: memory_share(3, 1.5, 0),
        lambda: split_by_popularity([Fraction(1, 2)] * 2, [3, -1]),
        lambda: split_by_popularity(THIRDS, [1.5, 1.5]),
        lambda: expected_rate_mc(toy_config(), greedy_schedule, 2.5, 0),
        lambda: rate_alpha_closed(True),
        lambda: rate_beta_closed(True),
        lambda: compare_strategies([0.5, 0.6, True]),
        lambda: toy_config(True),
        lambda: expected_rate_mc(toy_config(), greedy_schedule, 10, True),
        lambda: expected_rate_mc(toy_config(), greedy_schedule, 10, -1),
        lambda: expected_rate_mc(toy_config(), greedy_schedule, 10, 1.5),
        lambda: expected_rate_mc(toy_config(), greedy_schedule, 10, "3"),
        lambda: default_p_grid(-1),
        lambda: default_p_grid(2.5),
        lambda: default_p_grid(True),
        lambda: rate_alpha_closed("abc"),
        lambda: rate_alpha_closed("1/0"),
        lambda: rate_beta_closed("abc"),
        lambda: toy_config("abc"),
        lambda: toy_config(None),
    ],
    ids=[
        "alpha_points-K0", "alpha_points-K-1", "alpha_points-Ktrue",
        "alpha_rate-size1.5", "alpha_rate-K0", "alpha_rate-size-1",
        "memory_share-K0", "memory_share-size1.5",
        "split-size-1", "split-size1.5", "mc-samples2.5",
        "alpha_closed-ptrue", "beta_closed-ptrue", "compare-ptrue", "toy_config-ptrue",
        "mc-seedtrue", "mc-seed-1", "mc-seed1.5", "mc-seedstr",
        "p_grid-1", "p_grid2.5", "p_gridtrue",
        "alpha_closed-pword", "alpha_closed-pdiv0", "beta_closed-pword", "toy_config-pword",
        "toy_config-pnone",
    ],
)
def test_user_counts_and_group_sizes_must_be_positive_ints(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize(
    "p", [Fraction(1, 2), Fraction(3, 5), Fraction(7, 10), Fraction(153, 200), Fraction(1)]
)
def test_alpha_machinery_reproduces_closed_forms(p):
    q = 1 - p
    one_group = alpha_expected_rate(3, [2], [Fraction(1)], [p, q], scheduler=EXHAUSTIVE)
    assert one_group == Fraction(2, 3) - (p**3 + q**3) / 6
    two_groups = alpha_expected_rate(
        3, [1, 1], [Fraction(1), Fraction(0)], [p, q], scheduler=EXHAUSTIVE
    )
    assert two_groups == 1 - p**3


def test_alpha_closed_kernel_agrees_with_scheduler_path():
    p = Fraction(3, 4)
    for memories in ([Fraction(1, 2), Fraction(1, 2)], [Fraction(1), Fraction(1, 3)]):
        closed = alpha_expected_rate(3, [1, 1], memories, [p, 1 - p])
        searched = alpha_expected_rate(3, [1, 1], memories, [p, 1 - p], scheduler=EXHAUSTIVE)
        assert closed == searched


def _enumerated_alpha_rate(users, sizes, memories, popularity):
    """The grouping baseline as a sum over every demand multiset, each
    group rated by the distinct-demand kernel: the definition that the
    per-group expectation must reproduce."""
    exact = all(isinstance(p, Fraction) for p in popularity)
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    shares = [memory_share(users, s, m) for s, m in zip(sizes, memories)]
    total = Fraction(0) if exact else 0.0
    files = range(len(popularity))
    for rep in itertools.combinations_with_replacement(files, users):
        weight = math.factorial(users)
        prob = Fraction(1) if exact else 1.0
        for f in set(rep):
            weight //= math.factorial(rep.count(f))
            prob *= popularity[f] ** rep.count(f)
        rate = Fraction(0)
        for lo, size, share in zip(starts, sizes, shares):
            distinct = len({f for f in rep if lo <= f < lo + size})
            for w, t in share:
                rate += w * classic_rate(users, t, distinct)
        total += weight * prob * rate
    return total


@st.composite
def alpha_cases(draw, exact=True, max_users=5, max_files=4):
    users = draw(st.integers(1, max_users))
    n = draw(st.integers(1, max_files))
    cuts = draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
    bounds = [0, *sorted(cuts), n]
    sizes = [b - a for a, b in zip(bounds, bounds[1:])]
    # per group a cache level t in [0, K] with denominator 1 or 2: an
    # integer level or a two-level memory share
    den = draw(st.integers(1, 2))
    levels = [Fraction(draw(st.integers(0, users * den)), den) for _ in sizes]
    memories = [t * s / users for t, s in zip(levels, sizes)]
    weights = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    if not any(weights):
        weights[draw(st.integers(0, n - 1))] = 1
    if exact:
        popularity = [Fraction(w, sum(weights)) for w in weights]
    else:
        popularity = [w / sum(weights) for w in weights]
    return users, sizes, memories, popularity


@settings(max_examples=200, deadline=None)
@given(alpha_cases())
def test_alpha_expectation_equals_demand_enumeration(case):
    users, sizes, memories, popularity = case
    got = alpha_expected_rate(users, sizes, memories, popularity)
    assert isinstance(got, Fraction)
    assert got == _enumerated_alpha_rate(users, sizes, memories, popularity)


@settings(max_examples=100, deadline=None)
@given(alpha_cases(exact=False))
def test_alpha_expectation_float_popularity(case):
    users, sizes, memories, popularity = case
    got = alpha_expected_rate(users, sizes, memories, popularity)
    assert isinstance(got, float)
    want = _enumerated_alpha_rate(users, sizes, memories, popularity)
    assert got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_level_rates_equal_the_sum_over_every_distinct_count(exact):
    # the kernel skips the distinct-file counts of probability 0; the full
    # sum over d = 0..K gives the same values: integers over
    # L**K * lcm_t C(K, t) for integer weights over L, floats for floats
    rng = random.Random(5)
    for users in (1, 2, 5, 13, 30):
        unit = math.lcm(*(math.comb(users, t) for t in range(users + 1)))
        for size in (1, 2, 3):
            for weights in ([rng.randint(1, 9) for _ in range(size + 1)], [1] * size + [0]):
                total = sum(weights)
                if not exact:
                    weights = [float(Fraction(w, total)) for w in weights]
                group, rest = tuple(weights[:-1]), weights[-1]
                law = rates._distinct_law(users, group, rest)
                full = tuple(
                    sum(law[d] * classic_rate(users, t, d) for d in range(users + 1))
                    for t in range(users + 1)
                )
                got = rates._level_sums(users, group, rest)
                if exact:
                    assert all(type(s) is int for s in got)
                    assert tuple(Fraction(s, total**users * unit) for s in got) == tuple(
                        f / total**users for f in full
                    )
                else:
                    assert got == full
                    assert all(type(s) is float for s in got)


def test_alpha_closed_kernel_has_no_demand_limit(monkeypatch):
    # C(24, 13) = 2,496,144 demand multisets exceed ENUMERATION_LIMIT: only
    # the scheduler path enumerates them, and it refuses before placing
    p = [Fraction(k, 78) for k in range(1, 13)]
    assert alpha_expected_rate(13, [12], [Fraction(0)], p) == sum(1 - (1 - x) ** 13 for x in p)
    monkeypatch.setattr(rates, "place", _unreachable)
    with pytest.raises(LimitExceededError, match="expected_rate_mc"):
        alpha_expected_rate(13, [12], [Fraction(0)], p, scheduler=EXHAUSTIVE)


@settings(max_examples=100, deadline=None)
@given(alpha_cases(max_users=4, max_files=3))
def test_alpha_scheduler_path_equals_closed_kernel(case):
    # the exhaustive solver reaches the leader-based rate on every demand
    # of a group placed alone, so both paths give the same expectation
    users, sizes, memories, popularity = case
    closed = alpha_expected_rate(users, sizes, memories, popularity)
    searched = alpha_expected_rate(users, sizes, memories, popularity, scheduler=EXHAUSTIVE)
    assert searched == closed


def test_alpha_scheduler_path_rates_each_group_alone():
    # all 12 files requested over K = 13 users would be C(24, 13) = 2,496,144
    # demand multisets; each singleton group sees only its file and the
    # outside entry, C(14, 13) = 14 multisets
    p = [Fraction(k, 78) for k in range(1, 13)]
    got = alpha_expected_rate(13, [1] * 12, [Fraction(0)] * 12, p, scheduler=EXHAUSTIVE)
    assert got == sum(1 - (1 - x) ** 13 for x in p)


def test_alpha_scheduler_path_shares_one_memo_across_groups():
    # each group is its file at levels 1 and 2 plus the fully cached
    # outside file: 4 multisets a level, and (2, 2, 2) is one key at both
    # levels; the second group repeats the first group's keys
    counted, keys = _counting(exhaustive_schedule)
    m = Fraction(1, 2)
    pop = [Fraction(3, 4), Fraction(1, 4)]
    got = alpha_expected_rate(3, [1, 1], [m, m], pop, scheduler=counted)
    assert len(keys) == len(set(keys)) == 7
    assert got == alpha_expected_rate(3, [1, 1], [m, m], pop)


def test_alpha_scheduler_path_counts_the_multisets_rated():
    # 2**20 request vectors exceed ENUMERATION_LIMIT, but the scheduler
    # path rates only the 21 demand multisets
    half = [Fraction(1, 2)] * 2
    got = alpha_expected_rate(20, [2], [Fraction(0)], half, scheduler=greedy_schedule)
    assert got == 2 - Fraction(2, 2**20)


def test_alpha_validates_shapes():
    with pytest.raises(ValidationError):
        alpha_expected_rate(3, [1], [Fraction(1)], [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValidationError):
        alpha_expected_rate(3, [2], [Fraction(1), Fraction(0)], [Fraction(1, 2), Fraction(1, 2)])


# ---------------------------------------------------------------------------
# achievable point sweeps
# ---------------------------------------------------------------------------


def test_beta_points_cover_the_table_and_one_extra():
    p = Fraction(153, 200)
    pts = beta_points(3, [1, 1], [p, 1 - p])
    by_params = {pt.params: pt for pt in pts}
    assert len(pts) == 10  # nine table rows plus the dominated (2, 0) pair
    for row in memory_rate_table(p):
        assert by_params[row.params].rate == row.rate
        assert by_params[row.params].m == row.m
    extra = by_params[(2, 0)]
    assert extra.m == Fraction(2, 3)
    assert extra.rate == Fraction(4, 3) - p**3 - Fraction(1, 3) * (1 - p) ** 3


def _popularity(files):
    """A strictly decreasing popularity, so every demand multiset is rated."""
    weights = range(files + 1, 1, -1)
    return [Fraction(w, sum(weights)) for w in weights]


def _plain_expectation(cfg, scheduler):
    """expected_rate_exact with nothing reused: every demand multiset is
    handed to `scheduler`."""
    cache = place_beta(cfg)
    total = 0
    for rep, coefficient in rates._demand_law(cfg.popularity, cfg.users):
        total += coefficient * scheduler(cache, rep).rate
    return total


def _unmemoized_points(users, sizes, popularity, scheduler):
    """beta_points as a plain loop over :func:`_plain_expectation`."""
    out = []
    for r in itertools.combinations_with_replacement(range(users, -1, -1), len(sizes)):
        cfg = make_config(users, sizes, list(r), popularity, strategy="beta")
        rate = _plain_expectation(cfg, scheduler)
        out.append(RatePoint(cfg.memory, rate, label=f"beta r={r}", params=r))
    return tuple(out)


def _outcome(call):
    """What `call` returns, or the message of the budget error it raises."""
    try:
        return call()
    except BudgetExceededError as exc:
        return f"raised: {exc}"


GROUPINGS = [comp for files in (1, 2, 3) for comp in _compositions(files)]


@pytest.mark.parametrize("users", [1, 2, 3, 4])
def test_beta_points_reuse_changes_no_greedy_rate(users):
    for sizes in GROUPINGS:
        popularity = _popularity(sum(sizes))
        expected = _unmemoized_points(users, sizes, popularity, greedy_schedule)
        assert beta_points(users, sizes, popularity, greedy_schedule) == expected


def test_beta_points_reuse_changes_no_exhaustive_rate_at_three_users():
    for sizes in GROUPINGS:
        popularity = _popularity(sum(sizes))
        expected = _unmemoized_points(3, sizes, popularity, exhaustive_schedule)
        assert beta_points(3, sizes, popularity) == expected


def test_beta_points_reuse_changes_no_exhaustive_outcome_at_four_users(monkeypatch):
    # most groupings hit the node budget on some demand: there the sweep
    # must stop with the same error, and every replication vector on its
    # own, rated with one memo shared along the sweep, must too
    monkeypatch.setattr(delivery, "_MAX_NODES", 20_000)
    returned = 0
    for sizes in GROUPINGS:
        popularity = _popularity(sum(sizes))
        expected = _outcome(lambda: _unmemoized_points(4, sizes, popularity, EXHAUSTIVE))
        assert _outcome(lambda: beta_points(4, sizes, popularity)) == expected
        returned += not isinstance(expected, str)
        memo = {}
        for r in itertools.combinations_with_replacement(range(4, -1, -1), len(sizes)):
            cfg = make_config(4, sizes, list(r), popularity, strategy="beta")
            plain = _outcome(lambda: _plain_expectation(cfg, EXHAUSTIVE))
            shared = _outcome(
                lambda: rates._scheduled_expectation(
                    cfg, EXHAUSTIVE, memo, rates._demand_law(cfg.popularity, 4)
                )
            )
            assert shared == plain
    assert returned >= 3  # the one-group sweeps return


def test_expected_rate_exact_reuse_changes_no_toy_rate():
    for p in P_GRID_21:
        cfg = toy_config(p)
        assert expected_rate_exact(cfg, TOY) == _plain_expectation(cfg, TOY)


@pytest.mark.parametrize(
    "sizes, calls",
    [((1, 1), 28), ((1, 2), 42), ((1, 1, 1), 68), ((2, 2), 52)],
    ids=str,
)
def test_beta_points_schedules_each_sub_problem_once(sizes, calls):
    # the four groupings of the certify sweep: 40, 100, 200 and 200 calls
    # if every (replication vector, demand multiset) were scheduled
    seen = []

    def counting(cache, demand):
        seen.append((cache, demand))
        return exhaustive_schedule(cache, demand)

    beta_points(3, sizes, _popularity(sum(sizes)), counting)
    assert len(seen) == calls


@pytest.mark.parametrize(
    "sizes, searches, sub_problems",
    [((1, 1), 1, 28), ((1, 2), 1, 42), ((1, 1, 1), 2, 68), ((2, 2), 2, 52)],
    ids=str,
)
def test_beta_points_search_only_where_leader_and_clique_pass_miss(
    monkeypatch, sizes, searches, sub_problems
):
    # the default rate function certifies the other sub-problems by the
    # piece-count chain bound, through the leader count or the clique
    # pass, and runs no search on them
    searched, rated = [], []
    search = delivery.exhaustive_schedule

    def counting_search(cache, demand):
        searched.append(demand)
        return search(cache, demand)

    def counting_rate(cache, demand):
        rated.append(demand)
        return delivery.exhaustive_rate(cache, demand)

    monkeypatch.setattr(delivery, "exhaustive_schedule", counting_search)
    popularity = _popularity(sum(sizes))
    points = beta_points(3, sizes, popularity)
    assert len(searched) == searches
    assert beta_points(3, sizes, popularity, counting_rate) == points
    assert len(rated) == sub_problems


def test_strategy_envelopes_at_unit_cache_match_closed_forms():
    p = Fraction(153, 200)
    beta_env = lower_envelope(beta_points(3, [1, 1], [p, 1 - p]))
    alpha_env = lower_envelope(alpha_points(3, [p, 1 - p]))
    assert beta_env.value(1) == rate_beta_closed(p)
    assert alpha_env.value(1) == rate_alpha_closed(p)


@pytest.mark.parametrize(
    "popularity",
    [
        [Fraction(1, 2), Fraction(0), Fraction(3, 10), Fraction(1, 5)],
        [0.45, 0.3, 0.0, 0.25],
    ],
    ids=["exact", "float"],
)
def test_alpha_points_are_alpha_expected_rates(popularity):
    # the sweep sums per-group level rates; each point must be exactly the
    # rate alpha_expected_rate gives for the same groups and memories
    users = 3
    want = []
    for comp in _compositions(len(popularity)):
        for ts in itertools.product(range(users + 1), repeat=len(comp)):
            memories = [Fraction(t * s, users) for t, s in zip(ts, comp)]
            want.append(alpha_expected_rate(users, comp, memories, popularity))
    got = [pt.rate for pt in alpha_points(users, popularity)]
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


def test_alpha_points_guard():
    # 8 singleton groups at 4 levels each: 4**8 = 65,536 points
    with pytest.raises(LimitExceededError, match="points"):
        alpha_points(3, [Fraction(1, 8)] * 8)


@st.composite
def _popularities(draw):
    """1-4 files, zero entries included, as exact or as float shares."""
    weights = draw(
        st.lists(st.one_of(st.just(0), st.integers(1, 10**6)), min_size=1, max_size=4).filter(any)
    )
    total = sum(weights)
    if draw(st.booleans()):
        return [Fraction(w, total) for w in weights]
    return [w / total for w in weights]


@settings(max_examples=100, deadline=None)
@given(users=st.integers(1, 6), popularity=_popularities())
# the float rounding of one group's slopes reorders them; a sort of all
# edges by slope skips the vertex (2, 0.0) here
@example(users=5, popularity=[0.5750983832348417, 0.0, 0.42490161676515836])
def test_alpha_envelope_equals_the_envelope_of_every_point(users, popularity):
    got = alpha_envelope(users, popularity)
    want = lower_envelope(alpha_points(users, popularity))
    every = {(pt.m, pt.rate) for pt in want.points}
    assert all((pt.m, pt.rate) in every for pt in got.points)
    if all(isinstance(p, Fraction) for p in popularity):
        assert got.vertices == want.vertices
    else:
        for m in sorted({m for m, _ in got.vertices + want.vertices}):
            assert float(got.value(m)) == pytest.approx(float(want.value(m)), abs=1e-12)


def test_alpha_envelope_beyond_the_point_limit(monkeypatch):
    # 7**5 + 4 * 7**4 + 6 * 7**3 + 4 * 7**2 + 7 = 28,672 points at K = 6, N = 5
    popularity = [Fraction(k, 15) for k in (5, 4, 3, 2, 1)]
    got = alpha_envelope(6, popularity)
    monkeypatch.setattr(rates, "_MAX_POINTS", 30_000)
    want = lower_envelope(alpha_points(6, popularity))
    assert len(want.points) == 28_672
    assert got.vertices == want.vertices
    assert len(got.points) <= 2**4 + 6 * 6 * 2**3


def test_alpha_envelope_limit_sums_no_group(monkeypatch):
    # 16 files at K = 3: 2**15 + 3 * 17 * 2**14 candidates at most, and the
    # limit raises before the kernel rates any group
    def rated(*args):
        raise AssertionError("a group was rated")

    monkeypatch.setattr(rates, "_level_sums", rated)
    with pytest.raises(LimitExceededError, match="points"):
        alpha_envelope(3, [Fraction(1, 16)] * 16)


def test_exact_level_sums_are_integers_over_one_common_denominator():
    # each group's level rates, as integers over L**K * lcm_t C(K, t), with
    # L the lcm of the whole popularity's denominators, are the rates
    # alpha_expected_rate gives for that group at level t, every other
    # group at level K (rate 0), and the expected classic_rate over the
    # group's law on its own denominator
    users = 5
    pop = (Fraction(1, 3), Fraction(1, 4), Fraction(1, 6), Fraction(1, 4))
    weights, scale = rates._on_one_denominator(pop)
    assert (weights, scale) == ((4, 3, 2, 3), 12)
    whole = scale**users * math.lcm(*(math.comb(users, t) for t in range(users + 1)))
    for comp in _compositions(len(pop)):
        groups = zip(rates._groups(comp, weights, 0), rates._groups(comp, pop, 0))
        for g, ((_, gw, rest_w), (_, gp, rest)) in enumerate(groups):
            sums = rates._level_sums(users, gw, rest_w)
            assert all(type(s) is int for s in sums)
            (*own, own_rest), own_scale = rates._on_one_denominator((*gp, rest))
            law = rates._distinct_law(users, tuple(own), own_rest)
            for t, s in enumerate(sums):
                levels = [t if h == g else users for h in range(len(comp))]
                memories = [Fraction(size * r, users) for size, r in zip(comp, levels)]
                assert Fraction(s, whole) == alpha_expected_rate(users, comp, memories, pop)
                want = sum(w * classic_rate(users, t, d) for d, w in enumerate(law))
                assert Fraction(s, whole) == want / own_scale**users


@pytest.mark.parametrize(
    "users, rate_of",
    [(4, chain_bound), (3, exhaustive_rate)],
    ids=["chain_bound", "exhaustive"],
)
def test_mixed_popularity_beta_points_have_the_float_bits(users, rate_of):
    # one float entry makes the popularity float: the Fraction entry is
    # rounded before any power is taken, not after
    mixed = beta_points(users, [1, 1], [0.3, Fraction(7, 10)], rate_of)
    floats = beta_points(users, [1, 1], [0.3, 0.7], rate_of)
    assert [(pt.m, pt.label) for pt in mixed] == [(pt.m, pt.label) for pt in floats]
    assert [_bits(pt.rate) for pt in mixed] == [_bits(pt.rate) for pt in floats]


@pytest.mark.parametrize("rate_of", [chain_bound, exhaustive_rate], ids=["chain", "exhaustive"])
def test_mixed_popularity_expected_rate_has_the_float_bits(rate_of):
    mixed = make_config(3, [1, 1], [2, 1], [0.3, Fraction(7, 10)])
    floats = make_config(3, [1, 1], [2, 1], [0.3, 0.7])
    got = expected_rate_exact(mixed, rate_of)
    assert _bits(got) == _bits(expected_rate_exact(floats, rate_of))


def test_mixed_popularity_alpha_has_the_float_bits():
    mixed = ["2/5", 0.3, Fraction(1, 5), 0.1]
    floats = [0.4, 0.3, 0.2, 0.1]
    for sizes, memories in (([2, 2], [1, Fraction(1, 2)]), ([1, 3], [Fraction(2, 3), 1])):
        for scheduler in (None, exhaustive_rate):
            got = alpha_expected_rate(3, sizes, memories, mixed, scheduler)
            want = alpha_expected_rate(3, sizes, memories, floats, scheduler)
            assert _bits(got) == _bits(want), (sizes, scheduler)
    got, want = alpha_envelope(4, mixed), alpha_envelope(4, floats)
    assert [m for m, _ in got.vertices] == [m for m, _ in want.vertices]
    assert [_bits(r) for _, r in got.vertices] == [_bits(r) for _, r in want.vertices]
    assert got.labels == want.labels


def test_exact_and_float_groups_never_share_a_level_sums_entry():
    # [1] and [1.0] give equal group weights and an equal rest, 0 == 0.0,
    # and so do [1, 0] and [1.0, 0.0]: only the type of the rest keeps
    # their kernel cache entries apart, whichever is rated first
    pairs = [(([1], Fraction), ([1.0], float)), (([1, 0], Fraction), ([1.0, 0.0], float))]
    for first in (0, 1):
        rates._level_sums.cache_clear()
        for pair in pairs:
            for pop, kind in (pair[first], pair[1 - first]):
                envelope = alpha_envelope(3, pop)
                assert {type(r) for _, r in envelope.vertices} == {kind}, (pop, first)
                rate = alpha_expected_rate(3, [1] * len(pop), [Fraction(1, 2)] * len(pop), pop)
                assert type(rate) is kind, (pop, first)


# sha256 over the vertices of alpha_envelope(4, [0.4, 0.3, 0.2, 0.1]), one
# line "<M as n/d> <rate.hex()>" per vertex, taken from the Fraction
# implementation of the envelope.  From Python 3.12 on the builtin sum
# compensates float sums, so the last bits of the rates differ between the
# two; each Python is held to its own digest.
FLOAT_ALPHA_VERTICES_GOLDEN = {
    False: "15c32e9858e886c291e0c598c18050bb8de859e486323251f00f0c4942cde66b",
    True: "6146c3f11e2a32c90e628b40f4f0b81f2faf343d70ddbf5e80c6118c21c66eb7",
}


def test_float_alpha_envelope_vertices_match_golden_digest():
    env = alpha_envelope(4, [0.4, 0.3, 0.2, 0.1])
    assert len(env.vertices) == 7
    text = "\n".join(f"{m.numerator}/{m.denominator} {r.hex()}" for m, r in env.vertices)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == FLOAT_ALPHA_VERTICES_GOLDEN[sys.version_info >= (3, 12)]


# ---------------------------------------------------------------------------
# strategy comparison
# ---------------------------------------------------------------------------


def test_thresholds_match_reported_values():
    cmp = compare_strategies()
    assert cmp.alpha_branch_threshold == pytest.approx(0.739, abs=1e-3)
    assert cmp.equal_threshold == pytest.approx(0.794, abs=1e-3)
    assert cmp.equal_threshold == pytest.approx(0.5 ** (1 / 3), abs=1e-8)


def test_max_gain_location_and_size():
    cmp = compare_strategies()
    assert 0.72 < cmp.max_gain_p < 0.76
    assert cmp.max_gain_ratio <= 0.90


def test_curves_equal_at_degenerate_popularity():
    cmp = compare_strategies([1.0])
    assert cmp.alpha.ys == (0,)
    assert cmp.beta.ys == (0,)


def test_beta_never_above_alpha_and_strictly_below_in_gain_window():
    cmp = compare_strategies()
    for (p, a), (_, b) in zip(cmp.alpha.samples, cmp.beta.samples):
        assert b <= a + 1e-15
        if 0.5 < p < cmp.equal_threshold - 1e-9:
            assert b < a


def test_empty_grid_rejected():
    with pytest.raises(ValidationError):
        compare_strategies([])


def _fraction_grid(lo: float, hi: float, steps: int = 2000) -> list[Fraction]:
    lo, hi = Fraction(lo), Fraction(hi)
    return [lo + (hi - lo) * i / steps for i in range(steps + 1)]


def test_gain_falls_to_the_alpha_crossing_then_rises():
    cmp = compare_strategies([0.5])
    p_star = cmp.alpha_branch_threshold
    below = [rates._shared_chains(p) / rates._one_group(p) for p in _fraction_grid(0.5, p_star)]
    assert all(a > b for a, b in zip(below, below[1:]))
    above = [
        rates._shared_chains(p) / rates._popular_only(p)
        for p in _fraction_grid(p_star, cmp.equal_threshold)
    ]
    assert all(a < b for a, b in zip(above, above[1:]))
    assert cmp.max_gain_p == p_star


def test_alpha_crossing_solves_the_cubic():
    p = compare_strategies([0.5]).alpha_branch_threshold
    assert abs(2 * p**3 - p**2 + p - 1) <= 1e-15


def test_max_gain_is_below_every_sampled_ratio():
    cmp = compare_strategies()
    for p in default_p_grid():
        # multiplied out, since R_alpha is 0 at p = 1
        assert cmp.max_gain_ratio * rate_alpha_closed(p) <= rate_beta_closed(p)


@pytest.mark.parametrize("points", [1, 2, 3, 101, 1001])
def test_default_p_grid_is_linspace(points):
    import numpy

    want = tuple(float(x) for x in numpy.linspace(0.5, 1.0, points))
    assert default_p_grid(points) == want


@pytest.mark.parametrize("module", ["scipy", "numpy"])
def test_import_does_not_load_scipy(module):
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, codedcache\n"
        f"print(sorted(m for m in sys.modules if m == {module!r} or m.startswith('{module}.')))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# curve output
# ---------------------------------------------------------------------------


def test_compare_strategies_orders_string_grid_entries_as_numbers():
    # as strings, "9/10" > "0.95"; as numbers they increase
    cmp = compare_strategies(["9/10", "0.95"])
    assert cmp.alpha.xs == cmp.beta.xs == (Fraction(9, 10), Fraction(19, 20))
    assert cmp.alpha.ys == (rate_alpha_closed("9/10"), rate_alpha_closed("0.95"))
    assert cmp.beta.ys == (rate_beta_closed("9/10"), rate_beta_closed("0.95"))


def test_compare_strategies_keeps_each_grid_entry_as_it_reads_it():
    cmp = compare_strategies([Fraction(1, 2), "0.75", 0.875, 1])
    assert cmp.alpha.xs == (Fraction(1, 2), Fraction(3, 4), 0.875, Fraction(1))
    assert [type(x) for x in cmp.alpha.xs] == [Fraction, Fraction, float, Fraction]
    assert [type(y) for y in cmp.alpha.ys] == [Fraction, Fraction, float, Fraction]
    with pytest.raises(ValidationError, match="probability of the popular file"):
        compare_strategies([0.75, "2/5"])


def test_write_curves_csv_of_a_string_grid(tmp_path):
    cmp = compare_strategies(["1/2", "3/4"])
    out = tmp_path / "curves.csv"
    write_curves_csv(out, [cmp.alpha, cmp.beta])
    assert out.read_text().splitlines() == [
        "p,R_alpha,R_beta",
        "0.5,0.625,0.625",
        "0.75,0.578125,0.526041666667",
    ]


def test_curve_requires_increasing_abscissa():
    with pytest.raises(ValidationError):
        RateCurve("x", "p", ((0.7, 0.1), (0.6, 0.2)))


def test_write_curves_csv(tmp_path):
    cmp = compare_strategies([0.5, 0.75, 1.0])
    out = tmp_path / "curves.csv"
    write_curves_csv(out, [cmp.alpha, cmp.beta])
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p,R_alpha,R_beta"
    assert lines[1].startswith("0.5,0.625,0.625")
    with pytest.raises(ValidationError):
        write_curves_csv(out, [])
    shifted = RateCurve("R_x", "p", ((0.5, 0.625), (0.75, 0.5), (0.9, 0.2)))
    with pytest.raises(ValidationError, match="same abscissa"):
        write_curves_csv(out, [cmp.alpha, shifted])
