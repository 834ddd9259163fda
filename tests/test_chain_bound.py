import itertools
import random
from fractions import Fraction

import pytest

from codedcache import (
    ValidationError,
    alpha_envelope,
    beta_points,
    chain_bound,
    classic_rate,
    exhaustive_schedule,
    expected_rate_exact,
    lower_envelope,
    make_config,
    place,
    toy_cache,
)
from codedcache.rates import RatePoint, _demand_law, _scheduled_expectation


def brute_chain_bound(cache, demand):
    """The bound by its definition: the best sum over every order of users
    with distinct files."""
    best = Fraction(0)
    users = sorted(demand)
    for m in range(1, len(users) + 1):
        for order in itertools.permutations(users, m):
            if len({demand[u] for u in order}) < m:
                continue
            seen, total = 0, Fraction(0)
            for u in order:
                seen |= 1 << (u - 1)
                row = cache.masks[demand[u] - 1]
                total += Fraction(sum(1 for mask in row if not mask & seen), len(row))
            best = max(best, total)
    return best


def random_case(rng):
    users = rng.randint(1, 5)
    levels = rng.randint(1, 3)
    sizes = [rng.randint(1, 2) for _ in range(levels)]
    strategy = rng.choice(["beta", "alpha"])
    r = [rng.randint(0, users) for _ in range(levels)]
    if strategy == "beta":
        r.sort(reverse=True)
    cache = place(make_config(users, sizes, r, strategy=strategy))
    chosen = [k for k in range(1, users + 1) if rng.random() < 0.8]
    return cache, {k: rng.randint(1, sum(sizes)) for k in chosen}


def test_chain_bound_is_the_best_user_order():
    rng = random.Random(13)
    for _ in range(300):
        cache, demand = random_case(rng)
        assert chain_bound(cache, demand) == brute_chain_bound(cache, demand)


def test_chain_bound_of_one_alpha_group_is_the_classic_rate():
    # sum_{i=1}^{d} C(K - i, t) / C(K, t) = classic_rate(K, t, d): hockey stick
    for users in range(1, 7):
        for size in range(1, 4):
            for t in range(users + 1):
                cache = place(make_config(users, [size], [t], strategy="alpha"))
                for rep in itertools.combinations_with_replacement(range(1, size + 1), users):
                    expect = classic_rate(users, t, len(set(rep)))
                    assert chain_bound(cache, rep) == expect, (users, size, t, rep)


@pytest.mark.parametrize("sizes", [(1, 1), (1, 2), (1, 1, 1), (2, 2)])
def test_chain_bound_is_the_exhaustive_rate_at_three_users(sizes):
    # the rates --m-sweep beta cases: every r vector, every demand multiset
    files = sum(sizes)
    for r in itertools.combinations_with_replacement(range(3, -1, -1), len(sizes)):
        cache = place(make_config(3, sizes, list(r)))
        for rep in itertools.combinations_with_replacement(range(1, files + 1), 3):
            assert chain_bound(cache, rep) == exhaustive_schedule(cache, rep).rate, (r, rep)


def test_chain_bound_expectation_at_four_users():
    popularity = (Fraction(3, 4), Fraction(1, 4))
    expectation = expected_rate_exact(make_config(4, [1, 1], [3, 1], popularity), chain_bound)
    assert expectation == Fraction(303, 512)


def test_chain_bound_edge_demands():
    cache = toy_cache()
    assert chain_bound(cache, {}) == 0
    assert chain_bound(cache, {2: 2}) == Fraction(2, 3)  # B's pieces user 2 lacks
    fully_cached = place(make_config(3, [1], [3]))
    assert chain_bound(fully_cached, (1, 1, 1)) == 0
    for demand in [(1, 2), (1, 2, 3), {4: 1}, (True, 1, 1)]:
        with pytest.raises(ValidationError):
            chain_bound(cache, demand)


def bound_points(users, sizes, popularity):
    """The bound's point for every non-increasing r vector: the expected
    :func:`chain_bound` of that ``beta`` placement, rated through the
    scheduler's expectation kernel with one memo for the sweep."""
    memo, points = {}, []
    for r in itertools.combinations_with_replacement(range(users, -1, -1), len(sizes)):
        cfg = make_config(users, sizes, list(r), popularity, strategy="beta")
        rate = _scheduled_expectation(cfg, chain_bound, memo, _demand_law(cfg.popularity, users))
        points.append(RatePoint(cfg.memory, rate, label=f"bound r={r}", params=r))
    return points


def bound_envelope(users, sizes, popularity):
    """The lower envelope of :func:`bound_points`."""
    return lower_envelope(bound_points(users, sizes, popularity))


@pytest.mark.parametrize("sizes", [(1, 1), (1, 2), (1, 1, 1), (2, 2)])
def test_beta_points_rate_the_bound_as_a_rate_function(sizes):
    # beta_points takes chain_bound as it is, as it takes a scheduler
    files = sum(sizes)
    popularity = [Fraction(w, files * (files + 1) // 2) for w in range(files, 0, -1)]
    got = beta_points(3, sizes, popularity, chain_bound)
    want = bound_points(3, sizes, popularity)
    assert [(pt.m, pt.rate, pt.params) for pt in got] == [
        (pt.m, pt.rate, pt.params) for pt in want
    ]


@pytest.mark.parametrize(
    "popularity, gaps",
    [
        (
            (Fraction(3, 4), Fraction(1, 4)),
            {3: Fraction(5, 96), 4: Fraction(11, 512), 5: Fraction(121, 5120),
             6: Fraction(137, 61440), 8: 0},
        ),
        (
            (Fraction(9, 10), Fraction(1, 10)),
            {3: 0, 4: 0, 5: 0, 6: 0, 8: Fraction(6953279, 400000000)},
        ),
    ],
    ids=["3/4", "9/10"],
)
def test_alpha_less_the_bound_envelope_at_unit_cache(popularity, gaps):
    # the room beta could have over alpha at M = 1 on grouping (1, 1): no
    # delivery on any beta placement of the family gets below the bound
    for users, gap in gaps.items():
        alpha = alpha_envelope(users, popularity).value(1)
        assert alpha - bound_envelope(users, (1, 1), popularity).value(1) == gap, users


@pytest.mark.parametrize("sizes", [(1, 1), (1, 2), (1, 1, 1), (2, 2)])
def test_bound_envelope_is_the_exhaustive_envelope_at_three_users(sizes):
    # the certify-sweep groupings, at the uniform and four random popularities
    files = sum(sizes)
    rng = random.Random(files * 10 + len(sizes))
    popularities = [[Fraction(1, files)] * files]
    for _ in range(4):
        weights = sorted((rng.randint(1, 20) for _ in range(files)), reverse=True)
        popularities.append([Fraction(w, sum(weights)) for w in weights])
    for popularity in popularities:
        exhaustive = lower_envelope(beta_points(3, sizes, popularity))
        assert bound_envelope(3, sizes, popularity).vertices == exhaustive.vertices, popularity
