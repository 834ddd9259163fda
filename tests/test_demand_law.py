"""The demand law of a sweep: computed once per popularity, and the same
expectations as rating every request vector or every multiset on its own."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from codedcache import (
    LimitExceededError,
    alpha_expected_rate,
    beta_points,
    chain_bound,
    exhaustive_rate,
    greedy_schedule,
    make_config,
    place,
)
from codedcache import rates

SWEEP_GROUPINGS = [(1, 1), (1, 2), (1, 1, 1), (2, 2)]


def _popularity(files, exact):
    """A strictly decreasing popularity, so every demand multiset is rated."""
    weights = range(files + 1, 1, -1)
    pop = [Fraction(w, sum(weights)) for w in weights]
    return pop if exact else [float(p) for p in pop]


def _vectors(users, sizes):
    return itertools.combinations_with_replacement(range(users, -1, -1), len(sizes))


def _brute_points(users, sizes, popularity, rate_of):
    """Every point as ``sum_d P(d) rate_of(cache, d)`` over all ``N**K``
    request vectors d, in user order: no multiset, no memo."""
    files = sum(sizes)
    out = []
    for r in _vectors(users, sizes):
        cache = place(make_config(users, sizes, list(r), popularity))
        total = Fraction(0)
        for demand in itertools.product(range(1, files + 1), repeat=users):
            prob = math.prod(popularity[f - 1] for f in demand)
            total += prob * rate_of(cache, demand)
        out.append((r, total))
    return out


def _per_r_points(users, sizes, popularity, rate_of):
    """Every point through the per-vector loop that weighs each multiset
    again at every r: ``weight * prob * rate(rep)``, summed in multiset
    order, with a fresh memo per vector."""
    out = []
    for r in _vectors(users, sizes):
        cache = place(make_config(users, sizes, list(r), popularity))
        rate = rates._memo_rate(cache, rate_of, {})
        total = 0.0
        for rep in itertools.combinations_with_replacement(range(1, sum(sizes) + 1), users):
            weight = math.factorial(len(rep))
            prob = 1.0
            for f, c in Counter(rep).items():
                weight //= math.factorial(c)
                prob *= popularity[f - 1] ** c
            if prob == 0:
                continue
            total += weight * prob * rate(rep)
        out.append((r, total))
    return out


@pytest.mark.parametrize("rate_of", [exhaustive_rate, chain_bound], ids=["exhaustive", "bound"])
@pytest.mark.parametrize("sizes", SWEEP_GROUPINGS, ids=str)
def test_beta_points_equal_the_sum_over_every_request_vector(sizes, rate_of):
    popularity = _popularity(sum(sizes), exact=True)
    got = [(pt.params, pt.rate) for pt in beta_points(3, sizes, popularity, rate_of)]
    assert got == _brute_points(3, sizes, popularity, rate_of)
    assert all(isinstance(rate, Fraction) for _, rate in got)


@pytest.mark.parametrize("rate_of", [exhaustive_rate, chain_bound], ids=["exhaustive", "bound"])
@pytest.mark.parametrize("sizes", SWEEP_GROUPINGS, ids=str)
def test_float_beta_points_are_the_per_vector_loop_bit_for_bit(sizes, rate_of):
    popularity = _popularity(sum(sizes), exact=False)
    got = [(pt.params, pt.rate) for pt in beta_points(3, sizes, popularity, rate_of)]
    want = _per_r_points(3, sizes, popularity, rate_of)
    assert [(r, rate.hex()) for r, rate in got] == [(r, rate.hex()) for r, rate in want]


def _counting_law(monkeypatch):
    calls = []
    law = rates._demand_law

    def counted(popularity, users):
        calls.append(tuple(popularity))
        return law(popularity, users)

    monkeypatch.setattr(rates, "_demand_law", counted)
    return calls


@pytest.mark.parametrize("sizes", SWEEP_GROUPINGS, ids=str)
def test_beta_points_build_the_law_once(monkeypatch, sizes):
    calls = _counting_law(monkeypatch)
    points = beta_points(3, sizes, _popularity(sum(sizes), exact=True))
    assert len(points) == comb(3 + len(sizes), len(sizes))
    assert len(calls) == 1


def test_alpha_scheduler_path_builds_one_law_per_group(monkeypatch):
    # memories 1/2 and 1 put both groups between two levels: four levels,
    # two laws
    pop = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
    memories = [Fraction(1, 2), Fraction(1)]
    closed = alpha_expected_rate(3, [1, 2], memories, pop)
    calls = _counting_law(monkeypatch)
    got = alpha_expected_rate(3, [1, 2], memories, pop, scheduler=greedy_schedule)
    assert got == closed
    assert calls == [(pop[0], pop[1] + pop[2]), (pop[1], pop[2], pop[0])]


def _unreachable(*args, **kwargs):
    raise AssertionError("nothing may be placed")


def test_beta_points_raise_the_limit_before_placing(monkeypatch):
    # C(3 + 3 - 1, 3) = 10 demand multisets over three files
    monkeypatch.setattr(rates, "ENUMERATION_LIMIT", 9)
    monkeypatch.setattr(rates, "place", _unreachable)
    with pytest.raises(LimitExceededError, match="10 demand multisets"):
        beta_points(3, [1, 2], _popularity(3, exact=True))


def _distinct_law_per_d(users, group_pop, rest):
    """The distinct-file law as a plain DP in the popularities' own type,
    ``Fraction`` or float, with every power taken inside the d loop: the
    oracle for the kernel's power table and its integer arithmetic."""
    ways = [[0] * (users + 1) for _ in range(users + 1)]
    ways[0][0] = 1
    for p in group_pop:
        nxt = [row[:] for row in ways]
        for j in range(users):
            free = users - j
            for d in range(j + 1):
                w = ways[j][d]
                if not w:
                    continue
                for c in range(1, free + 1):
                    nxt[j + c][d + 1] += w * comb(free, c) * p**c
        ways = nxt
    law = [0] * (users + 1)
    for j in range(users + 1):
        stay = rest ** (users - j)
        for d in range(j + 1):
            law[d] += ways[j][d] * stay
    return law


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_distinct_law_takes_each_power_once_with_the_same_values(exact):
    # the kernel reads integer weights, or floats, and the oracle the same
    rng = random.Random(11)
    for users in (1, 2, 3, 7, 12, 25):
        for size in (1, 2, 3, 4):
            weights = [rng.randint(0, 9) for _ in range(size + 1)]
            weights[0] += 1
            if not exact:
                weights = [float(Fraction(w, sum(weights))) for w in weights]
            group, rest = tuple(weights[:-1]), weights[-1]
            got = rates._distinct_law(users, group, rest)
            want = _distinct_law_per_d(users, group, rest)
            assert got == want, (users, weights)
            assert list(map(type, got)) == list(map(type, want))


def test_distinct_law_over_one_denominator_equals_the_fraction_dp():
    # each popularity gets its own denominator, so the kernel's common
    # denominator is a true lcm; the float law takes the same loop and must
    # be bit-identical
    rng = random.Random(27)
    for users in (1, 2, 4, 9, 17, 28, 40):
        for size in (1, 2, 3, 5):
            raw = [Fraction(rng.randint(0, 9), rng.randint(1, 12)) for _ in range(size + 1)]
            raw[rng.randrange(size + 1)] += Fraction(1, rng.randint(1, 12))
            pop = [w / sum(raw) for w in raw]
            group_pop, rest = tuple(pop[:-1]), pop[-1]
            (*weights, rest_weight), scale = rates._on_one_denominator(pop)
            got = rates._distinct_law(users, tuple(weights), rest_weight)
            assert all(type(w) is int for w in got)
            assert sum(got) == scale**users
            got = [Fraction(w, scale**users) for w in got]
            assert got == _distinct_law_per_d(users, group_pop, rest), (users, pop)
            group_pop, rest = tuple(map(float, group_pop)), float(rest)
            got = rates._distinct_law(users, group_pop, rest)
            assert got == _distinct_law_per_d(users, group_pop, rest), (users, pop)
            assert all(type(w) is float for w in got)
