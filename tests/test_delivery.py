import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codedcache import (
    SCHEDULERS,
    BudgetExceededError,
    CacheState,
    DeliveryMessage,
    DeliverySchedule,
    UnsupportedConfigError,
    ValidationError,
    decodable,
    enumerate_indices,
    exhaustive_schedule,
    greedy_schedule,
    index_rank,
    make_config,
    make_schedule,
    needed_map,
    permute_schedule,
    place,
    place_alpha,
    place_beta,
    schedule_from_json,
    schedule_text,
    schedule_to_json,
    toy_cache,
    toy_config,
    toy_schedule,
)

A, B = 1, 2


def _msg(*items):
    pairs = []
    for file, *chains in items:
        from codedcache import SubfileIndex

        pairs.append((file, SubfileIndex.from_sets([tuple(int(c) for c in s) for s in chains])))
    return DeliveryMessage.build(pairs)


# Transcribed delivery table for the reference setup (sorted demands).
TOY_MESSAGES = {
    (1, 1, 1): [
        _msg((A, "12", "1"), (A, "13", "1"), (A, "23", "2")),
        _msg((A, "12", "2"), (A, "13", "3"), (A, "23", "3")),
    ],
    (1, 1, 2): [
        _msg((B, "12", "1"), (A, "23", "2")),
        _msg((B, "13", "1"), (A, "23", "3")),
        _msg((B, "12", "2"), (A, "13", "1")),
        _msg((B, "23", "2"), (A, "13", "3")),
    ],
    (1, 2, 2): [
        _msg((B, "12", "1"), (A, "23", "2")),
        _msg((B, "13", "1"), (A, "23", "3")),
        _msg((B, "12", "2"), (B, "13", "3")),
        _msg((B, "23", "2"), (B, "23", "3")),
    ],
    (2, 2, 2): [
        _msg((B, "12", "1"), (B, "12", "2")),
        _msg((B, "12", "1"), (B, "13", "3")),
        _msg((B, "13", "1"), (B, "23", "2")),
        _msg((B, "13", "1"), (B, "23", "3")),
    ],
}

TOY_RATES = {
    (1, 1, 1): Fraction(1, 3),
    (1, 1, 2): Fraction(2, 3),
    (1, 2, 2): Fraction(2, 3),
    (2, 2, 2): Fraction(2, 3),
}


def random_setup(rng, max_users=4, allow_alpha=True):
    users = rng.randint(2, max_users)
    levels = rng.randint(1, 3)
    sizes = [rng.randint(1, 2) for _ in range(levels)]
    if allow_alpha and rng.random() < 0.4:
        r = [rng.randint(0, users) for _ in range(levels)]
        cfg = make_config(users, sizes, r, strategy="alpha")
        cache = place_alpha(cfg)
    else:
        r = sorted((rng.randint(0, users) for _ in range(levels)), reverse=True)
        cfg = make_config(users, sizes, r)
        cache = place_beta(cfg)
    demand = tuple(rng.randint(1, sum(sizes)) for _ in range(users))
    return cfg, cache, demand


# ---------------------------------------------------------------------------
# decodability
# ---------------------------------------------------------------------------


def test_toy_table_decodes_for_canonical_demands():
    cache = toy_cache()
    for demand, messages in TOY_MESSAGES.items():
        schedule = make_schedule(cache, messages)
        assert schedule.rate == TOY_RATES[demand]
        assert decodable(cache, schedule, demand).ok


def test_empty_schedule_suffices_when_fully_cached():
    cfg = make_config(3, [1, 1], [3, 3])
    cache = place_beta(cfg)
    empty = DeliverySchedule((), Fraction(0))
    for demand in itertools.product((1, 2), repeat=3):
        assert decodable(cache, empty, demand).ok


def test_empty_schedule_fails_and_reports_missing_pieces():
    cache = toy_cache()
    report = decodable(cache, DeliverySchedule((), Fraction(0)), (1, 1, 2))
    assert not report.ok
    # users 1 and 2 want the partially cached file, user 3 wants the other
    assert set(report.missing) == {1, 2, 3}
    assert len(report.missing[3]) == 4
    assert all(f == B for f, _ in report.missing[3])


def test_certificates_xor_to_the_needed_piece():
    cache = toy_cache()
    for demand in itertools.product((1, 2), repeat=3):
        schedule = toy_schedule(demand)
        report = decodable(cache, schedule, demand)
        assert report.ok
        for k, certs in report.certificates.items():
            assert set(certs) == set(needed_map(cache, demand)[k])
            for (file, idx), cert in certs.items():
                acc = set()
                for pair in cert.cache_entries:
                    assert pair in cache.user_cache(k)
                    acc ^= {pair}
                for mi in cert.messages:
                    for pair in schedule.messages[mi].summands:
                        acc ^= {pair}
                assert acc == {(file, idx)}


def test_decodable_agrees_with_subset_enumeration_oracle():
    # independent reachability oracle: closure of XOR over rows (kept small
    # by using singleton groups so the span has at most 2**12 elements)
    rng = random.Random(5)
    for _ in range(25):
        users = rng.randint(2, 3)
        levels = rng.randint(1, 2)
        r = sorted((rng.randint(0, users) for _ in range(levels)), reverse=True)
        cfg = make_config(users, [1] * levels, r)
        cache = place_beta(cfg)
        demand = tuple(rng.randint(1, levels) for _ in range(users))
        schedule = greedy_schedule(cache, demand)
        # drop a message at random so failures get exercised too
        msgs = list(schedule.messages)
        if msgs and rng.random() < 0.5:
            msgs.pop(rng.randrange(len(msgs)))
        schedule = make_schedule(cache, msgs)
        report = decodable(cache, schedule, demand)
        for k in range(1, cache.users + 1):
            rows = [frozenset([p]) for p in cache.user_cache(k)]
            rows += [frozenset(m.summands) for m in schedule.messages]
            reachable = {frozenset()}
            for row in rows:
                reachable |= {r ^ row for r in reachable}
            for pair in needed_map(cache, demand)[k]:
                oracle_ok = frozenset([pair]) in reachable
                got_ok = pair in report.certificates.get(k, {})
                assert oracle_ok == got_ok


def test_monotone_adding_messages_never_breaks_decodability():
    cache = toy_cache()
    extra = _msg((A, "12", "1"))
    for demand in itertools.product((1, 2), repeat=3):
        schedule = toy_schedule(demand)
        assert decodable(cache, schedule, demand).ok
        bigger = make_schedule(cache, schedule.messages + (extra,))
        assert decodable(cache, bigger, demand).ok


def test_decodable_validates_inputs():
    cache = toy_cache()
    with pytest.raises(ValidationError):
        decodable(cache, DeliverySchedule((), Fraction(0)), (1, 1))  # wrong length
    with pytest.raises(ValidationError):
        decodable(cache, DeliverySchedule((), Fraction(0)), (1, 1, 5))  # bad file
    foreign = _msg((A, "123", "12"))  # chain from a different replication vector
    with pytest.raises(ValidationError):
        decodable(cache, DeliverySchedule((foreign,), Fraction(1, 6)), (1, 1, 1))


def test_decodable_rejects_a_rate_other_than_the_message_sum():
    cache = toy_cache()
    schedule = greedy_schedule(cache, (1, 1, 2))
    assert schedule.rate == 1
    assert decodable(cache, schedule, (1, 1, 2)).ok
    with pytest.raises(ValidationError, match="rate"):
        decodable(cache, DeliverySchedule(schedule.messages, Fraction(0)), (1, 1, 2))
    data = schedule_to_json(schedule, 3)
    data["rate"] = "1/2"
    with pytest.raises(ValidationError, match="rate"):
        decodable(cache, schedule_from_json(data), (1, 1, 2))


# ---------------------------------------------------------------------------
# tabulated schedule
# ---------------------------------------------------------------------------


def test_toy_schedule_reproduces_table_for_sorted_demands():
    for demand, messages in TOY_MESSAGES.items():
        got = toy_schedule(demand)
        assert list(got.messages) == messages
        assert got.rate == TOY_RATES[demand]


def test_toy_schedule_text_forms():
    got = schedule_text(toy_schedule((1, 1, 2)), 3)
    assert got == [
        "A_{23,2} + B_{12,1}",
        "A_{23,3} + B_{13,1}",
        "A_{13,1} + B_{12,2}",
        "A_{13,3} + B_{23,2}",
    ]


def test_toy_schedule_permuted_demands_decode():
    cache = toy_cache()
    for demand in itertools.product((1, 2), repeat=3):
        schedule = toy_schedule(demand)
        assert schedule.rate == TOY_RATES[tuple(sorted(demand))]
        assert decodable(cache, schedule, demand).ok


def test_toy_schedule_permutation_is_relabeled_table_row():
    got = toy_schedule((2, 1, 1))  # sorts to (1, 1, 2) via users (2, 3, 1)
    expected = permute_schedule(
        DeliverySchedule(tuple(TOY_MESSAGES[(1, 1, 2)]), Fraction(2, 3)), (2, 3, 1)
    )
    assert got.messages == expected.messages


def test_toy_schedule_rejects_other_setups():
    with pytest.raises(UnsupportedConfigError):
        toy_schedule((1, 2))
    with pytest.raises(UnsupportedConfigError):
        toy_schedule((1, 2, 3))


@pytest.mark.parametrize(
    "cfg",
    [make_config(3, [1, 1], [3, 0]), make_config(3, [1, 1], [2, 1], strategy="alpha")],
    ids=["beta-r30", "alpha-r21"],
)
def test_toy_scheduler_rejects_other_placements(cfg):
    with pytest.raises(UnsupportedConfigError, match="reference placement"):
        SCHEDULERS["toy"](place(cfg), (1, 1, 2))
    # the placement, not the popularity, decides
    cache = place(toy_config(Fraction(9, 10)))
    assert SCHEDULERS["toy"](cache, (1, 1, 2)) == toy_schedule((1, 1, 2))


# ---------------------------------------------------------------------------
# greedy scheduler
# ---------------------------------------------------------------------------


def test_greedy_empty_when_fully_cached():
    cache = place_beta(make_config(3, [1, 1], [3, 3]))
    schedule = greedy_schedule(cache, (1, 2, 1))
    assert schedule.messages == ()
    assert schedule.rate == 0


def test_greedy_toy_all_popular_matches_reference_rate():
    cache = toy_cache()
    schedule = greedy_schedule(cache, (1, 1, 1))
    assert decodable(cache, schedule, (1, 1, 1)).ok
    assert schedule.rate <= Fraction(2, 3)


def test_greedy_uncached_file_costs_one():
    cfg = make_config(3, [1, 1], [3, 0])
    cache = place_beta(cfg)
    schedule = greedy_schedule(cache, (1, 1, 2))
    assert decodable(cache, schedule, (1, 1, 2)).ok
    assert schedule.rate == 1


def test_greedy_deterministic():
    rng = random.Random(3)
    for _ in range(50):
        cfg, cache, demand = random_setup(rng)
        first = greedy_schedule(cache, demand)
        second = greedy_schedule(cache, demand)
        assert first == second


def test_greedy_sound_and_within_uncached_bound():
    rng = random.Random(2024)
    for _ in range(400):
        cfg, cache, demand = random_setup(rng)
        schedule = greedy_schedule(cache, demand)
        assert decodable(cache, schedule, demand).ok
        bound = Fraction(0)
        for f in set(demand):
            requesters = [k + 1 for k, df in enumerate(demand) if df == f]
            bound += 1 - min(cache.cached_fraction(k, f) for k in requesters)
        assert schedule.rate <= bound


@pytest.mark.parametrize(
    "row, demand",
    [
        ((0b000, 0b000, 0b001), {1: 1}),  # two pieces nobody caches
        ((0b011, 0b001, 0b000), {1: 1, 2: 1}),  # unequal holder counts
    ],
)
def test_greedy_sound_on_irregular_cache(row, demand):
    """Holder masks that neither placement produces send the regular pass
    to its uncoded fallback, which must still deliver every missing piece."""
    cache = CacheState(3, ((1,),), (row,))
    schedule = greedy_schedule(cache, demand)
    assert decodable(cache, schedule, demand)
    missing = sum(1 for mask in row if any(not mask >> (k - 1) & 1 for k in demand))
    assert schedule.rate <= Fraction(missing, len(row))


# sha256 over the JSON of greedy's schedule for every demand vector, in
# itertools.product order.  Any change to a schedule, including greedy's
# tie-break among equally large cliques, changes the digest.
GREEDY_GOLDEN = {
    (3, (1, 1), (2, 1), "beta"): "972ade9298605fbd43c4a8d6ac6679dbf4f1f8c742a75e56892d54132dde6da1",
    (4, (1, 1), (2, 1), "beta"): "ebc7dfe745c23985c2b54b04166c5b8bf26d3517f3906f215c386bdc5553a62e",
    (4, (1, 1, 1), (3, 1, 1), "beta"): "417ab74e56a056f71e48083f258be154367234262c894ba17b17d65a9ed1bad2",
    (5, (1, 1), (3, 1), "beta"): "1b0467c758efb7dc1d3a96caff331778f5f8f68dbb35e6bd3e78f576c9a1c93f",
    (5, (1, 1), (4, 2), "beta"): "90312b267ae846a776bcdcb82e5e415c73b15521823b52dee064a91ab1ac3684",
    # piece sizes 1/4 and 1/6: the clique pass's equal-size filter runs
    (4, (1, 1), (3, 2), "alpha"): "d68df3efb652c4c0520cc8e546bbdbc761902be10a1212c0262aef644758dea9",
    (4, (2, 1), (2, 1), "alpha"): "8505a3365a35450c09797a25327109d5726cde4574e6a38ec3850a7469507d6e",
}


@pytest.mark.parametrize("setup", GREEDY_GOLDEN, ids=lambda s: f"K{s[0]}-{s[3]}-r{s[2]}")
def test_greedy_schedules_match_golden_digest(setup):
    users, sizes, r, strategy = setup
    cfg = make_config(users, sizes, r, strategy=strategy)
    cache = place(cfg)
    digest = hashlib.sha256()
    for demand in itertools.product(range(1, cfg.num_files + 1), repeat=users):
        data = schedule_to_json(greedy_schedule(cache, demand), users, demand=demand)
        digest.update(json.dumps(data, sort_keys=True).encode())
    assert digest.hexdigest() == GREEDY_GOLDEN[setup]


@st.composite
def relabeled_demands(draw, max_users=5, strategies=("beta", "alpha")):
    users = draw(st.integers(2, max_users))
    levels = draw(st.integers(1, 2))
    sizes = draw(st.lists(st.integers(1, 2), min_size=levels, max_size=levels))
    r = draw(st.lists(st.integers(0, users), min_size=levels, max_size=levels))
    strategy = draw(st.sampled_from(strategies))
    if strategy == "beta":
        r.sort(reverse=True)
    files = st.integers(1, sum(sizes))
    demand = draw(st.lists(files, min_size=users, max_size=users))
    perm = draw(st.permutations(range(users)))
    return make_config(users, sizes, r, strategy=strategy), tuple(demand), perm


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="greedy's tie-break depends on user labels: at K = 5, r = (3, 2) "
    "the demand (1,2,1,2,2) costs 9/10 and (2,1,2,2,1) costs 14/15",
)
@settings(max_examples=150, deadline=None)
@given(relabeled_demands())
@example((make_config(5, [1, 1], [3, 2]), (1, 2, 1, 2, 2), [1, 0, 3, 4, 2]))
def test_greedy_rate_invariant_under_user_relabeling(case):
    # expected_rate_exact(symmetric=True) rates one demand per multiset
    cfg, demand, perm = case
    cache = place(cfg)
    relabeled = tuple(demand[j] for j in perm)
    assert greedy_schedule(cache, relabeled).rate == greedy_schedule(cache, demand).rate


@settings(max_examples=40, deadline=None)
@given(relabeled_demands(max_users=3, strategies=("beta",)))
def test_exhaustive_rate_invariant_under_user_relabeling_on_beta(case):
    # the rates --m-sweep path: expected_rate_exact(symmetric=True) over
    # exhaustive schedules of beta placements, whose pieces share one size
    cfg, demand, perm = case
    cache = place(cfg)
    relabeled = tuple(demand[j] for j in perm)
    assert exhaustive_schedule(cache, relabeled).rate == exhaustive_schedule(cache, demand).rate


# ---------------------------------------------------------------------------
# exhaustive scheduler
# ---------------------------------------------------------------------------


def test_exhaustive_toy_values():
    cache = toy_cache()
    assert exhaustive_schedule(cache, (1, 1, 1)).rate == Fraction(1, 3)
    assert exhaustive_schedule(cache, (2, 2, 2)).rate == Fraction(2, 3)


def test_exhaustive_matches_shared_level_rates():
    # both files replicated once per user: mixed demands cost 1, pure 2/3
    cfg = make_config(3, [1, 1], [1, 1])
    cache = place_beta(cfg)
    for demand in itertools.product((1, 2), repeat=3):
        schedule = exhaustive_schedule(cache, demand)
        assert decodable(cache, schedule, demand).ok
        expect = Fraction(2, 3) if len(set(demand)) == 1 else Fraction(1)
        assert schedule.rate == expect


def test_exhaustive_budget_exhaustion():
    cache = toy_cache()
    with pytest.raises(BudgetExceededError):
        exhaustive_schedule(cache, (2, 2, 2), max_messages=3)
    with pytest.raises(BudgetExceededError):
        exhaustive_schedule(cache, (2, 2, 2), max_nodes=2)


def test_exhaustive_never_worse_than_greedy():
    rng = random.Random(17)
    for _ in range(150):
        cfg, cache, demand = random_setup(rng, max_users=3)
        greedy = greedy_schedule(cache, demand)
        exact = exhaustive_schedule(cache, demand, max_messages=14)
        assert decodable(cache, exact, demand).ok
        assert exact.rate <= greedy.rate


def test_exhaustive_deterministic():
    cache = toy_cache()
    runs = [exhaustive_schedule(cache, (1, 2, 2)) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


# ---------------------------------------------------------------------------
# permutation equivariance
# ---------------------------------------------------------------------------


def test_schedules_map_to_schedules_under_user_relabeling():
    rng = random.Random(99)
    for _ in range(100):
        cfg, cache, demand = random_setup(rng)
        perm = list(range(1, cache.users + 1))
        rng.shuffle(perm)
        schedule = greedy_schedule(cache, demand)
        permuted_demand = [0] * cache.users
        for k in range(1, cache.users + 1):
            permuted_demand[perm[k - 1] - 1] = demand[k - 1]
        moved = permute_schedule(schedule, perm)
        assert moved.rate == schedule.rate
        assert decodable(cache, moved, tuple(permuted_demand)).ok


# ---------------------------------------------------------------------------
# message validation and serialization
# ---------------------------------------------------------------------------


def test_duplicate_summands_rejected():
    from codedcache import SubfileIndex

    idx = SubfileIndex.from_sets([(1, 2), (1,)])
    with pytest.raises(ValidationError):
        DeliveryMessage.build([(A, idx), (A, idx)])
    with pytest.raises(ValidationError):
        DeliveryMessage.build([])


def test_mixed_piece_sizes_rejected():
    cfg = make_config(4, [1, 1], [3, 2], strategy="alpha")
    cache = place_alpha(cfg)
    i1 = enumerate_indices(4, (3,))[0]
    i2 = enumerate_indices(4, (2,))[0]
    with pytest.raises(ValidationError):
        make_schedule(cache, [DeliveryMessage.build([(1, i1), (2, i2)])])
    # file 0 would otherwise index the last file's piece count
    with pytest.raises(ValidationError, match="outside"):
        make_schedule(cache, [DeliveryMessage.build([(0, i2)])])


def test_schedule_json_round_trip():
    schedule = toy_schedule((1, 2, 2))
    data = schedule_to_json(schedule, 3, demand=(1, 2, 2))
    assert data["rate"] == "2/3"
    assert data["demand"] == [1, 2, 2]
    again = schedule_from_json(data)
    assert again == schedule


def test_schedule_json_rejects_garbage():
    with pytest.raises(ValidationError):
        schedule_from_json({"rate": "1/3"})
