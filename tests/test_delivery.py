import hashlib
import itertools
import json
import pickle
import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import xor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codedcache import (
    SCHEDULERS,
    BudgetExceededError,
    CacheState,
    Certificate,
    DeliveryMessage,
    DeliverySchedule,
    UnsupportedConfigError,
    ValidationError,
    cache_from_json,
    cache_to_json,
    chain_bound,
    classic_rate,
    decodable,
    enumerate_indices,
    exhaustive_rate,
    exhaustive_schedule,
    greedy_schedule,
    index_rank,
    leader_schedule,
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
    subpacketization,
    toy_cache,
    toy_config,
    toy_schedule,
)
from codedcache import delivery
from codedcache.delivery import _candidate_messages, _CliqueIndex, _PieceTable, normalize_demand
from codedcache.gf2 import GF2Basis
from codedcache.rates import _compositions

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


@pytest.mark.parametrize("demand", [(True, 2, 2), (1.0, 2, 2), {1.0: 1}, {True: 1}])
@pytest.mark.parametrize("use", [greedy_schedule, needed_map])
def test_non_integer_demand_rejected(use, demand):
    # True == 1 and 1.0 == 1, yet neither names a user or a file
    with pytest.raises(ValidationError, match="integer"):
        use(toy_cache(), demand)


@st.composite
def _mask_states(draw):
    """A demand and two cache states on the same random spaces, whose
    holder masks are arbitrary and each other's complements."""
    users = draw(st.integers(1, 5))
    spaces = []
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.lists(st.integers(0, users), min_size=1, max_size=3))
        spaces.append(tuple(sorted(r, reverse=True)))
    full = (1 << users) - 1
    masks = [
        draw(st.lists(st.integers(0, full), min_size=n, max_size=n))
        for n in (subpacketization(users, space) for space in spaces)
    ]
    flipped = [[full ^ m for m in row] for row in masks]
    demand = draw(st.lists(st.integers(1, len(spaces)), min_size=users, max_size=users))
    return tuple(demand), CacheState(users, spaces, masks), CacheState(users, spaces, flipped)


@settings(max_examples=150, deadline=None)
@given(_mask_states())
def test_needed_map_and_user_cache_follow_the_masks_of_each_state(case):
    demand, *states = case
    # both states are queried in one process, so a memo keyed on the spaces
    # alone would hand the second the first one's sets
    for cache in states * 2:
        pieces = {f: tuple(zip(cache.indices(f), cache.masks[f - 1])) for f in set(demand)}
        expected = {
            k: frozenset((f, idx) for idx, m in pieces[f] if not m & 1 << (k - 1))
            for k, f in enumerate(demand, start=1)
        }
        assert needed_map(cache, demand) == expected
        for k in range(1, cache.users + 1):
            assert cache.user_cache(k) == {
                (f, idx)
                for f in range(1, cache.num_files + 1)
                for idx, m in zip(cache.indices(f), cache.masks[f - 1])
                if m & 1 << (k - 1)
            }


def eager_certificates(cache, schedule, demand):
    """Every certificate as the eager check built them, in its order: per
    user, one tagged basis of the messages cut to the user's uncached
    columns, and a solve of each needed column in ascending order."""
    table = _PieceTable(cache)
    vectors = [reduce(xor, (1 << c for c in table.body(m))) for m in schedule.messages]
    out = {}
    for k, needed in table.needed(normalize_demand(cache, demand)).items():
        bit = 1 << (k - 1)
        uncached = sum(1 << c for c, mask in enumerate(table.holders) if not mask & bit)
        basis = GF2Basis()
        for i, vec in enumerate(vectors):
            basis.add(vec & uncached, tag=i)
        certs = {}
        for column in needed:
            combo = basis.solve(1 << column)
            if combo is None:
                continue
            used = [i for i in range(len(vectors)) if combo >> i & 1]
            rest = 1 << column
            for i in used:
                rest ^= vectors[i]
            entries = tuple(pair for c, pair in enumerate(table.pairs) if rest >> c & 1)
            certs[table.pairs[column]] = Certificate(entries, tuple(used))
        out[k] = certs
    return out


@settings(max_examples=150, deadline=None)
@given(_mask_states(), st.randoms(use_true_random=False))
def test_decodable_verdict_and_certificates_agree_with_the_oracles(case, rng):
    # greedy's messages on arbitrary masks plus a few random XORs of
    # equal-size pieces, of which a random subset of at most 10 is sent,
    # so that users fail and certificates combine several messages
    demand, *states = case
    for cache in states:
        by_size = {}
        for f in range(1, cache.num_files + 1):
            by_size.setdefault(cache.subpacketization(f), []).extend(cache.pairs(f))
        messages = list(greedy_schedule(cache, demand).messages)
        for _ in range(rng.randint(0, 3)):
            pool = rng.choice(list(by_size.values()))
            messages.append(DeliveryMessage.build(rng.sample(pool, min(len(pool), rng.randint(1, 3)))))
        sent = rng.sample(messages, rng.randint(max(0, len(messages) - 2), len(messages)))
        schedule = make_schedule(cache, sent[:10])
        report = decodable(cache, schedule, demand)

        # subset enumeration: a needed piece is recoverable iff some set of
        # messages sums to it on the pieces the user does not cache
        needed = needed_map(cache, demand)
        expected = {}
        for k in range(1, cache.users + 1):
            cached = cache.user_cache(k)
            reachable = {frozenset()}
            for message in schedule.messages:
                cut = frozenset(message.summands) - cached
                reachable |= {r ^ cut for r in reachable}
            lacking = tuple(p for p in sorted(needed[k]) if frozenset([p]) not in reachable)
            if lacking:
                expected[k] = lacking
        assert list(report.missing.items()) == list(expected.items())
        assert report.ok is (not expected) and bool(report) is report.ok

        certificates = report.certificates
        assert certificates is report.certificates
        eager = eager_certificates(cache, schedule, demand)
        assert [(k, list(c.items())) for k, c in certificates.items()] == [
            (k, list(c.items())) for k, c in eager.items()
        ]
        for k, certs in certificates.items():
            assert set(certs) == needed[k] - set(expected.get(k, ()))


@pytest.mark.parametrize(
    "summand, says",
    [
        (lambda idx: (1.0, idx), "file must be an integer, got 1.0"),
        (lambda idx: (True, idx), "file must be an integer, got True"),
        (lambda idx: (0, idx), r"file 0 outside \[1, 2\]"),
        (lambda idx: (3, idx), r"file 3 outside \[1, 2\]"),
        (lambda idx: (1, tuple(idx)), "is not a SubfileIndex"),
    ],
    ids=["float", "bool", "file-0", "file-N+1", "plain-tuple"],
)
def test_a_summand_that_names_no_piece_by_its_types_is_rejected(summand, says):
    # DeliveryMessage.build checks the file, but a message made directly
    # reaches the placement's lookup, where 1.0 and True hash and compare
    # as file 1 and a plain tuple as the SubfileIndex of its masks
    cache = toy_cache()
    message = DeliveryMessage((summand(cache.indices(1)[0]),))
    with pytest.raises(ValidationError, match=says):
        make_schedule(cache, [message])
    with pytest.raises(ValidationError, match=says):
        decodable(cache, DeliverySchedule((message,), Fraction(1, 6)), (1, 1, 2))


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


@pytest.mark.parametrize(
    "perm", [[1, 1, 2], [1, 2], [0, 1, 2], [2, 3, 4], [1.0, 2.0, 3.0], [True, 3, 2]], ids=str
)
def test_permute_schedule_rejects_a_non_permutation(perm):
    # a repeated image would merge two users' chains; a short one names no
    # image for user 3
    with pytest.raises(ValidationError):
        permute_schedule(toy_schedule((1, 1, 2)), perm)


def test_permute_schedule_accepts_extra_users():
    schedule = toy_schedule((1, 1, 2))
    assert permute_schedule(schedule, [1, 2, 3, 4]).messages == schedule.messages


def test_toy_schedule_rejects_other_setups():
    with pytest.raises(UnsupportedConfigError):
        toy_schedule((1, 2))
    with pytest.raises(UnsupportedConfigError):
        toy_schedule((1, 2, 3))


@pytest.mark.parametrize(
    "demand", [(1, 1, True), (1, 1.0, 2), {1: 1, 2: 2}, {1: 1, 2: 1, 4: 2}], ids=str
)
def test_toy_schedule_validates_like_every_scheduler(demand):
    # True is no file 1, 1.0 no file 1, and a mapping must name all 3 users
    with pytest.raises(ValidationError):
        toy_schedule(demand)


def test_toy_schedule_accepts_a_full_mapping():
    assert toy_schedule({1: 1, 2: 1, 3: 2}) == toy_schedule((1, 1, 2))
    assert toy_schedule({3: 1, 1: 2, 2: 1}) == toy_schedule((2, 1, 1))


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
    # the benchmark's configs, where buckets empty and are pruned most;
    # alpha's piece sizes are 1/20 and 1/15
    (6, (1, 1), (3, 2), "beta"): "10a0fadf9158981b97bffdacba5993894360508b212b9e2fea2f551cfbc0d5f4",
    (6, (1, 1), (3, 2), "alpha"): "de14779badb92a67278e63d7d803689344bb39a9493d225f00c6564d182778ba",
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


def _reference_clique_pass(table, needed):
    """Greedy's clique rule from scratch: after every message a fresh index
    of what is left, and the least sorted tuple of member heads at the
    largest group size that has a clique."""
    left = {k: list(columns) for k, columns in needed.items()}
    messages = []
    while any(left.values()):
        index = _CliqueIndex(table, left)
        size = len(index.buckets)
        while not (found := index.cliques(size)):
            size -= 1
        best = min(
            tuple(sorted(min(bucket[0] for bucket in buckets) for buckets in fits))
            for _, _, fits in found
        )
        messages.append(best)
        # a user that caches all summands but one decodes that one
        for k, columns in left.items():
            lacking = [c for c in best if not table.holders[c] >> (k - 1) & 1]
            if len(lacking) == 1 and lacking[0] in columns:
                columns.remove(lacking[0])
    return messages


@settings(max_examples=60, deadline=None)
@given(relabeled_demands(max_users=6), st.none() | st.integers(0, 2**32))
@example((make_config(6, [1, 1], [3, 2], strategy="alpha"), (1, 2, 2, 1, 2, 1), None), None)
@example((make_config(5, [1, 1], [3, 2]), (1, 2, 1, 2, 2), None), 3)
def test_clique_pass_sends_what_a_fresh_index_picks_after_every_message(case, mask_seed):
    cfg, demand, _ = case
    cache = place(cfg)
    if mask_seed is not None:
        # holder masks that no placement makes
        rng = random.Random(mask_seed)
        full = (1 << cfg.users) - 1
        masks = tuple(tuple(rng.randint(0, full) for _ in row) for row in cache.masks)
        cache = CacheState(cfg.users, cache.spaces, masks)
    table = _PieceTable(cache)
    needed = table.needed(normalize_demand(cache, demand))
    assert delivery._clique_pass(table, needed) == _reference_clique_pass(table, needed)


def test_greedy_builds_the_groups_of_each_size_once(monkeypatch):
    # one file at r = 1: every holder mask names one user, so no group is
    # larger than two, and every clique message empties two buckets
    users = 30
    cache = place_beta(make_config(users, [1], [1]))
    built = []
    cliques = _CliqueIndex.cliques

    def counted(self, size):
        built.append(size)
        return cliques(self, size)

    monkeypatch.setattr(_CliqueIndex, "cliques", counted)
    schedule = greedy_schedule(cache, [1] * users)
    assert schedule.rate == Fraction(29, 30) and len(schedule.messages) == 29
    assert built == [2]

    # a demand whose clique pass ends in uncoded pieces: the tail is sent
    # without building the one-user groups
    built.clear()
    schedule = greedy_schedule(place_beta(make_config(5, [1, 1], [3, 1])), (1, 2, 1, 2, 2))
    assert schedule.rate == Fraction(6, 5) and len(schedule.messages) == 36
    assert built == [4, 3, 2]


def test_greedy_sends_a_file_no_one_caches_once_uncoded_in_column_order():
    # file 2 sits at r = 0, so no clique holds its pieces: each is sent
    # once, alone, in ascending column order, though three users request it
    cache = place_beta(make_config(4, [1, 1], [2, 0]))
    demand = (2, 1, 2, 2)
    table = _PieceTable(cache)
    messages = delivery._clique_pass(table, table.needed(normalize_demand(cache, demand)))
    file_two = set(table.columns(2))
    assert [m for m in messages if file_two & set(m)] == [(c,) for c in table.columns(2)]
    schedule = greedy_schedule(cache, demand)
    sent = [m.summands for m in schedule.messages if any(f == 2 for f, _ in m.summands)]
    assert sent == [(pair,) for pair in cache.pairs(2)]
    assert decodable(cache, schedule, demand).ok


def _reference_send(table, buckets, body):
    """`_CliqueIndex.send` as a loop over every user and every summand: a
    user that caches all summands but one decodes that one."""
    for k in list(buckets):
        lacking = [c for c in body if not table.holders[c] >> (k - 1) & 1]
        if len(lacking) != 1:
            continue
        [column] = lacking
        by_bucket = buckets[k]
        where = (table.counts[column], table.holders[column])
        bucket = by_bucket.get(where)
        if bucket is None or column not in bucket:
            continue
        bucket.remove(column)
        if not bucket:
            del by_bucket[where]
            if not by_bucket:
                del buckets[k]


@settings(max_examples=100, deadline=None)
@given(relabeled_demands(max_users=6), st.none() | st.integers(0, 2**32), st.data())
def test_send_drops_what_the_per_user_loop_drops(case, mask_seed, data):
    cfg, demand, _ = case
    cache = place(cfg)
    if mask_seed is not None:
        rng = random.Random(mask_seed)
        full = (1 << cfg.users) - 1
        masks = tuple(tuple(rng.randint(0, full) for _ in row) for row in cache.masks)
        cache = CacheState(cfg.users, cache.spaces, masks)
    table = _PieceTable(cache)
    index = _CliqueIndex(table, table.needed(normalize_demand(cache, demand)))
    expected = {k: {b: list(v) for b, v in d.items()} for k, d in index.buckets.items()}
    by_size = {}
    for column, count in enumerate(table.counts):
        by_size.setdefault(count, []).append(column)
    for _ in range(data.draw(st.integers(1, 12))):
        # any equal-size columns, repeats, unneeded and fully cached ones
        # included, or the message some clique of the index can send
        cliques = [fits for size in (2, 3) for _, _, fits in index.cliques(size)]
        heads = [h for fits in cliques if (h := delivery._heads(fits))]
        if heads and data.draw(st.booleans()):
            body = data.draw(st.sampled_from(heads))
        else:
            columns = by_size[data.draw(st.sampled_from(sorted(by_size)))]
            body = data.draw(st.lists(st.sampled_from(columns), min_size=1, max_size=4))
        index.send(body)
        _reference_send(table, expected, body)
        assert index.buckets == expected
        assert index.active == sum(1 << (k - 1) for k in expected)


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
    # expected_rate_exact rates one demand per multiset, its sorted representative
    cfg, demand, perm = case
    cache = place(cfg)
    relabeled = tuple(demand[j] for j in perm)
    assert greedy_schedule(cache, relabeled).rate == greedy_schedule(cache, demand).rate


@settings(max_examples=40, deadline=None)
@given(relabeled_demands(max_users=3, strategies=("beta",)))
def test_exhaustive_rate_invariant_under_user_relabeling_on_beta(case):
    # the rates --m-sweep path: expected_rate_exact, which rates sorted
    # representatives, over exhaustive schedules of beta placements, whose
    # pieces share one size
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


def test_exhaustive_budget_exhaustion(monkeypatch):
    cache = toy_cache()
    budgets = [
        ("_MAX_MESSAGES", 3),
        ("_MAX_NODES", 2),
        ("_MAX_MESSAGES", 0),
        ("_MAX_NODES", 0),
        ("_CANDIDATE_CAP", 0),
    ]
    for budget, value in budgets:
        with monkeypatch.context() as patch:
            patch.setattr(delivery, budget, value)
            with pytest.raises(BudgetExceededError):
                exhaustive_schedule(cache, (2, 2, 2))


def test_exhaustive_never_worse_than_greedy():
    rng = random.Random(17)
    for _ in range(150):
        cfg, cache, demand = random_setup(rng, max_users=3)
        greedy = greedy_schedule(cache, demand)
        exact = exhaustive_schedule(cache, demand)
        assert decodable(cache, exact, demand).ok
        assert exact.rate <= greedy.rate


def test_exhaustive_raises_at_once_where_the_bound_exceeds_the_message_budget(monkeypatch):
    # piece-count bound 435 > _MAX_MESSAGES: neither the candidate family
    # nor the clique pass is built before the search gives up
    cache = place_beta(make_config(8, [1, 1], [4, 2]))
    demand = (1, 2, 1, 2, 1, 2, 1, 2)
    assert delivery._piece_count_bound(cache, normalize_demand(cache, demand)) == 435

    def unreachable(*args):
        raise AssertionError("built although the bound exceeds the message budget")

    monkeypatch.setattr(delivery, "_candidate_messages", unreachable)
    monkeypatch.setattr(delivery, "_clique_pass", unreachable)
    for use in (exhaustive_schedule, exhaustive_rate):
        with pytest.raises(BudgetExceededError, match="no schedule within 12 messages"):
            use(cache, demand)


def test_exhaustive_node_budget_is_exact(monkeypatch):
    # the least budget that finds a schedule; the two-basis search, which
    # starts at the largest needed count and has no reach cut, needs 4843
    cache = place(make_config(3, [1, 1, 1], [2, 1, 1]))
    monkeypatch.setattr(delivery, "_MAX_NODES", 1211)
    assert exhaustive_schedule(cache, (1, 2, 3)).rate == 1
    monkeypatch.setattr(delivery, "_MAX_NODES", 1210)
    with pytest.raises(BudgetExceededError, match="1210 nodes"):
        exhaustive_schedule(cache, (1, 2, 3))


def two_basis_exhaustive(cache, demand, budget=None):
    """The exhaustive search as it was before its in-place rewrite: per
    user a basis of the message span and one of the span joined with the
    needed units, both copied on every accepted branch, with the deficiency
    read off their ranks.  Its iterative deepening starts at the largest
    needed count, and it prunes by deficiency against depth alone.  Kept as
    the reference for the search tree; returns None when no schedule fits
    in ``_MAX_MESSAGES`` messages and raises past `budget` nodes."""
    table = _PieceTable(cache)
    needed = {k: c for k, c in table.needed(normalize_demand(cache, demand)).items() if c}
    if not needed:
        return DeliverySchedule((), Fraction(0))
    candidates = _candidate_messages(_CliqueIndex(table, needed))
    cache_masks = {
        k: sum(1 << c for c, mask in enumerate(table.holders) if mask >> (k - 1) & 1)
        for k in needed
    }
    vectors = [sum(1 << column for column in columns) for columns in candidates]
    proj = [{k: vec & ~cache_masks[k] for k in needed} for vec in vectors]

    nodes = 0

    def search(start, state, slots):
        nonlocal nodes
        worst = max(deficiency for _, _, deficiency in state.values())
        if worst == 0:
            return []
        if worst > slots:
            return None
        for i in range(start, len(candidates)):
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError(f"search exceeded {budget} nodes")
            new_state = None
            for k, (span, joined, _) in state.items():
                vec = proj[i][k]
                if not vec or span.contains(vec):
                    continue
                span = span.copy()
                span.add(vec)
                if not joined.contains(vec):
                    joined = joined.copy()
                    joined.add(vec)
                new_state = new_state or dict(state)
                new_state[k] = (span, joined, joined.rank - span.rank)
            if new_state is None:
                continue
            found = search(i + 1, new_state, slots - 1)
            if found is not None:
                return [i] + found
        return None

    root = {}
    for k, columns in needed.items():
        joined = GF2Basis()
        for column in columns:
            joined.add(1 << column)
        root[k] = (GF2Basis(), joined, joined.rank)
    for depth in range(max(len(c) for c in needed.values()), delivery._MAX_MESSAGES + 1):
        picked = search(0, root, depth)
        if picked is not None:
            return make_schedule(cache, (table.message(candidates[i]) for i in picked))
    return None


def test_exhaustive_matches_the_two_basis_search():
    rng = random.Random(6)
    for _ in range(150):
        cfg, cache, demand = random_setup(rng, max_users=3)
        expected = two_basis_exhaustive(cache, demand)
        if expected is None:
            with pytest.raises(BudgetExceededError):
                exhaustive_schedule(cache, demand)
        else:
            assert exhaustive_schedule(cache, demand) == expected


def test_exhaustive_finds_the_two_basis_schedule_at_four_users(monkeypatch):
    # the depths below the chain bound and the branches the reach cut drops
    # hold no schedule, so the first schedule found is the same one
    monkeypatch.setattr(delivery, "_MAX_NODES", 20_000)
    rng = random.Random(4)
    found = 0
    for _ in range(300):
        levels = rng.randint(1, 3)
        sizes = [rng.randint(1, 2) for _ in range(levels)]
        r = [rng.randint(0, 4) for _ in range(levels)]
        strategy = rng.choice(["beta", "alpha"])
        if strategy == "beta":
            r.sort(reverse=True)
        cache = place(make_config(4, sizes, r, strategy=strategy))
        demand = tuple(rng.randint(1, sum(sizes)) for _ in range(4))
        try:
            expected = two_basis_exhaustive(cache, demand, budget=20_000)
        except BudgetExceededError:
            expected = "budget"
        if expected is None:
            with pytest.raises(BudgetExceededError, match="no schedule"):
                exhaustive_schedule(cache, demand)
        elif expected == "budget":
            try:
                schedule = exhaustive_schedule(cache, demand)
            except BudgetExceededError:
                continue
            assert decodable(cache, schedule, demand).ok
        else:
            assert exhaustive_schedule(cache, demand) == expected
            found += 1
    assert found > 200


def test_exhaustive_rate_is_the_searched_rate(monkeypatch):
    # where the search returns, the rate function returns its rate; where
    # only the rate function returns, the clique pass met the bound
    monkeypatch.setattr(delivery, "_MAX_NODES", 20_000)
    rng = random.Random(22)
    outcomes = Counter()
    for _ in range(300):
        cfg, cache, demand = random_setup(rng, max_users=5)
        table = _PieceTable(cache)
        clique_pass = delivery._clique_pass(table, table.needed(normalize_demand(cache, demand)))
        assert decodable(cache, table.schedule(clique_pass), demand).ok
        try:
            searched = exhaustive_schedule(cache, demand).rate
        except BudgetExceededError:
            searched = None
        try:
            rate = exhaustive_rate(cache, demand)
        except BudgetExceededError:
            assert searched is None
            outcomes["both raise"] += 1
            continue
        if searched is None:
            assert rate == chain_bound(cache, demand), (cfg, demand)
            outcomes["search raises"] += 1
        else:
            assert rate == searched, (cfg, demand)
            outcomes["both return"] += 1
    assert outcomes["both return"] > 200
    assert outcomes["search raises"] > 0


def test_exhaustive_rate_returns_the_bound_where_the_search_runs_out(monkeypatch):
    # one group of two files at level 3 of 5, S = 10: the clique pass sends
    # 5 four-summand messages, as many as the piece-count bound
    monkeypatch.setattr(delivery, "_MAX_NODES", 20_000)
    cache = place(make_config(5, [2], [3]))
    demand = (2, 2, 1, 2, 1)
    with pytest.raises(BudgetExceededError, match="20000 nodes"):
        exhaustive_schedule(cache, demand)
    assert exhaustive_rate(cache, demand) == chain_bound(cache, demand) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# per-level leader scheduler
# ---------------------------------------------------------------------------

LEADER_SIZES = [(1,), (2,), (1, 1), (1, 2), (2, 1), (1, 1, 1)]


def _level_sum(cfg, demand):
    """Sum over cache levels t of classic_rate(K, t, D_t), D_t the distinct
    requested files whose group is cached at level t."""
    distinct = {}
    for f in set(demand):
        distinct.setdefault(cfg.r_vector[cfg.group_of(f) - 1], set()).add(f)
    return sum((classic_rate(cfg.users, t, len(fs)) for t, fs in distinct.items()), Fraction(0))


def _leader_cases():
    """Both strategies at K = 2..5, every non-increasing r for each group
    sizes of LEADER_SIZES; every demand up to K = 4, sorted ones at K = 5."""
    for users in range(2, 6):
        for sizes in LEADER_SIZES:
            files = range(1, sum(sizes) + 1)
            for r in itertools.combinations_with_replacement(range(users, -1, -1), len(sizes)):
                for strategy in ("beta", "alpha"):
                    cfg = make_config(users, list(sizes), list(r), strategy=strategy)
                    cache = place(cfg)
                    if users <= 4:
                        demands = itertools.product(files, repeat=users)
                    else:
                        demands = itertools.combinations_with_replacement(files, users)
                    for demand in demands:
                        yield cfg, cache, demand


def test_leader_schedule_decodes_at_the_sum_of_its_level_rates():
    cases = 0
    for cfg, cache, demand in _leader_cases():
        schedule = leader_schedule(cache, demand)
        assert decodable(cache, schedule, demand).ok, (cfg, demand)
        assert schedule.rate == _level_sum(cfg, demand), (cfg, demand)
        cases += 1
    assert cases == 18_498


@settings(max_examples=150, deadline=None)
@given(relabeled_demands())
def test_leader_rate_invariant_under_user_relabeling(case):
    cfg, demand, perm = case
    cache = place(cfg)
    relabeled = tuple(demand[j] for j in perm)
    rate = leader_schedule(cache, demand).rate
    assert leader_schedule(cache, relabeled).rate == rate == _level_sum(cfg, demand)


def test_leader_schedule_serves_a_partial_demand():
    # users without a request neither lead nor join a message
    cfg = make_config(4, [1, 1], [2, 1])
    cache = place(cfg)
    demand = {2: 1, 4: 2}
    schedule = leader_schedule(cache, demand)
    assert decodable(cache, schedule, demand).ok
    assert schedule.rate == classic_rate(4, 2, 1) + classic_rate(4, 1, 1)


@pytest.mark.parametrize("edit", ["dropped", "moved"])
def test_leader_schedule_raises_where_a_row_is_not_one_level(edit):
    # dropped: a piece of file 1 loses a holder, so its masks have unequal
    # sizes; moved: a piece of user 1 goes to user 3, who lacks it, so every
    # mask keeps two bits but the pair subsets hold unequal counts
    data = cache_to_json(toy_cache())
    entries = data["users"][0]["entries"]
    if edit == "dropped":
        entries.pop(0)
    else:
        held = {(e["file"], json.dumps(e["chains"])) for e in data["users"][2]["entries"]}
        i = next(i for i, e in enumerate(entries) if (e["file"], json.dumps(e["chains"])) not in held)
        assert entries[i]["file"] == 1
        data["users"][2]["entries"].append(entries.pop(i))
    cache = cache_from_json(data)
    row = cache.masks[0]
    assert delivery._cache_level(Counter(row), 3) is None
    assert len({mask.bit_count() for mask in row}) == (2 if edit == "dropped" else 1)
    with pytest.raises(UnsupportedConfigError, match="one level"):
        leader_schedule(cache, (1, 1, 2))
    # the rate function passes such a row on to the clique pass and the search
    assert exhaustive_rate(cache, (1, 1, 2)) == exhaustive_schedule(cache, (1, 1, 2)).rate


def test_exhaustive_rate_is_the_searched_rate_over_the_four_user_groupings(monkeypatch):
    # every grouping of 1-3 files, every replication vector and sorted
    # demand at K = 4: where the search returns, the rate function returns
    # its rate, whichever certificate meets the bound first; where only the
    # rate function returns, the rate is the chain bound
    monkeypatch.setattr(delivery, "_MAX_NODES", 5_000)
    outcomes = Counter()
    for files in (1, 2, 3):
        for sizes in _compositions(files):
            for r in itertools.combinations_with_replacement(range(4, -1, -1), len(sizes)):
                cache = place(make_config(4, list(sizes), list(r)))
                for demand in itertools.combinations_with_replacement(range(1, files + 1), 4):
                    dem = normalize_demand(cache, demand)
                    levels, count = delivery._leader_levels(cache, dem)
                    bound = delivery._piece_count_bound(cache, dem)
                    # the leader certifies at any bound: at its own count, with
                    # one piece size and no message of more than _MAX_SUMMANDS
                    sending = [(t, s, len(req)) for (t, s), req in levels.items() if t < 4]
                    leader = (
                        count == bound
                        and len({s for _, s, _ in sending}) <= 1
                        and all(min(t + 1, n) <= delivery._MAX_SUMMANDS for t, _, n in sending)
                    )
                    try:
                        searched = exhaustive_schedule(cache, demand).rate
                    except BudgetExceededError:
                        searched = None
                    try:
                        rate = exhaustive_rate(cache, demand)
                    except BudgetExceededError:
                        assert searched is None and not leader, (sizes, r, demand)
                        outcomes["both raise"] += 1
                        continue
                    if searched is None:
                        # only a certificate returns where the search raises
                        table = _PieceTable(cache)
                        clique_pass = delivery._clique_pass(table, table.needed(dem))
                        assert leader or len(clique_pass) == bound, (sizes, r, demand)
                        assert rate == chain_bound(cache, demand), (sizes, r, demand)
                    else:
                        assert rate == searched, (sizes, r, demand)
                    outcomes["search returns" if searched is not None else "search raises", leader] += 1
    assert outcomes["search returns", True] > 900
    assert outcomes["search raises", True] > 0
    assert outcomes["search returns", False] > 0


def test_exhaustive_rate_takes_the_leader_above_the_message_budget():
    # K = 4, one file per level of r = (3, 2, 1), everyone on file 3: the
    # bound and the leader's count are both 18 messages, past the search's
    # budget of 12, so the search raises and the leader gives the rate
    cache = place(make_config(4, [1, 1, 1], [3, 2, 1]))
    demand = (3, 3, 3, 3)
    dem = normalize_demand(cache, demand)
    assert delivery._piece_count_bound(cache, dem) == 18 > delivery._MAX_MESSAGES
    assert leader_schedule(cache, demand).rate == Fraction(3, 4)
    with pytest.raises(BudgetExceededError):
        exhaustive_schedule(cache, demand)
    assert exhaustive_rate(cache, demand) == chain_bound(cache, demand) == Fraction(3, 4)


def test_exhaustive_rate_leaves_a_leader_wider_than_the_candidates_to_the_search():
    # one file at level 4 of 5: the leader sends W_{1,A - {k}} for all five
    # users k at once, at the chain bound, but the search's candidates have
    # at most four summands, so its rate, and the rate function's, is above
    cache = place(make_config(5, [1], [4]))
    demand = (1, 1, 1, 1, 1)
    assert leader_schedule(cache, demand).rate == chain_bound(cache, demand) == Fraction(1, 5)
    assert exhaustive_rate(cache, demand) == exhaustive_schedule(cache, demand).rate == Fraction(2, 5)


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


def test_schedule_rate_is_the_sum_of_its_message_sizes(monkeypatch):
    # make_schedule sums one Fraction per piece size; it must equal one per message
    monkeypatch.setattr(delivery, "_MAX_NODES", 20_000)
    rng = random.Random(14)
    checked = 0
    for _ in range(120):
        users = rng.randint(1, 5)
        levels = rng.randint(1, 3)
        sizes = [rng.randint(1, 2) for _ in range(levels)]
        r = [rng.randint(0, users) for _ in range(levels)]
        strategy = rng.choice(["beta", "alpha"])
        if strategy == "beta":
            r.sort(reverse=True)
        cache = place(make_config(users, sizes, r, strategy=strategy))
        demand = tuple(rng.randint(1, sum(sizes)) for _ in range(users))
        for scheduler in (greedy_schedule, exhaustive_schedule):
            try:
                schedule = scheduler(cache, demand)
            except BudgetExceededError:
                continue
            per_message = sum(
                (Fraction(1, cache.subpacketization(m.summands[0][0])) for m in schedule.messages),
                Fraction(0),
            )
            assert make_schedule(cache, schedule.messages).rate == per_message == schedule.rate
            checked += 1
    assert checked > 200


def test_mixed_sizes_and_wrong_rates_still_raise():
    cache = place_alpha(make_config(4, [1, 1], [3, 2], strategy="alpha"))
    i1 = enumerate_indices(4, (3,))[0]
    i2 = enumerate_indices(4, (2,))[0]
    mixed = DeliverySchedule((DeliveryMessage.build([(1, i1), (2, i2)]),), Fraction(1, 4))
    loaded = schedule_from_json(schedule_to_json(mixed, 4))
    with pytest.raises(ValidationError, match=r"mixes pieces of different sizes.*\[4, 6\]"):
        decodable(cache, loaded, (1, 2, 1, 2))
    schedule = greedy_schedule(cache, (1, 2, 1, 2))
    wrong = DeliverySchedule(schedule.messages, schedule.rate + Fraction(1, 12))
    claim = f"claims rate {wrong.rate}, but its messages sum to {schedule.rate}"
    with pytest.raises(ValidationError, match=claim):
        decodable(cache, wrong, (1, 2, 1, 2))


def test_make_schedule_rejects_a_summand_that_is_no_piece_of_the_placement():
    # a (3, 0) chain names no piece of an r = (2, 1) file; decodable, which
    # rates through the same columns, rejects it with the same message
    cache = toy_cache()
    stray = enumerate_indices(3, (3, 0))[0]
    assert stray not in cache.indices(1)
    for messages in ([DeliveryMessage.build([(1, stray)])],
                     toy_schedule((1, 1, 2)).messages + (DeliveryMessage.build([(2, stray)]),)):
        with pytest.raises(ValidationError, match="unknown piece"):
            make_schedule(cache, messages)
        with pytest.raises(ValidationError, match="unknown piece"):
            decodable(cache, DeliverySchedule(tuple(messages), Fraction(1)), (1, 1, 2))


def test_schedule_json_round_trip():
    schedule = toy_schedule((1, 2, 2))
    data = schedule_to_json(schedule, 3, demand=(1, 2, 2))
    assert data["rate"] == "2/3"
    assert data["demand"] == [1, 2, 2]
    again = schedule_from_json(data)
    assert again == schedule


def test_schedule_json_round_trips_beyond_64_users():
    # the leader scheme at K = 70, r = 1: user 1's piece XOR each other one
    users = 70
    cache = place_beta(make_config(users, [1], [1]))
    own = enumerate_indices(users, (1,))
    messages = [DeliveryMessage.build([(1, own[0]), (1, idx)]) for idx in own[1:]]
    schedule = make_schedule(cache, messages)
    assert len(schedule.messages) == 69 and schedule.rate == Fraction(69, 70)
    again = schedule_from_json(schedule_to_json(schedule, users))
    assert again == schedule
    assert decodable(cache, again, [1] * users).ok


def test_greedy_runs_beyond_64_users():
    users = 70
    cache = place_beta(make_config(users, [1], [1]))
    demand = [1] * users
    schedule = greedy_schedule(cache, demand)
    assert len(schedule.messages) == 69 and schedule.rate == Fraction(69, 70)
    assert decodable(cache, schedule, demand).ok
    assert schedule_from_json(schedule_to_json(schedule, users)) == schedule


def test_pairs_sort_as_file_then_masks():
    rng = random.Random(7)
    cache = place_beta(make_config(4, [1, 2], [3, 1]))
    pairs = [p for f in range(1, cache.num_files + 1) for p in cache.pairs(f)]
    rng.shuffle(pairs)
    assert sorted(pairs) == sorted(pairs, key=lambda p: (p[0], p[1].masks))


def test_a_cache_state_keeps_no_memo_of_its_pairs():
    cache = place_beta(make_config(5, [1, 2], [3, 1]))
    size = len(pickle.dumps(cache))
    needed_map(cache, (1, 2, 3, 1, 2))
    for k in range(1, cache.users + 1):
        cache.user_cache(k)
    assert set(vars(cache)) == {"users", "spaces", "masks"}
    assert len(pickle.dumps(cache)) == size


@pytest.mark.parametrize("file", [True, 1.0, "1"], ids=repr)
def test_schedule_json_rejects_a_file_that_is_no_integer(file):
    data = schedule_to_json(toy_schedule((1, 2, 2)), 3)
    data["messages"][0]["summands"][0]["file"] = file
    with pytest.raises(ValidationError, match="file must be an integer"):
        schedule_from_json(data)


def test_schedule_json_rejects_garbage():
    with pytest.raises(ValidationError):
        schedule_from_json({"rate": "1/3"})
    for rate in ("abc", "1/0", True, False, 0.1, 1.0, "1e-99999999", "1e99999999"):
        with pytest.raises(ValidationError, match="malformed schedule"):
            schedule_from_json({"messages": [], "rate": rate})
    with pytest.raises(ValidationError, match="rate cannot be negative"):
        schedule_from_json({"messages": [], "rate": "-1/2"})
    assert schedule_from_json({"messages": [], "rate": 0}).rate == 0


def _schedule_dict(schedule, users, demand=None) -> dict:
    """One schedule's JSON record built as a dict per message: the record
    the rendered text must parse to."""
    data = {
        "rate": f"{schedule.rate.numerator}/{schedule.rate.denominator}",
        "messages": [
            {
                "text": delivery.message_text(m, users),
                "summands": [
                    {"file": f, "chains": [list(s) for s in idx.sets]}
                    for f, idx in m.summands
                ],
            }
            for m in schedule.messages
        ],
    }
    if demand is not None:
        data["demand"] = list(demand)
    return data


@st.composite
def deliver_outputs(draw):
    """A placement, a scheduler that serves it, and the entries of one
    ``deliver`` output: one entry, or a list of them."""
    if draw(st.booleans()):
        cfg, name = toy_config(), draw(st.sampled_from(["toy", "greedy", "exhaustive"]))
    else:
        users = draw(st.integers(1, 5))
        levels = draw(st.integers(1, 2))
        sizes = draw(st.lists(st.integers(1, 2), min_size=levels, max_size=levels))
        r = draw(st.lists(st.integers(0, users), min_size=levels, max_size=levels))
        strategy = draw(st.sampled_from(["beta", "alpha"]))
        if strategy == "beta":
            r.sort(reverse=True)
        cfg = make_config(users, sizes, r, strategy=strategy)
        # the exhaustive search fits its node budget up to K = 3
        name = draw(st.sampled_from(["greedy", "exhaustive"] if users <= 3 else ["greedy"]))
    listed = draw(st.booleans())
    files = st.integers(1, cfg.num_files)
    demands = st.lists(files, min_size=cfg.users, max_size=cfg.users).map(tuple)
    count = draw(st.integers(1, 3)) if listed else 1
    entries = []
    for _ in range(count):
        demand = draw(demands)
        shown = demand if listed or draw(st.booleans()) else None
        entries.append((demand, shown, draw(st.sampled_from([None, True, False]))))
    return cfg, SCHEDULERS[name], entries, listed


@settings(max_examples=80, deadline=None)
@given(deliver_outputs())
def test_schedules_json_text_is_the_indented_dump(case):
    cfg, scheduler, entries, listed = case
    cache = place(cfg)
    rendered, records = [], []
    for demand, shown, verified in entries:
        schedule = scheduler(cache, demand)
        rendered.append((schedule, shown, verified))
        record = _schedule_dict(schedule, cfg.users, shown)
        if verified is not None:
            record["verified"] = verified
        records.append(record)
    payload = {"schedules": records} if listed else records[0]
    text = delivery.schedules_json_text(rendered, cfg.users, listed)
    assert text == json.dumps(payload, indent=2) + "\n"
    parsed = json.loads(text)
    for (schedule, _, _), data in zip(rendered, parsed["schedules"] if listed else [parsed]):
        assert schedule_from_json(data) == schedule


# ---------------------------------------------------------------------------
# golden digests of the exhaustive schedules and the decoding certificates
# ---------------------------------------------------------------------------

# sha256 over the JSON of the exhaustive schedule for every demand vector,
# in itertools.product order.  The search returns the first minimal subset
# of its candidate list, so any change to that list's order shows here.
EXHAUSTIVE_GOLDEN = {
    (3, (1, 1), (2, 1), "beta"): "d9ef7b489bc85bce4b0098c485adfd2f281a04ffe23105972a1af999201148e4",
    (3, (1, 1), (1, 1), "beta"): "946456322d7d276b0ef09f33a40d07949a37e99ca0a229459c24bfb1b8740c98",
    (3, (1, 1, 1), (2, 2, 1), "beta"): "9836b5aecfeea32091b6a7923672b3953f83c8a1380003af493d9671691d3cba",
    # piece sizes 1/4 and 1/6
    (4, (1, 1), (3, 2), "alpha"): "891c128027229bdb3ac75649627fe37ecc8a494dea554553f978cce1ebf220ea",
}


@pytest.mark.parametrize("setup", EXHAUSTIVE_GOLDEN, ids=lambda s: f"K{s[0]}-{s[3]}-r{s[2]}")
def test_exhaustive_schedules_match_golden_digest(setup):
    users, sizes, r, strategy = setup
    cfg = make_config(users, sizes, r, strategy=strategy)
    cache = place(cfg)
    digest = hashlib.sha256()
    for demand in itertools.product(range(1, cfg.num_files + 1), repeat=users):
        data = schedule_to_json(exhaustive_schedule(cache, demand), users, demand=demand)
        digest.update(json.dumps(data, sort_keys=True).encode())
    assert digest.hexdigest() == EXHAUSTIVE_GOLDEN[setup]


def _report_json(report, demand) -> dict:
    """Everything a decode report says, in its own iteration order."""

    def piece(pair):
        return [pair[0], [list(s) for s in pair[1].sets]]

    return {
        "demand": list(demand),
        "ok": report.ok,
        "certificates": [
            [k, [[piece(p), [piece(e) for e in c.cache_entries], list(c.messages)]
                 for p, c in certs.items()]]
            for k, certs in report.certificates.items()
        ],
        "missing": [[k, [piece(p) for p in pieces]] for k, pieces in report.missing.items()],
    }


# sha256 over every decode report: the toy table on every demand, and on
# two configs greedy's schedule for every demand, whole and without its
# first message (so some pieces are reported missing).
CERTIFICATE_GOLDEN = {
    "toy": "70aa4da8362d76ec3ff8d837758f7e81e054e05dc2dd5b12796587630b0f2e85",
    (4, (1, 1), (2, 1), "beta"): "610b515b937ff752ac1ad120b1d7005c4abe537e7ac8293f9aa62b51d730873d",
    (4, (1, 1), (3, 2), "alpha"): "3cc950100e2d759f35777c13ed18e7b596b89a7596ef48cb250cee234589613a",
}


@pytest.mark.parametrize("setup", CERTIFICATE_GOLDEN, ids=str)
def test_certificates_match_golden_digest(setup):
    digest = hashlib.sha256()
    if setup == "toy":
        cache = toy_cache()
        for demand in itertools.product((1, 2), repeat=3):
            report = decodable(cache, toy_schedule(demand), demand)
            digest.update(json.dumps(_report_json(report, demand)).encode())
    else:
        users, sizes, r, strategy = setup
        cache = place(make_config(users, sizes, r, strategy=strategy))
        for demand in itertools.product(range(1, sum(sizes) + 1), repeat=users):
            schedule = greedy_schedule(cache, demand)
            for messages in (schedule.messages, schedule.messages[1:]):
                report = decodable(cache, make_schedule(cache, messages), demand)
                digest.update(json.dumps(_report_json(report, demand)).encode())
    assert digest.hexdigest() == CERTIFICATE_GOLDEN[setup]
