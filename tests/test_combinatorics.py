import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedcache import (
    LimitExceededError,
    SubfileIndex,
    ValidationError,
    check_index,
    enumerate_indices,
    index_rank,
    index_unrank,
    subpacketization,
)


def brute_force_chains(users, r):
    """Oracle: filter the full product of subsets for the chain conditions."""
    all_subsets = [
        tuple(u for u in range(1, users + 1) if m >> (u - 1) & 1)
        for m in range(2**users)
    ]
    out = []
    for combo in itertools.product(all_subsets, repeat=len(r)):
        if any(len(c) != rv for c, rv in zip(combo, r)):
            continue
        if any(not set(combo[i + 1]) <= set(combo[i]) for i in range(len(r) - 1)):
            continue
        out.append(combo)
    return out


def all_r_vectors(users, max_levels):
    for levels in range(1, max_levels + 1):
        for r in itertools.product(range(users + 1), repeat=levels):
            if all(a >= b for a, b in zip(r, r[1:])):
                yield r


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


def test_toy_count():
    assert subpacketization(3, (2, 1)) == 6


def test_empty_chain_single_piece():
    assert subpacketization(3, (0, 0)) == 1


def test_count_matches_brute_force():
    # frozen from the oracle below: 12 nested chains for (K=4, r=(3,1))
    assert subpacketization(4, (3, 1)) == 12
    assert len(brute_force_chains(4, (3, 1))) == 12


@pytest.mark.parametrize("users", [1, 2, 3, 4])
def test_count_equals_oracle_small(users):
    for r in all_r_vectors(users, 3):
        assert subpacketization(users, r) == len(brute_force_chains(users, r))


def test_bad_r_vectors_rejected():
    with pytest.raises(ValidationError):
        subpacketization(3, (1, 2))  # increasing
    with pytest.raises(ValidationError):
        subpacketization(3, (4,))  # beyond user count
    with pytest.raises(ValidationError):
        subpacketization(3, (-1,))
    with pytest.raises(ValidationError):
        subpacketization(3, ())
    with pytest.raises(ValidationError):
        subpacketization(True, (1,))  # bool is an int subclass, not a count
    with pytest.raises(ValidationError):
        subpacketization(3, (True,))


def test_enumeration_cap():
    with pytest.raises(LimitExceededError):
        enumerate_indices(30, (15,))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_toy_enumeration_lists_all_six_in_order():
    got = [idx.sets for idx in enumerate_indices(3, (2, 1))]
    assert got == [
        ((1, 2), (1,)),
        ((1, 2), (2,)),
        ((1, 3), (1,)),
        ((1, 3), (3,)),
        ((2, 3), (2,)),
        ((2, 3), (3,)),
    ]


def test_full_sets_forced():
    got = enumerate_indices(2, (2, 2))
    assert len(got) == 1
    assert got[0].sets == ((1, 2), (1, 2))


def test_zero_tail_level():
    got = [idx.sets for idx in enumerate_indices(3, (1, 0))]
    assert got == [((1,), ()), ((2,), ()), ((3,), ())]


def test_enumeration_sorted_and_unique():
    for users in range(1, 6):
        for r in all_r_vectors(users, 3):
            indices = enumerate_indices(users, r)
            masks = [idx.masks for idx in indices]
            assert masks == sorted(masks)
            assert len(set(masks)) == len(masks)
            for idx in indices:
                check_index(idx, users, r)


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------


def test_rank_endpoints():
    indices = enumerate_indices(3, (2, 1))
    assert index_rank(indices[0], 3, (2, 1)) == 0
    assert index_rank(indices[-1], 3, (2, 1)) == len(indices) - 1


def test_rank_of_last_toy_index():
    idx = SubfileIndex.from_sets([(2, 3), (3,)])
    assert index_rank(idx, 3, (2, 1)) == 5


def test_rank_rejects_foreign_index():
    with pytest.raises(ValidationError):
        index_rank(SubfileIndex.from_sets([(1, 2)]), 3, (2, 1))
    with pytest.raises(ValidationError):
        index_rank(SubfileIndex.from_sets([(1, 2), (3,)]), 3, (2, 1))  # not nested
    with pytest.raises(ValidationError, match="level 1 contains users beyond 3"):
        index_rank(SubfileIndex.from_sets([(1, 4), (1,)]), 3, (2, 1))
    with pytest.raises(ValidationError, match="level 1 has 1 users, expected 2"):
        index_rank(SubfileIndex.from_sets([(1,), (1,)]), 3, (2, 1))


def test_index_unrank_rejects_a_rank_out_of_range():
    for rank in (-1, 6):
        with pytest.raises(ValidationError, match=rf"rank {rank} outside \[0, 6\)"):
            index_unrank(rank, 3, (2, 1))


def test_index_unrank_rejects_a_rank_that_is_no_int():
    with pytest.raises(ValidationError):
        index_unrank(True, 3, (2, 1))
    with pytest.raises(ValidationError):
        index_unrank(1.0, 3, (2, 1))


def test_subfile_index_is_a_named_tuple_with_a_stable_repr():
    idx = SubfileIndex.from_sets([(1, 2), (1,)])
    assert repr(idx) == "SubfileIndex(masks=(3, 1))"
    assert idx == SubfileIndex((3, 1)) and idx.sets == ((1, 2), (1,)) and idx.levels == 2
    assert isinstance(idx, tuple)
    with pytest.raises(AttributeError):
        idx.masks = (3, 2)


def test_from_sets_takes_any_user_id_of_at_least_one():
    idx = SubfileIndex.from_sets([(65, 70), (70,)])
    assert idx.masks == (1 << 64 | 1 << 69, 1 << 69)
    assert idx.sets == ((65, 70), (70,))
    for chains in ([(0,)], [(-1, 2)], [(2, 2)], [(True,)], [(1.0,)]):
        with pytest.raises(ValidationError):
            SubfileIndex.from_sets(chains)
    with pytest.raises(ValidationError):
        SubfileIndex.from_sets([(1, 4)], users=3)


def test_holds_checks_its_level_and_user():
    idx = SubfileIndex.from_sets([(1, 2), (1,)])
    assert idx.holds(1, 2) and idx.holds(2, 1)
    assert not idx.holds(2, 2) and not idx.holds(1, 70)
    for level, user in ((0, 1), (-1, 1), (3, 1), (1, 0), (1, -1), (True, 1), (1, 1.0)):
        with pytest.raises(ValidationError):
            idx.holds(level, user)


@settings(max_examples=200)
@given(st.data())
def test_rank_unrank_round_trip(data):
    users = data.draw(st.integers(1, 5))
    levels = data.draw(st.integers(1, 3))
    r = []
    top = users
    for _ in range(levels):
        top = data.draw(st.integers(0, top))
        r.append(top)
    indices = enumerate_indices(users, tuple(r))
    rank = data.draw(st.integers(0, len(indices) - 1))
    idx = index_unrank(rank, users, tuple(r))
    assert index_rank(idx, users, tuple(r)) == rank


@settings(max_examples=100)
@given(st.data())
def test_permutation_is_bijection_on_indices(data):
    users = data.draw(st.integers(2, 5))
    levels = data.draw(st.integers(1, 3))
    r = []
    top = users
    for _ in range(levels):
        top = data.draw(st.integers(0, top))
        r.append(top)
    perm = data.draw(st.permutations(range(1, users + 1)))
    indices = enumerate_indices(users, tuple(r))
    image = {idx.permuted(perm) for idx in indices}
    assert image == set(indices)
