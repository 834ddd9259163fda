import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from codedcache import (
    CacheState,
    SubfileIndex,
    ValidationError,
    cache_from_json,
    cache_to_json,
    config_from_json,
    config_to_json,
    enumerate_indices,
    make_config,
    per_group_cache,
    place,
    place_alpha,
    place_beta,
    split_by_popularity,
    subpacketization,
    toy_config,
)


def _entries(*items):
    """(file, 'top', 'bottom') shorthand for toy cache entries."""
    out = set()
    for file, *chains in items:
        out.add((file, SubfileIndex.from_sets([tuple(int(c) for c in s) for s in chains])))
    return out


A, B = 1, 2

TOY_GOLDEN = {
    1: _entries(
        (A, "12", "1"), (A, "12", "2"), (A, "13", "1"), (A, "13", "3"),
        (B, "12", "1"), (B, "13", "1"),
    ),
    2: _entries(
        (A, "12", "1"), (A, "12", "2"), (A, "23", "2"), (A, "23", "3"),
        (B, "12", "2"), (B, "23", "2"),
    ),
    3: _entries(
        (A, "13", "1"), (A, "13", "3"), (A, "23", "2"), (A, "23", "3"),
        (B, "13", "3"), (B, "23", "3"),
    ),
}


def all_r_vectors(users, max_levels):
    for levels in range(1, max_levels + 1):
        for r in itertools.product(range(users + 1), repeat=levels):
            if all(a >= b for a, b in zip(r, r[1:])):
                yield r


def test_toy_placement_matches_golden_table():
    cache = place_beta(toy_config())
    for k in (1, 2, 3):
        assert set(cache.user_cache(k)) == TOY_GOLDEN[k]


def test_full_replication_caches_everything():
    cfg = make_config(3, [1, 1], [3, 3])
    cache = place_beta(cfg)
    assert cfg.memory == 2
    for k in (1, 2, 3):
        assert len(cache.user_cache(k)) == 2 * subpacketization(3, (3, 3))
        assert cache.user_load(k) == 2


def test_zero_replication_caches_nothing():
    cfg = make_config(3, [1, 1], [0, 0])
    cache = place_beta(cfg)
    assert cfg.memory == 0
    for k in (1, 2, 3):
        assert cache.user_cache(k) == frozenset()


def test_per_group_cache_toy():
    cfg = toy_config()
    assert per_group_cache(cfg) == (Fraction(2, 3), Fraction(1, 3))
    assert cfg.memory == 1


def test_per_group_cache_wider_groups():
    cfg = make_config(4, [2, 3], [2, 1])
    assert per_group_cache(cfg) == (Fraction(1), Fraction(3, 4))
    assert cfg.memory == Fraction(7, 4)
    # direct counting from the cache agrees
    cache = place_beta(cfg)
    s = subpacketization(4, (2, 1))
    for k in range(1, 5):
        for gi, group in enumerate(cfg.groups, start=1):
            counted = sum(
                Fraction(cache.cached_count(k, f), s) for f in cfg.files_in(gi)
            )
            assert counted == per_group_cache(cfg)[gi - 1]


def test_accounting_sweep_exact():
    # exact rational cache accounting across all small configs (sizes <= 2)
    for users in range(1, 6):
        for r in all_r_vectors(users, 3):
            for sizes in itertools.product((1, 2), repeat=len(r)):
                cfg = make_config(users, list(sizes), list(r))
                cache = place_beta(cfg)
                per_group = per_group_cache(cfg)
                assert sum(per_group) == cfg.memory
                assert sum(g.r * g.size for g in cfg.groups) == cfg.memory * users
                s = subpacketization(users, r)
                for k in range(1, users + 1):
                    assert cache.user_load(k) == cfg.memory
                    for gi in range(1, cfg.num_groups + 1):
                        counted = sum(
                            Fraction(cache.cached_count(k, f), s)
                            for f in cfg.files_in(gi)
                        )
                        assert counted == per_group[gi - 1]


def test_user_symmetry_under_relabeling():
    cfg = make_config(4, [1, 2], [3, 1])
    cache = place_beta(cfg)
    for perm in itertools.permutations(range(1, 5)):
        for k in range(1, 5):
            image = {(f, idx.permuted(perm)) for f, idx in cache.user_cache(k)}
            assert image == set(cache.user_cache(perm[k - 1]))


def test_placement_rule_is_group_membership():
    cfg = make_config(3, [1, 1], [2, 1])
    cache = place_beta(cfg)
    for idx in enumerate_indices(3, (2, 1)):
        for file in (1, 2):
            level = cfg.group_of(file)
            for k in (1, 2, 3):
                assert ((file, idx) in cache.user_cache(k)) == idx.holds(level, k)


# ---------------------------------------------------------------------------
# grouping baseline placement
# ---------------------------------------------------------------------------


def test_alpha_single_group_equals_beta():
    beta = place_beta(make_config(3, [2], [1]))
    alpha = place_alpha(make_config(3, [2], [1], strategy="alpha"))
    assert beta == alpha


def test_alpha_full_and_empty_groups():
    cfg = make_config(3, [1, 1], [3, 0], strategy="alpha")
    cache = place_alpha(cfg)
    for k in (1, 2, 3):
        files = {f for f, _ in cache.user_cache(k)}
        assert files == {1}
        assert cache.cached_fraction(k, 1) == 1
        assert cache.cached_fraction(k, 2) == 0


def test_alpha_groups_keep_own_subpacketization():
    cfg = make_config(4, [1, 1], [3, 2], strategy="alpha")
    cache = place_alpha(cfg)
    assert cache.subpacketization(1) == 4
    assert cache.subpacketization(2) == 6
    for k in range(1, 5):
        assert cache.user_load(k) == cfg.memory
    for file in (0, 3):  # not the last file's row
        with pytest.raises(ValidationError):
            cache.subpacketization(file)
        with pytest.raises(ValidationError):
            cache.cached_count(1, file)


def test_alpha_allows_increasing_r():
    cfg = make_config(3, [1, 1], [1, 2], strategy="alpha")
    cache = place_alpha(cfg)
    assert cache.subpacketization(1) == 3
    with pytest.raises(ValidationError):
        make_config(3, [1, 1], [1, 2], strategy="beta")


# ---------------------------------------------------------------------------
# validation and serialization
# ---------------------------------------------------------------------------


def test_popularity_must_sum_to_one():
    with pytest.raises(ValidationError):
        make_config(3, [1, 1], [2, 1], [Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(ValidationError):
        make_config(3, [1, 1], [2, 1], [0.5, 0.4999])
    with pytest.raises(ValidationError):
        make_config(3, [1, 1], [2, 1], [1.5, -0.5])


def test_popularity_length_must_match_files():
    with pytest.raises(ValidationError):
        make_config(3, [1, 1], [2, 1], [Fraction(1)])


def test_config_json_round_trip():
    cfg = toy_config(Fraction(153, 200))
    data = config_to_json(cfg)
    assert data["popularity"] == ["153/200", "47/200"]
    assert config_from_json(data) == cfg


def test_config_json_rejects_garbage():
    with pytest.raises(ValidationError):
        config_from_json({"K": 3})


def test_cache_json_round_trip():
    for cfg in (toy_config(), make_config(3, [1, 1], [3, 1], strategy="alpha")):
        cache = place_beta(cfg) if cfg.strategy == "beta" else place_alpha(cfg)
        again = cache_from_json(cache_to_json(cache))
        assert again == cache


# sha256 of json.dumps(cache_to_json(place(cfg)), indent=2), taken before the
# cache state became one holder mask per piece.
CACHE_JSON_GOLDEN = [
    (
        make_config(5, [1, 2, 1], [3, 2, 1]),
        "754581b8acb02612cee9d4c8d84706e6c198a8182a372350ffbb7f3abf7bce41",
    ),
    (
        # piece counts 10, 5, 5, 1, 1; the r = 0 group caches nothing
        make_config(5, [1, 2, 2], [3, 1, 0], strategy="alpha"),
        "100eb48b6fe40385241ab4272b5697a3ec4b60e63bcbf93afd4655100edc431c",
    ),
]


@pytest.mark.parametrize("cfg, digest", CACHE_JSON_GOLDEN, ids=["beta", "alpha"])
def test_cache_json_bytes_pinned(cfg, digest):
    text = json.dumps(cache_to_json(place(cfg)), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "damage",
    [
        lambda d: d["users"][0]["entries"].append({"file": 1, "chains": [[1, 2, 3], [1]]}),
        lambda d: d["users"][0]["entries"].append({"file": 5, "chains": [[1, 2], [1]]}),
        lambda d: d.update(K=4),
        lambda d: d["files"][1].update(r=[1, 2]),
        lambda d: d["users"][1].update(user=3),
        lambda d: d["users"][0]["entries"][0].update(chains=[[1, 4], [1]]),
        lambda d: d.update(files=7),
    ],
    ids=[
        "chain-no-piece-of-file",
        "file-5-of-2",
        "K-4-with-3-records",
        "increasing-r",
        "records-out-of-order",
        "user-4-of-3",
        "files-not-a-list",
    ],
)
def test_cache_json_rejects_bad_input(damage):
    data = cache_to_json(place_beta(toy_config()))
    damage(data)
    with pytest.raises(ValidationError):
        cache_from_json(data)


def test_cache_state_validates_masks():
    good = place_beta(toy_config())
    assert CacheState(good.users, good.spaces, good.masks) == good
    short = (good.masks[0][:-1], good.masks[1])
    with pytest.raises(ValidationError):
        CacheState(good.users, good.spaces, short)  # one mask per piece
    beyond = ((good.masks[0][0] | 1 << 3,) + good.masks[0][1:], good.masks[1])
    with pytest.raises(ValidationError):
        CacheState(good.users, good.spaces, beyond)  # user 4 of 3
    with pytest.raises(ValidationError):
        CacheState(good.users, ((1, 2), (2, 1)), good.masks)  # increasing chain
    with pytest.raises(ValidationError):
        CacheState(good.users, good.spaces, good.masks[:1])  # a row per file


def test_split_by_popularity():
    groups = split_by_popularity([0.1, 0.5, 0.15, 0.25], [2, 2])
    assert groups == ((2, 4), (3, 1))
    # stable on ties
    assert split_by_popularity([0.25, 0.25, 0.25, 0.25], [1, 3]) == ((1,), (2, 3, 4))
    with pytest.raises(ValidationError):
        split_by_popularity([0.5, 0.5], [1])
