import hashlib
import itertools
import json
import random
from fractions import Fraction
from operator import countOf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codedcache import (
    CacheState,
    SubfileIndex,
    ValidationError,
    cache_from_json,
    cache_json_text,
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
from codedcache.combinatorics import _rank_table, _require_int, _sets_table, check_r_vector
from codedcache.placement import _parse_number


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


def test_config_and_cache_lookups_reject_out_of_range():
    cfg = make_config(3, [1, 1], [2, 1])
    for call, says in [
        (lambda: cfg.group_of(0), r"file 0 outside \[1, 2\]"),
        (lambda: cfg.group_of(3), r"file 3 outside \[1, 2\]"),
        (lambda: cfg.files_in(0), r"group 0 outside \[1, 2\]"),
        (lambda: cfg.files_in(3), r"group 3 outside \[1, 2\]"),
        (lambda: place_beta(cfg).cached_count(0, 1), r"user 0 outside \[1, 3\]"),
    ]:
        with pytest.raises(ValidationError, match=says):
            call()


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


def test_a_number_with_a_huge_exponent_is_rejected_before_it_is_built():
    # Fraction("1e-9999999") would build 10**9999999, which takes seconds
    for text in ("1e-9999999", "1E+4301", " 2e-99999999 "):
        with pytest.raises(ValidationError, match="too long a number"):
            _parse_number(text, "popularity entry")
    assert _parse_number("1e-300", "popularity entry") == Fraction(1, 10**300)
    # an exponent that is no int is left to Fraction, which rejects it
    with pytest.raises(ValidationError, match="'1e1.5' is not a number"):
        _parse_number("1e1.5", "popularity entry")
    assert _parse_number("1e4300", "popularity entry") == 10**4300


class _Half(float):
    """A float subclass: read as a float, kept as it is."""


@pytest.mark.parametrize(
    "value, want",
    [
        (0.25, 0.25),
        (-0.0, -0.0),
        (_Half(0.5), 0.5),
        (3, Fraction(3)),
        (Fraction(2, 7), Fraction(2, 7)),
        ("0.75", Fraction(3, 4)),
        ("153/200", Fraction(153, 200)),
        (" 1e-3 ", Fraction(1, 1000)),
        (True, None),
        (False, None),
        (float("nan"), None),
        (float("inf"), None),
        (-float("inf"), None),
        ("nan", None),
        ("abc", None),
        ("1/0", None),
        (None, None),
        (1j, None),
    ],
    ids=repr,
)
def test_parse_number_reads_each_kind_of_input(value, want):
    # floats are tested first; every other kind keeps its reading
    if want is None:
        with pytest.raises(ValidationError, match="is not a number"):
            _parse_number(value, "entry")
        return
    got = _parse_number(value, "entry")
    assert got == want
    assert type(got) is (type(value) if isinstance(value, float) else Fraction)
    if isinstance(value, float):
        assert got is value


def test_one_float_entry_makes_the_whole_popularity_float():
    mixed = make_config(3, [1, 1], [2, 1], ["153/200", 0.235]).popularity
    assert mixed == (0.765, 0.235)
    assert [type(p) for p in mixed] == [float, float]
    exact = make_config(3, [1, 1], [2, 1], ["153/200", Fraction(47, 200)]).popularity
    assert exact == (Fraction(153, 200), Fraction(47, 200))
    assert [type(p) for p in exact] == [Fraction, Fraction]


def test_popularity_length_must_match_files():
    with pytest.raises(ValidationError):
        make_config(3, [1, 1], [2, 1], [Fraction(1)])
    with pytest.raises(ValidationError, match="sizes and r must have the same length"):
        make_config(3, [1, 1], [2])


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


def _one_user_cache(d, users, r):
    # the K = 1 record with JSON `true` for K or an r entry: True == 1 in
    # Python, but it is no user count or chain level
    d.clear()
    d.update(cache_to_json(place_beta(make_config(1, [1], [1]))), K=users)
    d["files"][0]["r"] = r


def _no_files(d):
    # K = 3 with its user records, but no file records and nothing cached
    d["files"] = []
    for u in d["users"]:
        u["entries"] = []


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
        lambda d: _one_user_cache(d, True, [True]),
        lambda d: _one_user_cache(d, 1, [True]),
        # the first entry is file 1's piece [[1, 2], [1]]; True == 1.0 == 1
        lambda d: d["users"][0]["entries"][0].update(chains=[[True, 2], [True]]),
        lambda d: d["users"][0]["entries"][0].update(chains=[[1.0, 2.0], [1.0]]),
        # damage at the last level only, and in a chain out of order
        lambda d: d["users"][0]["entries"][0].update(chains=[[1, 2], [1.0]]),
        lambda d: d["users"][0]["entries"][0].update(chains=[[1, 2], [True]]),
        lambda d: d["users"][0]["entries"][0].update(chains=[[2, 1], [1.0]]),
        lambda d: d["users"][0]["entries"][0].update(file=True),
        lambda d: d["users"][0].update(user=True),
        lambda d: d["files"][0].update(subpacketization=99),
        lambda d: d["files"][0].update(file=7),
        lambda d: d["users"][0]["entries"].append(dict(d["users"][0]["entries"][0])),
        lambda d: (d.clear(), d.update(K=0, files=[], users=[])),
        _no_files,
    ],
    ids=[
        "chain-no-piece-of-file",
        "file-5-of-2",
        "K-4-with-3-records",
        "increasing-r",
        "records-out-of-order",
        "user-4-of-3",
        "files-not-a-list",
        "K-true",
        "r-entry-true",
        "chain-user-true",
        "chain-user-float",
        "last-level-float",
        "last-level-true",
        "unsorted-chain-float",
        "file-true",
        "user-record-true",
        "subpacketization-99",
        "file-record-7",
        "piece-twice",
        "no-users-no-files",
        "no-files",
    ],
)
def test_cache_json_rejects_bad_input(damage):
    data = cache_to_json(place_beta(toy_config()))
    damage(data)
    with pytest.raises(ValidationError):
        cache_from_json(data)


@st.composite
def configs(draw):
    users = draw(st.integers(1, 6))
    levels = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 2), min_size=levels, max_size=levels))
    r = draw(st.lists(st.integers(0, users), min_size=levels, max_size=levels))
    strategy = draw(st.sampled_from(["beta", "alpha"]))
    if strategy == "beta":
        r.sort(reverse=True)
    return make_config(users, sizes, r, strategy=strategy)


@settings(max_examples=100, deadline=None)
@given(configs())
@example(make_config(1, [1], [1]))
@example(make_config(1, [2], [0], strategy="alpha"))
@example(make_config(4, [1, 2], [2, 0]))
@example(make_config(4, [2, 1], [0, 3], strategy="alpha"))
def test_cache_json_text_is_the_record_laid_out(cfg):
    cache = place(cfg)
    text = cache_json_text(cache)
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert cache_from_json(json.loads(text)) == cache


def test_cache_json_reads_a_chain_out_of_order():
    data = cache_to_json(place_beta(toy_config()))
    assert data["users"][0]["entries"][0]["chains"] == [[1, 2], [1]]
    data["users"][0]["entries"][0]["chains"] = [[2, 1], [1]]
    assert cache_from_json(data) == place_beta(toy_config())


@pytest.mark.parametrize("seed", range(20))
def test_cache_json_round_trips_a_state_no_placement_makes(seed):
    rng = random.Random(seed)
    users = rng.randint(1, 5)
    spaces = []
    for _ in range(rng.randint(1, 3)):
        levels = rng.randint(1, 3)
        spaces.append(tuple(sorted((rng.randint(0, users) for _ in range(levels)), reverse=True)))
    full = (1 << users) - 1
    masks = [
        [rng.choice([0, full, rng.randint(0, full)]) for _ in range(subpacketization(users, space))]
        for space in spaces
    ]
    cache = CacheState(users, spaces, masks)
    text = cache_json_text(cache)
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert cache_from_json(json.loads(text)) == cache


def _reference_cache_from_json(data):
    """The reader one entry at a time: the per-entry loop that
    ``cache_from_json`` replaces with its runs of one file, kept as the
    reference it must agree with."""
    try:
        users = data["K"]
        _require_int("K", users)
        spaces = [check_r_vector(users, f["r"]) for f in data["files"]]
        if len(data["users"]) != users:
            raise ValidationError(f"{len(data['users'])} user records for K = {users}")
        tables = [_sets_table(users, space) for space in spaces]
        widths = [sum(space) for space in spaces]
        num_files = len(spaces)
        ranks = [_rank_table(users, space) for space in spaces]
        masks = [[0] * len(table) for table in ranks]
        for f, (record, row) in enumerate(zip(data["files"], masks), start=1):
            _require_int("file record", record["file"])
            if record["file"] != f:
                raise ValidationError(f"file record {record['file']} in position {f}")
            _require_int("subpacketization", record["subpacketization"])
            if record["subpacketization"] != len(row):
                raise ValidationError(
                    f"file {f} claims subpacketization {record['subpacketization']}, "
                    f"its r gives {len(row)}"
                )
        for k, u in enumerate(data["users"], start=1):
            _require_int("user record", u["user"])
            if u["user"] != k:
                raise ValidationError(f"user record {u['user']!r} in position {k}")
            bit = 1 << (k - 1)
            for e in u["entries"]:
                f, chains = e["file"], e["chains"]
                if type(f) is not int or not 1 <= f <= num_files:
                    _require_int("file", f)
                    if not 1 <= f <= num_files:
                        raise ValidationError(f"file {f} outside [1, {num_files}]")
                key = tuple(map(tuple, chains))
                rank = tables[f - 1].get(key)
                if rank is None or countOf(map(type, itertools.chain.from_iterable(key)), int) != widths[f - 1]:
                    idx = SubfileIndex.from_sets(chains, users)
                    rank = ranks[f - 1].get(idx.masks)
                    if rank is None:
                        raise ValidationError(f"{idx.sets} is no piece of file {f}")
                row = masks[f - 1]
                if row[rank] & bit:
                    raise ValidationError(f"user {k} lists a piece of file {f} twice")
                row[rank] |= bit
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed cache state: {exc}") from exc
    return CacheState(users, tuple(spaces), tuple(tuple(row) for row in masks))


def _read_both(data):
    """The reader's and the reference's outcome on `data`: the state each
    gives, or the text of the :class:`ValidationError` each raises."""
    outcomes = []
    for read in (cache_from_json, _reference_cache_from_json):
        try:
            outcomes.append(read(data))
        except ValidationError as exc:
            outcomes.append(str(exc))
    return outcomes


class _Int(int):
    """An int subclass, as a caller's own id type may be."""


def _seeded_state(seed):
    """A K <= 6 state: a seeded placement, or random holder masks."""
    rng = random.Random(seed)
    users = rng.randint(2, 6)
    if seed % 2:
        spaces = [
            tuple(sorted((rng.randint(0, users) for _ in range(rng.randint(1, 3))), reverse=True))
            for _ in range(rng.randint(1, 3))
        ]
        full = (1 << users) - 1
        masks = [[rng.randint(0, full) for _ in range(subpacketization(users, s))] for s in spaces]
        return CacheState(users, spaces, masks)
    levels = rng.randint(1, 3)
    r = sorted((rng.randint(0, users) for _ in range(levels)), reverse=True)
    sizes = [rng.randint(1, 2) for _ in range(levels)]
    return place(make_config(users, sizes, r, strategy=rng.choice(["beta", "alpha"])))


def _shuffled(data, rng):
    for u in data["users"]:
        rng.shuffle(u["entries"])


def _out_of_order(data, rng):
    for u in data["users"]:
        for e in u["entries"]:
            if rng.random() < 0.5:
                e["chains"] = [subset[::-1] for subset in e["chains"]]


def _int_subclass(data, rng):
    for u in data["users"]:
        for e in u["entries"]:
            if rng.random() < 0.3:
                e["file"] = _Int(e["file"])
            if rng.random() < 0.3:
                e["chains"] = [[_Int(v) for v in subset] for subset in e["chains"]]


@pytest.mark.parametrize("seed", range(16))
@pytest.mark.parametrize("change", [None, _shuffled, _out_of_order, _int_subclass],
                         ids=["as-written", "shuffled", "out-of-order", "int-subclass"])
def test_cache_from_json_agrees_with_the_per_entry_reader(seed, change):
    cache = _seeded_state(seed)
    data = json.loads(cache_json_text(cache))
    if change is not None:
        change(data, random.Random(seed))
    got, reference = _read_both(data)
    assert got == reference == cache


def _long_run_entry(data):
    """User 1's entries and the middle entry of its longest run of one file."""
    entries = data["users"][0]["entries"]
    runs = [list(run) for _, run in itertools.groupby(range(len(entries)), lambda i: entries[i]["file"])]
    run = max(runs, key=len)
    assert len(run) >= 8
    return entries, run[len(run) // 2], run


def _id_true(data):
    entries, at, _ = _long_run_entry(data)
    # every entry of user 1 names user 1 in its chain
    entries[at]["chains"] = [[True if v == 1 else v for v in subset] for subset in entries[at]["chains"]]


def _id_float(data):
    entries, at, _ = _long_run_entry(data)
    entries[at]["chains"][-1] = [float(v) for v in entries[at]["chains"][-1]]


def _file_true(data):
    entries, at, _ = _long_run_entry(data)
    assert entries[at]["file"] == 1
    entries[at]["file"] = True


def _file_float(data):
    entries, at, _ = _long_run_entry(data)
    entries[at]["file"] = float(entries[at]["file"])


def _twice_in_two_runs(data):
    entries, at, _ = _long_run_entry(data)
    # a copy after another file's entries starts a second run of this file
    assert entries[-1]["file"] != entries[at]["file"]
    entries.append(dict(entries[at]))


def _levels_shifted(data):
    entries, at, _ = _long_run_entry(data)
    # the last subset of one entry moves to the front of the next: the
    # run's subsets are the same in the same order, but neither is a chain
    entries[at + 1]["chains"].insert(0, entries[at]["chains"].pop())


def _chains_missing_late(data):
    entries, _, run = _long_run_entry(data)
    del entries[run[-2]]["chains"]


@pytest.mark.parametrize(
    "damage",
    [_id_true, _id_float, _file_true, _file_float, _twice_in_two_runs, _levels_shifted,
     _chains_missing_late],
    ids=["user-id-true", "user-id-float", "file-true", "file-float", "piece-twice-in-two-runs",
         "levels-shifted", "chains-missing-late"],
)
def test_cache_from_json_rejects_damage_deep_in_a_run(damage):
    # K = 5, r = (3, 2, 1): user 1 holds 36 of file 1's 60 pieces, one run
    data = json.loads(cache_json_text(place(make_config(5, [1, 2, 1], [3, 2, 1]))))
    damage(data)
    got, reference = _read_both(data)
    assert isinstance(got, str) and got == reference


def test_cache_from_json_reads_the_k10_beta_record_shuffled_per_user():
    cfg = make_config(10, [1, 2, 2], [5, 2, 1])
    cache = place(cfg)
    data = json.loads(cache_json_text(cache))
    _shuffled(data, random.Random(10))
    got, reference = _read_both(data)
    assert got == reference == cache


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
    with pytest.raises(ValidationError):
        CacheState(0, (), ())  # no users and no files
    with pytest.raises(ValidationError):
        CacheState(good.users, (), ())  # no files


@pytest.mark.parametrize("mask", [1.0, "1", True], ids=repr)
def test_cache_state_rejects_masks_that_are_not_ints(mask):
    good = place_beta(toy_config())
    row = (mask,) + good.masks[0][1:]
    with pytest.raises(ValidationError, match="not an int"):
        CacheState(good.users, good.spaces, (row, good.masks[1]))
    with pytest.raises(ValidationError, match="not an int"):
        CacheState(3, ((2, 1),), ((mask,) * 6,))


def test_split_by_popularity():
    groups = split_by_popularity([0.1, 0.5, 0.15, 0.25], [2, 2])
    assert groups == ((2, 4), (3, 1))
    # stable on ties
    assert split_by_popularity([0.25, 0.25, 0.25, 0.25], [1, 3]) == ((1,), (2, 3, 4))
    with pytest.raises(ValidationError):
        split_by_popularity([0.5, 0.5], [1])
