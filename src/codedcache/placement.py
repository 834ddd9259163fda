"""Cache placement for the two strategies.

Strategy ``beta`` partitions the files into groups, assigns a
non-increasing replication vector ``r`` across groups and splits every
file into the *same* number of pieces ``S``; user ``k`` caches piece
``(tau_1, ..., tau_L)`` of a group-``g`` file iff ``k`` is in ``tau_g``.
The per-user cache spent on each group-``g`` file is ``r_g / K`` of the
file, so group ``g`` consumes ``M_g = r_g N_g / K`` file units.

Strategy ``alpha`` places each group independently with the classic
single-group scheme (the one-level special case of ``beta``), so groups
have their own sub-packetizations and no cross-group structure.

All sizes are exact rationals; floats only enter through popularity
values supplied as floats.  A popularity is exact or float as a whole
(:func:`_normalize_popularity`): entries given as strings, ints or
``Fraction``s are read exactly, a float entry is kept as a float, and one
float entry makes every entry a float.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, groupby, repeat
from operator import countOf, itemgetter
from typing import Iterator, Mapping, Sequence

from .combinatorics import (
    SubfileIndex,
    _enumerate,
    _rank_table,
    _require_int,
    _sets_table,
    _users_from_mask,
    check_r_vector,
    subpacketization,
)
from .errors import ValidationError

_POPULARITY_TOL = 1e-12
# the digits int() converts, as the bound on a decimal exponent's magnitude
# (Python 3.10 before 3.10.7 has no such limit and no attribute)
_MAX_EXPONENT = getattr(sys.int_info, "default_max_str_digits", 4300)

Number = Fraction | float
Pair = tuple[int, SubfileIndex]


def _parse_number(value, name: str) -> Number:
    """A number given as a string such as "153/200" or "0.75" (read
    exactly), an int or Fraction (as a Fraction), or a finite float (kept);
    anything else, booleans included, raises :class:`ValidationError`,
    as does a decimal exponent beyond ``_MAX_EXPONENT``, whose power of
    ten would take seconds to build."""
    # floats first: a float grid is the commonest input, and it then skips
    # the ABC check of Fraction
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        raise ValidationError(f"{name} {value!r} is not a number")
    if isinstance(value, str):
        _, e, exponent = value.upper().partition("E")
        try:
            too_long = bool(e) and abs(int(exponent)) > _MAX_EXPONENT
        except ValueError:
            too_long = False  # an exponent that is no int: Fraction rejects it
        if too_long:
            raise ValidationError(f"{name} {value!r} is too long a number")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"{name} {value!r} is not a number") from exc
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    raise ValidationError(f"{name} {value!r} is not a number")


def _normalize_popularity(values: Sequence[Number | int | str]) -> tuple[Number, ...]:
    """The popularity `values` as one kind of number, checked: every entry
    a ``Fraction`` when each is a string, int or ``Fraction`` (read by
    :func:`_parse_number`), else every entry ``float(p)``, since one float
    entry makes the whole popularity float.  This is the one place that
    decides; everything downstream reads the tuple as it is.  An exact
    popularity must sum to 1, a float one to within ``_POPULARITY_TOL``."""
    out = [_parse_number(v, "popularity entry") for v in values]
    # checked before the sum, so that no huge entry is converted or printed
    if any(not 0 <= p <= 1 for p in out):
        raise ValidationError("popularity entries must be in [0, 1]")
    if all(isinstance(p, Fraction) for p in out):
        total = sum(out)
        if total != 1:
            # a long denominator, as from "1e-4300", has more digits than str() converts
            got = f", got {total}" if total.denominator.bit_length() <= 64 else ""
            raise ValidationError(f"popularity must sum to 1{got}")
        return tuple(out)
    out = [float(p) for p in out]
    total = math.fsum(out)
    if abs(total - 1.0) > _POPULARITY_TOL:
        raise ValidationError(f"popularity must sum to 1 within {_POPULARITY_TOL}, got {total}")
    return tuple(out)


@dataclass(frozen=True)
class Group:
    """One file group: contiguous block of `size` files with replication `r`."""

    size: int
    r: int


@dataclass(frozen=True)
class PlacementConfig:
    """Validated system description: users, file groups, popularity, strategy.

    Files are 1-indexed and contiguous; group 1 holds files
    ``1..groups[0].size`` and so on.  The request distribution is the same
    for every user.
    """

    users: int
    groups: tuple[Group, ...]
    popularity: tuple[Number, ...]
    strategy: str = "beta"

    def __post_init__(self) -> None:
        _require_int("user count", self.users, 1)
        if not self.groups:
            raise ValidationError("at least one group is required")
        for g in self.groups:
            _require_int("group size", g.size, 1)
            _require_int("group replication", g.r)
            if not 0 <= g.r <= self.users:
                raise ValidationError(f"group replication {g.r} outside [0, {self.users}]")
        if self.strategy not in ("beta", "alpha"):
            raise ValidationError(f"unknown strategy {self.strategy!r}")
        if self.strategy == "beta":
            check_r_vector(self.users, self.r_vector)
        object.__setattr__(self, "popularity", _normalize_popularity(self.popularity))
        if len(self.popularity) != self.num_files:
            raise ValidationError(
                f"popularity has {len(self.popularity)} entries for {self.num_files} files"
            )

    @property
    def num_files(self) -> int:
        return sum(g.size for g in self.groups)

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def r_vector(self) -> tuple[int, ...]:
        return tuple(g.r for g in self.groups)

    @property
    def memory(self) -> Fraction:
        """Per-user cache size in file units: sum of r_g * N_g / K."""
        return Fraction(sum(g.r * g.size for g in self.groups), self.users)

    def group_of(self, file: int) -> int:
        """1-indexed group of a 1-indexed file id."""
        if not 1 <= file <= self.num_files:
            raise ValidationError(f"file {file} outside [1, {self.num_files}]")
        start = 1
        for gi, g in enumerate(self.groups, start=1):
            if file < start + g.size:
                return gi
            start += g.size
        raise AssertionError("unreachable")

    def files_in(self, group: int) -> range:
        if not 1 <= group <= self.num_groups:
            raise ValidationError(f"group {group} outside [1, {self.num_groups}]")
        start = 1 + sum(g.size for g in self.groups[: group - 1])
        return range(start, start + self.groups[group - 1].size)


def make_config(
    users: int,
    sizes: Sequence[int],
    r: Sequence[int],
    popularity: Sequence[Number | int | str] | None = None,
    strategy: str = "beta",
) -> PlacementConfig:
    """Build a config from parallel group sizes and replication values."""
    if len(sizes) != len(r):
        raise ValidationError("sizes and r must have the same length")
    if popularity is None:
        n = sum(sizes)
        popularity = [Fraction(1, n)] * n
    groups = tuple(Group(size=s, r=v) for s, v in zip(sizes, r))
    return PlacementConfig(users=users, groups=groups, popularity=tuple(popularity), strategy=strategy)


def toy_config(p: Number | str = Fraction(1, 2)) -> PlacementConfig:
    """The 3-user / 2-file reference setup: two singleton groups, r = (2, 1)."""
    p = _parse_number(p, "probability")
    q = 1 - p
    return make_config(3, [1, 1], [2, 1], [p, q])


@dataclass(frozen=True)
class CacheState:
    """Immutable cache contents of every user: one holder mask per piece.

    ``spaces[i]`` is the replication chain of file ``i + 1``, and
    ``masks[i][rank]`` is the holder mask of that file's piece at ``rank``
    in :func:`enumerate_indices` order: bit ``k - 1`` is set iff user ``k``
    caches the piece.  Construction checks that every space is a valid
    r-vector, that there is at least one user and one file, that each file
    has one mask per piece, that every mask is an ``int`` (not a bool),
    and that no mask names a user beyond ``users``; lookups then trust the
    state.

    Pieces are handed out as ``(file, SubfileIndex)`` pairs, made once per
    process and ``(K, r, file)`` by :meth:`pairs`; that memo is the only
    one, and a state holds nothing but its three fields.  A set of pieces
    is picked out of those pairs by the holder masks.
    """

    users: int
    spaces: tuple[tuple[int, ...], ...]
    masks: tuple[tuple[int, ...], ...] = field(repr=False)

    def __post_init__(self) -> None:
        _require_int("user count", self.users, 1)
        spaces = tuple(check_r_vector(self.users, space) for space in self.spaces)
        if not spaces:
            raise ValidationError("a cache state needs at least one file")
        masks = tuple(tuple(row) for row in self.masks)
        if len(masks) != len(spaces):
            raise ValidationError(f"{len(masks)} mask rows for {len(spaces)} files")
        full = (1 << self.users) - 1
        for file, (space, row) in enumerate(zip(spaces, masks), start=1):
            count = subpacketization(self.users, space)
            if len(row) != count:
                raise ValidationError(f"file {file} has {len(row)} masks for {count} pieces")
            if countOf(map(type, row), int) != count:
                raise ValidationError(f"file {file} has a holder mask that is not an int")
            if row and (min(row) < 0 or max(row) > full):
                raise ValidationError(f"file {file} has a holder beyond user {self.users}")
        object.__setattr__(self, "spaces", spaces)
        object.__setattr__(self, "masks", masks)

    @property
    def num_files(self) -> int:
        return len(self.spaces)

    def _at(self, file: int) -> int:
        """Position of a 1-indexed file in ``spaces`` and ``masks``."""
        if not 1 <= file <= self.num_files:
            raise ValidationError(f"file {file} outside [1, {self.num_files}]")
        return file - 1

    def subpacketization(self, file: int) -> int:
        return len(self.masks[self._at(file)])

    def indices(self, file: int) -> tuple[SubfileIndex, ...]:
        """The pieces of a file in rank order, parallel to its masks."""
        return _enumerate(self.users, self.spaces[self._at(file)])

    def _bit(self, user: int) -> int:
        if not 1 <= user <= self.users:
            raise ValidationError(f"user {user} outside [1, {self.users}]")
        return 1 << (user - 1)

    def pairs(self, file: int) -> tuple[Pair, ...]:
        """The ``(file, SubfileIndex)`` pairs of a file's pieces in rank
        order, parallel to its masks."""
        return _pairs(self.users, self.spaces[self._at(file)], file)

    def user_cache(self, user: int) -> frozenset[Pair]:
        """The ``(file, SubfileIndex)`` pairs one user caches, as a set."""
        bit = self._bit(user)
        return frozenset(chain.from_iterable(
            compress(self.pairs(f), [mask & bit for mask in row])
            for f, row in enumerate(self.masks, start=1)
        ))

    def cached_count(self, user: int, file: int) -> int:
        bit = self._bit(user)
        return sum(1 for mask in self.masks[self._at(file)] if mask & bit)

    def cached_fraction(self, user: int, file: int) -> Fraction:
        return Fraction(self.cached_count(user, file), self.subpacketization(file))

    def user_load(self, user: int) -> Fraction:
        """Cache occupancy of one user in file units (exact)."""
        return sum(
            (self.cached_fraction(user, f) for f in range(1, self.num_files + 1)),
            Fraction(0),
        )


@lru_cache(maxsize=None)
def _pairs(users: int, space: tuple[int, ...], file: int) -> tuple[Pair, ...]:
    return tuple(zip(repeat(file), _enumerate(users, space)))


def _place(cfg: PlacementConfig, chains: Sequence[tuple[tuple[int, ...], int]]) -> CacheState:
    """Shared builder: ``chains[g - 1]`` is ``(space, level)`` for group
    ``g``.  The group's files are split into the pieces of ``space``, and a
    piece's holder mask is its chain's subset at the 0-indexed ``level``.
    Files of one group share one mask row."""
    spaces: list[tuple[int, ...]] = []
    masks: list[tuple[int, ...]] = []
    for group, (space, level) in zip(cfg.groups, chains):
        row = tuple(idx.masks[level] for idx in _enumerate(cfg.users, space))
        spaces += [space] * group.size
        masks += [row] * group.size
    return CacheState(cfg.users, tuple(spaces), tuple(masks))


def place_beta(cfg: PlacementConfig) -> CacheState:
    """Run the cross-group placement: uniform sub-packetization, nested chains.

    User ``k`` stores piece ``(tau_1, ..., tau_L)`` of a group-``g`` file
    iff ``k`` belongs to ``tau_g``.
    """
    return _place(cfg, [(cfg.r_vector, level) for level in range(cfg.num_groups)])


def place_alpha(cfg: PlacementConfig) -> CacheState:
    """Place every group independently with the one-level classic scheme.

    Each group keeps its own sub-packetization ``C(K, r_g)``, and user
    ``k`` stores piece ``(tau_1,)`` iff ``k`` belongs to ``tau_1``.
    """
    return _place(cfg, [((group.r,), 0) for group in cfg.groups])


def place(cfg: PlacementConfig) -> CacheState:
    """Dispatch placement on the config's declared strategy."""
    return place_beta(cfg) if cfg.strategy == "beta" else place_alpha(cfg)


def per_group_cache(cfg: PlacementConfig) -> tuple[Fraction, ...]:
    """Exact cache spent per group per user: ``M_g = r_g * N_g / K``."""
    return tuple(Fraction(g.r * g.size, cfg.users) for g in cfg.groups)


def split_by_popularity(
    popularity: Sequence[Number | int | str], sizes: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """Convenience grouping helper: sort files by popularity (descending,
    stable by id) and cut at the given group sizes.

    Returns the file ids per group; choosing the partition remains the
    caller's decision.
    """
    pop = _normalize_popularity(popularity)
    for s in sizes:
        _require_int("group size", s, 1)
    if sum(sizes) != len(pop):
        raise ValidationError("group sizes must cover every file exactly once")
    order = sorted(range(1, len(pop) + 1), key=lambda i: (-pop[i - 1], i))
    out = []
    at = 0
    for s in sizes:
        out.append(tuple(order[at : at + s]))
        at += s
    return tuple(out)


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------


def _number_to_json(v: Number) -> float | str:
    return f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else v


def config_to_json(cfg: PlacementConfig) -> dict:
    return {
        "K": cfg.users,
        "strategy": cfg.strategy,
        "groups": [{"size": g.size, "r": g.r} for g in cfg.groups],
        "popularity": [_number_to_json(p) for p in cfg.popularity],
    }


def config_from_json(data: Mapping) -> PlacementConfig:
    try:
        users = data["K"]
        groups = tuple(Group(size=g["size"], r=g["r"]) for g in data["groups"])
        popularity = tuple(data["popularity"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed config: {exc}") from exc
    strategy = data.get("strategy", "beta")
    return PlacementConfig(users=users, groups=groups, popularity=popularity, strategy=strategy)


def load_config(path) -> PlacementConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            # RecursionError: nested deeper than the decoder's recursion limit
            raise ValidationError(f"config is not valid UTF-8 JSON: {exc}") from exc
    return config_from_json(data)


def _nl(depth: int) -> str:
    """A line break and the indent of a value ``depth`` levels deep."""
    return "\n" + "  " * depth


def _list_parts(items: Sequence[Sequence[str]], depth: int) -> list[str]:
    """The text of a JSON list that opens ``depth`` levels deep, in parts,
    laid out as ``json.dumps(..., indent=2)`` lays it out; each item is
    given as the parts of its own text."""
    if not items:
        return ["[]"]
    parts = ["[" + _nl(depth + 1)]
    sep = "," + _nl(depth + 1)
    for item in items:
        parts += item
        parts.append(sep)
    parts[-1] = _nl(depth) + "]"
    return parts


def _cache_json_chunks(cache: CacheState) -> Iterator[str]:
    """The cache JSON file's text in chunks: the opening with ``K`` and
    ``files``, then one chunk per user record, then the closing.

    This generator owns the layout.  Each user record lists, per file in
    rank order, the chains of the pieces the user holds.  Every user subset
    is rendered once, and every piece's chains once per r-vector.  When a
    user's chunk is due, the user's blocks are picked by the user's bit in
    the holder masks, once per distinct (mask row, r-vector) pair, since the
    files of one group share both; each file's entries are then one join
    of its blocks, so no text longer than one user record is ever built.
    """
    blocks: dict[tuple[int, ...], list[str]] = {}
    for space in cache.spaces:
        if space not in blocks:
            # an entry sits 4 levels deep (top, users, user, entries), so
            # its chains open 5 levels deep and their user subsets 6
            pieces = _enumerate(cache.users, space)
            subsets = {
                m: (json.dumps(_users_from_mask(m), indent=2).replace("\n", _nl(6)),)
                for m in {m for idx in pieces for m in idx.masks}
            }
            blocks[space] = [
                "".join(_list_parts([subsets[m] for m in idx.masks], 5)) for idx in pieces
            ]
    # the position of each file's (mask row, r-vector) pair among the distinct ones
    distinct: dict[tuple, int] = {}
    picks = [
        distinct.setdefault((row, space), len(distinct))
        for space, row in zip(cache.spaces, cache.masks)
    ]
    tail = _nl(4) + "}"
    heads = [
        "{" + _nl(5) + f'"file": {f},' + _nl(5) + '"chains": '
        for f in range(1, cache.num_files + 1)
    ]
    # between two entries of one file: the first's tail, the second's head
    glues = [tail + "," + _nl(4) + head for head in heads]
    files = [
        {"file": f, "r": list(space), "subpacketization": len(row)}
        for f, (space, row) in enumerate(zip(cache.spaces, cache.masks), start=1)
    ]
    yield (
        "{" + _nl(1) + f'"K": {json.dumps(cache.users)},'
        + _nl(1) + '"files": ' + json.dumps(files, indent=2).replace("\n", _nl(1)) + ","
        + _nl(1) + '"users": ['
    )
    # a cache state has at least one user, so the users list is never "[]"
    sep = _nl(2)
    for k in range(1, cache.users + 1):
        bit = 1 << (k - 1)
        picked = [list(compress(blocks[space], [m & bit for m in row])) for row, space in distinct]
        held = [
            (head, glue.join(picked[i]), tail)
            for head, glue, i in zip(heads, glues, picks)
            if picked[i]
        ]
        yield "".join(
            [sep, "{", _nl(3), f'"user": {k},', _nl(3), '"entries": ']
            + _list_parts(held, 3)
            + [_nl(2), "}"]
        )
        sep = "," + _nl(2)
    yield _nl(1) + "]\n}\n"


def cache_json_text(cache: CacheState) -> str:
    """The cache JSON file's text: ``json.dumps(..., indent=2)`` of the
    record plus a final newline, byte for byte.

    The chunks of :func:`_cache_json_chunks`, joined; ``place --out``
    writes those chunks one at a time instead.  :func:`cache_to_json` is
    parsed from this text.
    """
    return "".join(_cache_json_chunks(cache))


def cache_to_json(cache: CacheState) -> dict:
    """The cache JSON record, parsed from :func:`cache_json_text`."""
    return json.loads(cache_json_text(cache))


def cache_from_json(data: Mapping) -> CacheState:
    """Read a cache state back; a record that names no piece of the
    placement, disagrees with ``K`` or with the file records, or lists a
    piece twice for one user raises :class:`ValidationError`.

    A user record is read in runs of consecutive entries with equal
    ``"file"`` values (``itertools.groupby``).  Each run is checked in C
    pipelines: every entry has one subset per level of its file, every
    chain is found in the file's table of sorted user tuples
    (``map(table.get, keys)``), and one ``countOf`` finds exactly
    ``len(run) * (1 + sum(r))`` values of type ``int`` among the run's
    files and user ids.  The files are counted too because groupby runs by
    equality: a ``True`` or ``1.0`` file joins a run of file 1.  A run with
    a missing rank or a short count, such as chains in another order, an
    ``int`` subclass or damage, is read again one entry at a time: each
    file is checked, and each chain's masks are built by
    :meth:`SubfileIndex.from_sets`, which checks every user.  The check for
    a piece listed twice is made per user and file on the mask rows, so it
    holds across runs.  The chains and their subsets are read as the lists
    ``json.load`` makes: each must have a length and is iterated twice.

    The lookup tables are memoised per process for each ``(K, r)``.  No
    pair is made here, and the state carries no memo:
    :meth:`CacheState.pairs` makes the pairs, once per process, when they
    are asked for."""
    try:
        users = data["K"]
        _require_int("K", users)
        spaces = [check_r_vector(users, f["r"]) for f in data["files"]]
        if len(data["users"]) != users:
            raise ValidationError(f"{len(data['users'])} user records for K = {users}")
        tables = [_sets_table(users, space) for space in spaces]
        # an entry of a file names the file and, in its chain, sum(r) user ids
        widths = [1 + sum(space) for space in spaces]
        num_files = len(spaces)
        ranks = [_rank_table(users, space) for space in spaces]
        masks = [[0] * len(table) for table in ranks]
        file_of, chains_of = itemgetter("file"), itemgetter("chains")
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
            for f, run in groupby(u["entries"], file_of):
                run = list(run)
                found = None
                if type(f) is int and 1 <= f <= num_files:
                    lists = list(map(chains_of, run))
                    levels = len(spaces[f - 1])
                    # the run's subsets as tuples, `levels` to a chain key;
                    # zip reuses its key tuple once the lookup drops it
                    subsets = map(tuple, chain.from_iterable(lists))
                    found = list(map(tables[f - 1].get, zip(*[subsets] * levels)))
                    ids = chain(map(file_of, run), chain.from_iterable(chain.from_iterable(lists)))
                    if (
                        countOf(map(len, lists), levels) != len(run)
                        or None in found
                        or countOf(map(type, ids), int) != len(run) * widths[f - 1]
                    ):
                        found = None
                if found is None:
                    # one entry at a time, each file and user id checked
                    found = []
                    for e in run:
                        f, chains = e["file"], e["chains"]
                        _require_int("file", f)
                        if not 1 <= f <= num_files:
                            raise ValidationError(f"file {f} outside [1, {num_files}]")
                        idx = SubfileIndex.from_sets(chains, users)
                        rank = ranks[f - 1].get(idx.masks)
                        if rank is None:
                            raise ValidationError(f"{idx.sets} is no piece of file {f}")
                        found.append(rank)
                row = masks[f - 1]
                for rank in found:
                    if row[rank] & bit:
                        raise ValidationError(f"user {k} lists a piece of file {f} twice")
                    row[rank] |= bit
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed cache state: {exc}") from exc
    return CacheState(users, tuple(spaces), tuple(tuple(row) for row in masks))
