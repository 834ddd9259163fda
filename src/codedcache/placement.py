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
values supplied as floats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .combinatorics import (
    SubfileIndex,
    _enumerate,
    _rank_table,
    check_r_vector,
    subpacketization,
)
from .errors import ValidationError

_POPULARITY_TOL = 1e-12

Number = Fraction | float


def _normalize_popularity(values: Sequence[Number | int | str]) -> tuple[Number, ...]:
    out: list[Number] = []
    for v in values:
        if isinstance(v, str):
            out.append(Fraction(v))
        elif isinstance(v, (int, Fraction)):
            out.append(Fraction(v))
        elif isinstance(v, float):
            out.append(v)
        else:
            raise ValidationError(f"popularity entry {v!r} is not a number")
    if any(p < 0 for p in out):
        raise ValidationError("popularity entries must be non-negative")
    if all(isinstance(p, Fraction) for p in out):
        if sum(out) != 1:
            raise ValidationError(f"popularity must sum to 1, got {sum(out)}")
    else:
        total = math.fsum(float(p) for p in out)
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
        if self.users < 1:
            raise ValidationError(f"user count must be >= 1, got {self.users}")
        if not self.groups:
            raise ValidationError("at least one group is required")
        for g in self.groups:
            if g.size < 1:
                raise ValidationError(f"group size must be >= 1, got {g.size}")
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
    p = Fraction(p) if isinstance(p, (int, str, Fraction)) else p
    q = 1 - p
    return make_config(3, [1, 1], [2, 1], [p, q])


@dataclass(frozen=True)
class CacheState:
    """Immutable cache contents of every user: one holder mask per piece.

    ``spaces[i]`` is the replication chain of file ``i + 1``, and
    ``masks[i][rank]`` is the holder mask of that file's piece at ``rank``
    in :func:`enumerate_indices` order: bit ``k - 1`` is set iff user ``k``
    caches the piece.  Construction checks that every space is a valid
    r-vector, that each file has one mask per piece, and that no mask names
    a user beyond ``users``; lookups then trust the state.
    """

    users: int
    spaces: tuple[tuple[int, ...], ...]
    masks: tuple[tuple[int, ...], ...] = field(repr=False)

    def __post_init__(self) -> None:
        spaces = tuple(check_r_vector(self.users, space) for space in self.spaces)
        masks = tuple(tuple(row) for row in self.masks)
        if len(masks) != len(spaces):
            raise ValidationError(f"{len(masks)} mask rows for {len(spaces)} files")
        full = (1 << self.users) - 1
        for file, (space, row) in enumerate(zip(spaces, masks), start=1):
            count = subpacketization(self.users, space)
            if len(row) != count:
                raise ValidationError(f"file {file} has {len(row)} masks for {count} pieces")
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

    def user_cache(self, user: int) -> frozenset:
        """The ``(file, SubfileIndex)`` pairs one user caches, as a set."""
        bit = self._bit(user)
        return frozenset(
            (f, idx)
            for f in range(1, self.num_files + 1)
            for idx, mask in zip(self.indices(f), self.masks[f - 1])
            if mask & bit
        )

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
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
    return config_from_json(data)


def cache_to_json(cache: CacheState) -> dict:
    chains = {
        space: [idx.sets for idx in _enumerate(cache.users, space)] for space in set(cache.spaces)
    }
    return {
        "K": cache.users,
        "files": [
            {
                "file": i + 1,
                "r": list(space),
                "subpacketization": cache.subpacketization(i + 1),
            }
            for i, space in enumerate(cache.spaces)
        ],
        "users": [
            {
                "user": k,
                "entries": [
                    {"file": f, "chains": [list(s) for s in sets]}
                    for f, (space, row) in enumerate(zip(cache.spaces, cache.masks), start=1)
                    for mask, sets in zip(row, chains[space])
                    if mask >> (k - 1) & 1
                ],
            }
            for k in range(1, cache.users + 1)
        ],
    }


def cache_from_json(data: Mapping) -> CacheState:
    """Read a cache state back; a record that names no piece of the
    placement, or disagrees with ``K``, raises :class:`ValidationError`."""
    try:
        users = data["K"]
        spaces = [check_r_vector(users, f["r"]) for f in data["files"]]
        if len(data["users"]) != users:
            raise ValidationError(f"{len(data['users'])} user records for K = {users}")
        ranks = [_rank_table(users, space) for space in spaces]
        masks = [[0] * len(table) for table in ranks]
        for k, u in enumerate(data["users"], start=1):
            if u["user"] != k:
                raise ValidationError(f"user record {u['user']!r} in position {k}")
            for e in u["entries"]:
                f = e["file"]
                if not 1 <= f <= len(spaces):
                    raise ValidationError(f"file {f} outside [1, {len(spaces)}]")
                idx = SubfileIndex.from_sets(e["chains"], users)
                rank = ranks[f - 1].get(idx.masks)
                if rank is None:
                    raise ValidationError(f"{idx.sets} is no piece of file {f}")
                masks[f - 1][rank] |= 1 << (k - 1)
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed cache state: {exc}") from exc
    return CacheState(users, tuple(spaces), tuple(tuple(row) for row in masks))
