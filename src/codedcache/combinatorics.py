"""Nested subset chains that address the equal-size pieces of a file.

Under a replication vector ``r = (r_1, ..., r_L)`` (one non-increasing
entry per file group) every file is split into ``S`` pieces, one per
chain ``(tau_1, ..., tau_L)`` of user subsets with

* ``tau_1`` a subset of ``{1..K}``,
* ``tau_j`` a subset of ``tau_{j-1}`` for ``j >= 2``,
* ``|tau_j| = r_j`` for every level ``j``.

``S`` equals the multinomial coefficient
``K! / ((K - r_1)! (r_1 - r_2)! ... (r_{L-1} - r_L)! r_L!)``.

Chains are kept in a canonical bitmask form (bit ``i - 1`` set means
user ``i`` belongs to the subset) and enumerated in ascending
lexicographic order of the bitmask tuple, which gives every piece a
stable dense rank used elsewhere for GF(2) column numbering.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb
from typing import Iterable, NamedTuple, Sequence

from .errors import LimitExceededError, ValidationError

# Full materialization of the index list is capped; anything larger is a
# configuration error at desk scale.
MAX_ENUMERATION = 10**6


def _require_int(name: str, value, least: int | None = None) -> None:
    """Raise unless `value` is an int, and at least `least` if that is given."""
    # bool is an int subclass, but True is no user or piece count
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")


def check_r_vector(users: int, r: Sequence[int]) -> tuple[int, ...]:
    """Validate a replication vector against a user count and return it as a tuple."""
    _require_int("user count", users, 1)
    rv = tuple(r)
    if not rv:
        raise ValidationError("replication vector must have at least one entry")
    for value in rv:
        _require_int("replication entry", value)
        if not 0 <= value <= users:
            raise ValidationError(f"replication entry {value} outside [0, {users}]")
    if any(a < b for a, b in zip(rv, rv[1:])):
        raise ValidationError(f"replication vector must be non-increasing, got {rv}")
    return rv


def subpacketization(users: int, r: Sequence[int]) -> int:
    """Number of pieces each file is split into: the exact multinomial count.

    Python integers are arbitrary precision, so the result can never wrap;
    enumeration (not counting) is what :data:`MAX_ENUMERATION` guards.
    """
    rv = check_r_vector(users, r)
    total = 1
    prev = users
    for value in rv:
        total *= comb(prev, value)
        prev = value
    return total


def _mask_from_users(members: Iterable[int], users: int | None) -> int:
    """The bitmask of distinct user ids, each in ``[1, users]``, or only at
    least 1 when `users` is None."""
    mask = 0
    for k in members:
        _require_int("user", k, 1)
        if users is not None and k > users:
            raise ValidationError(f"user {k} outside [1, {users}]")
        bit = 1 << (k - 1)
        if mask & bit:
            raise ValidationError(f"duplicate user {k} in subset")
        mask |= bit
    return mask


def _users_from_mask(mask: int) -> tuple[int, ...]:
    out = []
    k = 1
    while mask:
        if mask & 1:
            out.append(k)
        mask >>= 1
        k += 1
    return tuple(out)


class SubfileIndex(NamedTuple):
    """Canonical chain of nested user subsets identifying one file piece.

    Two indices are equal iff all their subsets are setwise equal; ordering
    is lexicographic on the bitmask tuple.  The type is a tuple so that
    hashing, equality and ordering run in C: a set or dict of
    ``(file, SubfileIndex)`` pairs never calls back into Python.
    """

    masks: tuple[int, ...]

    @classmethod
    def from_sets(cls, chains: Iterable[Iterable[int]], users: int | None = None) -> "SubfileIndex":
        """The index of chains given as user subsets.  User ids must be
        distinct ints of at least 1 per subset, and at most `users` if that
        is given; whether the chain is a piece of some placement is checked
        where the placement is known."""
        return cls(tuple(_mask_from_users(c, users) for c in chains))

    @property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        """The chain as sorted user tuples."""
        return tuple(_users_from_mask(m) for m in self.masks)

    @property
    def levels(self) -> int:
        return len(self.masks)

    def holds(self, level: int, user: int) -> bool:
        """True if `user` belongs to the subset at 1-indexed `level`."""
        _require_int("level", level)
        _require_int("user", user, 1)
        if not 1 <= level <= len(self.masks):
            raise ValidationError(f"level {level} outside [1, {len(self.masks)}]")
        return bool(self.masks[level - 1] >> (user - 1) & 1)

    def permuted(self, perm: Sequence[int]) -> "SubfileIndex":
        """Relabel users: user ``k`` becomes ``perm[k-1]`` (1-indexed images).

        Raises :class:`ValidationError` unless `perm` is a permutation of
        ``1..len(perm)`` with an image for every user the chain names.
        """
        images = list(perm)
        for image in images:
            _require_int("user image", image)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValidationError(f"{images} is not a permutation of 1..{len(images)}")
        if any(mask >> len(images) for mask in self.masks):
            raise ValidationError(f"{images} has no image for a user of {self.sets}")
        new_masks = []
        for mask in self.masks:
            out = 0
            for k in _users_from_mask(mask):
                out |= 1 << (images[k - 1] - 1)
            new_masks.append(out)
        return SubfileIndex(tuple(new_masks))


def check_index(idx: SubfileIndex, users: int, r: Sequence[int]) -> None:
    """Raise unless `idx` is a valid chain for ``(users, r)``."""
    rv = check_r_vector(users, r)
    if idx.levels != len(rv):
        raise ValidationError(f"index has {idx.levels} levels, expected {len(rv)}")
    full = (1 << users) - 1
    prev = full
    for level, (mask, size) in enumerate(zip(idx.masks, rv), start=1):
        if mask & ~full:
            raise ValidationError(f"level {level} contains users beyond {users}")
        if mask & ~prev != 0 and level > 1:
            raise ValidationError(f"level {level} is not nested in level {level - 1}")
        if mask.bit_count() != size:
            raise ValidationError(f"level {level} has {mask.bit_count()} users, expected {size}")
        prev = mask


@lru_cache(maxsize=None)
def _enumerate(users: int, r: tuple[int, ...]) -> tuple[SubfileIndex, ...]:
    count = subpacketization(users, r)
    if count > MAX_ENUMERATION:
        raise LimitExceededError(
            f"subpacketization {count} exceeds enumeration cap {MAX_ENUMERATION}"
        )

    # the pool holds the user bits themselves, so each chain's masks are
    # the sums of the combos it is built from; the users need no check
    def extend(prefix: tuple[int, ...], pool: tuple[int, ...], depth: int):
        if depth == len(r):
            yield prefix
            return
        for combo in itertools.combinations(pool, r[depth]):
            yield from extend(prefix + (sum(combo),), combo, depth + 1)

    chains = extend((), tuple(1 << k for k in range(users)), 0)
    return tuple(SubfileIndex(m) for m in sorted(chains))


def enumerate_indices(users: int, r: Sequence[int]) -> tuple[SubfileIndex, ...]:
    """All valid chains for ``(users, r)`` in ascending bitmask order."""
    return _enumerate(users, check_r_vector(users, r))


@lru_cache(maxsize=None)
def _rank_table(users: int, r: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    return {idx.masks: i for i, idx in enumerate(_enumerate(users, r))}


@lru_cache(maxsize=None)
def _sets_table(users: int, r: tuple[int, ...]) -> dict[tuple[tuple[int, ...], ...], int]:
    """Rank of each chain keyed by its sorted user tuples, the form the
    cache JSON lists it in.  A key of equal ints of another type, such as
    ``(1.0, 2.0)`` or ``(True, 2)``, also hits, so callers check the types.
    Each distinct user subset is one tuple, shared by every key naming it."""
    pieces = _enumerate(users, r)
    subsets = {m: _users_from_mask(m) for m in {m for idx in pieces for m in idx.masks}}
    return {tuple(map(subsets.__getitem__, idx.masks)): i for i, idx in enumerate(pieces)}


def index_rank(idx: SubfileIndex, users: int, r: Sequence[int]) -> int:
    """Position of `idx` in :func:`enumerate_indices` order."""
    check_index(idx, users, r)
    return _rank_table(users, check_r_vector(users, r))[idx.masks]


def index_unrank(rank: int, users: int, r: Sequence[int]) -> SubfileIndex:
    """Inverse of :func:`index_rank`."""
    _require_int("rank", rank)
    indices = enumerate_indices(users, r)
    if not 0 <= rank < len(indices):
        raise ValidationError(f"rank {rank} outside [0, {len(indices)})")
    return indices[rank]
