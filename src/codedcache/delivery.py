"""XOR broadcast schedules: construction, verification, and search.

A delivery message is the bitwise XOR of a set of file pieces; a
schedule is an ordered list of messages whose total rate is the sum of
the piece sizes.  Decodability is checked by linear algebra over GF(2).
A user's side information is read off the holder masks and never enters
a basis: user ``k`` sees each message only on the columns it does not
cache, and can recover a piece iff its unit vector lies in the span of
those masked messages.  The verdict is one echelon pass per user over
the masked messages, with no record of which messages were combined.
The certificates - the witnessing messages, plus the cached pieces that
cancel the rest of their sum - are solved only when a report's
``certificates`` is first read; ``deliver --verify`` reads the verdict
alone, and the certificates are evidence for tests and library callers.

Inside the module a piece is its GF(2) column, one int per (file, rank);
a table built per call holds each column's holder mask, piece count and
pair.  ``(file, SubfileIndex)`` pairs appear only in what the module
hands out: messages, certificates, missing pieces and :func:`needed_map`.
None of them is made here: they are :meth:`CacheState.pairs`, made once
per process, ``(K, r)`` and file, and picked out by the holder masks.
A pair is a tuple of ints and a tuple, so sets and dicts of pairs hash
and compare them in C.

Four schedule producers are provided:

* :func:`toy_schedule` - the hand-designed optimal schedule for the
  3-user / 2-file reference setup with chains (2, 1), extended to
  permuted demands by relabeling users.
* :func:`greedy_schedule` - a deterministic heuristic; always sound,
  no optimality claim.
* :func:`leader_schedule` - the per-level leader scheme of Yu,
  Maddah-Ali and Avestimehr: each level of cached files is served alone,
  at ``sum_t classic_rate(K, t, D_t)``.  It needs every requested file
  cached at one level, as both placements cache it, and is not one of
  :data:`SCHEDULERS`.
* :func:`exhaustive_schedule` - minimum-message search over clique-style
  candidate messages, used as the certification oracle at desk scale.
  Its bound per user is the needed-piece count less the pivots that land
  on needed columns in one in-place basis of the user's message span.
  Its iterative deepening starts at the piece-count chain bound, and a
  branch is cut once some user lacks more than the candidates left that
  reach it.

:func:`exhaustive_rate` is the exhaustive schedule's rate alone.  Where
the leader scheme's message count, taken on the integers from the
requested rows, or else greedy's clique pass meets the piece-count chain
bound with pieces of one size, that rate is the search's, and no search
runs.

:func:`chain_bound` is the lower bound on any delivery's rate: the best
sum, over users with distinct files taken in order, of the share of each
one's file that none of them so far holds.

:func:`schedules_json_text` owns the layout of the ``deliver`` output,
one schedule record or a ``{"schedules": [...]}`` list of them;
:func:`schedule_to_json` is parsed from its text.
"""

from __future__ import annotations

import heapq
import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from math import comb, prod
from operator import xor
from typing import Callable, Mapping, NoReturn, Sequence

from .combinatorics import SubfileIndex, _require_int, _users_from_mask
from .errors import BudgetExceededError, UnsupportedConfigError, ValidationError
from .gf2 import GF2Basis
from .placement import CacheState, Pair, _list_parts, _nl, _parse_number, place_beta, toy_config


@dataclass(frozen=True)
class DeliveryMessage:
    """XOR of a set of distinct file pieces, kept in canonical order."""

    summands: tuple[Pair, ...]

    @classmethod
    def build(cls, pairs) -> "DeliveryMessage":
        items = list(pairs)
        if not items:
            raise ValidationError("a message needs at least one summand")
        for f, _ in items:
            # the range is checked against a placement, where one is known
            _require_int("file", f)
        if len(set(items)) != len(items):
            raise ValidationError("duplicate summands would cancel over GF(2)")
        return cls(tuple(sorted(items)))

    def permuted(self, perm: Sequence[int]) -> "DeliveryMessage":
        return DeliveryMessage.build((f, idx.permuted(perm)) for f, idx in self.summands)


@dataclass(frozen=True)
class DeliverySchedule:
    """Ordered messages plus their exact total rate in file units."""

    messages: tuple[DeliveryMessage, ...]
    rate: Fraction

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValidationError("schedule rate cannot be negative")


def make_schedule(cache: CacheState, messages) -> DeliverySchedule:
    """The schedule of these messages at the rate their piece sizes sum to;
    raises :class:`ValidationError` for a message that is not one of
    equal-size pieces of the placement (see :meth:`_PieceTable.body`)."""
    table = _PieceTable(cache)
    return table.schedule([table.body(m) for m in messages])


def permute_schedule(schedule: DeliverySchedule, perm: Sequence[int]) -> DeliverySchedule:
    """Relabel users in every message; the rate is unchanged."""
    return DeliverySchedule(
        tuple(m.permuted(perm) for m in schedule.messages), schedule.rate
    )


# ---------------------------------------------------------------------------
# Demands
# ---------------------------------------------------------------------------


def normalize_demand(cache: CacheState, demand) -> dict[int, int]:
    """Accept a full length-K vector or a partial {user: file} mapping."""
    if isinstance(demand, Mapping):
        items = dict(demand)
    else:
        vec = tuple(demand)
        if len(vec) != cache.users:
            raise ValidationError(
                f"demand vector has {len(vec)} entries for {cache.users} users"
            )
        items = {k + 1: f for k, f in enumerate(vec)}
    for k, f in items.items():
        _require_int("user", k)
        _require_int("file", f)
        if not 1 <= k <= cache.users:
            raise ValidationError(f"user {k} outside [1, {cache.users}]")
        if not 1 <= f <= cache.num_files:
            raise ValidationError(f"file {f} outside [1, {cache.num_files}]")
    return items


def needed_map(cache: CacheState, demand) -> dict[int, frozenset[Pair]]:
    """Pieces of each user's requested file that are absent from its cache:
    those whose holder mask lacks the user's bit.

    Each set is picked out of :meth:`CacheState.pairs`, which are made once
    per process, by the file's mask row; no pair is made here."""
    dem = normalize_demand(cache, demand)
    out = {}
    for k, f in dem.items():
        bit = 1 << (k - 1)
        # CPython 3.11 runs this comprehension about twice as fast as
        # map(not_, map(bit.__and__, row)), whose bound method goes
        # through a slot wrapper on every mask
        lacking = [not mask & bit for mask in cache.masks[f - 1]]
        out[k] = frozenset(itertools.compress(cache.pairs(f), lacking))
    return out


# ---------------------------------------------------------------------------
# Decodability over GF(2)
# ---------------------------------------------------------------------------


class _PieceTable:
    """Every piece of a cache state, numbered by its GF(2) column.

    File ``f``'s piece at ``rank`` (in :func:`enumerate_indices` order) is
    column ``offsets[f - 1] + rank``; ``holders[c]`` is column ``c``'s
    holder mask, ``counts[c]`` its file's piece count and ``pairs[c]`` its
    ``(file, SubfileIndex)`` pair, one of :meth:`CacheState.pairs`.  Ranks
    follow the pieces' masks and the offsets grow with the file number, so
    columns sort exactly as ``(file, masks)`` does.
    """

    def __init__(self, cache: CacheState) -> None:
        self.cache = cache
        self.offsets: list[int] = []
        self.holders: list[int] = []
        self.counts: list[int] = []
        self.pairs: list[Pair] = []
        for f, row in enumerate(cache.masks, start=1):
            self.offsets.append(len(self.holders))
            self.holders += row
            self.counts += [len(row)] * len(row)
            self.pairs += cache.pairs(f)

    def needed(self, dem: Mapping[int, int]) -> dict[int, list[int]]:
        """Per user, in user order, the ascending columns of its requested
        file whose holder mask lacks the user's bit."""
        out = {}
        for k, f in sorted(dem.items()):
            bit = 1 << (k - 1)
            out[k] = [c for c in self.columns(f) if not self.holders[c] & bit]
        return out

    def columns(self, file: int) -> range:
        """The columns of `file`'s pieces, in rank order."""
        start = self.offsets[file - 1]
        return range(start, start + len(self.cache.masks[file - 1]))

    @cached_property
    def _column_of(self) -> dict[Pair, int]:
        """Each column keyed by its pair, built on the first :meth:`body`,
        so a table that reads no message pays nothing for it."""
        return {pair: c for c, pair in enumerate(self.pairs)}

    def body(self, message: DeliveryMessage) -> list[int]:
        """The message's columns, in summand order; raises for a summand
        that is no piece of the placement, whose file is not an int or is
        out of range, and for summands of unequal piece counts, whose XOR
        is not defined.

        Each summand is one dict lookup of its whole pair.  A file of
        ``1.0`` or ``True`` equals 1 and hashes as 1, and a plain tuple
        equals the :class:`SubfileIndex` of its masks, so the lookup alone
        would take them: the types are checked as well."""
        column_of = self._column_of
        columns = []
        for pair in message.summands:
            column = column_of.get(pair)
            if column is None or type(pair[0]) is not int or type(pair[1]) is not SubfileIndex:
                self._reject(pair)
            columns.append(column)
        sizes = {self.counts[c] for c in columns}
        if len(sizes) != 1:
            raise ValidationError(
                "message mixes pieces of different sizes; XOR across unequal "
                f"sub-packetizations {sorted(sizes)} is not defined"
            )
        return columns

    def _reject(self, summand) -> NoReturn:
        """Raise the :class:`ValidationError` that names what is wrong with
        a summand that is not one of :attr:`pairs`."""
        f, idx = summand
        if type(f) is not int:
            raise ValidationError(f"file must be an integer, got {f!r}")
        self.cache._at(f)  # raises for a file outside [1, N]
        if type(idx) is not SubfileIndex:
            raise ValidationError(f"piece {idx!r} of file {f} is not a SubfileIndex")
        raise ValidationError(f"unknown piece {idx} for file {f}")

    def message(self, columns: Sequence[int]) -> DeliveryMessage:
        """The message XORing these distinct, ascending columns."""
        return DeliveryMessage(tuple(map(self.pairs.__getitem__, columns)))

    def rate(self, bodies: Sequence[Sequence[int]]) -> Fraction:
        """Total rate, in file units, of messages given as column tuples,
        each of one piece size: one ``Fraction`` per piece size, not one
        per message.  Every schedule's rate is summed here."""
        sizes = Counter(self.counts[body[0]] for body in bodies)
        return sum((Fraction(n, size) for size, n in sizes.items()), Fraction(0))

    def schedule(self, bodies: Sequence[Sequence[int]]) -> DeliverySchedule:
        """The schedule of these column tuples at their :meth:`rate`."""
        return DeliverySchedule(tuple(map(self.message, bodies)), self.rate(bodies))


@dataclass(frozen=True)
class Certificate:
    """How one piece is recovered: XOR these cache entries and messages."""

    cache_entries: tuple[Pair, ...]
    messages: tuple[int, ...]


@dataclass(frozen=True)
class DecodeReport:
    """Outcome of a decodability check with per-user evidence.

    ``ok`` and ``missing`` are the verdict: per demanding user, in user
    order, the needed pieces it cannot recover, in column order.
    ``certificates`` maps every demanding user, in user order, to each
    needed piece it recovers, in column order, and how; it is solved on
    its first read from the message vectors and columns the verdict kept,
    and then cached.  ``deliver --verify`` reads the verdict alone, so
    only a caller that asks for the evidence pays for it.
    """

    ok: bool
    missing: dict[int, tuple[Pair, ...]]
    # what the certificates are solved from: each column's pair, each
    # message as a set of column bits, and per user its needed columns and
    # the bits of the columns it does not cache
    _pairs: Sequence[Pair] = field(repr=False, compare=False)
    _vectors: Sequence[int] = field(repr=False, compare=False)
    _users: Mapping[int, tuple[list[int], int]] = field(repr=False, compare=False)

    def __bool__(self) -> bool:
        return self.ok

    @cached_property
    def certificates(self) -> dict[int, dict[Pair, Certificate]]:
        """Per user, each recoverable needed piece's certificate.

        One tagged :class:`GF2Basis` per user holds the messages cut to
        its uncached columns; a piece's solve names the messages, and the
        columns left in their sum besides the piece, all of them cached,
        are its cache entries."""
        pairs, vectors = self._pairs, self._vectors
        certificates: dict[int, dict[Pair, Certificate]] = {}
        for k, (needed, uncached) in self._users.items():
            basis = GF2Basis()
            for i, vec in enumerate(vectors):
                basis.add(vec & uncached, tag=i)
            user_certs: dict[Pair, Certificate] = {}
            for column in needed:
                combo = basis.solve(1 << column)
                if combo is None:
                    continue
                used = _set_bits(combo)
                rest = 1 << column
                for i in used:
                    rest ^= vectors[i]
                entries = tuple(pairs[c] for c in _set_bits(rest))
                user_certs[pairs[column]] = Certificate(entries, tuple(used))
            certificates[k] = user_certs
        return certificates


def _set_bits(vec: int) -> list[int]:
    """The positions of `vec`'s set bits, ascending."""
    out = []
    while vec:
        low = vec & -vec
        out.append(low.bit_length() - 1)
        vec ^= low
    return out


def _residual(rows: Mapping[int, int], vec: int) -> int:
    """`vec` reduced against echelon `rows`, keyed by top bit, until its top
    bit is no row's; 0 iff `vec` is in their span."""
    while vec:
        row = rows.get(vec.bit_length() - 1)
        if row is None:
            break
        vec ^= row
    return vec


def decodable(cache: CacheState, schedule: DeliverySchedule, demand) -> DecodeReport:
    """Check that every user can recover every piece of its requested file.

    Returns a report whose truth value is the verdict and whose
    ``missing`` lists, per user, the needed pieces it cannot recover.  A
    user's cache is read off the holder masks: its uncached columns are an
    OR of the column sets of the holder masks that lack its bit, and the
    verdict is one echelon pass per user over the messages cut to those
    columns, with no record of which messages a row combines.  A needed
    piece is recoverable iff its unit vector reduces to zero there.

    The certificates, the exact combination of cached pieces and messages
    that reconstructs each recoverable piece, are solved only when the
    report's ``certificates`` is first read (see :class:`DecodeReport`).
    Raises :class:`ValidationError` for a malformed schedule: a summand
    outside the placement, a message mixing piece sizes, or a claimed rate
    that is not the sum of the message sizes.
    """
    dem = normalize_demand(cache, demand)
    table = _PieceTable(cache)
    bodies = [table.body(m) for m in schedule.messages]
    total = table.rate(bodies)
    if total != schedule.rate:
        raise ValidationError(
            f"schedule claims rate {schedule.rate}, but its messages sum to {total}"
        )
    # repeated summands cancel, as they do in the broadcast
    vectors = [reduce(xor, map((1).__lshift__, body)) for body in bodies]
    by_holder: dict[int, int] = {}
    for c, mask in enumerate(table.holders):
        by_holder[mask] = by_holder.get(mask, 0) | 1 << c

    users: dict[int, tuple[list[int], int]] = {}
    missing: dict[int, tuple[Pair, ...]] = {}
    for k, needed in table.needed(dem).items():
        bit = 1 << (k - 1)
        uncached = 0
        for mask, columns in by_holder.items():
            if not mask & bit:
                uncached |= columns
        users[k] = (needed, uncached)
        if not needed:
            continue
        rows: dict[int, int] = {}
        for vec in vectors:
            if vec := _residual(rows, vec & uncached):
                rows[vec.bit_length() - 1] = vec
        lacking = [table.pairs[c] for c in needed if _residual(rows, 1 << c)]
        if lacking:
            missing[k] = tuple(lacking)
    return DecodeReport(not missing, missing, table.pairs, vectors, users)


# ---------------------------------------------------------------------------
# Chain lower bound
# ---------------------------------------------------------------------------


def _chain_dp(cache: CacheState, dem: Mapping[int, int], weights: Mapping[int, object]):
    """The largest sum, over users u1..um with distinct files taken in
    order, of the weighted pieces of each file d(u_i) that none of
    u1..ui holds; ``weights[f]`` is one piece of file ``f``.

    A DP over sets of users with at most one user per file: a set's best
    sum is its best predecessor's plus the term of the user added last,
    and that term depends only on the set.  Each file keeps a tally of its
    piece counts by holder mask, so a term is the sum of the tallies whose
    mask misses the set.
    """
    tallies = {f: Counter(cache.masks[f - 1]) for f in set(dem.values())}
    best = 0
    layer = {0: (0, 0)}  # user set -> (best sum, its files as a bit set)
    while layer:
        grown_layer: dict[int, tuple[object, int]] = {}
        for members, (total, files) in layer.items():
            for k, f in dem.items():
                bit = 1 << (k - 1)
                if members & bit or files >> f & 1:
                    continue
                grown = members | bit
                term = sum(count for mask, count in tallies[f].items() if not mask & grown)
                value = total + weights[f] * term
                if grown not in grown_layer or value > grown_layer[grown][0]:
                    grown_layer[grown] = (value, files | 1 << f)
                best = max(best, value)
        layer = grown_layer
    return best


def chain_bound(cache: CacheState, demand) -> Fraction:
    """Lower bound, in file units, on the rate of any delivery for this
    placement and demand, linear or not.

    The maximum, over users u1..um with distinct files taken in order, of
    the summed share of each file d(u_i) that none of u1..ui holds: user
    u_i decodes its file from the broadcast, the caches of u1..ui and the
    files already decoded, so the broadcast carries all of it that they
    lack.  This is the converse of Yu, Maddah-Ali and Avestimehr (arXiv
    1609.07817), an acyclic set of the side-information graph.  `demand`
    is a full vector or a partial ``{user: file}`` mapping.
    """
    dem = normalize_demand(cache, demand)
    weights = {f: Fraction(1, cache.subpacketization(f)) for f in set(dem.values())}
    return Fraction(_chain_dp(cache, dem, weights))


# ---------------------------------------------------------------------------
# Reference schedule for the 3-user / 2-file setup
# ---------------------------------------------------------------------------


def _sf(file: int, *chains: str) -> Pair:
    return (file, SubfileIndex.from_sets([tuple(int(c) for c in s) for s in chains]))


_A, _B = 1, 2

# Hand-designed optimal messages per sorted demand; rates 2/6, 4/6, 4/6, 4/6.
_TOY_TABLE: dict[tuple[int, ...], tuple[tuple[Pair, ...], ...]] = {
    (1, 1, 1): (
        (_sf(_A, "12", "1"), _sf(_A, "13", "1"), _sf(_A, "23", "2")),
        (_sf(_A, "12", "2"), _sf(_A, "13", "3"), _sf(_A, "23", "3")),
    ),
    (1, 1, 2): (
        (_sf(_B, "12", "1"), _sf(_A, "23", "2")),
        (_sf(_B, "13", "1"), _sf(_A, "23", "3")),
        (_sf(_B, "12", "2"), _sf(_A, "13", "1")),
        (_sf(_B, "23", "2"), _sf(_A, "13", "3")),
    ),
    (1, 2, 2): (
        (_sf(_B, "12", "1"), _sf(_A, "23", "2")),
        (_sf(_B, "13", "1"), _sf(_A, "23", "3")),
        (_sf(_B, "12", "2"), _sf(_B, "13", "3")),
        (_sf(_B, "23", "2"), _sf(_B, "23", "3")),
    ),
    (2, 2, 2): (
        (_sf(_B, "12", "1"), _sf(_B, "12", "2")),
        (_sf(_B, "12", "1"), _sf(_B, "13", "3")),
        (_sf(_B, "13", "1"), _sf(_B, "23", "2")),
        (_sf(_B, "13", "1"), _sf(_B, "23", "3")),
    ),
}


def toy_cache() -> CacheState:
    """A fresh placement of the reference setup: 3 users, 2 files, strategy
    ``beta`` with r = (2, 1), which is what :func:`toy_schedule` serves."""
    return place_beta(toy_config())


def toy_schedule(demand, cache: CacheState | None = None) -> DeliverySchedule:
    """The tabulated schedule for the 3-user / 2-file setup with chains (2, 1).

    The demand is a vector or a mapping that names a file for each of the
    3 users.  Demands that are permutations of a tabulated one are served
    by the relabeled table entry: users are renamed with the stable sort
    that orders the demand ascending by file id.  The table is only valid
    on the reference placement :func:`toy_cache`; a `cache` that differs
    from it raises :class:`UnsupportedConfigError`.
    """
    reference = toy_cache()
    if cache is not None and cache != reference:
        raise UnsupportedConfigError(
            "the tabulated schedule needs the reference placement: "
            "3 users, 2 files, strategy beta with r = (2, 1)"
        )
    try:
        dem = normalize_demand(reference, demand)
    except ValidationError as exc:
        raise UnsupportedConfigError(f"tabulated schedule: {exc}") from exc
    if len(dem) != 3:
        raise UnsupportedConfigError("tabulated schedule needs a file for each of the 3 users")
    vec = tuple(dem[k] for k in (1, 2, 3))
    order = sorted(range(3), key=lambda j: (vec[j], j))
    canonical = tuple(vec[j] for j in order)
    perm = [j + 1 for j in order]
    return make_schedule(
        reference,
        (DeliveryMessage.build(pairs).permuted(perm) for pairs in _TOY_TABLE[canonical]),
    )


# ---------------------------------------------------------------------------
# Clique index shared by the greedy and exhaustive schedulers
# ---------------------------------------------------------------------------

# A group of users, ascending, one piece size that every member can fill,
# and per member its buckets of that size that fit the group.
Clique = tuple[tuple[int, ...], int, list[list[list[int]]]]


class _CliqueIndex:
    """Each user's uncovered pieces, bucketed by (piece size, holder mask).

    Pieces are :class:`_PieceTable` columns, and a column's holder mask has
    bit ``k - 1`` set iff user ``k`` caches it.  Every bucket is a list in
    ascending column order, so its head is its minimum.  A group ``G`` has
    a slot for member ``k`` iff one of ``k``'s buckets has a mask
    containing ``G - {k}``: every piece in that bucket is needed by ``k``
    and cached by all the other members.
    """

    def __init__(self, table: _PieceTable, needed: Mapping[int, list[int]]) -> None:
        self.table = table
        self.buckets: dict[int, dict[tuple[int, int], list[int]]] = {}
        self.active = 0  # bit k - 1 set iff user k is a key of buckets
        for k, columns in needed.items():
            by_bucket: dict[tuple[int, int], list[int]] = {}
            for column in columns:
                by_bucket.setdefault(self._bucket(column), []).append(column)
            if by_bucket:
                self.buckets[k] = by_bucket
                self.active |= 1 << (k - 1)

    def _bucket(self, column: int) -> tuple[int, int]:
        return (self.table.counts[column], self.table.holders[column])

    def cliques(self, size: int) -> list[Clique]:
        """Every group of `size` users with a slot for each member, once per
        piece size that every member can fill, ordered by group in
        :func:`itertools.combinations` order, then by piece size.

        The fitting buckets are the live lists of :attr:`buckets`, so their
        heads follow :meth:`send`; a bucket that empties stays in the lists
        as an empty one.  Groups are generated from the buckets' masks
        instead of testing all ``C(K, size)`` of them, so the cost is
        bounded by the number of distinct holder masks, not by S.
        """
        active = self.active
        cover: dict[int, list[tuple[int, int, list[int]]]] = {}
        for k, by_bucket in self.buckets.items():
            bit = 1 << (k - 1)
            for (s, mask), bucket in by_bucket.items():
                others = [1 << (j - 1) for j in _users_from_mask(mask & active)]
                for rest in itertools.combinations(others, size - 1):
                    cover.setdefault(bit + sum(rest), []).append((k, s, bucket))
        found: list[Clique] = []
        for group_mask, fits in cover.items():
            if len(fits) < size:
                continue
            group = _users_from_mask(group_mask)
            by_member: dict[int, dict[int, list[list[int]]]] = {k: {} for k in group}
            for k, s, bucket in fits:
                by_member[k].setdefault(s, []).append(bucket)
            # summands of one XOR must be equal-size pieces
            common = set.intersection(*(set(sizes) for sizes in by_member.values()))
            found += [(group, s, [by_member[k][s] for k in group]) for s in common]
        return sorted(found, key=lambda clique: clique[:2])

    def send(self, body: Sequence[int]) -> None:
        """Drop what one message delivers: a user decodes a summand iff it
        lacks exactly that one summand of the body, and drops it if it
        still needs it.

        The decoders are found by bit arithmetic over the summands' holder
        masks: ``one`` marks the users that lack at least one summand and
        ``two`` those that lack at least two, so ``one & ~two`` lacks
        exactly one.  Only those of them that still have buckets are
        visited; a summand listed twice counts twice, so no user decodes
        it."""
        holders = self.table.holders
        one = two = 0
        for column in body:
            lack = ~holders[column]
            two |= one & lack
            one |= lack
        decoders = one & ~two & self.active
        while decoders:
            bit = decoders & -decoders
            decoders ^= bit
            k = bit.bit_length()
            column = next(column for column in body if not holders[column] & bit)
            by_bucket = self.buckets[k]
            where = self._bucket(column)
            bucket = by_bucket.get(where)
            if bucket is None or column not in bucket:
                continue
            bucket.remove(column)
            if not bucket:
                del by_bucket[where]
                if not by_bucket:
                    del self.buckets[k]
                    self.active ^= bit


# ---------------------------------------------------------------------------
# Greedy scheduler
# ---------------------------------------------------------------------------


def greedy_schedule(cache: CacheState, demand) -> DeliverySchedule:
    """Deterministic heuristic schedule; sound for any placement.

    Runs two passes and returns the cheaper (ties favor the first):

    1. clique pass - repeatedly broadcast the largest XOR group in which
       every summand is needed by one participant and cached by all the
       others; ties broken toward the lowest (file, rank) summands.  The
       pass works on a bucket index of the uncovered pieces and keeps the
       groups of the current size in a heap keyed by the message each
       could send (see :func:`_clique_pass`), so its cost grows with the
       number of distinct holder masks, not with the sub-packetization S.
       A key computed since the last send is exact and is sent as it is.
       Once only one-user groups are left, the pass sends each piece that
       some user still needs uncoded, once, in ascending column order;
    2. regular pass - per requested file, if every piece is cached by
       the same number ``t`` of users and the ``t``-subsets cover evenly
       (true for both placement strategies), send the standard
       leader-based XOR rounds at rate ``(K - t) / K``; otherwise send
       the pieces missing from any requester uncoded.

    Both passes yield column tuples; their rates are summed per piece size
    from the table, and messages are built for the cheaper pass only.
    """
    dem = normalize_demand(cache, demand)
    table = _PieceTable(cache)
    passes = (_clique_pass(table, table.needed(dem)), _regular_pass(table, dem))
    return table.schedule(min(passes, key=table.rate))


def _heads(fits: list[list[list[int]]]) -> tuple[int, ...] | None:
    """The message a clique can send: each member's least head over its
    non-empty fitting buckets, sorted; ``None`` once a member has none."""
    heads = []
    for buckets in fits:
        live = [bucket[0] for bucket in buckets if bucket]
        if not live:
            return None
        heads.append(min(live))
    return tuple(sorted(heads))


def _clique_pass(table: _PieceTable, needed: Mapping[int, list[int]]) -> list[tuple[int, ...]]:
    """Greedy cover of the `needed` columns by clique messages, largest
    group first; the messages come out as ascending column tuples, all
    of one piece size each.

    The uncovered pieces sit in a :class:`_CliqueIndex` built once per
    call.  Each message is the least sorted tuple of member heads (see
    :func:`_heads`) over all cliques of the largest size that has one;
    sending it removes the pieces it delivers from the buckets.  A group
    of ``g`` users needs a bucket whose mask names ``g - 1`` of the
    others, so the pass starts at one more than the largest mask's
    popcount, and builds each size once, when the one above has run out.

    The cliques of the current size sit in a heap keyed by the tuple each
    had when it was computed, stamped with the number of messages sent
    by then.  Sending only removes columns, so no head ever falls, and a
    sorted tuple of non-decreasing values never falls either: every key
    is a lower bound on its clique's current message.  Only sends move
    heads, so a key stamped since the last send is exact, and a stale top
    is recomputed.  An exact top is the least message of all and is sent,
    and the sender's heads are recomputed once.  Either way the top is
    then popped if its clique has died, and replaced, freshly stamped,
    otherwise.

    At group size 1 the pass ends with the uncoded tail: every distinct
    column still in a bucket, once, in ascending order.  A lone piece is
    decoded by every user that lacks it, so these are the messages, in
    the order, that the heap of one-user cliques would send.
    """
    index = _CliqueIndex(table, needed)
    messages: list[tuple[int, ...]] = []
    holder_masks = (mask for by_bucket in index.buckets.values() for _, mask in by_bucket)
    size = max((mask.bit_count() + 1 for mask in holder_masks), default=0)
    while index.buckets and size > 1:
        found = index.cliques(size)
        sent = len(messages)
        heap = [(heads, i, sent) for i, (_, _, fits) in enumerate(found) if (heads := _heads(fits))]
        heapq.heapify(heap)
        while heap:
            key, i, stamp = heap[0]
            fits = found[i][2]
            if stamp == len(messages) or (heads := _heads(fits)) == key:
                index.send(key)
                messages.append(key)
                heads = _heads(fits)
            if heads is None:
                heapq.heappop(heap)
            else:
                heapq.heapreplace(heap, (heads, i, len(messages)))
        size -= 1
    buckets = (bucket for by_bucket in index.buckets.values() for bucket in by_bucket.values())
    messages += [(column,) for column in sorted(set(itertools.chain.from_iterable(buckets)))]
    return messages


def _regular_pass(table: _PieceTable, dem: Mapping[int, int]) -> list[tuple[int, ...]]:
    holders, users = table.holders, table.cache.users
    messages: list[tuple[int, ...]] = []
    for file in sorted(set(dem.values())):
        requesters = sorted(k for k, f in dem.items() if f == file)
        columns = table.columns(file)
        classes: dict[int, list[int]] = {}
        for c in columns:
            classes.setdefault(holders[c], []).append(c)
        t = _cache_level({mask: len(v) for mask, v in classes.items()}, users)
        if t is not None:
            leader = requesters[0]
            for team in itertools.combinations(range(1, users + 1), t + 1):
                if leader not in team:
                    continue
                bits = [1 << (k - 1) for k in team]
                for j in range(len(columns) // comb(users, t)):
                    # one column from each class: distinct, so none cancel
                    messages.append(tuple(sorted(classes[sum(bits) - bit][j] for bit in bits)))
        else:
            wanted = sum(1 << (k - 1) for k in requesters)
            messages.extend((c,) for c in columns if wanted & ~holders[c])
    return messages


# ---------------------------------------------------------------------------
# Per-level leader scheduler
# ---------------------------------------------------------------------------

# A level of the leader scheme: its files' cache level t and piece count S.
Level = tuple[int, int]


def _cache_level(tally: Mapping[int, int], users: int) -> int | None:
    """The cache level of a file from its row's `tally`, each holder mask's
    piece count: t when every mask has t bits and every t-subset of the
    users holds the same number of pieces, as each file of either
    placement does; None otherwise."""
    t = next(iter(tally)).bit_count()
    share = next(iter(tally.values()))
    if len(tally) == comb(users, t) and all(
        mask.bit_count() == t and n == share for mask, n in tally.items()
    ):
        return t
    return None


def _leader_levels(
    cache: CacheState, dem: Mapping[int, int]
) -> tuple[dict[Level, dict[int, int]], int] | None:
    """The leader scheme of a demand, on the integers: per :data:`Level`
    ``(t, S)``, the ``{user: file}`` requests of its files in user order,
    and the scheme's message count, ``sum [C(K, t + 1) - C(K - D, t + 1)] *
    S / C(K, t)`` over the levels, D the level's distinct files.  None
    where a requested file's row is not one level (:func:`_cache_level`).

    Only the requested files' rows are read.  Files of one cache level
    with unequal piece counts, which no placement makes, are two levels:
    pieces of unequal sizes are never XORed."""
    users = cache.users
    level_of: dict[int, Level] = {}
    for f in set(dem.values()):
        row = cache.masks[f - 1]
        t = _cache_level(Counter(row), users)
        if t is None:
            return None
        level_of[f] = (t, len(row))
    levels: dict[Level, dict[int, int]] = {}
    for k, f in sorted(dem.items()):
        levels.setdefault(level_of[f], {})[k] = f
    count = 0
    for (t, pieces), requests in levels.items():
        distinct = len(set(requests.values()))
        count += (comb(users, t + 1) - comb(users - distinct, t + 1)) * (pieces // comb(users, t))
    return levels, count


def leader_schedule(cache: CacheState, demand) -> DeliverySchedule:
    """The per-level leader scheme of Yu, Maddah-Ali and Avestimehr (arXiv
    1609.07817), at rate ``sum_t classic_rate(K, t, D_t)``, D_t the number
    of distinct requested files cached at level t.

    Every requested file must be cached at one level t (see
    :func:`_cache_level`), else :class:`UnsupportedConfigError` is raised;
    ``beta`` and ``alpha`` placements always are.  The super-piece
    ``W_{d, B}`` is every piece of file d with holder mask B, in rank
    order.  Per level, the leader of each of its requested files is the
    lowest user that asks for it.  For every (t+1)-subset A of the users
    that meets the leaders, the users k in A whose file is at that level
    send the XOR of their ``W_{d_k, A - {k}}``, split piece by piece in
    rank order: ``S / C(K, t)`` messages, each a clique of those users.
    A subset that meets no leader is not sent, since its XOR is a sum of
    sent ones by the scheme's proof, so every user decodes as it would in
    the classic one-level scheme.  Levels are sent in ascending ``(t, S)``.
    """
    dem = normalize_demand(cache, demand)
    plan = _leader_levels(cache, dem)
    if plan is None:
        raise UnsupportedConfigError(
            "the leader scheme needs every requested file cached at one level: "
            "each piece held by t users and every t-subset holding equally many"
        )
    table = _PieceTable(cache)
    holders, users = table.holders, cache.users
    bits = [1 << k for k in range(users)]
    bodies: list[tuple[int, ...]] = []
    for (t, _), requests in sorted(plan[0].items()):
        first: dict[int, int] = {}  # each file's leader; requests are in user order
        for k, f in requests.items():
            first.setdefault(f, k)
        leaders = sum(1 << (k - 1) for k in first.values())
        supers: dict[tuple[int, int], list[int]] = {}
        for f in first:
            for c in table.columns(f):
                supers.setdefault((f, holders[c]), []).append(c)
        for team in itertools.combinations(bits, t + 1):
            subset = sum(team)
            if not subset & leaders:
                continue
            parts = [
                supers[requests[bit.bit_length()], subset - bit]
                for bit in team
                if bit.bit_length() in requests
            ]
            bodies += [tuple(sorted(columns)) for columns in zip(*parts)]
    return table.schedule(bodies)


# ---------------------------------------------------------------------------
# Exhaustive scheduler
# ---------------------------------------------------------------------------

_CANDIDATE_CAP = 50_000
_MAX_SUMMANDS = 4
_MAX_MESSAGES = 12
_MAX_NODES = 1_000_000


def _piece_count_bound(cache: CacheState, dem: Mapping[int, int]) -> int:
    """The :func:`chain_bound` with every piece counted as 1: no GF(2)
    schedule sends fewer messages."""
    return _chain_dp(cache, dem, dict.fromkeys(dem.values(), 1))


def _candidate_messages(index: _CliqueIndex) -> list[tuple[int, ...]]:
    """Clique-style candidate family, as sorted column tuples in ascending
    order: every summand is needed by one participating user and cached by
    all the other participants."""
    out: set[tuple[int, ...]] = set()
    for size in range(1, min(len(index.buckets), _MAX_SUMMANDS) + 1):
        for _, _, fits in index.cliques(size):
            restricted = [sorted(itertools.chain.from_iterable(b)) for b in fits]
            total = prod(len(opts) for opts in restricted)
            if len(out) + total > _CANDIDATE_CAP:
                raise BudgetExceededError(f"candidate message family exceeds {_CANDIDATE_CAP}")
            for combo in itertools.product(*restricted):
                out.add(tuple(sorted(combo)))
    return sorted(out)


def exhaustive_schedule(cache: CacheState, demand) -> DeliverySchedule:
    """Minimum-message schedule within the clique candidate family.

    Iterative-deepening search with span-based feasibility: a depth-``c``
    subset of candidates is accepted iff every user can decode all needed
    pieces from cache plus messages (chained combinations included).  The
    result is minimal within the family; no claim is made against
    arbitrary linear schedules.  Raises :class:`BudgetExceededError` when
    no schedule exists within ``_MAX_MESSAGES`` messages or the search
    visits more than ``_MAX_NODES`` nodes, and when the candidate family
    exceeds ``_CANDIDATE_CAP`` messages.

    The deepening starts at :func:`_piece_count_bound`, the
    :func:`chain_bound` with every piece counted as 1, which is never below
    the largest needed-piece count.
    Read with every piece as one symbol, a schedule of ``c`` messages is a
    linear code of length ``c``, so ``c`` is at least that bound: no
    shallower depth holds a schedule, and the first schedule found is the
    one a search from the needed count finds.  When the bound exceeds
    ``_MAX_MESSAGES`` the search raises at once, before the candidate
    family is listed, with the same "no schedule within" error that an
    exhausted deepening raises.

    Each user keeps one echelon basis of the messages, keyed by top bit, in
    its own coordinates: its ``n`` needed columns at ``0..n-1``, its other
    uncached columns above.  The rows pivoting above ``n`` span the
    interference part, so the user's deficiency ``rank(span + needed) -
    rank(span)``, a lower bound on the messages it still needs, is ``n``
    less its pivots below ``n``.  Residuals are added in place and deleted
    when their branch fails.  A message adds at most one pivot per user, so
    a branch is cut once some user's deficiency exceeds the candidates left
    whose projection reaches it; per user the reaching candidates are
    listed once per call.
    """
    dem = normalize_demand(cache, demand)
    bound = _piece_count_bound(cache, dem)
    if bound > _MAX_MESSAGES:
        _no_schedule(dem)
    table = _PieceTable(cache)
    needed = {k: columns for k, columns in table.needed(dem).items() if columns}
    if not needed:
        return table.schedule([])

    candidates = _candidate_messages(_CliqueIndex(table, needed))
    positions = []  # per user slot: uncached column -> position
    for k, columns in needed.items():
        bit, wanted = 1 << (k - 1), set(columns)
        rest = [c for c, mask in enumerate(table.holders) if not mask & bit and c not in wanted]
        positions.append({c: p for p, c in enumerate(columns + rest)})
    # per candidate: (user slot, its projection) for each user lacking a summand
    proj = [
        [(u, vec) for u, pos in enumerate(positions)
         if (vec := sum(1 << pos[c] for c in columns if c in pos))]
        for columns in candidates
    ]
    sizes = [len(columns) for columns in needed.values()]
    deficiency = list(sizes)
    pivots: list[dict[int, int]] = [{} for _ in sizes]
    reach: list[list[int]] = [[] for _ in sizes]  # per user slot: candidates reaching it
    for i, entries in enumerate(proj):
        for u, _ in entries:
            reach[u].append(i)
    budget, nodes = _MAX_NODES, 0

    def search(start: int, slots: int):
        nonlocal nodes
        worst = max(deficiency)
        if worst == 0:
            return []
        if worst > slots:
            return None
        # a message adds at most one pivot per user, so user u still needs
        # deficiency[u] picks among the candidates reaching it: the next
        # pick comes no later than the deficiency[u]-th last of them, which
        # exists, since each needed column is a one-summand candidate
        stop = 1 + min(reach[u][-lack] for u, lack in enumerate(deficiency) if lack)
        for i in range(start, stop):
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(f"search exceeded {budget} nodes")
            added = []
            for u, vec in proj[i]:
                rows = pivots[u]
                while vec:
                    top = vec.bit_length() - 1
                    row = rows.get(top)
                    if row is None:
                        rows[top] = vec
                        added.append((u, top))
                        deficiency[u] -= top < sizes[u]
                        break
                    vec ^= row
            if not added:
                continue  # adds no dimension for anyone: never part of a minimal schedule
            found = search(i + 1, slots - 1)
            if found is not None:
                return [i] + found
            for u, top in added:
                del pivots[u][top]
                deficiency[u] += top < sizes[u]
        return None

    for depth in range(bound, _MAX_MESSAGES + 1):
        picked = search(0, depth)
        if picked is not None:
            return table.schedule([candidates[i] for i in picked])
    _no_schedule(dem)


def _no_schedule(dem: Mapping[int, int]) -> NoReturn:
    raise BudgetExceededError(
        f"no schedule within {_MAX_MESSAGES} messages for demand {dict(dem)}"
    )


def exhaustive_rate(cache: CacheState, demand) -> Fraction:
    """The rate of :func:`exhaustive_schedule`, without its search where a
    schedule of its candidates already meets the piece-count chain bound.

    The bound, :func:`_piece_count_bound`, is taken first, and three
    certificates are tried in order:

    1. the leader scheme (:func:`leader_schedule`), counted on the
       integers from the level of each requested row
       (:func:`_leader_levels`), with no schedule built, at any bound;
    2. greedy's clique pass, built on a :class:`_PieceTable`, where the
       bound is at most ``_MAX_MESSAGES``;
    3. the search itself, whose rate is returned as it is; above
       ``_MAX_MESSAGES`` it is called only to raise at once.

    The first two certify where their message count equals the bound,
    the needed pieces have one piece size S and no message has more than
    ``_MAX_SUMMANDS`` summands; the rate is then ``bound / S``.

    The value is the search's.  Each leader or clique-pass message is a
    clique of the index the search starts from, so it is one of its
    candidates, and no schedule has fewer messages than the bound, the
    depth the search starts at.  With one piece size every schedule of
    that many messages has one rate, which is the rate the search returns
    wherever it returns.  Where the search would raise
    :class:`BudgetExceededError`, past ``_MAX_MESSAGES`` messages,
    ``_MAX_NODES`` nodes or ``_CANDIDATE_CAP`` candidates, a certified
    rate is returned instead.
    Only the requested files' rows are read, so the sub-problem contract
    of ``rates._memo_rate`` holds.
    """
    dem = normalize_demand(cache, demand)
    bound = _piece_count_bound(cache, dem)
    plan = _leader_levels(cache, dem)
    if plan is not None:
        levels, count = plan
        # each level below K sends messages of its S, the widest with
        # one summand per requester, at most t + 1
        sending = [(t, s, len(req)) for (t, s), req in levels.items() if t < cache.users]
        sizes = {s for _, s, _ in sending}
        if (
            count == bound
            and len(sizes) <= 1
            and all(min(t + 1, n) <= _MAX_SUMMANDS for t, _, n in sending)
        ):
            return Fraction(bound, max(sizes, default=1))
    if bound <= _MAX_MESSAGES:
        table = _PieceTable(cache)
        needed = table.needed(dem)
        messages = _clique_pass(table, needed)
        sizes = {table.counts[c] for columns in needed.values() for c in columns}
        if (
            len(messages) == bound
            and all(len(body) <= _MAX_SUMMANDS for body in messages)
            and len(sizes) <= 1
        ):
            return table.rate(messages)
    return exhaustive_schedule(cache, demand).rate


# Named scheduler interface: callables (cache, demand) -> schedule.  Every
# scheduler here meets the sub-problem contract of ``rates._memo_rate``,
# and so does :func:`exhaustive_rate`.
Scheduler = Callable[[CacheState, object], DeliverySchedule]

SCHEDULERS: dict[str, Scheduler] = {
    "toy": lambda cache, demand: toy_schedule(demand, cache),
    "greedy": greedy_schedule,
    "exhaustive": exhaustive_schedule,
}


# ---------------------------------------------------------------------------
# Rendering and JSON forms
# ---------------------------------------------------------------------------


def file_label(file: int) -> str:
    return chr(ord("A") + file - 1) if file <= 26 else f"W{file}"


def _set_text(members: tuple[int, ...], users: int) -> str:
    if not members:
        return "-"
    if users <= 9:
        return "".join(str(k) for k in members)
    return "{" + ",".join(str(k) for k in members) + "}"


def _summand_text(file: int, masks: tuple[int, ...], users: int) -> str:
    subscript = ",".join(_set_text(_users_from_mask(m), users) for m in masks)
    return f"{file_label(file)}_{{{subscript}}}"


def message_text(message: DeliveryMessage, users: int) -> str:
    return " + ".join(_summand_text(f, idx.masks, users) for f, idx in message.summands)


def schedule_text(schedule: DeliverySchedule, users: int) -> list[str]:
    return [message_text(m, users) for m in schedule.messages]


def schedules_json_text(
    entries: Sequence[tuple[DeliverySchedule, Sequence[int] | None, bool | None]],
    users: int,
    listed: bool,
) -> str:
    """The ``deliver`` output's text: ``json.dumps(..., indent=2)`` of the
    record plus a final newline, byte for byte.

    This function owns the layout; :func:`schedule_to_json` is parsed from
    its text.  `entries` holds ``(schedule, demand, verified)`` triples; a
    ``None`` demand or verdict leaves out its key.  `listed` writes the
    ``{"schedules": [...]}`` form, otherwise the one schedule record.
    Within a call every summand's block and label are rendered once per
    (file, piece), every user subset once per mask, and the parts are
    joined once.
    """
    # a schedule record opens `top` levels deep, so its messages sit at
    # top + 2, their summands at top + 4, chains at top + 6 and users at top + 7
    top = 2 if listed else 0
    subsets: dict[int, str] = {}
    summands: dict[tuple[int, tuple[int, ...]], tuple[str, tuple[str]]] = {}
    piece_head = "{" + _nl(top + 5) + '"file": '
    piece_mid = "," + _nl(top + 5) + '"chains": '
    piece_tail = _nl(top + 4) + "}"
    message_head = "{" + _nl(top + 3) + '"text": "'
    message_mid = '",' + _nl(top + 3) + '"summands": '
    message_tail = _nl(top + 2) + "}"

    def summand(f: int, masks: tuple[int, ...]) -> tuple[str, tuple[str]]:
        chains = []
        for m in masks:
            if m not in subsets:
                members = [(str(k),) for k in _users_from_mask(m)]
                subsets[m] = "".join(_list_parts(members, top + 6))
            chains.append((subsets[m],))
        block = piece_head + str(f) + piece_mid + "".join(_list_parts(chains, top + 5)) + piece_tail
        # a label is letters, digits and "_{},-", none of which JSON escapes
        return _summand_text(f, masks, users), (block,)

    records = []
    for schedule, demand, verified in entries:
        messages = []
        for message in schedule.messages:
            labels, blocks = [], []
            for f, idx in message.summands:
                key = (f, idx.masks)
                if key not in summands:
                    summands[key] = summand(*key)
                label, block = summands[key]
                labels.append(label)
                blocks.append(block)
            messages.append(
                [message_head + " + ".join(labels) + message_mid,
                 *_list_parts(blocks, top + 3), message_tail]
            )
        rate = schedule.rate
        record = [
            "{" + _nl(top + 1) + f'"rate": "{rate.numerator}/{rate.denominator}",'
            + _nl(top + 1) + '"messages": ',
            *_list_parts(messages, top + 1),
        ]
        if demand is not None:
            record.append("," + _nl(top + 1) + '"demand": ')
            record += _list_parts([(json.dumps(f),) for f in demand], top + 1)
        if verified is not None:
            record.append("," + _nl(top + 1) + '"verified": ' + json.dumps(verified))
        record.append(_nl(top) + "}")
        records.append(record)
    if listed:
        return "".join(["{" + _nl(1) + '"schedules": ', *_list_parts(records, 1), "\n}\n"])
    return "".join([*records[0], "\n"])


def schedule_to_json(schedule: DeliverySchedule, users: int, demand=None) -> dict:
    """One schedule's JSON record, parsed from :func:`schedules_json_text`."""
    return json.loads(schedules_json_text([(schedule, demand, None)], users, listed=False))


def schedule_from_json(data: Mapping) -> DeliverySchedule:
    try:
        messages = tuple(
            DeliveryMessage.build(
                (s["file"], SubfileIndex.from_sets(s["chains"]))
                for s in m["summands"]
            )
            for m in data["messages"]
        )
        rate = data["rate"]
        if isinstance(rate, (bool, float)):
            # a bool would read as 0 or 1 and a float as its binary fraction
            raise TypeError(f"rate {rate!r} is neither a string nor an integer")
        # guarded against a huge decimal exponent, which Fraction would build
        rate = _parse_number(rate, "rate")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"malformed schedule: {exc}") from exc
    return DeliverySchedule(messages, rate)
