"""XOR broadcast schedules: construction, verification, and search.

A delivery message is the bitwise XOR of a set of file pieces; a
schedule is an ordered list of messages whose total rate is the sum of
the piece sizes.  Decodability is checked by linear algebra over GF(2):
user ``k`` can recover a piece iff its unit vector lies in the span of
``k``'s cached unit vectors together with the message sum vectors, and
the witnessing combination is returned as a certificate.

Three schedule producers are provided:

* :func:`toy_schedule` - the hand-designed optimal schedule for the
  3-user / 2-file reference setup with chains (2, 1), extended to
  permuted demands by relabeling users.
* :func:`greedy_schedule` - a deterministic heuristic; always sound,
  no optimality claim.
* :func:`exhaustive_schedule` - minimum-message search over clique-style
  candidate messages, used as the certification oracle at desk scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, prod
from typing import Callable, Mapping, Sequence

from .combinatorics import SubfileIndex, _rank_table, _users_from_mask
from .errors import BudgetExceededError, UnsupportedConfigError, ValidationError
from .gf2 import GF2Basis
from .placement import CacheState, place_beta, toy_config

Pair = tuple[int, SubfileIndex]


def _pair_key(pair: Pair) -> tuple[int, tuple[int, ...]]:
    return (pair[0], pair[1].masks)


@dataclass(frozen=True)
class DeliveryMessage:
    """XOR of a set of distinct file pieces, kept in canonical order."""

    summands: tuple[Pair, ...]

    @classmethod
    def build(cls, pairs) -> "DeliveryMessage":
        items = list(pairs)
        if not items:
            raise ValidationError("a message needs at least one summand")
        if len(set(items)) != len(items):
            raise ValidationError("duplicate summands would cancel over GF(2)")
        return cls(tuple(sorted(items, key=_pair_key)))

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

    def __len__(self) -> int:
        return len(self.messages)


def _piece_counts(cache: CacheState) -> list[int]:
    """Sub-packetization of every file, indexed by ``file - 1``."""
    return [len(row) for row in cache.masks]


def _message_size(counts: Sequence[int], message: DeliveryMessage) -> Fraction:
    """Size of one message in file units, given each file's piece count;
    all summands must be equal-size."""
    for f, _ in message.summands:
        if not 1 <= f <= len(counts):
            raise ValidationError(f"file {f} outside [1, {len(counts)}]")
    sizes = {counts[f - 1] for f, _ in message.summands}
    if len(sizes) != 1:
        raise ValidationError(
            "message mixes pieces of different sizes; XOR across unequal "
            f"sub-packetizations {sorted(sizes)} is not defined"
        )
    return Fraction(1, sizes.pop())


def make_schedule(cache: CacheState, messages) -> DeliverySchedule:
    msgs = tuple(messages)
    counts = _piece_counts(cache)
    rate = sum((_message_size(counts, m) for m in msgs), Fraction(0))
    return DeliverySchedule(msgs, rate)


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
        if not 1 <= k <= cache.users:
            raise ValidationError(f"user {k} outside [1, {cache.users}]")
        if not 1 <= f <= cache.num_files:
            raise ValidationError(f"file {f} outside [1, {cache.num_files}]")
    return items


def needed_map(cache: CacheState, demand) -> dict[int, frozenset[Pair]]:
    """Pieces of each user's requested file that are absent from its cache:
    those whose holder mask lacks the user's bit."""
    dem = normalize_demand(cache, demand)
    out = {}
    for k, f in dem.items():
        bit = 1 << (k - 1)
        pieces = zip(cache.indices(f), cache.masks[f - 1])
        out[k] = frozenset((f, idx) for idx, mask in pieces if not mask & bit)
    return out


# ---------------------------------------------------------------------------
# Decodability over GF(2)
# ---------------------------------------------------------------------------


class _ColumnLayout:
    """One GF(2) column per (file, piece-rank) pair of a cache state.

    Ranks come from one ``masks -> rank`` table per file, so a lookup is a
    dict access; a piece outside the placement has no column.
    """

    def __init__(self, cache: CacheState) -> None:
        self.cache = cache
        self.ranks = [_rank_table(cache.users, space) for space in cache.spaces]
        self.counts = _piece_counts(cache)
        self.offsets = [sum(self.counts[:i]) for i in range(len(self.counts))]

    def cached(self, user: int) -> list[tuple[int, Pair]]:
        """Column and piece of everything `user` caches, in column order."""
        bit = 1 << (user - 1)
        return [
            (offset + rank, (f, idx))
            for f, offset in enumerate(self.offsets, start=1)
            for rank, (idx, mask) in enumerate(zip(self.cache.indices(f), self.cache.masks[f - 1]))
            if mask & bit
        ]

    def column(self, file: int, idx: SubfileIndex) -> int:
        rank = self.ranks[file - 1].get(idx.masks)
        if rank is None:
            raise ValidationError(f"unknown piece {idx} for file {file}")
        return self.offsets[file - 1] + rank

    def unit(self, file: int, idx: SubfileIndex) -> int:
        return 1 << self.column(file, idx)

    def vector(self, message: DeliveryMessage) -> int:
        vec = 0
        for f, idx in message.summands:
            vec ^= self.unit(f, idx)
        return vec


@dataclass(frozen=True)
class Certificate:
    """How one piece is recovered: XOR these cache entries and messages."""

    cache_entries: tuple[Pair, ...]
    messages: tuple[int, ...]


@dataclass(frozen=True)
class DecodeReport:
    """Outcome of a decodability check with per-user evidence."""

    ok: bool
    certificates: dict[int, dict[Pair, Certificate]] = field(repr=False)
    missing: dict[int, tuple[Pair, ...]]

    def __bool__(self) -> bool:
        return self.ok


def decodable(cache: CacheState, schedule: DeliverySchedule, demand) -> DecodeReport:
    """Check that every user can recover every piece of its requested file.

    Returns a report whose truth value is the verdict; on success each
    needed piece carries the exact combination of cached pieces and
    broadcast messages that reconstructs it.  Raises
    :class:`ValidationError` for a malformed schedule: a summand outside
    the placement, a message mixing piece sizes, or a claimed rate that is
    not the sum of the message sizes.
    """
    dem = normalize_demand(cache, demand)
    layout = _ColumnLayout(cache)
    vectors = []
    total = Fraction(0)
    for m in schedule.messages:
        total += _message_size(layout.counts, m)
        vectors.append(layout.vector(m))
    if total != schedule.rate:
        raise ValidationError(
            f"schedule claims rate {schedule.rate}, but its messages sum to {total}"
        )

    certificates: dict[int, dict[Pair, Certificate]] = {}
    missing: dict[int, tuple[Pair, ...]] = {}
    needs = needed_map(cache, dem)
    for k in sorted(dem):
        rows: list[tuple[str, object]] = []
        basis = GF2Basis(track=True)
        for column, pair in layout.cached(k):
            rows.append(("cache", pair))
            basis.add(1 << column, tag=len(rows) - 1)
        for i, vec in enumerate(vectors):
            rows.append(("message", i))
            basis.add(vec, tag=len(rows) - 1)

        user_certs: dict[Pair, Certificate] = {}
        user_missing: list[Pair] = []
        for pair in sorted(needs[k], key=_pair_key):
            combo = basis.solve(layout.unit(*pair))
            if combo is None:
                user_missing.append(pair)
                continue
            used_cache, used_msgs = [], []
            while combo:
                low = combo & -combo
                kind, payload = rows[low.bit_length() - 1]
                (used_cache if kind == "cache" else used_msgs).append(payload)
                combo ^= low
            user_certs[pair] = Certificate(tuple(used_cache), tuple(used_msgs))
        certificates[k] = user_certs
        if user_missing:
            missing[k] = tuple(user_missing)
    return DecodeReport(ok=not missing, certificates=certificates, missing=missing)


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
    """Placement of the reference setup (cached module-level would be fine;
    recomputing keeps this trivially correct)."""
    return place_beta(toy_config())


def toy_schedule(demand, cache: CacheState | None = None) -> DeliverySchedule:
    """The tabulated schedule for the 3-user / 2-file setup with chains (2, 1).

    Demands that are permutations of a tabulated one are served by the
    relabeled table entry: users are renamed with the stable sort that
    orders the demand ascending by file id.  The table is only valid on
    the reference placement :func:`toy_cache`; a `cache` that differs
    from it raises :class:`UnsupportedConfigError`.
    """
    if cache is not None and cache != toy_cache():
        raise UnsupportedConfigError(
            "the tabulated schedule needs the reference placement: "
            "3 users, 2 files, strategy beta with r = (2, 1)"
        )
    vec = tuple(demand)
    if len(vec) != 3 or any(f not in (1, 2) for f in vec):
        raise UnsupportedConfigError(
            "tabulated schedule exists only for 3 users and files {1, 2}"
        )
    order = sorted(range(3), key=lambda j: (vec[j], j))
    canonical = tuple(vec[j] for j in order)
    perm = [0, 0, 0]
    for canon_user, j in enumerate(order, start=1):
        perm[canon_user - 1] = j + 1
    messages = tuple(
        DeliveryMessage.build(pairs).permuted(perm) for pairs in _TOY_TABLE[canonical]
    )
    return DeliverySchedule(messages, Fraction(len(messages), 6))


# ---------------------------------------------------------------------------
# Clique index shared by the greedy and exhaustive schedulers
# ---------------------------------------------------------------------------

# A piece as its sort key ``(file, masks)``: hashes and compares as a
# plain tuple, in the same order as :func:`_pair_key`.
Key = tuple[int, tuple[int, ...]]
# Piece size -> per group member, the member's buckets that fit the group.
Slots = dict[int, list[list[list[Key]]]]


class _CliqueIndex:
    """Each user's uncovered pieces, bucketed by (piece size, holder mask).

    A piece's holder mask has bit ``k - 1`` set iff user ``k`` caches it;
    the masks are looked up once in ``CacheState.masks``.  Every bucket is
    a list in ascending key order, so its head is its minimum.  A group
    ``G`` has a slot for member ``k`` iff one of ``k``'s buckets has a mask
    containing ``G - {k}``: every piece in that bucket is needed by ``k``
    and cached by all the other members.
    """

    def __init__(self, cache: CacheState, needs: Mapping[int, frozenset[Pair]]) -> None:
        self.counts = _piece_counts(cache)
        self.pairs: dict[Key, Pair] = {
            _pair_key(pair): pair for pieces in needs.values() for pair in pieces
        }
        ranks = [_rank_table(cache.users, space) for space in cache.spaces]
        self.holders = {
            (f, masks): cache.masks[f - 1][ranks[f - 1][masks]] for f, masks in self.pairs
        }
        self.buckets: dict[int, dict[tuple[int, int], list[Key]]] = {}
        for k, pieces in sorted(needs.items()):
            by_bucket: dict[tuple[int, int], list[Key]] = {}
            for key in sorted(_pair_key(pair) for pair in pieces):
                by_bucket.setdefault(self._bucket(key), []).append(key)
            if by_bucket:
                self.buckets[k] = by_bucket
        # cliques() per group size; valid until a bucket empties, since
        # the buckets are live lists whose heads the callers read
        self._cliques: dict[int, list[Slots]] = {}

    def _bucket(self, key: Key) -> tuple[int, int]:
        return (self.counts[key[0] - 1], self.holders[key])

    def cliques(self, size: int) -> list[Slots]:
        """The slots of every group of `size` users with a slot for each
        member, in :func:`itertools.combinations` order of the groups.

        A group's slots map each piece size that every member can fill to
        the members' lists of fitting buckets.  Groups are generated from
        the buckets' masks instead of testing all ``C(K, size)`` of them,
        so the cost is bounded by the number of distinct holder masks, not
        by S.
        """
        if size in self._cliques:
            return self._cliques[size]
        active = sum(1 << (k - 1) for k in self.buckets)
        cover: dict[int, list[tuple[int, int, list[Key]]]] = {}
        for k, by_bucket in self.buckets.items():
            bit = 1 << (k - 1)
            for (s, mask), bucket in by_bucket.items():
                others = [1 << (j - 1) for j in _users_from_mask(mask & active)]
                for rest in itertools.combinations(others, size - 1):
                    cover.setdefault(bit + sum(rest), []).append((k, s, bucket))
        found: dict[tuple[int, ...], Slots] = {}
        for group_mask, fits in cover.items():
            if len(fits) < size:
                continue
            group = _users_from_mask(group_mask)
            by_member: dict[int, dict[int, list[list[Key]]]] = {k: {} for k in group}
            for k, s, bucket in fits:
                by_member[k].setdefault(s, []).append(bucket)
            # summands of one XOR must be equal-size pieces
            common = set.intersection(*(set(sizes) for sizes in by_member.values()))
            if common:
                found[group] = {s: [by_member[k][s] for k in group] for s in sorted(common)}
        self._cliques[size] = [found[group] for group in sorted(found)]
        return self._cliques[size]

    def send(self, body: Sequence[Key]) -> None:
        """Drop what one message delivers: each user that caches all
        summands but one decodes that one, if it still needs it."""
        for k in list(self.buckets):
            bit = 1 << (k - 1)
            lacking = [key for key in body if not self.holders[key] & bit]
            if len(lacking) != 1:
                continue
            [key] = lacking
            by_bucket = self.buckets[k]
            where = self._bucket(key)
            bucket = by_bucket.get(where)
            if bucket is None or key not in bucket:
                continue
            bucket.remove(key)
            if not bucket:
                self._cliques.clear()
                del by_bucket[where]
                if not by_bucket:
                    del self.buckets[k]


# ---------------------------------------------------------------------------
# Greedy scheduler
# ---------------------------------------------------------------------------


def greedy_schedule(cache: CacheState, demand) -> DeliverySchedule:
    """Deterministic heuristic schedule; sound for any placement.

    Runs two passes and returns the cheaper (ties favor the first):

    1. clique pass - repeatedly broadcast the largest XOR group in which
       every summand is needed by one participant and cached by all the
       others; ties broken toward the lowest (file, rank) summands.  The
       pass works on a bucket index of the uncovered pieces (see
       :func:`_clique_pass`), so its cost per message grows with the
       number of distinct holder masks, not with the sub-packetization S;
    2. regular pass - per requested file, if every piece is cached by
       the same number ``t`` of users and the ``t``-subsets cover evenly
       (true for both placement strategies), send the standard
       leader-based XOR rounds at rate ``(K - t) / K``; otherwise send
       the pieces missing from any requester uncoded.
    """
    dem = normalize_demand(cache, demand)
    needs = needed_map(cache, dem)
    clique = _clique_pass(cache, needs)
    regular = _regular_pass(cache, dem)
    return clique if clique.rate <= regular.rate else regular


def _clique_pass(cache: CacheState, needs: Mapping[int, frozenset[Pair]]) -> DeliverySchedule:
    """Greedy cover of `needs` by clique messages, largest group first.

    The uncovered pieces sit in a :class:`_CliqueIndex` built once per
    call.  A member's cheapest summand for a group is the least head among
    its fitting buckets, and the message is the least sorted tuple of such
    heads over all groups of the largest size that has one; sending it
    removes the pieces it delivers from the buckets.  Finding the groups
    costs time in the number of buckets (distinct holder masks per user),
    not in S, and is redone only when a bucket empties; in between, a
    message costs one head comparison per slot.
    """
    index = _CliqueIndex(cache, needs)
    messages: list[DeliveryMessage] = []
    size = len(index.buckets)
    while index.buckets:
        # Covering pieces only takes slots away, so the largest group size
        # with a clique never grows from one message to the next.
        while not (found := index.cliques(size)):
            size -= 1
        best = min(
            sorted(min(b[0] for b in buckets) for buckets in members)
            for slots in found
            for members in slots.values()
        )
        index.send(best)
        messages.append(DeliveryMessage.build(index.pairs[key] for key in best))
    return make_schedule(cache, messages)


def _regular_pass(cache: CacheState, dem: Mapping[int, int]) -> DeliverySchedule:
    messages: list[DeliveryMessage] = []
    for file in sorted(set(dem.values())):
        requesters = sorted(k for k, f in dem.items() if f == file)
        pieces = list(zip(cache.indices(file), cache.masks[file - 1]))
        degrees = {mask.bit_count() for _, mask in pieces}
        regular = False
        if len(degrees) == 1:
            t = degrees.pop()
            if t == cache.users:
                continue  # fully cached everywhere, nothing to send
            classes: dict[int, list[SubfileIndex]] = {}
            for idx, mask in pieces:  # already in canonical order
                classes.setdefault(mask, []).append(idx)
            sizes = {len(v) for v in classes.values()}
            regular = len(classes) == comb(cache.users, t) and len(sizes) == 1
        if regular:
            slice_count = len(next(iter(classes.values())))
            leader = requesters[0]
            for team in itertools.combinations(range(1, cache.users + 1), t + 1):
                if leader not in team:
                    continue
                bits = [1 << (k - 1) for k in team]
                for j in range(slice_count):
                    pairs = [(file, classes[sum(bits) - bit][j]) for bit in bits]
                    messages.append(DeliveryMessage.build(pairs))
        else:
            wanted = sum(1 << (k - 1) for k in requesters)
            messages.extend(
                DeliveryMessage.build([(file, idx)]) for idx, mask in pieces if wanted & ~mask
            )
    return make_schedule(cache, messages)


# ---------------------------------------------------------------------------
# Exhaustive scheduler
# ---------------------------------------------------------------------------

_CANDIDATE_CAP = 50_000


def _candidate_messages(
    cache: CacheState, needs: Mapping[int, frozenset[Pair]], max_summands: int
) -> list[DeliveryMessage]:
    """Clique-style candidate family: every summand is needed by one
    participating user and cached by all the other participants."""
    index = _CliqueIndex(cache, needs)
    out: set[tuple[Key, ...]] = set()
    for size in range(1, min(len(index.buckets), max_summands) + 1):
        for slots in index.cliques(size):
            for members in slots.values():
                restricted = [sorted(itertools.chain.from_iterable(b)) for b in members]
                total = prod(len(opts) for opts in restricted)
                if len(out) + total > _CANDIDATE_CAP:
                    raise BudgetExceededError(
                        f"candidate message family exceeds {_CANDIDATE_CAP}"
                    )
                for combo in itertools.product(*restricted):
                    out.add(tuple(sorted(combo)))
    return [DeliveryMessage(tuple(index.pairs[key] for key in keys)) for keys in sorted(out)]


def exhaustive_schedule(
    cache: CacheState,
    demand,
    *,
    max_messages: int = 12,
    max_summands: int = 4,
    max_nodes: int = 1_000_000,
) -> DeliverySchedule:
    """Minimum-message schedule within the clique candidate family.

    Iterative-deepening search with span-based feasibility: a depth-``c``
    subset of candidates is accepted iff every user can decode all needed
    pieces from cache plus messages (chained combinations included).  The
    result is minimal within the family; no claim is made against
    arbitrary linear schedules.  Raises :class:`BudgetExceededError` when
    no schedule exists within ``max_messages`` or the node budget runs out.
    """
    dem = normalize_demand(cache, demand)
    needs = needed_map(cache, dem)
    active = {k: v for k, v in needs.items() if v}
    if not active:
        return DeliverySchedule((), Fraction(0))

    layout = _ColumnLayout(cache)
    candidates = _candidate_messages(cache, active, max_summands)
    users = sorted(active)
    cache_masks = {k: sum(1 << column for column, _ in layout.cached(k)) for k in users}
    needed_units = {
        k: [layout.unit(*pair) for pair in sorted(active[k], key=_pair_key)] for k in users
    }
    # Per-candidate vectors with each user's cached coordinates zeroed out.
    proj = [
        {k: layout.vector(msg) & ~cache_masks[k] for k in users} for msg in candidates
    ]

    # Per-user state: (message span, message span joined with the needed
    # units, deficiency).  The deficiency rank(joined) - rank(span) is how
    # many more messages the user needs at minimum: one message adds at
    # most one dimension, and the user is done exactly when it hits zero
    # (every needed unit then lies in the message-plus-cache span).
    nodes = 0

    def search(start: int, state: dict, slots: int):
        nonlocal nodes
        worst = max(deficiency for _, _, deficiency in state.values())
        if worst == 0:
            return []
        if worst > slots:
            return None
        for i in range(start, len(candidates)):
            nodes += 1
            if nodes > max_nodes:
                raise BudgetExceededError(f"search exceeded {max_nodes} nodes")
            new_state = None
            for k in users:
                span, joined, _ = state[k]
                vec = proj[i][k]
                if not vec or span.contains(vec):
                    continue
                span = span.copy()
                span.add(vec)
                if not joined.contains(vec):
                    joined = joined.copy()
                    joined.add(vec)
                if new_state is None:
                    new_state = dict(state)
                new_state[k] = (span, joined, joined.rank - span.rank)
            if new_state is None:
                continue  # adds no dimension for anyone: never part of a minimal schedule
            found = search(i + 1, new_state, slots - 1)
            if found is not None:
                return [i] + found
        return None

    root: dict[int, tuple[GF2Basis, GF2Basis, int]] = {}
    for k in users:
        joined = GF2Basis()
        for unit in needed_units[k]:
            joined.add(unit)
        root[k] = (GF2Basis(), joined, joined.rank)
    lower = max(deficiency for _, _, deficiency in root.values())

    for depth in range(lower, max_messages + 1):
        picked = search(0, root, depth)
        if picked is not None:
            return make_schedule(cache, (candidates[i] for i in picked))
    raise BudgetExceededError(
        f"no schedule within {max_messages} messages for demand {dict(dem)}"
    )


# Named scheduler interface: callables (cache, demand) -> schedule.
Scheduler = Callable[[CacheState, object], DeliverySchedule]

SCHEDULERS: dict[str, Scheduler] = {
    "toy": lambda cache, demand: toy_schedule(demand, cache),
    "greedy": greedy_schedule,
    "exhaustive": lambda cache, demand: exhaustive_schedule(cache, demand),
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


def message_text(message: DeliveryMessage, users: int) -> str:
    parts = []
    for f, idx in message.summands:
        subscript = ",".join(_set_text(s, users) for s in idx.sets)
        parts.append(f"{file_label(f)}_{{{subscript}}}")
    return " + ".join(parts)


def schedule_text(schedule: DeliverySchedule, users: int) -> list[str]:
    return [message_text(m, users) for m in schedule.messages]


def schedule_to_json(schedule: DeliverySchedule, users: int, demand=None) -> dict:
    data = {
        "rate": f"{schedule.rate.numerator}/{schedule.rate.denominator}",
        "messages": [
            {
                "text": message_text(m, users),
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


def schedule_from_json(data: Mapping) -> DeliverySchedule:
    try:
        messages = tuple(
            DeliveryMessage.build(
                (s["file"], SubfileIndex.from_sets(s["chains"]))
                for s in m["summands"]
            )
            for m in data["messages"]
        )
        rate = Fraction(data["rate"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed schedule: {exc}") from exc
    return DeliverySchedule(messages, rate)
