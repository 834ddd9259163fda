"""Correctness checks on the outputs of one benchmark repetition.

Each check returns a list of problems, empty when the output is right.
The checks recompute what they can from the output itself instead of
trusting the fields the program wrote (a schedule's ``rate`` is summed
again from its message sizes).
"""

from __future__ import annotations

import csv
from fractions import Fraction
from math import comb
from pathlib import Path


def piece_size(users: int, chains) -> Fraction:
    """Size of one piece in file units: 1 over the multinomial count of
    the nested chains whose level sizes the piece's chains show."""
    count, prev = 1, users
    for level in chains:
        count *= comb(prev, len(level))
        prev = len(level)
    return Fraction(1, count)


def check_schedule(entry: dict, users: int, demand) -> list[str]:
    """One ``deliver --verify`` entry: verified, for the right demand, and
    its rate equal to the sum of its message sizes."""
    problems = []
    if entry.get("verified") is not True:
        problems.append(f"demand {demand}: not verified")
    if entry.get("demand") != list(demand):
        problems.append(f"demand {demand}: output is for {entry.get('demand')}")
    total = Fraction(0)
    for i, message in enumerate(entry["messages"]):
        sizes = {piece_size(users, s["chains"]) for s in message["summands"]}
        if len(sizes) != 1:
            problems.append(f"demand {demand}: message {i} mixes piece sizes {sorted(sizes)}")
            continue
        total += sizes.pop()
    if Fraction(entry["rate"]) != total:
        problems.append(f"demand {demand}: rate {entry['rate']} but messages sum to {total}")
    return problems


def check_deliver(payload: dict, users: int, demands: list) -> list[str]:
    """A ``deliver`` output file: one entry per demand, each checked."""
    entries = payload["schedules"] if len(demands) > 1 else [payload]
    if len(entries) != len(demands):
        return [f"{len(entries)} schedules for {len(demands)} demands"]
    problems = []
    for entry, demand in zip(entries, demands):
        problems += check_schedule(entry, users, demand)
    return problems


def deliver_rates(payload: dict) -> list[Fraction]:
    entries = payload.get("schedules", [payload])
    return [Fraction(e["rate"]) for e in entries]


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def csv_rates(rows: list[list[str]]) -> list[float]:
    return [float(cell) for row in rows for cell in row[1:]]


def check_curves(header: list[str], rows: list[list[str]], expected_header: list[str]) -> list[str]:
    """Header as expected, abscissa strictly increasing, every rate column
    non-increasing along it."""
    if header != expected_header:
        return [f"header {header}, expected {expected_header}"]
    if not rows:
        return ["no rows"]
    problems = []
    xs = [float(row[0]) for row in rows]
    if any(a >= b for a, b in zip(xs, xs[1:])):
        problems.append(f"{header[0]} is not strictly increasing")
    for j, label in enumerate(header[1:], start=1):
        ys = [float(row[j]) for row in rows]
        bad = [i for i, (a, b) in enumerate(zip(ys, ys[1:])) if b > a]
        if bad:
            problems.append(f"{label} rises at {header[0]}={rows[bad[0] + 1][0]}")
    return problems


def check_column(rows: list[list[str]], column: int, reference, parse_x) -> list[str]:
    """Cells of `column` equal ``reference(parse_x(x))`` to 12 significant
    digits, the precision the CSV writer prints."""
    problems = []
    for row in rows:
        want = f"{float(reference(parse_x(row[0]))):.12g}"
        if row[column] != want:
            problems.append(f"at {row[0]}: {row[column]}, expected {want}")
    return problems


def expected_distinct(popularity, users: int) -> Fraction:
    """Expected number of distinct files named by `users` independent
    requests: file f is named unless every user asks for another one."""
    return sum(1 - (1 - Fraction(p)) ** users for p in popularity)


def check_sweep_ends(rows: list[list[str]], column: int, at_zero, files: int) -> list[str]:
    """An M-sweep starts at M = 0 with rate `at_zero` (nothing cached:
    every distinct requested file is sent whole) and ends at M = `files`
    with rate 0 (everything cached), to 12 significant digits."""
    problems = []
    for row, m, rate in ((rows[0], 0, at_zero), (rows[-1], files, 0)):
        want_m, want = f"{float(m):.12g}", f"{float(rate):.12g}"
        if row[0] != want_m:
            problems.append(f"sweep ends at M={row[0]}, expected {want_m}")
        elif row[column] != want:
            problems.append(f"at M={row[0]}: {row[column]}, expected {want}")
    return problems


def memory_value(text: str) -> Fraction:
    """Cache sizes are rationals with small denominators printed as floats."""
    return Fraction(text).limit_denominator(1000)


def check_roundtrip(loaded, expected, users: int, memory: Fraction) -> list[str]:
    """A cache read back from JSON equals the placement, and every user
    holds exactly the configured memory."""
    problems = []
    if loaded != expected:
        problems.append("cache read back from JSON differs from the placement")
    for k in range(1, users + 1):
        load = loaded.user_load(k)
        if load != memory:
            problems.append(f"user {k} holds {load}, expected {memory}")
    return problems


def check_needed(needed: dict, cache, demand) -> list[str]:
    """Each user needs exactly the pieces of its file it does not cache."""
    problems = []
    if sorted(needed) != list(range(1, len(demand) + 1)):
        return [f"needed sets for users {sorted(needed)}"]
    for k, f in enumerate(demand, start=1):
        have = cache.user_cache(k)
        pieces = needed[k]
        if any(pair[0] != f or pair in have for pair in pieces):
            problems.append(f"user {k}: a needed piece is cached or of another file")
        if len(pieces) + cache.cached_count(k, f) != cache.subpacketization(f):
            problems.append(f"user {k}: {len(pieces)} needed pieces do not complete file {f}")
    return problems
