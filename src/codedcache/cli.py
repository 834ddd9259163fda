"""Command-line front end: JSON configs in, JSON/CSV results out.

Subcommands
    place    write the cache contents for a config
    deliver  build (and optionally verify) delivery schedules
    rates    emit rate curves as CSV; ``--m-sweep`` also gives ``bound``,
             the chain bound's envelope over the ``beta`` placements

Exit codes: 0 success, 2 usage/validation error (including a path that
cannot be read or written), 3 verification failure, 4 resource limit
exceeded.  Every file output gets a sibling
``<name>.manifest.json`` recording how it was produced.  Outputs are
deterministic for a given config and seed, except manifest timestamps.
The JSON layouts have one owner each: ``placement._cache_json_chunks``
for ``place``, which writes its chunks one user record at a time, and
``delivery.schedules_json_text`` for ``deliver``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from . import __version__
from .delivery import (
    SCHEDULERS,
    chain_bound,
    decodable,
    exhaustive_rate,
    exhaustive_schedule,  # noqa: F401  bench/tests/test_bench.py reads this binding
    normalize_demand,
    schedule_text,
    schedules_json_text,
)
from .errors import LimitExceededError, ValidationError
from .placement import _cache_json_chunks, load_config, place
from .rates import (
    ENUMERATION_LIMIT,
    RateCurve,
    _curve_rows,
    alpha_envelope,
    beta_points,
    compare_strategies,
    lower_envelope,
    write_curves_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_LIMIT = 4

# most request vectors deliver --all-demands schedules
_DEMAND_LIMIT = 4096


def _write_manifest(out_path: Path, command: str, config: str) -> None:
    manifest = {
        "tool": "codedcache",
        "version": __version__,
        "command": command,
        "config": str(config),
        "seed": None,
        "outputs": [str(out_path)],
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    side = out_path.with_name(out_path.stem + ".manifest.json")
    side.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _parse_demand(text: str) -> tuple[int, ...]:
    """File numbers of a demand such as "A,A,B" or "1,1,2"; the count and
    the range are left to :func:`normalize_demand`."""
    parts = [p.strip() for p in text.split(",")]
    out = []
    for p in parts:
        if p.isalpha() and len(p) == 1:
            f = ord(p.upper()) - ord("A") + 1
        else:
            try:
                f = int(p)
            except ValueError as exc:
                raise ValidationError(f"demand entry {p!r} is not a file") from exc
        out.append(f)
    return tuple(out)


def _parse_grid(text: str) -> tuple[float, ...]:
    """The one value given, or the points of a ``start:stop:step`` grid.

    Point ``i`` is ``start + i * step`` in floats, rounded to 12 places.
    The count, ``floor((stop - start) / step) + 1``, is taken exactly from
    the decimal text, so rounding never drops or adds the end point.
    """
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ValidationError(f"grid must be start:stop:step, got {text!r}")
    try:
        numbers = [float(p) for p in parts]
    except ValueError as exc:
        raise ValidationError(f"grid {text!r} is not numeric") from exc
    if not all(math.isfinite(x) for x in numbers):
        raise ValidationError(f"grid {text!r} has a non-finite value")
    if len(numbers) == 1:
        return (numbers[0],)
    start, stop, step = numbers
    if step <= 0 or stop < start:
        raise ValidationError(f"bad grid {text!r}")
    # a value that reads as 0.0 is taken as 0, so that a text such as
    # 1e-99999999 never makes its power of ten
    try:
        first, last, width = (Fraction(p) if x else 0 for p, x in zip(parts, numbers))
    except ValueError as exc:  # more digits than int() converts
        raise ValidationError(f"grid {text!r} is too long a number") from exc
    count = (last - first) // width + 1
    if count > ENUMERATION_LIMIT:
        raise LimitExceededError(f"grid {text!r} has more than {ENUMERATION_LIMIT} points")
    return tuple(round(start + i * step, 12) for i in range(count))


def cmd_place(args) -> int:
    cfg = load_config(args.config)
    cache = place(cfg)
    out = Path(args.out)
    # one user record at a time: the file's text is never held whole
    with open(out, "w", encoding="utf-8") as fh:
        fh.writelines(_cache_json_chunks(cache))
    _write_manifest(out, "place", args.config)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_deliver(args) -> int:
    cfg = load_config(args.config)
    cache = place(cfg)
    scheduler = SCHEDULERS[args.scheduler]
    if args.all_demands:
        if cfg.num_files**cfg.users > _DEMAND_LIMIT:
            raise LimitExceededError(
                f"{cfg.num_files}**{cfg.users} demands exceed the limit {_DEMAND_LIMIT}"
            )
        demands = list(itertools.product(range(1, cfg.num_files + 1), repeat=cfg.users))
    else:
        demands = [_parse_demand(args.demand)]
        normalize_demand(cache, demands[0])  # the count and the range of the files

    entries = []
    failures = 0
    for demand in demands:
        schedule = scheduler(cache, demand)
        verified = None
        if args.verify:
            verified = decodable(cache, schedule, demand).ok
            if not verified:
                failures += 1
                print(f"verification FAILED for demand {demand}", file=sys.stderr)
        entries.append((schedule, demand, verified))
        if args.print_text:
            rate = schedule.rate
            print(f"demand {demand}: rate {rate.numerator}/{rate.denominator}")
            for line in schedule_text(schedule, cfg.users):
                print(f"  {line}")

    if args.out:
        out = Path(args.out)
        out.write_text(schedules_json_text(entries, cfg.users, args.all_demands), encoding="utf-8")
        _write_manifest(out, "deliver", args.config)
        print(f"wrote {out}")
    elif not args.print_text:
        print(schedules_json_text(entries, cfg.users, args.all_demands), end="")
    return EXIT_VERIFY if failures else EXIT_OK


def _reference_setup(cfg) -> bool:
    return cfg.users == 3 and tuple(g.size for g in cfg.groups) == (1, 1)


def cmd_rates(args) -> int:
    cfg = load_config(args.config)
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    chosen = set(strategies)
    if not chosen or len(chosen) < len(strategies) or not chosen <= {"alpha", "beta", "bound"}:
        raise ValidationError("--strategies needs a subset of: alpha,beta,bound")

    if args.p_grid:
        if "bound" in chosen:
            raise ValidationError("--p-grid has no bound curve; use --m-sweep for it")
        if not _reference_setup(cfg):
            raise ValidationError(
                "--p-grid curves are the cache-size-1 closed forms of the "
                "3-user/2-file reference setup; use --m-sweep for other configs"
            )
        comparison = compare_strategies(_parse_grid(args.p_grid))
        curves = [getattr(comparison, name) for name in strategies]
    else:
        sizes = [g.size for g in cfg.groups]
        envelopes = {}
        for name in strategies:
            if name == "alpha":
                envelopes[name] = alpha_envelope(cfg.users, cfg.popularity)
                continue
            # bound rates the beta placements by the chain bound, so its
            # envelope is below every delivery on any of them
            rate = exhaustive_rate if name == "beta" else chain_bound
            envelopes[name] = lower_envelope(beta_points(cfg.users, sizes, cfg.popularity, rate))
        grid = sorted({m for env in envelopes.values() for m, _ in env.vertices})
        curves = []
        for name in strategies:
            # a vertex's rate is stored; only the other points interpolate
            env = envelopes[name]
            stored = dict(env.vertices)
            points = tuple((m, stored[m] if m in stored else env.value(m)) for m in grid)
            curves.append(RateCurve(f"R_{name}", "M", points))

    if args.csv:
        out = Path(args.csv)
        write_curves_csv(out, curves)
        _write_manifest(out, "rates", args.config)
        print(f"wrote {out}")
    else:
        for row in _curve_rows(curves):
            print(",".join(row))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codedcache",
        description="Coded caching with nonuniform popularity: placement, delivery, rates.",
    )
    parser.add_argument("--version", action="version", version=f"codedcache {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_place = sub.add_parser("place", help="write cache contents for a config")
    p_place.add_argument("config")
    p_place.add_argument("--out", required=True)
    p_place.set_defaults(func=cmd_place)

    p_del = sub.add_parser("deliver", help="build delivery schedules")
    p_del.add_argument("config")
    group = p_del.add_mutually_exclusive_group(required=True)
    group.add_argument("--demand", help='request vector, e.g. "A,A,B" or "1,1,2"')
    group.add_argument("--all-demands", action="store_true")
    p_del.add_argument("--scheduler", choices=sorted(SCHEDULERS), default="greedy")
    p_del.add_argument("--verify", action="store_true")
    p_del.add_argument("--out")
    p_del.add_argument("--print-text", action="store_true")
    p_del.set_defaults(func=cmd_deliver)

    p_rates = sub.add_parser("rates", help="emit rate curves as CSV")
    p_rates.add_argument("config")
    grid = p_rates.add_mutually_exclusive_group(required=True)
    grid.add_argument("--p-grid", help="probability grid start:stop:step or a single value")
    grid.add_argument("--m-sweep", action="store_true", help="rate vs cache size")
    p_rates.add_argument("--strategies", default="alpha,beta")
    p_rates.add_argument("--csv")
    p_rates.set_defaults(func=cmd_rates)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The :func:`build_parser` parser, built once per process; parsing
    leaves it unchanged, so every call of :func:`main` shares it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        # OSError: a config that cannot be read or an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LimitExceededError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
