"""Per-layer spans and counts, installed on ``codedcache`` from outside.

The benchmark never edits the package.  Instead it replaces every binding
of a listed public function with a wrapper: the defining module's name,
the copies other modules imported (``cli.exhaustive_schedule``,
``rates.place``), and entries of module-level tables such as
``delivery.SCHEDULERS``.  A name a later refactor removed is skipped and
its metrics are absent from the report.

A wrapped function's self time is its span minus the spans of the
wrapped functions it called.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "codedcache"

# Layer (module) -> public functions whose calls and self time are reported.
LAYER_FUNCTIONS = {
    "combinatorics": ("enumerate_indices",),
    "placement": ("load_config", "place_beta", "place_alpha", "cache_to_json", "cache_from_json"),
    "delivery": (
        "greedy_schedule",
        "exhaustive_schedule",
        "decodable",
        "needed_map",
        "schedule_to_json",
    ),
    "rates": (
        "expected_rate_exact",
        "beta_points",
        "alpha_points",
        "alpha_expected_rate",
        "lower_envelope",
        "rate_alpha_closed",
        "rate_beta_closed",
        "write_curves_csv",
    ),
    "cli": ("main",),
}

# Methods of gf2.GF2Basis counted in a separate pass: they run millions of
# times inside the exhaustive search, so a timing wrapper would inflate it.
GF2_METHODS = ("add", "reduce", "copy")


def function_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items() for fn in fns]


def _pieces(tracer, cache) -> None:
    tracer.counts["combinatorics.pieces"] += sum(
        cache.subpacketization(f) for f in range(1, cache.num_files + 1)
    )


def _schedule(tracer, schedule) -> None:
    tracer.counts["delivery.schedules"] += 1
    tracer.counts["delivery.messages"] += len(schedule.messages)


def _decode(tracer, report) -> None:
    tracer.counts["delivery.verify_failed"] += 0 if report.ok else 1


def _points(tracer, points) -> None:
    tracer.counts["rates.points"] += len(points)


# Wrapped function -> (observer of its result, the counts the observer
# writes).  A BudgetExceededError out of exhaustive_schedule is counted too.
_OBSERVERS = {
    "placement.place_beta": (_pieces, ("combinatorics.pieces",)),
    "placement.place_alpha": (_pieces, ("combinatorics.pieces",)),
    "delivery.greedy_schedule": (_schedule, ("delivery.schedules", "delivery.messages")),
    "delivery.exhaustive_schedule": (
        _schedule,
        ("delivery.schedules", "delivery.messages", "delivery.exhaustive_schedule.budget"),
    ),
    "delivery.decodable": (_decode, ("delivery.verify_failed",)),
    "rates.beta_points": (_points, ("rates.points",)),
    "rates.alpha_points": (_points, ("rates.points",)),
}

COUNTS = tuple(dict.fromkeys(c for _, counts in _OBSERVERS.values() for c in counts))


class Tracer:
    """Call counts, self times and result-derived counts of wrapped calls."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.installed: list[str] = []
        self.broken: set[str] = set()  # counts whose observer no longer fits the API
        self._open: list[float] = []  # time covered by children, one per open span

    def wrap(self, name: str, fn):
        """Return `fn` wrapped in a span named `name`."""
        observe, observed = _OBSERVERS.get(name, (None, ()))
        budget = name == "delivery.exhaustive_schedule"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._open.append(0.0)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if budget and type(exc).__name__ == "BudgetExceededError":
                    tracer.counts["delivery.exhaustive_schedule.budget"] += 1
                raise
            finally:
                total = tracer.clock() - start
                tracer.self_s[name] += total - tracer._open.pop()
                tracer.calls[name] += 1
                if tracer._open:
                    tracer._open[-1] += total
            if observe is not None:
                try:
                    observe(tracer, result)
                except (AttributeError, TypeError):
                    tracer.broken.update(observed)
            return result

        return wrapper

    def install(self) -> list[str]:
        """Wrap every binding of each listed function that still exists."""
        replacements = {}
        for name in function_names():
            layer, fn = name.split(".")
            original = _lookup(layer, fn)
            if callable(original):
                replacements[id(original)] = (original, self.wrap(name, original))
                self.installed.append(name)
        rebind(replacements)
        return self.installed

    def metrics(self) -> dict[str, float]:
        """Flat metric dict; functions not installed are absent."""
        out: dict[str, float] = {}
        for name in self.installed:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        observed = {
            c for name in self.installed for c in _OBSERVERS.get(name, (None, ()))[1]
        }
        for count in COUNTS:
            if count in observed and count not in self.broken:
                out[count] = self.counts[count]
        return out


def _lookup(layer: str, fn: str):
    try:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
    except ImportError:
        return None
    return getattr(module, fn, None)


def rebind(replacements: dict) -> None:
    """Point every package-level binding of an original at its wrapper.

    `replacements` maps ``id(original)`` to ``(original, wrapper)``.
    Module globals and the values of module-level dicts are rebound.
    """

    def swap(value):
        hit = replacements.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None

    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if attr.startswith("__"):
                continue
            wrapper = swap(value)
            if wrapper is not None:
                setattr(module, attr, wrapper)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    wrapper = swap(item)
                    if wrapper is not None:
                        value[key] = wrapper


def install_gf2_counters(counts: Counter) -> list[str]:
    """Count calls of the GF2Basis methods; returns the metric names."""
    try:
        basis = importlib.import_module(f"{PACKAGE}.gf2").GF2Basis
    except (ImportError, AttributeError):
        return []
    names = []
    for method in GF2_METHODS:
        original = getattr(basis, method, None)
        if not callable(original):
            continue
        name = f"gf2.GF2Basis.{method}.calls"

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        setattr(basis, method, functools.wraps(original)(counted))
        names.append(name)
    return names
