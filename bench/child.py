"""One repetition of one workload, in a fresh process.

    python3 bench/child.py WORKLOAD SEED MODE T0 WORKDIR RESULT

``run.py`` starts this with ``src`` on ``PYTHONPATH``, so memo caches
start cold, as for a CLI user.  MODE is ``setup`` (set-up only, for
more samples of its time), ``plain`` (timings, with reference passes
sampled inside long operations), ``trace`` (spans around the package's
public functions) or ``count`` (calls of the GF(2) basis methods).  T0
is the parent's ``time.monotonic()`` just before the start; set-up time
runs from there until the package is imported and the configs are
written, and is rescaled by reference passes to a fixed host speed
(``scaled_setup``).  The repetition's measurements, check results and
output digests go to the JSON file RESULT.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import random
import resource
import signal
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
import tracing

# Popularity entries are multiples of 1/POP_DENOMINATOR, so the seed never
# changes the size of the exact rationals the expectations add up.
POP_DENOMINATOR = 100


@dataclass
class Op:
    """One timed operation and the untimed check of its result.

    `check` returns the problems found and the delivery rates the
    operation output (for ``mean_rate``).
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[list[str], list]]


def popularity(rng: random.Random, files: int) -> list[str]:
    """Positive rationals with a fixed denominator, most popular first."""
    cuts = sorted(rng.sample(range(1, POP_DENOMINATOR), files - 1))
    weights = [b - a for a, b in zip([0] + cuts, cuts + [POP_DENOMINATOR])]
    return [f"{w}/{POP_DENOMINATOR}" for w in sorted(weights, reverse=True)]


def demand_with(rng: random.Random, users: int, ones: int) -> tuple[int, ...]:
    """A two-file demand with `ones` users on file 1; the seed picks which.

    Greedy's cost depends mostly on how many users ask for each file, so
    fixing the counts keeps the work of a run the same for every seed.
    """
    chosen = set(rng.sample(range(users), ones))
    return tuple(1 if k in chosen else 2 for k in range(users))


def write_config(path: Path, users, sizes, r, pop, strategy="beta") -> Path:
    data = {
        "K": users,
        "strategy": strategy,
        "groups": [{"size": s, "r": v} for s, v in zip(sizes, r)],
        "popularity": pop,
    }
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")
    return path


def all_demands(users: int) -> list[tuple[int, ...]]:
    """Every two-file demand vector, in the order ``--all-demands`` uses."""
    return list(itertools.product((1, 2), repeat=users))


def load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cli_op(label: str, argv: list[str], check_output) -> Op:
    """A CLI call that must exit 0 and pass `check_output()`."""
    from codedcache import cli

    def check(code):
        if code != 0:
            return [f"exit code {code}"], []
        return check_output()

    return Op(label, lambda: cli.main(argv), check)


# ---------------------------------------------------------------------------
# Workloads: each writes its configs and returns its operations.
# ---------------------------------------------------------------------------


def deliver_op(label, cfg: Path, out: Path, users: int, demands: list, all_demands=False) -> Op:
    argv = ["deliver", str(cfg), "--verify", "--out", str(out)]
    argv += ["--all-demands"] if all_demands else ["--demand", ",".join(map(str, demands[0]))]

    def check_output():
        payload = load_json(out)
        return checks.check_deliver(payload, users, demands), checks.deliver_rates(payload)

    return cli_op(label, argv, check_output)


def greedy_deliver(rng: random.Random, cfg_dir: Path, out_dir: Path) -> list[Op]:
    k5 = write_config(cfg_dir / "k5-beta.json", 5, [1, 1], [3, 1], popularity(rng, 2))
    k6b = write_config(cfg_dir / "k6-beta.json", 6, [1, 1], [3, 2], popularity(rng, 2))
    k6a = write_config(cfg_dir / "k6-alpha.json", 6, [1, 1], [3, 2], popularity(rng, 2), "alpha")
    ops = [deliver_op("k5-beta all", k5, out_dir / "k5-beta-all.json", 5, all_demands(5), True)]
    for i, ones in enumerate((1, 2, 2, 3, 3, 4, 4, 5)):
        d = demand_with(rng, 6, ones)
        ops.append(deliver_op(f"k6-beta {d}", k6b, out_dir / f"k6-beta-{i}.json", 6, [d]))
    for i, ones in enumerate((2, 3, 3, 4)):
        d = demand_with(rng, 6, ones)
        ops.append(deliver_op(f"k6-alpha {d}", k6a, out_dir / f"k6-alpha-{i}.json", 6, [d]))
    return ops


def certify_sweep(rng: random.Random, cfg_dir: Path, out_dir: Path) -> list[Op]:
    from codedcache import lower_envelope, memory_rate_table

    ops = []
    for sizes in ((1, 1), (1, 2), (1, 1, 1), (2, 2)):
        name = "k3-" + "-".join(map(str, sizes))
        pop = popularity(rng, sum(sizes))
        cfg = write_config(cfg_dir / f"{name}.json", 3, sizes, [1] * len(sizes), pop)
        out = out_dir / f"{name}.csv"

        def check_output(out=out, sizes=sizes, pop=pop):
            header, rows = checks.read_csv(out)
            problems = checks.check_curves(header, rows, ["M", "R_beta"])
            if sizes == (1, 1) and not problems:
                reference = lower_envelope(memory_rate_table(Fraction(pop[0]))).value
                problems += checks.check_column(rows, 1, reference, checks.memory_value)
            return problems, checks.csv_rates(rows)

        argv = ["rates", str(cfg), "--m-sweep", "--strategies", "beta", "--csv", str(out)]
        ops.append(cli_op(f"m-sweep beta {sizes}", argv, check_output))
    return ops


def place_roundtrip(rng: random.Random, cfg_dir: Path, out_dir: Path) -> list[Op]:
    import codedcache

    configs = [
        write_config(cfg_dir / "k10-beta.json", 10, [1, 2, 2], [5, 2, 1], popularity(rng, 5)),
        write_config(cfg_dir / "k10-alpha.json", 10, [2, 3], [4, 1], popularity(rng, 5), "alpha"),
    ]
    ops, loaded = [], {}
    for cfg in configs:
        argv = ["place", str(cfg), "--out", str(out_dir / f"{cfg.stem}-cache.json")]
        # the file is checked when the cache_from_json step below reads it back
        ops.append(cli_op(f"place {cfg.stem}", argv, lambda: ([], [])))

    for cfg in configs:
        out = out_dir / f"{cfg.stem}-cache.json"

        def load(cfg=cfg, out=out):
            loaded[cfg.stem] = codedcache.cache_from_json(load_json(out))
            return loaded[cfg.stem]

        def check_load(cache, cfg=cfg):
            c = codedcache.load_config(cfg)
            return checks.check_roundtrip(cache, codedcache.place(c), c.users, c.memory), []

        ops.append(Op(f"cache_from_json {cfg.stem}", load, check_load))

    for i in range(3):
        demand = tuple(rng.randint(1, 5) for _ in range(10))

        def needed(demand=demand):
            return codedcache.needed_map(loaded["k10-beta"], demand)

        def check_needed(result, demand=demand):
            return checks.check_needed(result, loaded["k10-beta"], demand), []

        ops.append(Op(f"needed_map {demand}", needed, check_needed))
    return ops


def alpha_sweep(rng: random.Random, cfg_dir: Path, out_dir: Path) -> list[Op]:
    from codedcache import rate_alpha_closed, rate_beta_closed

    k4_pop = popularity(rng, 4)
    k4 = write_config(cfg_dir / "k4-alpha.json", 4, [2, 2], [2, 1], k4_pop, "alpha")
    ref = write_config(cfg_dir / "k3-ref.json", 3, [1, 1], [2, 1], popularity(rng, 2))
    sweep_out, grid_out = out_dir / "k4-alpha.csv", out_dir / "p-grid.csv"

    def check_sweep():
        header, rows = checks.read_csv(sweep_out)
        problems = checks.check_curves(header, rows, ["M", "R_alpha"])
        if not problems:
            problems += checks.check_sweep_ends(rows, 1, checks.expected_distinct(k4_pop, 4), 4)
        return problems, checks.csv_rates(rows)

    def check_grid():
        header, rows = checks.read_csv(grid_out)
        problems = checks.check_curves(header, rows, ["p", "R_alpha", "R_beta"])
        if len(rows) != 1001:
            problems.append(f"{len(rows)} grid rows, expected 1001")
        if not problems:
            problems += checks.check_column(rows, 1, rate_alpha_closed, float)
            problems += checks.check_column(rows, 2, rate_beta_closed, float)
        return problems, checks.csv_rates(rows)

    sweep = ["rates", str(k4), "--m-sweep", "--strategies", "alpha", "--csv", str(sweep_out)]
    grid = ["rates", str(ref), "--p-grid", "0.5:1:0.0005", "--csv", str(grid_out)]
    return [cli_op("m-sweep alpha K=4", sweep, check_sweep), cli_op("p-grid", grid, check_grid)]


SETUPS = {
    "greedy-deliver": greedy_deliver,
    "certify-sweep": certify_sweep,
    "place-roundtrip": place_roundtrip,
    "alpha-sweep": alpha_sweep,
}
WORKLOADS = tuple(SETUPS)


# ---------------------------------------------------------------------------
# One repetition
# ---------------------------------------------------------------------------


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every output file except the manifests."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if not p.name.endswith(".manifest.json")
    }


# A reference pass runs before the first operation, after every
# operation, and every SAMPLE_EVERY_S seconds inside an operation.
SAMPLE_EVERY_S = 0.25
# Set-up (about a second) is bracketed by passes and sampled more densely.
SETUP_SAMPLE_EVERY_S = 0.1
SETUP_PASSES_AFTER = 2
# setup_s is reported for a host on which one reference pass takes this long.
NOMINAL_PASS_S = 0.010
# Set-up time grows as the reference pass time to this power: importing is
# partly dynamic loading and page faults, which a slower host stretches
# less than bytecode.  Fitted on 524 set-ups on a shared 2-vCPU machine,
# where passes took 8 to 18 ms.
SETUP_SPEED_EXPONENT = 0.75


def reference_pass() -> tuple[float, float]:
    """Wall and CPU time of one pass of a fixed pure-Python loop.

    The loop does the kind of work the package does (dict updates and
    integer arithmetic) and none of its code, so its time follows only
    the host's speed.  Other tenants of a shared host can slow a process
    by half from one second to the next; dividing each operation's time
    by the passes around and inside it removes most of that from
    ``run_ref`` and ``cpu_ref``.  The loop's table stays small and it
    allocates almost no objects the garbage collector tracks, and the
    collector is off while it runs, so it neither triggers nor absorbs a
    collection of the program's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        table: dict[int, int] = {}
        acc = 0
        for i in range(30_000):
            key = i * 7919 % 4093
            table[key] = table.get(key, 0) + (i & 255)
            acc = (acc * 31 + key) % 1_000_000_007
        sorted(table)
        return time.perf_counter() - wall0, time.process_time() - cpu0
    finally:
        if enabled:
            gc.enable()


@contextlib.contextmanager
def sampled(every_s: float):
    """Run a reference pass every `every_s` seconds of the block from a
    SIGALRM timer; yields the list of their (start, wall, cpu) times."""
    inside: list[tuple[float, float, float]] = []

    def on_alarm(signum, frame):
        inside.append((time.perf_counter(), *reference_pass()))

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, every_s, every_s)
    try:
        yield inside
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_ops(ops: list[Op], sample: bool):
    """Run every operation between reference passes.

    With `sample`, a SIGALRM timer also runs a pass every SAMPLE_EVERY_S
    seconds inside an operation, and those passes' times are taken off
    the operation's.  Returns the outcomes, the (wall, cpu) time of each
    operation, and for each operation the (wall, cpu) times of its
    passes: the one before it, those inside it, and the one after it.
    """
    reference_pass()  # untimed: lets the interpreter specialize the loop first
    outcomes, times, passes = [], [], []
    before = reference_pass()
    sink = io.StringIO()
    for op in ops:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            with sampled(SAMPLE_EVERY_S) if sample else contextlib.nullcontext([]) as inside:
                wall0, cpu0 = time.perf_counter(), time.process_time()
                try:
                    outcomes.append((op.call(), None))
                except Exception as exc:  # a budget or crash is a failed operation
                    outcomes.append((None, exc))
                end = time.perf_counter()
                wall, cpu = end - wall0, time.process_time() - cpu0
        during = [(w, c) for start, w, c in inside if start < end]
        times.append((wall - sum(w for w, _ in during), cpu - sum(c for _, c in during)))
        after = reference_pass()
        passes.append([before, *during, after])
        before = after
    return outcomes, times, passes


def scaled_setup(setup_wall_s: float, passes: list[float]) -> float:
    """Set-up wall time rescaled to a host on which a reference pass takes
    NOMINAL_PASS_S.  The factor depends only on the passes, so a program
    change that makes set-up x% slower makes the result x% larger."""
    slowdown = sum(passes) / len(passes) / NOMINAL_PASS_S
    return setup_wall_s / slowdown**SETUP_SPEED_EXPONENT


def in_reference_units(times, passes, which: int) -> float:
    """Sum of operation times, each divided by the mean time of its
    reference passes (`which` 0 for wall, 1 for CPU time)."""
    return sum(
        t[which] / (sum(p[which] for p in ps) / len(ps)) for t, ps in zip(times, passes)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("mode", choices=("setup", "plain", "trace", "count"))
    parser.add_argument("t0", type=float)
    parser.add_argument("workdir", type=Path)
    parser.add_argument("result", type=Path)
    args = parser.parse_args(argv)

    # Set-up is timed from the parent's T0; the passes before, inside and
    # after it measure the host's speed meanwhile, and those inside are
    # taken off its time.
    setup_passes = [reference_pass()[0]]
    with sampled(SETUP_SAMPLE_EVERY_S) as inside:
        import codedcache
        import numpy
        import scipy

        cfg_dir, out_dir = args.workdir / "cfg", args.workdir / "out"
        cfg_dir.mkdir(parents=True)
        out_dir.mkdir()
        ops = SETUPS[args.workload](random.Random(args.seed), cfg_dir, out_dir)
        end, setup_wall_s = time.perf_counter(), time.monotonic() - args.t0
    during = [w for start, w, _ in inside if start < end]
    setup_wall_s -= sum(during)
    setup_passes += during + [reference_pass()[0] for _ in range(SETUP_PASSES_AFTER)]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "package": codedcache.__file__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "setup_s": scaled_setup(setup_wall_s, setup_passes),
        "setup_wall_s": setup_wall_s,
        "setup_passes_s": setup_passes,
    }
    if args.mode == "setup":
        args.result.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        return 0

    tracer, gf2_counts, gf2_names = tracing.Tracer(), Counter(), []
    if args.mode == "trace":
        tracer.install()
    elif args.mode == "count":
        gf2_names = tracing.install_gf2_counters(gf2_counts)

    outcomes, times, passes = run_ops(ops, sample=args.mode == "plain")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems, rates, failed = [], [], 0
    for op, (result, exc) in zip(ops, outcomes):
        if exc is not None:
            found = [f"{type(exc).__name__}: {exc}"]
        else:
            try:
                found, op_rates = op.check(result)
                rates += op_rates
            except (KeyError, TypeError, ValueError, IndexError, OSError) as err:
                found = [f"unreadable output: {type(err).__name__}: {err}"]
        if found:
            failed += 1
            problems += [f"{op.label}: {p}" for p in found[:3]]

    record.update({
        "run_s": sum(wall for wall, _ in times),
        "cpu_s": sum(cpu for _, cpu in times),
        "run_ref": in_reference_units(times, passes, 0),
        "cpu_ref": in_reference_units(times, passes, 1),
        "ops": [
            {"label": op.label, "run_s": wall, "cpu_s": cpu,
             "run_ref": in_reference_units([(wall, cpu)], [ps], 0),
             "reference_s": [w for w, _ in ps]}
            for op, (wall, cpu), ps in zip(ops, times, passes)
        ],
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": failed,
        "problems": problems[:20],
        "rates": len(rates),
        "mean_rate": float(sum(Fraction(r) for r in rates) / len(rates)) if rates else None,
        "bytes_written": sum(p.stat().st_size for p in out_dir.iterdir()),
        "outputs": digests(out_dir),
    })
    if args.mode == "trace":
        record["trace"] = tracer.metrics()
    elif args.mode == "count":
        record["trace"] = {name: gf2_counts[name] for name in gf2_names}
    args.result.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
