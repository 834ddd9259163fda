"""Benchmark of ``codedcache``: four workloads through the public CLI.

    python3 bench/run.py --workload greedy-deliver --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout; the package is imported from its
``src``.  Each repetition runs in a fresh child process (``child.py``),
one at a time, until the next one would pass ``--seconds``.  With
``--trace 0`` the end-to-end metrics are the medians over repetitions;
with ``--trace 1`` every round runs the workload three times, untraced,
with spans around the package's public functions, and with GF(2) call
counters, and the per-layer metrics are reported.  Every output is checked;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A results file with the run
environment and every repetition goes to ``bench/out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from child import WORKLOADS  # noqa: E402

# Medians over repetitions.  The gated metrics (BENCHMARK.json) are
# GATED; the raw setup_wall_s, run_s and cpu_s are printed and stored too,
# but wall time on a shared host swings too much between runs to gate on
# (see README.md).
TIMINGS = {
    "setup_s": "s",
    "setup_wall_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "run_ref": "ref",
    "cpu_ref": "ref",
    "peak_rss_mb": "MiB",
}
GATED = ("setup_s", "run_ref", "cpu_ref", "peak_rss_mb")
SETUP_TIMINGS = ("setup_s", "setup_wall_s")
# Untraced runs start with this many set-up-only children, so that setup_s
# is a median over that many more samples than there are rounds.
EXTRA_SETUPS = 6
CHILD_LIMIT_S = 170  # the whole run has to end within 180 s


class ChildFailed(Exception):
    pass


def run_child(workload: str, seed: int, mode: str, rep: int, timeout: float) -> dict:
    """One repetition in a fresh process; returns its result record."""
    work = OUT / f"work-{os.getpid()}-{rep}-{mode}"
    result = OUT / f"rep-{os.getpid()}-{rep}-{mode}.json"
    shutil.rmtree(work, ignore_errors=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(PYTHONHASHSEED="0", CODEDCACHE_THREADS="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode]
    try:
        t0 = time.monotonic()
        proc = subprocess.run(
            argv + [repr(t0), str(work), str(result)],
            env=env,
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(timeout, 1.0),
        )
        if proc.returncode != 0:
            detail = proc.stderr.strip()[-500:]
            raise ChildFailed(f"{mode} child exited {proc.returncode}: {detail}")
        record = json.loads(result.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child timed out after {exc.timeout:.0f} s") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)
        result.unlink(missing_ok=True)
    if not Path(record["package"]).resolve().is_relative_to(SRC.resolve()):
        raise ChildFailed(f"child imported codedcache from {record['package']}")
    return record


def repetitions(workload: str, seed: int, seconds: float, modes: tuple[str, ...], extra: int):
    """`extra` set-up-only children, then rounds of children (one per mode)
    until the next round would not fit."""
    start = time.monotonic()
    setups: list[dict] = []
    rounds: list[dict[str, dict]] = []
    errors: list[str] = []
    try:
        for i in range(extra):
            setups.append(
                run_child(workload, seed, "setup", i, CHILD_LIMIT_S - (time.monotonic() - start))
            )
        rounds_start = time.monotonic()
        while True:
            spent = time.monotonic() - start
            rounds.append(
                {m: run_child(workload, seed, m, len(rounds), CHILD_LIMIT_S - spent) for m in modes}
            )
            per_round = (time.monotonic() - rounds_start) / len(rounds)
            if time.monotonic() - start + per_round > seconds:
                break
    except ChildFailed as exc:
        errors.append(str(exc))
    return setups, rounds, errors


def median(values):
    return statistics.median(values) if values else None


def environment(seed: int, first: dict | None) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    sources = hashlib.sha256()
    for path in sorted((SRC / "codedcache").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "numpy": first and first["numpy"],
        "scipy": first and first["scipy"],
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def summarize(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    modes = ("plain", "trace", "count") if trace else ("plain",)
    extra = 0 if trace else EXTRA_SETUPS
    setups, rounds, errors = repetitions(workload, seed, seconds, modes, extra)
    plain = [r["plain"] for r in rounds]
    children = [c for r in rounds for c in r.values()]
    attempted = sum(c["attempted"] for c in children) + len(errors)
    failed = sum(c["failed"] for c in children) + len(errors)
    problems = errors + [p for c in children for p in c["problems"]]
    digests = {json.dumps(c["outputs"], sort_keys=True) for c in children}
    if len(digests) > 1:
        problems.append("outputs differ between repetitions of the same seed")

    timings = {name: median([c[name] for c in plain]) for name in TIMINGS}
    if plain:
        timings.update({name: median([c[name] for c in setups + plain]) for name in SETUP_TIMINGS})
    if trace:
        metrics = layer_metrics(rounds)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {name: timings[name] for name in GATED}
        units = TIMINGS
    correct = bool(rounds) and failed == 0 and not problems and None not in metrics.values()
    return {
        "workload": workload,
        "environment": environment(seed, plain[0] if plain else None),
        "seconds": seconds,
        "trace": trace,
        "rounds": len(rounds),
        "setups": len(setups) + len(plain),
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "error_rate": failed / max(attempted, 1),
        "mean_rate": plain[0]["mean_rate"] if plain else None,
        "timings": {name: {"value": v, "unit": TIMINGS[name]} for name, v in timings.items()},
        "problems": problems[:50],
        "outputs": plain[0]["outputs"] if plain else {},
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "setup_only": setups,
        "repetitions": rounds,
    }


def layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "bytes" if name.endswith("bytes_written") else "count"


def layer_metrics(rounds: list[dict[str, dict]]) -> dict:
    """Medians over rounds of the traced and counting children's numbers."""
    if not rounds:
        return {}
    traced = [r["trace"] for r in rounds]
    out = {}
    for name in list(traced[0]["trace"]) + list(rounds[0]["count"]["trace"]):
        source = "count" if name.startswith("gf2.") else "trace"
        values = [r[source]["trace"][name] for r in rounds]
        # counts repeat exactly from round to round; keep them whole
        out[name] = median(values) if name.endswith("_s") else statistics.median_low(values)
    out["cli.bytes_written"] = statistics.median_low([r["plain"]["bytes_written"] for r in rounds])
    traced_run = median([t["run_s"] for t in traced])
    out["trace.run_s"] = traced_run
    out["trace.overhead_s"] = traced_run - median([r["plain"]["run_s"] for r in rounds])
    # time in no wrapped function: run_s minus the sum of all self times
    out["trace.outside_s"] = median(
        [t["run_s"] - sum(v for k, v in t["trace"].items() if k.endswith(".self_s"))
         for t in traced]
    )
    return out


def show(value, spec: str) -> str:
    return "-" if value is None else format(value, spec)


def report(summary: dict) -> None:
    """Human-readable table; the JSON line comes after it."""
    print(f"workload {summary['workload']}  seed {summary['environment']['seed']}  "
          f"rounds {summary['rounds']}  trace {int(summary['trace'])}  "
          f"correct {summary['correct']}")
    metrics = summary["metrics"]
    if summary["trace"]:
        selfs = {k[: -len(".self_s")]: m["value"] for k, m in metrics.items()
                 if k.endswith(".self_s") and k.count(".") == 2}
        for name in sorted(selfs, key=selfs.get, reverse=True):
            calls = metrics.get(f"{name}.calls", {}).get("value")
            print(f"  {name:36s} {show(selfs[name], '10.4f')} s  {show(calls, '>8')} calls")
        for name, m in metrics.items():
            if not name.endswith((".self_s", ".calls")) or name.startswith("gf2."):
                print(f"  {name:36s} {show(m['value'], '>12')} {m['unit']}")
    else:
        for name, m in summary["timings"].items():
            gated = "gated, " if name in GATED else ""
            samples = summary["setups"] if name in SETUP_TIMINGS else summary["rounds"]
            print(f"  {name:12s} {show(m['value'], '10.4f')} {m['unit']:4s} "
                  f"({gated}median of {samples})")
    print(f"  {'error_rate':12s} {summary['error_rate']:10.4f} fraction  "
          f"({summary['failed']}/{summary['attempted']})")
    if summary["mean_rate"] is not None:
        print(f"  {'mean_rate':12s} {summary['mean_rate']:10.6f} file units")
    for problem in summary["problems"][:10]:
        print(f"  problem: {problem}")


def write_results(summary: dict, seed: int, trace: bool) -> Path:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{summary['workload']}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "codedcache" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'codedcache'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for name in names:
        summary = summarize(name, args.seed, args.seconds, bool(args.trace))
        path = write_results(summary, args.seed, bool(args.trace))
        report(summary)
        print(f"  results: {path.relative_to(ROOT)}")
        summaries.append(summary)

    prefix = len(names) > 1
    line = {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {
            (f"{s['workload']}.{k}" if prefix else k): v
            for s in summaries
            for k, v in s["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
