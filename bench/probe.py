"""Scaling probe over the K ladder; not part of the gated workloads.

    python3 bench/probe.py

For each K of the ladder (N = 2 files in two singleton groups, strategy
``beta``, the replication vector below, and the demand with the first
half of the users on file 1) it times one call of each layer.  Every case
runs alone in a fresh process under a wall-clock cap of CAP_S and ends with the
status ``ok``, ``budget`` (the exhaustive search gave up), ``timeout`` (the
cap was hit) or ``failed``; no case is dropped.  ``decodable`` checks the
greedy schedule, which is built first and not timed.  The table goes to
standard output and the cases to ``bench/out/results/probe.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import OUT, ROOT, SRC, environment  # noqa: E402

LADDER = {3: (2, 1), 4: (2, 1), 6: (3, 2), 8: (4, 2), 10: (5, 2)}
LAYERS = ("place", "needed_map", "greedy_schedule", "exhaustive_schedule", "decodable")
CAP_S = 60.0


def demand_for(users: int) -> tuple[int, ...]:
    return tuple(1 if k < users // 2 else 2 for k in range(users))


def run_case(users: int, layer: str) -> dict:
    """Time one layer call in this process (the child side of a case)."""
    import numpy
    import scipy

    import codedcache as cc

    cfg = cc.make_config(users, [1, 1], list(LADDER[users]))
    demand = demand_for(users)
    cache = None if layer == "place" else cc.place(cfg)
    schedule = cc.greedy_schedule(cache, demand) if layer == "decodable" else None
    calls = {
        "place": lambda: cc.place(cfg),
        "needed_map": lambda: cc.needed_map(cache, demand),
        "greedy_schedule": lambda: cc.greedy_schedule(cache, demand),
        "exhaustive_schedule": lambda: cc.exhaustive_schedule(cache, demand),
        "decodable": lambda: cc.decodable(cache, schedule, demand),
    }
    status, detail = "ok", None
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        result = calls[layer]()
    except cc.BudgetExceededError as exc:
        status, detail, result = "budget", str(exc), None
    seconds, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0
    if isinstance(result, cc.DeliverySchedule):
        detail = f"rate {result.rate}, {len(result)} messages"
    elif isinstance(result, cc.DecodeReport):
        status = "ok" if result.ok else "failed"
    return {
        "seconds": seconds,
        "cpu_s": cpu_s,
        "status": status,
        "detail": detail,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def probe(users: int, layer: str) -> dict:
    r = LADDER[users]
    case = {"K": users, "r": list(r), "N": 2, "S": comb(users, r[0]) * comb(r[0], r[1]),
            "layer": layer, "demand": list(demand_for(users))}
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    argv = [sys.executable, str(Path(__file__).resolve()), "--case", str(users), layer]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CAP_S)
    except subprocess.TimeoutExpired:
        return {**case, "status": "timeout", "seconds": time.perf_counter() - start}
    if proc.returncode != 0:
        return {**case, "status": "failed", "detail": proc.stderr.strip()[-300:]}
    return {**case, **json.loads(proc.stdout.strip().splitlines()[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", nargs=2, metavar=("K", "LAYER"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.case:
        print(json.dumps(run_case(int(args.case[0]), args.case[1])))
        return 0

    if not (SRC / "codedcache" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'codedcache'}", file=sys.stderr)
        return 2
    cases = []
    for users in LADDER:
        for layer in LAYERS:
            case = probe(users, layer)
            cases.append(case)
            secs = case.get("seconds")
            shown = f"{secs:9.3f} s" if secs is not None else "        -  "
            print(f"K={users:<2} r={tuple(case['r'])} S={case['S']:<5} {layer:20s} "
                  f"{case['status']:8s} {shown}  {case.get('detail') or ''}", flush=True)
    first = next((c for c in cases if "numpy" in c), None)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / "probe.json"
    record = {"environment": environment(None, first), "cap_s": CAP_S, "cases": cases}
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"results: {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
