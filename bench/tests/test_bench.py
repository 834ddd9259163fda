"""Tests of the benchmark itself: span arithmetic, wrapper installation,
the correctness checks, and the runner's contract.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import child  # noqa: E402
import tracing  # noqa: E402

import codedcache  # noqa: E402
from codedcache import cli, delivery, placement, rates  # noqa: E402


@pytest.fixture
def pristine():
    """Undo wrapper installation: restore every package module's globals."""
    modules = {n: m for n, m in sys.modules.items() if n.startswith("codedcache")}
    saved = {n: dict(vars(m)) for n, m in modules.items()}
    schedulers = dict(delivery.SCHEDULERS)
    yield
    for name, module in modules.items():
        vars(module).update(saved[name])
    delivery.SCHEDULERS.clear()
    delivery.SCHEDULERS.update(schedulers)


UNIFORM = ["1/2", "1/2"]


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------


def test_self_time_subtracts_nested_spans():
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 2.0

    leaf = tracer.wrap("x.leaf", leaf)

    def middle():
        now[0] += 1.0
        leaf()
        now[0] += 0.5

    middle = tracer.wrap("x.middle", middle)

    def top():
        now[0] += 3.0
        middle()
        leaf()

    tracer.wrap("x.top", top)()
    assert tracer.self_s["x.leaf"] == 4.0
    assert tracer.self_s["x.middle"] == 1.5
    assert tracer.self_s["x.top"] == 3.0
    assert sum(tracer.self_s.values()) == now[0]
    assert tracer.calls == {"x.leaf": 2, "x.middle": 1, "x.top": 1}


def test_self_time_kept_when_a_span_raises():
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0])

    def failing():
        now[0] += 2.0
        raise codedcache.BudgetExceededError("budget")

    inner = tracer.wrap("delivery.exhaustive_schedule", failing)

    def outer():
        now[0] += 1.0
        with pytest.raises(codedcache.BudgetExceededError):
            inner()

    tracer.wrap("x.outer", outer)()
    assert tracer.self_s["delivery.exhaustive_schedule"] == 2.0
    assert tracer.self_s["x.outer"] == 1.0
    assert tracer.counts["delivery.exhaustive_schedule.budget"] == 1


def test_reference_units_divide_each_operation_by_its_passes():
    times = [(2.0, 1.0), (6.0, 3.0)]
    passes = [[(1.0, 0.5), (3.0, 1.5)], [(3.0, 1.5), (1.0, 0.5), (2.0, 1.0)]]
    # 2 / mean(1, 3) + 6 / mean(3, 1, 2) = 1 + 3
    assert child.in_reference_units(times, passes, 0) == 4.0
    assert child.in_reference_units(times, passes, 1) == 4.0


def test_setup_is_rescaled_to_the_nominal_pass():
    nominal = child.NOMINAL_PASS_S
    # passes twice the nominal length: the host runs at half speed
    half = 2.0**-child.SETUP_SPEED_EXPONENT
    assert child.scaled_setup(1.0, [2 * nominal, 2 * nominal]) == pytest.approx(half)
    assert child.scaled_setup(3.0, [2 * nominal, 2 * nominal]) == pytest.approx(3 * half)
    assert child.scaled_setup(1.0, [nominal / 2, 1.5 * nominal]) == pytest.approx(1.0)


def test_sampled_passes_are_taken_off_the_operation():
    def slow():
        end = time.perf_counter() + 0.6
        while time.perf_counter() < end:
            pass
        return 0

    op = child.Op("spin", slow, lambda result: ([], []))
    outcomes, times, passes = child.run_ops([op], sample=True)
    assert outcomes == [(0, None)]
    assert len(passes[0]) >= 3  # before, at least one inside, after
    inside = sum(w for w, _ in passes[0][1:-1])
    assert abs(times[0][0] + inside - 0.6) < 0.05


# ---------------------------------------------------------------------------
# Wrapper installation
# ---------------------------------------------------------------------------


def test_install_reaches_every_binding(pristine, tmp_path):
    greedy = delivery.greedy_schedule
    exhaustive = delivery.exhaustive_schedule
    place_beta = placement.place_beta
    tracer = tracing.Tracer()
    installed = tracer.install()
    assert installed == tracing.function_names()

    assert delivery.SCHEDULERS["greedy"] is not greedy
    assert delivery.SCHEDULERS["greedy"].__wrapped__ is greedy
    for module in (cli, rates, codedcache):
        assert module.exhaustive_schedule.__wrapped__ is exhaustive
    assert cli.load_config.__wrapped__ is not None
    assert placement.place_beta.__wrapped__ is place_beta

    cfg = str(child.write_config(tmp_path / "k3.json", 3, [1, 1], [2, 1], UNIFORM))
    out = tmp_path / "d.json"
    assert cli.main(["deliver", cfg, "--demand", "1,1,2", "--verify", "--out", str(out)]) == 0
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["delivery.greedy_schedule"] == 1
    assert tracer.calls["delivery.decodable"] == 1
    assert tracer.calls["placement.place_beta"] == 1
    assert tracer.counts["delivery.schedules"] == 1
    assert tracer.counts["combinatorics.pieces"] == 2 * 6

    sweep = ["rates", cfg, "--m-sweep", "--strategies", "beta", "--csv", str(tmp_path / "m.csv")]
    assert cli.main(sweep) == 0
    assert tracer.calls["delivery.exhaustive_schedule"] > 0
    assert tracer.calls["rates.beta_points"] == 1


def test_removed_name_is_absent_not_fatal(pristine, monkeypatch):
    monkeypatch.setitem(tracing.LAYER_FUNCTIONS, "delivery", ("greedy_schedule", "gone"))
    monkeypatch.setitem(tracing.LAYER_FUNCTIONS, "vanished", ("anything",))
    tracer = tracing.Tracer()
    tracer.install()
    metrics = tracer.metrics()
    assert "delivery.greedy_schedule.calls" in metrics
    assert not any(k.startswith(("delivery.gone", "vanished.")) for k in metrics)
    assert "delivery.verify_failed" not in metrics  # its source, decodable, is not wrapped


def test_gf2_counters_count_calls():
    from codedcache.gf2 import GF2Basis

    originals = {m: vars(GF2Basis)[m] for m in tracing.GF2_METHODS}
    try:
        counts = Counter()
        names = tracing.install_gf2_counters(counts)
        basis = GF2Basis()
        basis.add(0b101)
        basis.copy().contains(0b100)
        assert names == [f"gf2.GF2Basis.{m}.calls" for m in tracing.GF2_METHODS]
        assert counts["gf2.GF2Basis.add.calls"] == 1
        assert counts["gf2.GF2Basis.copy.calls"] == 1
        assert counts["gf2.GF2Basis.reduce.calls"] == 2
    finally:
        for method, fn in originals.items():
            setattr(GF2Basis, method, fn)


# ---------------------------------------------------------------------------
# Correctness checks fail on corrupted outputs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def deliver_payload(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("deliver")
    cfg = str(child.write_config(tmp / "k4.json", 4, [1, 1], [2, 1], UNIFORM))
    out = tmp / "all.json"
    assert cli.main(["deliver", cfg, "--all-demands", "--verify", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def coded_summand(payload):
    """First summand of the first message that XORs two or more pieces."""
    for entry in payload["schedules"]:
        for message in entry["messages"]:
            if len(message["summands"]) > 1:
                return message["summands"][0]
    raise AssertionError("no coded message")


def test_deliver_check_accepts_real_output(deliver_payload):
    assert checks.check_deliver(deliver_payload, 4, child.all_demands(4)) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda p: p["schedules"][3].update(verified=False),
        lambda p: p["schedules"][5].update(rate="0/1"),
        lambda p: p["schedules"][5]["messages"].pop(),
        lambda p: p["schedules"][2].update(demand=[2, 2, 2, 2]),
        lambda p: p["schedules"].pop(),
        lambda p: coded_summand(p).update(chains=[[1, 2, 3]]),
    ],
    ids=["unverified", "rate", "dropped-message", "demand", "missing-schedule", "mixed-sizes"],
)
def test_deliver_check_rejects_corruption(deliver_payload, corrupt):
    payload = copy.deepcopy(deliver_payload)
    corrupt(payload)
    assert checks.check_deliver(payload, 4, child.all_demands(4))


def test_piece_size_is_the_multinomial():
    assert checks.piece_size(3, [[1, 2], [1]]) == Fraction(1, 6)
    assert checks.piece_size(10, [[1, 2, 3, 4, 5], [1, 2], [1]]) == Fraction(1, 5040)
    assert checks.piece_size(6, [[1, 2]]) == Fraction(1, 15)


@pytest.fixture(scope="module")
def certify_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("certify")
    cfg = child.write_config(tmp / "k3.json", 3, [1, 1], [1, 1], ["7/10", "3/10"])
    out = tmp / "m.csv"
    argv = ["rates", str(cfg), "--m-sweep", "--strategies", "beta", "--csv", str(out)]
    assert cli.main(argv) == 0
    return checks.read_csv(out)


def certify_problems(header, rows):
    reference = rates.lower_envelope(rates.memory_rate_table(Fraction(7, 10))).value
    problems = checks.check_curves(header, rows, ["M", "R_beta"])
    return problems + checks.check_column(rows, 1, reference, checks.memory_value)


def test_certify_check_accepts_real_output(certify_csv):
    assert certify_problems(*certify_csv) == []


def test_certify_check_rejects_wrong_cell(certify_csv):
    header, rows = copy.deepcopy(certify_csv)
    rows[1][1] = f"{float(rows[1][1]) * 0.999:.12g}"  # still non-increasing
    assert certify_problems(header, rows)


def test_certify_check_rejects_rising_column(certify_csv):
    header, rows = copy.deepcopy(certify_csv)
    rows[-1][1] = "5"
    assert checks.check_curves(header, rows, ["M", "R_beta"])


def test_curve_check_rejects_wrong_header_and_unordered_grid(certify_csv):
    header, rows = copy.deepcopy(certify_csv)
    assert checks.check_curves(["M", "R_alpha"], rows, ["M", "R_beta"])
    rows[0], rows[1] = rows[1], rows[0]
    assert checks.check_curves(header, rows, ["M", "R_beta"])
    assert checks.check_curves(header, [], ["M", "R_beta"])


def test_p_grid_check_rejects_a_changed_digit(tmp_path):
    cfg = str(child.write_config(tmp_path / "ref.json", 3, [1, 1], [2, 1], UNIFORM))
    out = tmp_path / "p.csv"
    assert cli.main(["rates", cfg, "--p-grid", "0.5:1:0.05", "--csv", str(out)]) == 0
    header, rows = checks.read_csv(out)
    assert checks.check_column(rows, 1, rates.rate_alpha_closed, float) == []
    assert checks.check_column(rows, 2, rates.rate_beta_closed, float) == []
    cell = rows[4][2]
    rows[4][2] = cell[:-1] + ("1" if cell[-1] != "1" else "2")
    assert checks.check_column(rows, 2, rates.rate_beta_closed, float)


def test_expected_distinct_files():
    assert checks.expected_distinct(["1/2", "1/2"], 2) == Fraction(3, 2)
    assert checks.expected_distinct(["1"], 5) == 1
    assert checks.expected_distinct(["1/4"] * 4, 1) == 1


@pytest.fixture(scope="module")
def alpha_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("alpha")
    cfg = child.write_config(tmp / "k3.json", 3, [1, 1], [2, 1], ["7/10", "3/10"], "alpha")
    out = tmp / "m.csv"
    argv = ["rates", str(cfg), "--m-sweep", "--strategies", "alpha", "--csv", str(out)]
    assert cli.main(argv) == 0
    return checks.read_csv(out)


def alpha_end_problems(rows):
    return checks.check_sweep_ends(rows, 1, checks.expected_distinct(["7/10", "3/10"], 3), 2)


def test_sweep_ends_check_accepts_real_output(alpha_csv):
    assert alpha_end_problems(alpha_csv[1]) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda rows: rows[0].__setitem__(1, f"{float(rows[0][1]) * 0.999:.12g}"),
        lambda rows: rows[-1].__setitem__(1, "0.001"),
        lambda rows: rows.pop(),
        lambda rows: rows.pop(0),
    ],
    ids=["rate-at-zero", "rate-at-full", "missing-last", "missing-first"],
)
def test_sweep_ends_check_rejects_corruption(alpha_csv, corrupt):
    rows = copy.deepcopy(alpha_csv[1])
    corrupt(rows)
    assert alpha_end_problems(rows)


@pytest.fixture(scope="module")
def small_cache():
    cfg = codedcache.make_config(5, [1, 2], [3, 1])
    return cfg, codedcache.place(cfg)


def test_roundtrip_check(small_cache):
    cfg, cache = small_cache
    loaded = codedcache.cache_from_json(json.loads(json.dumps(codedcache.cache_to_json(cache))))
    assert checks.check_roundtrip(loaded, cache, cfg.users, cfg.memory) == []

    data = codedcache.cache_to_json(cache)
    data["users"][2]["entries"].pop()
    damaged = codedcache.cache_from_json(data)
    problems = checks.check_roundtrip(damaged, cache, cfg.users, cfg.memory)
    assert any("differs" in p for p in problems)
    assert any("user 3" in p for p in problems)


def test_needed_check(small_cache):
    _, cache = small_cache
    demand = (1, 2, 3, 1, 2)
    needed = codedcache.needed_map(cache, demand)
    assert checks.check_needed(needed, cache, demand) == []

    short = dict(needed)
    short[2] = frozenset(list(needed[2])[1:])
    assert checks.check_needed(short, cache, demand)
    cached = dict(needed)
    cached[1] = needed[1] | {next(iter(cache.user_cache(1)))}
    assert checks.check_needed(cached, cache, demand)
    assert checks.check_needed({1: needed[1]}, cache, demand)


# ---------------------------------------------------------------------------
# Runner contract
# ---------------------------------------------------------------------------


def test_runner_fails_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "alpha-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_runner_prints_result_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "alpha-sweep", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    gated = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in gated}
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert all(line["metrics"][m["name"]]["unit"] == m["unit"] for m in gated)
