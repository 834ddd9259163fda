import csv
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from codedcache import (
    DeliverySchedule,
    ValidationError,
    cache_from_json,
    delivery,
    place_beta,
    toy_config,
)
from codedcache.cli import _parse_grid, main
from codedcache.rates import rate_alpha_closed, rate_beta_closed

TOY = {
    "K": 3,
    "strategy": "beta",
    "groups": [{"size": 1, "r": 2}, {"size": 1, "r": 1}],
    "popularity": ["153/200", "47/200"],
}


@pytest.fixture
def toy_path(tmp_path: Path) -> Path:
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(TOY), encoding="utf-8")
    return path


def test_place_writes_cache_and_manifest(toy_path, tmp_path):
    out = tmp_path / "cache.json"
    assert main(["place", str(toy_path), "--out", str(out)]) == 0
    cache = cache_from_json(json.loads(out.read_text()))
    assert cache == place_beta(toy_config(Fraction(153, 200)))
    manifest = json.loads((tmp_path / "cache.manifest.json").read_text())
    assert manifest["command"] == "place"
    assert manifest["tool"] == "codedcache"
    assert manifest["seed"] is None
    assert manifest["outputs"] == [str(out)]


def test_place_empty_config(toy_path, tmp_path):
    cfg = dict(TOY, groups=[{"size": 1, "r": 0}, {"size": 1, "r": 0}])
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "cache.json"
    assert main(["place", str(path), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert all(not u["entries"] for u in data["users"])


def test_place_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    assert main(["place", str(bad), "--out", str(tmp_path / "x.json")]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change, says",
    [
        ({"K": "3"}, "user count must be an integer"),
        ({"K": 3.0}, "user count must be an integer"),
        # r <= 1, so a K read as 1 would place without complaint
        ({"K": True, "groups": [{"size": 1, "r": 1}, {"size": 1, "r": 0}]}, "user count"),
        ({"groups": [{"size": 1.5, "r": 2}, {"size": 1, "r": 1}]}, "group size must be"),
        ({"groups": [{"size": 1, "r": "2"}, {"size": 1, "r": 1}]}, "replication must be"),
        ({"popularity": ["x", "47/200"]}, "'x' is not a number"),
        ({"popularity": ["1/0", "1"]}, "'1/0' is not a number"),
        ({"popularity": [float("nan"), 1.0]}, "nan is not a number"),
        ({"popularity": [True, False]}, "True is not a number"),
        # an entry past the digits str() converts, and one past float's range
        ({"popularity": ["1e4300", "0"]}, "entries must be in [0, 1]"),
        ({"popularity": ["1e400", 0.5]}, "entries must be in [0, 1]"),
        ({"popularity": ["1e-4300", "1"]}, "must sum to 1"),
        ({"strategy": "gamma"}, "unknown strategy 'gamma'"),
        ({"groups": []}, "at least one group is required"),
        (
            {"strategy": "alpha", "groups": [{"size": 1, "r": 4}, {"size": 1, "r": 1}]},
            "group replication 4 outside [0, 3]",
        ),
    ],
    ids=[
        "K-str", "K-float", "K-bool", "size-float", "r-str",
        "pop-word", "pop-div0", "pop-nan", "pop-bool",
        "pop-huge", "pop-huge-float", "pop-long-sum",
        "strategy-unknown", "groups-empty", "alpha-r-beyond-K",
    ],
)
def test_place_malformed_config_field_exits_2(tmp_path, capsys, change, says):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(TOY, **change)), encoding="utf-8")
    out = tmp_path / "cache.json"
    assert main(["place", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and says in err
    assert not out.exists()


@pytest.mark.parametrize(
    "content",
    [b'\xff\xfe{"K":3}', b"[" * 100_000],
    ids=["not-utf8", "nested-too-deep"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["place", "{cfg}", "--out", "{tmp}/cache.json"],
        ["deliver", "{cfg}", "--demand", "1,1,2"],
        ["rates", "{cfg}", "--p-grid", "0.5"],
    ],
    ids=["place", "deliver", "rates"],
)
def test_undecodable_config_exits_2(tmp_path, capsys, content, argv):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main([a.format(cfg=path, tmp=tmp_path) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["place", "{tmp}/missing.json", "--out", "{tmp}/cache.json"],
        ["place", "{toy}", "--out", "{tmp}/no-dir/cache.json"],
        ["rates", "{toy}", "--p-grid", "0.5", "--csv", "{tmp}/no-dir/rates.csv"],
    ],
    ids=["place-missing-config", "place-out-missing-dir", "rates-csv-missing-dir"],
)
def test_unusable_path_exits_2(toy_path, tmp_path, capsys, argv):
    argv = [a.format(tmp=tmp_path, toy=toy_path) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


# sha256 of the `place --out` file for the two K = 10 configs that the
# benchmark writes, taken before the cache JSON was rendered from the masks
PLACE_OUT_GOLDEN = [
    ("beta", [1, 2, 2], [5, 2, 1], "bf8fe37dd964dc50cdf630f5227d34cee442f0d0d3d39008d1a927c367ef0105"),
    ("alpha", [2, 3], [4, 1], "6aa015552786833274daae95e726858a3a2b236e3171c9a0d3d63f5bf01d0771"),
]


def _k10_config(tmp_path, strategy, sizes, r) -> Path:
    # the placement ignores popularity, so uniform stands in for any
    cfg = {
        "K": 10,
        "strategy": strategy,
        "groups": [{"size": n, "r": v} for n, v in zip(sizes, r)],
        "popularity": [f"1/{sum(sizes)}"] * sum(sizes),
    }
    path = tmp_path / "k10.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


@pytest.mark.parametrize("strategy, sizes, r, digest", PLACE_OUT_GOLDEN, ids=["beta", "alpha"])
def test_place_out_bytes_pinned(tmp_path, strategy, sizes, r, digest):
    path, out = _k10_config(tmp_path, strategy, sizes, r), tmp_path / "k10-cache.json"
    assert main(["place", str(path), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_place_out_never_holds_the_whole_file(tmp_path):
    # the file is written one user record at a time: a text of the whole
    # file, and its encoded bytes, would each be as large as the file
    strategy, sizes, r, _ = PLACE_OUT_GOLDEN[0]
    path, out = _k10_config(tmp_path, strategy, sizes, r), tmp_path / "k10-cache.json"
    tracemalloc.start()
    try:
        assert main(["place", str(path), "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size, (peak, out.stat().st_size)


def test_place_out_replaces_a_longer_file(toy_path, tmp_path):
    # the streamed write truncates: nothing of the K = 10 file is left
    strategy, sizes, r, _ = PLACE_OUT_GOLDEN[0]
    out, fresh = tmp_path / "cache.json", tmp_path / "fresh.json"
    assert main(["place", str(_k10_config(tmp_path, strategy, sizes, r)), "--out", str(out)]) == 0
    assert main(["place", str(toy_path), "--out", str(out)]) == 0
    assert main(["place", str(toy_path), "--out", str(fresh)]) == 0
    assert out.read_bytes() == fresh.read_bytes()


def test_deliver_toy_demand(toy_path, tmp_path):
    out = tmp_path / "sched.json"
    rc = main(
        [
            "deliver", str(toy_path),
            "--demand", "A,A,B",
            "--scheduler", "toy",
            "--verify",
            "--out", str(out),
        ]
    )
    assert rc == 0
    data = json.loads(out.read_text())
    assert len(data["messages"]) == 4
    assert data["rate"] == "2/3"
    assert data["verified"] is True


def test_deliver_print_text_lists_the_messages(toy_path, capsys):
    argv = ["deliver", str(toy_path), "--demand", "A,A,B", "--scheduler", "toy", "--print-text"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "demand (1, 1, 2): rate 2/3",
        "  A_{23,2} + B_{12,1}",
        "  A_{23,3} + B_{13,1}",
        "  A_{13,1} + B_{12,2}",
        "  A_{13,3} + B_{23,2}",
    ]


def test_deliver_print_text_all_demands_lists_every_request_vector(toy_path, capsys):
    assert main(["deliver", str(toy_path), "--all-demands", "--print-text"]) == 0
    cache = place_beta(toy_config(Fraction(153, 200)))
    expected = []
    for demand in itertools.product((1, 2), repeat=3):
        schedule = delivery.greedy_schedule(cache, demand)
        rate = schedule.rate
        expected.append(f"demand {demand}: rate {rate.numerator}/{rate.denominator}")
        expected += [f"  {line}" for line in delivery.schedule_text(schedule, 3)]
    assert capsys.readouterr().out.splitlines() == expected


@pytest.mark.parametrize(
    "strategy, r", [("beta", (3, 0)), ("alpha", (2, 1))], ids=["beta-r30", "alpha-r21"]
)
@pytest.mark.parametrize("verify", [[], ["--verify"]], ids=["plain", "verify"])
def test_deliver_toy_on_other_placement_exits_2(tmp_path, capsys, strategy, r, verify):
    cfg = dict(TOY, strategy=strategy, groups=[{"size": 1, "r": r[0]}, {"size": 1, "r": r[1]}])
    path = tmp_path / "other.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    argv = ["deliver", str(path), "--demand", "1,1,2", "--scheduler", "toy", *verify]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "reference placement" in captured.err
    assert captured.out == ""


def test_deliver_letters_and_numbers_agree(toy_path, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["deliver", str(toy_path), "--demand", "A,B,B", "--scheduler", "toy", "--out", str(out1)]) == 0
    assert main(["deliver", str(toy_path), "--demand", "1,2,2", "--scheduler", "toy", "--out", str(out2)]) == 0
    assert json.loads(out1.read_text()) == json.loads(out2.read_text())


def test_deliver_out_of_range_demand_exits_2(toy_path, capsys):
    assert main(["deliver", str(toy_path), "--demand", "A,A,C", "--scheduler", "toy"]) == 2
    assert "outside" in capsys.readouterr().err


def test_deliver_all_demands_verified(toy_path, tmp_path):
    out = tmp_path / "all.json"
    rc = main(
        [
            "deliver", str(toy_path),
            "--all-demands",
            "--scheduler", "exhaustive",
            "--verify",
            "--out", str(out),
        ]
    )
    assert rc == 0
    data = json.loads(out.read_text())
    assert len(data["schedules"]) == 8
    assert all(s["verified"] for s in data["schedules"])


@pytest.mark.parametrize(
    "demand, says",
    [
        ("A,A", "2 entries for 3 users"),
        ("1,1,2,1", "4 entries"),
        ("0,1,1", "outside"),
        ("A,?,B", "demand entry '?' is not a file"),
    ],
)
def test_deliver_demand_count_and_range_exit_2(toy_path, capsys, demand, says):
    assert main(["deliver", str(toy_path), "--demand", demand]) == 2
    assert says in capsys.readouterr().err


def test_deliver_verify_failure_exits_3(toy_path, tmp_path, capsys, monkeypatch):
    # a scheduler that sends nothing to any demand for file 2 fails there
    greedy = delivery.SCHEDULERS["greedy"]

    def broken(cache, demand):
        return DeliverySchedule((), Fraction(0)) if 2 in demand else greedy(cache, demand)

    monkeypatch.setitem(delivery.SCHEDULERS, "greedy", broken)
    out = tmp_path / "all.json"
    assert main(["deliver", str(toy_path), "--all-demands", "--verify", "--out", str(out)]) == 3
    demands = list(itertools.product((1, 2), repeat=3))
    failing = [d for d in demands if 2 in d]
    assert len(failing) == 7
    err = capsys.readouterr().err.splitlines()
    assert err == [f"verification FAILED for demand {d}" for d in failing]
    schedules = json.loads(out.read_text())["schedules"]
    assert [tuple(s["demand"]) for s in schedules] == demands
    assert [s["verified"] for s in schedules] == [d not in failing for d in demands]


def test_deliver_all_demands_of_one_file_keeps_the_list(tmp_path):
    # one file gives one request vector; --all-demands still writes a list
    cfg = dict(TOY, groups=[{"size": 1, "r": 1}], popularity=["1"])
    path = tmp_path / "one.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "all.json"
    assert main(["deliver", str(path), "--all-demands", "--verify", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert [s["demand"] for s in data["schedules"]] == [[1, 1, 1]]
    assert data["schedules"][0]["verified"]


def test_deliver_budget_exit_4(tmp_path, capsys):
    # 2**13 = 8192 request vectors exceed the 4096 that --all-demands schedules
    cfg = dict(TOY, K=13, groups=[{"size": 2, "r": 0}], popularity=["1/2", "1/2"])
    path = tmp_path / "k13.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    rc = main(["deliver", str(path), "--all-demands", "--scheduler", "exhaustive"])
    assert rc == 4
    assert "limit" in capsys.readouterr().err


def test_deliver_exhaustive_past_the_message_budget_exits_4_at_once(tmp_path, capsys):
    # the piece-count bound, 435, exceeds the 12-message budget, so the
    # search gives up before it lists any candidate message
    cfg = dict(TOY, K=8, groups=[{"size": 1, "r": 4}, {"size": 1, "r": 2}])
    path = tmp_path / "k8.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    argv = ["deliver", str(path), "--demand", "1,2,1,2,1,2,1,2", "--scheduler", "exhaustive"]
    assert main(argv) == 4
    assert "no schedule within 12 messages" in capsys.readouterr().err


# sha256 of the `deliver --out` file, taken while the CLI still wrote
# json.dumps(..., indent=2) of one dict per message.  The alpha configs
# mix piece sizes; K = 10 pins the {1,2} brace form of the message labels.
DELIVER_OUT_GOLDEN = [
    ("beta", 4, [1, 1], [2, 1], ["--all-demands", "--verify"],
     "b1588ed4a090a4cef75a45effabb285946e6179062bb90601177654f55603be1"),
    ("alpha", 6, [1, 1], [3, 2], ["--demand", "1,2,1,1,2,2", "--verify"],
     "a71fbfacaa9da5db27a21ea977f414a5717a5225b9ea056278eef791d55bc0dc"),
    ("alpha", 6, [1, 1], [3, 2], ["--demand", "1,2,1,1,2,2"],
     "ee74d95f9a166bf07137f70a7dd9b78bf4e922cfb082343280969c635df852a0"),
    ("alpha", 10, [2], [2], ["--demand", "1,2,2,1,1,2,1,2,2,1", "--verify"],
     "253f17c2e652f4d30aa704b4dc62d795c7d6607d7a6edea1e10755bdf946419d"),
]


@pytest.mark.parametrize(
    "strategy, users, sizes, r, argv, digest",
    DELIVER_OUT_GOLDEN,
    ids=["beta-K4-all", "alpha-K6-verify", "alpha-K6-plain", "alpha-K10"],
)
def test_deliver_out_bytes_pinned(tmp_path, capsys, strategy, users, sizes, r, argv, digest):
    cfg = {
        "K": users,
        "strategy": strategy,
        "groups": [{"size": n, "r": v} for n, v in zip(sizes, r)],
        "popularity": [f"1/{sum(sizes)}"] * sum(sizes),
    }
    path, out = tmp_path / "cfg.json", tmp_path / "sched.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["deliver", str(path), *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    capsys.readouterr()
    assert main(["deliver", str(path), *argv]) == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")


def test_rates_p_grid_single_point(toy_path, capsys):
    assert main(["rates", str(toy_path), "--p-grid", "1.0"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "p,R_alpha,R_beta"
    assert out[1] == "1,0,0"


@pytest.mark.parametrize(
    "grid, code, stderr",
    [
        ("0.5:1:0.25", 0, ""),
        ("nan:1:0.1", 2, "error:"),
        ("0.5:1:nan", 2, "error:"),
        ("0.5:inf:0.1", 2, "error:"),
        ("0.5:1:abc", 2, "error:"),
        ("0.5:1:1e-9", 4, "resource limit:"),
        ("1:2", 2, "error: grid must be start:stop:step"),
        ("1:0.5:0.1", 2, "error: bad grid"),
    ],
)
def test_rates_p_grid_exit_codes(toy_path, capsys, grid, code, stderr):
    assert main(["rates", str(toy_path), "--p-grid", grid]) == code
    captured = capsys.readouterr()
    assert stderr in captured.err
    if code == 0:
        assert len(captured.out.splitlines()) == 4  # header and three points


def test_parse_grid_keeps_its_end_point_on_fine_grids():
    grid = _parse_grid("0.5:1:0.000005")
    assert len(grid) == 100_001
    assert grid[0] == 0.5 and grid[-1] == 1.0
    assert _parse_grid("0.5:1:0.25") == (0.5, 0.75, 1.0)
    assert len(_parse_grid("0.5:1.0:0.1")) == 6
    # a value that reads as 0.0 makes no power of ten, and a text longer
    # than int() converts is no number
    assert _parse_grid("1e-99999999:1:0.5") == (0.0, 0.5, 1.0)
    with pytest.raises(ValidationError, match="too long"):
        _parse_grid("0.5:1:0." + "1" * 5000)


def test_rates_empty_strategies_exits_2(toy_path, capsys):
    assert main(["rates", str(toy_path), "--p-grid", "1.0", "--strategies", ""]) == 2


@pytest.mark.parametrize(
    "mode", [["--p-grid", "0.5:1:0.25"], ["--m-sweep"]], ids=["p-grid", "m-sweep"]
)
@pytest.mark.parametrize("strategies", ["alpha,alpha", "beta,alpha,beta"])
def test_rates_repeated_strategy_exits_2(toy_path, tmp_path, capsys, mode, strategies):
    out = tmp_path / "rates.csv"
    argv = ["rates", str(toy_path), *mode, "--strategies", strategies, "--csv", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "--strategies needs a subset of: alpha,beta" in captured.err
    assert captured.out == "" and not out.exists()


def test_rates_p_grid_has_no_bound_column(toy_path, tmp_path, capsys):
    out = tmp_path / "rates.csv"
    argv = ["rates", str(toy_path), "--p-grid", "0.5:1:0.25", "--strategies", "alpha,bound"]
    assert main(argv + ["--csv", str(out)]) == 2
    captured = capsys.readouterr()
    assert "--p-grid has no bound curve" in captured.err
    assert captured.out == "" and not out.exists()


def test_rates_m_sweep_bound_column_at_four_users(tmp_path, capsys):
    # the chain bound's envelope over the beta placements: alpha less the
    # bound is 11/512 at M = 1, a vertex of both envelopes
    cfg = {
        "K": 4,
        "strategy": "beta",
        "groups": [{"size": 1, "r": 1}, {"size": 1, "r": 1}],
        "popularity": ["3/4", "1/4"],
    }
    path = tmp_path / "k4.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["rates", str(path), "--m-sweep", "--strategies", "alpha,bound"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "M,R_alpha,R_bound"
    at_one = {float(m): (float(a), float(b)) for m, a, b in (r.split(",") for r in rows)}[1.0]
    assert at_one[0] - at_one[1] == pytest.approx(11 / 512, abs=1e-11)


def test_rates_m_sweep_bound_is_below_beta(toy_path, capsys):
    assert main(["rates", str(toy_path), "--m-sweep", "--strategies", "beta,bound"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "M,R_beta,R_bound"
    assert len(rows) > 2
    for row in rows:
        _, beta, bound = map(float, row.split(","))
        assert bound <= beta, row


@pytest.mark.parametrize("strategies", ["beta", "alpha", "beta,alpha"])
def test_rates_p_grid_columns_follow_the_strategies_asked(toy_path, capsys, strategies):
    closed = {"alpha": rate_alpha_closed, "beta": rate_beta_closed}
    names = strategies.split(",")
    argv = ["rates", str(toy_path), "--p-grid", "0.5:1:0.125", "--strategies", strategies]
    assert main(argv) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == ",".join(["p"] + [f"R_{name}" for name in names])
    assert len(rows) == 5
    for i, row in enumerate(rows):
        p = 0.5 + i * 0.125
        expected = [f"{p:.12g}"] + [f"{float(closed[name](p)):.12g}" for name in names]
        assert row.split(",") == expected


def test_rates_p_grid_rejects_non_reference_setup(tmp_path, capsys):
    cfg = {
        "K": 4,
        "strategy": "beta",
        "groups": [{"size": 2, "r": 1}],
        "popularity": [0.25, 0.75],
    }
    path = tmp_path / "other.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["rates", str(path), "--p-grid", "0.5:1.0:0.1"]) == 2


@pytest.mark.parametrize("argv", [["--p-grid", "0.5:1:0.125"], ["--m-sweep"]])
def test_rates_stdout_prints_the_rows_of_the_csv_file(toy_path, tmp_path, capsys, argv):
    out = tmp_path / "rates.csv"
    assert main(["rates", str(toy_path), *argv, "--csv", str(out)]) == 0
    capsys.readouterr()
    assert main(["rates", str(toy_path), *argv]) == 0
    printed = capsys.readouterr().out
    written = out.read_bytes().decode("utf-8")
    # the file keeps the csv module's CRLF, stdout ends its lines with LF
    assert written.endswith("\r\n") and "\r" not in printed
    assert printed.split("\n") == written.split("\r\n")
    assert len(printed.splitlines()) > 2


def test_rates_m_sweep_reproduces_unit_cache_point(toy_path, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["rates", str(toy_path), "--m-sweep", "--csv", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    at_one = next(r for r in rows if float(r["M"]) == 1.0)
    p = 153 / 200
    assert float(at_one["R_beta"]) == pytest.approx(2 / 3 - p**3 / 3, abs=1e-9)
    assert float(at_one["R_alpha"]) == pytest.approx(1 - p**3, abs=1e-9)
    ms = [float(r["M"]) for r in rows]
    assert ms == sorted(ms) and ms[0] == 0.0 and ms[-1] == 2.0


# sha256 of the `rates --m-sweep --strategies alpha --csv` output for two
# K = 4, N = 4 rational popularities, one with a zero entry, taken from
# the demand-enumerating implementation of the grouping baseline.
ALPHA_SWEEP_GOLDEN = {
    ("2/5", "3/10", "1/5", "1/10"): "4e8eea74b4b6587510bd09c2f006dcb780d1639678501d5a78af0492c53a2303",
    ("1/2", "0", "3/10", "1/5"): "bb0440ef09de35368c8d34265fa90ffd82309f2c58621f741c685e13e5ce4691",
}


@pytest.mark.parametrize("popularity", ALPHA_SWEEP_GOLDEN, ids=lambda p: "-".join(p))
def test_rates_alpha_sweep_matches_golden_digest(tmp_path, popularity):
    cfg = {
        "K": 4,
        "strategy": "alpha",
        "groups": [{"size": 2, "r": 2}, {"size": 2, "r": 1}],
        "popularity": list(popularity),
    }
    path, out = tmp_path / "k4.json", tmp_path / "k4.csv"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    argv = ["rates", str(path), "--m-sweep", "--strategies", "alpha", "--csv", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ALPHA_SWEEP_GOLDEN[popularity]


# sha256 of the `rates <toy> --p-grid 0.5:1:0.0005 --csv` output, taken
# while each closed form parsed every grid point on its own; its bits are the
# same on Python 3.10 to 3.13.
P_GRID_GOLDEN = "aab4de39298e5debae5604674905f12a7ab6c94df879afd6896989333c706912"


def test_rates_p_grid_matches_golden_digest(toy_path, tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["rates", str(toy_path), "--p-grid", "0.5:1:0.0005", "--csv", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == P_GRID_GOLDEN


@pytest.mark.parametrize("budget, code", [(0, 4)])
def test_rates_beta_sweep_message_budget_exit_codes(toy_path, capsys, monkeypatch, budget, code):
    # a search budget of no messages is a resource limit
    monkeypatch.setattr(delivery, "_MAX_MESSAGES", budget)
    argv = ["rates", str(toy_path), "--m-sweep", "--strategies", "beta"]
    assert main(argv) == code
    assert "resource limit:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["rates", "--m-sweep", "--strategies", "beta", "--max-messages", "12"],
        ["deliver", "--all-demands", "--demand-limit", "4096"],
    ],
    ids=["max-messages", "demand-limit"],
)
def test_removed_budget_flags_exit_2(toy_path, capsys, argv):
    # the search and enumeration budgets are module constants, not options
    assert main(argv[:1] + [str(toy_path)] + argv[1:]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# sha256 of the `rates --m-sweep --strategies beta --csv` output for K = 3
# with N = 4 files in two groups and N = 3 in three, at fixed rational
# popularities, taken from the two-basis exhaustive search.
BETA_SWEEP_GOLDEN = {
    ((2, 2), ("2/5", "3/10", "1/5", "1/10")): "eb5be6d38918b22bd47d22485353c251fda6213432dabd34a3b509d656d77919",
    ((1, 1, 1), ("1/2", "3/10", "1/5")): "0d3e5c603417c20e5abc4813546894176c188178703d1f0eae8ec3a26ff58fb4",
}


@pytest.mark.parametrize("setup", BETA_SWEEP_GOLDEN, ids=lambda s: "sizes" + "-".join(map(str, s[0])))
def test_rates_beta_sweep_matches_golden_digest(tmp_path, setup):
    sizes, popularity = setup
    cfg = {
        "K": 3,
        "strategy": "beta",
        "groups": [{"size": size, "r": 1} for size in sizes],
        "popularity": list(popularity),
    }
    path, out = tmp_path / "k3.json", tmp_path / "k3.csv"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    argv = ["rates", str(path), "--m-sweep", "--strategies", "beta", "--csv", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BETA_SWEEP_GOLDEN[setup]


# sha256 of the `rates --m-sweep --csv` output for two files of one file
# each, beyond K = 4: the bound's demand law at K = 8, and the grouping
# baseline's envelope with many vertices at K = 200, taken from the linear
# envelope scan and the law built from a separate multiset list.
LARGE_K_SWEEP_GOLDEN = {
    (8, ("9/10", "1/10"), "alpha,bound"): "caa3b6e0ca58b067aa1da0663d7d20a216664250e709d7550b59b7fd6c5785f3",
    (200, ("3/4", "1/4"), "alpha"): "6294400ef8f232b2f1b694cb0c13eee7d45074eef5bdb3db70e6b4036ecda347",
}


@pytest.mark.parametrize("setup", LARGE_K_SWEEP_GOLDEN, ids=lambda s: f"K{s[0]}-{s[2]}")
def test_rates_large_k_sweep_matches_golden_digest(tmp_path, setup):
    users, popularity, strategies = setup
    cfg = {
        "K": users,
        "strategy": "beta",
        "groups": [{"size": 1, "r": 1}, {"size": 1, "r": 1}],
        "popularity": list(popularity),
    }
    path, out = tmp_path / "large.json", tmp_path / "large.csv"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    argv = ["rates", str(path), "--m-sweep", "--strategies", strategies, "--csv", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LARGE_K_SWEEP_GOLDEN[setup]


# The printed `rates --m-sweep` rows for float popularities of two files
# in singleton groups, whose envelopes take the float hull and labels of
# lower_envelope.  Taken before the float hull dropped a point within
# _FLOAT_TOL of its neighbours' chord; that dropped four rows, each a
# boundary point of the exact envelope: M = 0.75 at K = 4, and M = 1/6,
# 1/3 and 4/3 at K = 6.
FLOAT_SWEEP_GOLDEN = {
    (3, (0.765, 0.235), "alpha,beta,bound"): [
        "M,R_alpha,R_beta,R_bound",
        "0,1.539325,1.539325,1.539325",
        "0.666666666667,0.846441666667,0.846441666667,0.846441666667",
        "1,0.552302875,0.517434291667,0.517434291667",
        "1.33333333333,0.333333333333,0.333333333333,0.333333333333",
        "2,0,0,0",
    ],
    (4, (0.765, 0.235), "alpha,bound"): [
        "M,R_alpha,R_bound",
        "0,1.65446189875,1.65446189875",
        "0.5,1.07723094938,1.07723094937",
        "1,0.609076983125,0.578755849687",
        "1.5,0.25,0.25",
        "2,0,0",
    ],
    (6, (0.9, 0.1), "alpha,bound"): [
        "M,R_alpha,R_bound",
        "0,1.468558,1.468558",
        "1,0.468559,0.468559",
        "2,0,0",
    ],
}


@pytest.mark.parametrize("setup", FLOAT_SWEEP_GOLDEN, ids=lambda s: f"K{s[0]}-{s[1][0]}")
def test_rates_float_sweep_matches_golden_rows(tmp_path, capsys, setup):
    users, popularity, strategies = setup
    cfg = {
        "K": users,
        "strategy": "beta",
        "groups": [{"size": 1, "r": 1}, {"size": 1, "r": 1}],
        "popularity": list(popularity),
    }
    path = tmp_path / "float.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["rates", str(path), "--m-sweep", "--strategies", strategies]) == 0
    assert capsys.readouterr().out.splitlines() == FLOAT_SWEEP_GOLDEN[setup]


@pytest.mark.parametrize("setup", list(FLOAT_SWEEP_GOLDEN)[1:], ids=lambda s: f"K{s[0]}")
def test_rates_float_sweep_has_the_rows_of_the_exact_sweep(tmp_path, capsys, setup):
    # the float hull drops what the exact labels call boundary, so a float
    # popularity prints a row at every M where its exact twin does
    users, popularity, strategies = setup
    rows = []
    for pop in (list(popularity), [str(Fraction(p).limit_denominator(1000)) for p in popularity]):
        cfg = {
            "K": users,
            "strategy": "beta",
            "groups": [{"size": 1, "r": 1}, {"size": 1, "r": 1}],
            "popularity": pop,
        }
        path = tmp_path / "twin.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["rates", str(path), "--m-sweep", "--strategies", strategies]) == 0
        rows.append([line.split(",")[0] for line in capsys.readouterr().out.splitlines()])
    assert rows[0] == rows[1]


def test_rates_alpha_sweep_beyond_the_demand_limit(tmp_path):
    # 3**13 request vectors exceed the enumeration limit; the grouping
    # baseline's expectation enumerates none of them
    popularity = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
    cfg = {
        "K": 13,
        "strategy": "alpha",
        "groups": [{"size": 3, "r": 1}],
        "popularity": [str(p) for p in popularity],
    }
    path, out = tmp_path / "k13.json", tmp_path / "k13.csv"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    argv = ["rates", str(path), "--m-sweep", "--strategies", "alpha", "--csv", str(out)]
    assert main(argv) == 0
    with open(out) as fh:
        rows = [(float(r["M"]), float(r["R_alpha"])) for r in csv.DictReader(fh)]
    distinct = sum(1 - (1 - float(p)) ** 13 for p in popularity)
    assert rows[0] == (0.0, pytest.approx(distinct, rel=1e-11))
    assert rows[-1] == (3.0, 0.0)


def test_rates_alpha_sweep_beyond_the_point_limit(tmp_path):
    # 16 groupings of 5 files at 9 levels each list 90,000 points, more
    # than alpha_points allows; the envelope is built from far fewer
    popularity = [Fraction(k, 15) for k in (5, 4, 3, 2, 1)]
    cfg = {
        "K": 8,
        "strategy": "alpha",
        "groups": [{"size": 5, "r": 1}],
        "popularity": [str(p) for p in popularity],
    }
    path, out = tmp_path / "k8.json", tmp_path / "k8.csv"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    argv = ["rates", str(path), "--m-sweep", "--strategies", "alpha", "--csv", str(out)]
    assert main(argv) == 0
    with open(out) as fh:
        rows = [(float(r["M"]), float(r["R_alpha"])) for r in csv.DictReader(fh)]
    distinct = sum(1 - (1 - float(p)) ** 8 for p in popularity)
    assert rows[0] == (0.0, pytest.approx(distinct, rel=1e-11))
    assert rows[-1] == (5.0, 0.0)


def test_reruns_byte_identical_except_manifest_timestamp(toy_path, tmp_path):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["rates", str(toy_path), "--p-grid", "0.5:1.0:0.1", "--csv", str(out1)]) == 0
    assert main(["rates", str(toy_path), "--p-grid", "0.5:1.0:0.1", "--csv", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    m1 = json.loads((tmp_path / "r1.manifest.json").read_text())
    m2 = json.loads((tmp_path / "r2.manifest.json").read_text())
    m1.pop("timestamp"), m2.pop("timestamp")
    m1.pop("outputs"), m2.pop("outputs")
    assert m1 == m2


def test_version_flag():
    assert main(["--version"]) == 0


def test_the_package_runs_as_a_module():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "codedcache", "--version"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0 and done.stdout.startswith("codedcache ")
