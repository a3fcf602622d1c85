import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(directory, workload, seed, p50, failed=0, trace=0):
    directory.mkdir(exist_ok=True)
    metric = "stochastic_engine.ns_per_draw" if trace else "op_p50_s"
    record = {
        "workload": workload, "seed": seed, "attempted": 12, "failed": failed,
        "environment": {"python": "3", "speed_ref_s": [0.01, 0.02]},
        "metrics": {metric: {"value": p50, "unit": "ns" if trace else "s"}},
    }
    (directory / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))


def test_pairs_records_by_workload_and_seed(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, before, after in ((1, 2.0, 0.5), (2, 1.0, 0.5), (3, 4.0, 1.0)):
        _write(parent, "cli-cold", seed, before)
        _write(change, "cli-cold", seed, after, failed=seed == 2)
    _write(parent, "sim-paths", 1, 1.0)  # no change-side partner: left out
    out = tmp_path / "bench.json"
    assert _load().main([str(parent), str(change), "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert list(result["workloads"]) == ["cli-cold"]
    entry = result["workloads"]["cli-cold"]
    assert entry["units"] == {"op_p50_s": "s"}
    assert [p["seed"] for p in entry["pairs"]] == [1, 2, 3]
    assert entry["pairs"][1]["change"]["failed"] == 1
    assert entry["pairs"][0]["parent"]["environment"]["speed_ref_s"] == [0.01, 0.02]
    assert entry["median_ratio"] == {"op_p50_s": 0.25}
    assert entry["traced_pairs"] == [] and entry["traced_median_ratio"] == {}
    assert entry["end_to_end"] == {"op_p50_s": {
        "better": "lower", "bound": 0.25, "move": -0.75, "wins": 3, "pairs": 3, "resolved": None,
        "parent": {"q1": 1.5, "median": 2.0, "q3": 3.0},
        "change": {"q1": 0.5, "median": 0.5, "q3": 0.75},
    }}


def test_pairs_traced_records_apart(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write(parent, "sim-paths", 1, 2.0)
    _write(change, "sim-paths", 1, 1.0)
    _write(parent, "sim-paths", 1, 8.0, trace=1)
    _write(change, "sim-paths", 1, 2.0, trace=1)
    _write(parent, "cli-cold", 2, 1.0, trace=1)  # no traced partner: left out
    entry = _load().pair_records(parent, change)["workloads"]["sim-paths"]
    assert entry["units"] == {"op_p50_s": "s", "stochastic_engine.ns_per_draw": "ns"}
    assert [p["seed"] for p in entry["traced_pairs"]] == [1]
    assert entry["traced_pairs"][0]["change"]["metrics"] == {"stochastic_engine.ns_per_draw": 2.0}
    assert entry["median_ratio"] == {"op_p50_s": 0.5}
    assert entry["traced_median_ratio"] == {"stochastic_engine.ns_per_draw": 0.25}


def test_no_common_run_is_an_error(tmp_path, capsys):
    _write(tmp_path / "parent", "cli-cold", 1, 1.0)
    (tmp_path / "change").mkdir()
    assert _load().main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 1
    assert "no workload and seed" in capsys.readouterr().err


def test_end_to_end_spread_and_wins_follow_the_better_direction(tmp_path):
    # op_p50_s counts lower as better and ops_per_s higher; a tie counts for
    # neither side, and a metric BENCHMARK.json does not declare is left out
    parent, change = tmp_path / "parent", tmp_path / "change"
    values = [  # (op_p50_s, ops_per_s) parent, then change
        ((1.0, 10.0), (0.5, 12.0)),
        ((2.0, 12.0), (2.0, 11.0)),
        ((3.0, 11.0), (4.0, 11.0)),
        ((4.0, 13.0), (1.0, 20.0)),
    ]
    for seed, sides in enumerate(values):
        for directory, (p50, rate) in zip((parent, change), sides):
            directory.mkdir(exist_ok=True)
            record = {
                "workload": "sim-paths", "seed": seed, "attempted": 12, "failed": 0,
                "environment": {},
                "metrics": {"op_p50_s": {"value": p50, "unit": "s"},
                            "ops_per_s": {"value": rate, "unit": "1/s"},
                            "not_declared": {"value": p50, "unit": "s"}},
            }
            (directory / f"sim-paths-seed{seed}-trace0.json").write_text(json.dumps(record))
    summary = _load().pair_records(parent, change)["workloads"]["sim-paths"]["end_to_end"]
    assert set(summary) == {"op_p50_s", "ops_per_s"}
    p50, rate = summary["op_p50_s"], summary["ops_per_s"]
    assert (p50["better"], p50["wins"], p50["pairs"]) == ("lower", 2, 4)
    assert (rate["better"], rate["wins"], rate["pairs"]) == ("higher", 2, 4)
    assert p50["parent"] == {"q1": 1.75, "median": 2.5, "q3": 3.25}
    assert p50["change"] == {"q1": 0.875, "median": 1.5, "q3": 2.5}
    assert rate["parent"] == {"q1": 10.75, "median": 11.5, "q3": 12.25}


def test_end_to_end_of_one_pair(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write(parent, "cli-cold", 1, 2.0)
    _write(change, "cli-cold", 1, 2.0)
    summary = _load().pair_records(parent, change)["workloads"]["cli-cold"]["end_to_end"]
    assert summary["op_p50_s"]["parent"] == {"q1": 2.0, "median": 2.0, "q3": 2.0}
    assert summary["op_p50_s"]["wins"] == 0



def test_resolved_needs_nine_tenths_of_the_pairs_and_a_move_past_the_parents_spread(tmp_path):
    # over 10 pairs the parent's setup_s runs 1.0..1.9 (q1 1.225, q3 1.675: a
    # spread of 0.45) and its ops_per_s 10..19 (a spread of 4.5)
    runs = iter(range(100))

    def resolved(name, change_values):
        parent_values = [1.0 + i / 10 for i in range(10)] if name == "setup_s" else range(10, 20)
        directory = tmp_path / str(next(runs))
        for side, values in (("parent", parent_values), ("change", change_values)):
            (directory / side).mkdir(parents=True)
            for seed, value in enumerate(values):
                record = {"workload": "sim-paths", "seed": seed, "attempted": 12, "failed": 0,
                          "environment": {}, "metrics": {name: {"value": value, "unit": "s"}}}
                (directory / side / f"sim-paths-seed{seed}-trace0.json").write_text(
                    json.dumps(record))
        entry = _load().pair_records(directory / "parent", directory / "change")
        return entry["workloads"]["sim-paths"]["end_to_end"][name]["resolved"]

    # ops_per_s counts higher as better: +5 on all 10 pairs is past the
    # spread, +4 on all 10 is not, and +10 on 8 of 10 wins too few pairs
    assert resolved("ops_per_s", [r + 5 for r in range(10, 20)]) == "better"
    assert resolved("ops_per_s", [r + 4 for r in range(10, 20)]) is None
    assert resolved("ops_per_s", [r + 10 for r in range(10, 18)] + [10, 11]) is None
    # setup_s counts lower as better: 9 of 10 lower by 0.5 is better (median
    # 0.95 against 1.45), 9 of 10 higher by 0.6 is worse (median 1.95), and
    # all 10 higher by 0.3 is inside the spread
    assert resolved("setup_s", [1.0 + i / 10 - 0.5 for i in range(9)] + [1.9]) == "better"
    assert resolved("setup_s", [1.0 + i / 10 + 0.6 for i in range(9)] + [1.9]) == "worse"
    assert resolved("setup_s", [1.0 + i / 10 + 0.3 for i in range(10)]) is None


def test_move_is_positive_when_worse_and_carries_the_declared_bound(tmp_path):
    # setup_s counts lower as better and ops_per_s higher: +28 % setup_s and
    # -20 % ops_per_s are both worse, so both moves are positive; a parent
    # median of 0 gives no move
    parent, change = tmp_path / "parent", tmp_path / "change"
    sides = ((parent, {"setup_s": 0.25, "ops_per_s": 30.0, "op_p50_s": 0.0}),
             (change, {"setup_s": 0.32, "ops_per_s": 24.0, "op_p50_s": 0.1}))
    for directory, values in sides:
        directory.mkdir()
        record = {"workload": "sim-paths", "seed": 1, "attempted": 12, "failed": 0,
                  "environment": {},
                  "metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()}}
        (directory / "sim-paths-seed1-trace0.json").write_text(json.dumps(record))
    summary = _load().pair_records(parent, change)["workloads"]["sim-paths"]["end_to_end"]
    setup, rate, p50 = summary["setup_s"], summary["ops_per_s"], summary["op_p50_s"]
    assert (setup["bound"], rate["bound"]) == (0.25, 0.25)
    assert abs(setup["move"] - 0.28) < 1e-12 and abs(rate["move"] - 0.2) < 1e-12
    assert setup["move"] > setup["bound"] and rate["move"] < rate["bound"]
    assert p50["move"] is None
