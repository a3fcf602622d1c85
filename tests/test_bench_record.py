import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(directory, workload, seed, p50, failed=0):
    directory.mkdir(exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "attempted": 12, "failed": failed,
        "environment": {"python": "3", "speed_ref_s": [0.01, 0.02]},
        "metrics": {"op_p50_s": {"value": p50, "unit": "s"}},
    }
    (directory / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))


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


def test_no_common_run_is_an_error(tmp_path, capsys):
    _write(tmp_path / "parent", "cli-cold", 1, 1.0)
    (tmp_path / "change").mkdir()
    assert _load().main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 1
    assert "no workload and seed" in capsys.readouterr().err
