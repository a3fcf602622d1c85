"""Pair perfbench run records of a parent and a change into one BENCH file.

Usage: python scripts/bench_record.py PARENT_DIR CHANGE_DIR [--out BENCH.json]

Each directory holds the `<workload>-seed<n>-trace<t>.json` records that
`perfbench/run.py --trace <t>` writes to `.perfbench_out/` of the checkout
it ran in. A workload, seed and trace mode run on both sides makes one
pair; records with no partner are ignored. For every pair the output keeps
both sides' metrics (end-to-end for `--trace 0` under `pairs`, per-layer
for `--trace 1` under `traced_pairs`), `attempted`, `failed` and
`environment` (which holds `speed_ref_s`, the machine-speed reference taken
before and after the run). Per workload it adds `median_ratio` and
`traced_median_ratio`: for each metric, the median over the pairs of
change / parent. Below 1 is lower on the change side, whichever direction
the metric counts as better. For each end-to-end metric that
`BENCHMARK.json` declares, `end_to_end` gives the metric's `better`
direction and its `bound`, each side's `median` and quartiles `q1` and
`q3` over the `--trace 0` pairs (numpy's default linear interpolation; one
pair gives its value for all three), `move`, the change's median over the
parent's minus 1, signed so that positive is worse (null for a parent
median of 0), to read against `bound`, `wins`, the pairs in which the
change reads better in that direction out of `pairs` (a tie counts for
neither side), and `resolved`: "better" when the change wins at least nine
tenths of the pairs and its median is better than the parent's by more
than the parent's q3 - q1, "worse" when the parent wins that share and its
median is better by that much, else null, a move inside the runs' spread.
Writes JSON to --out, or to stdout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _records(directory: Path, trace: int) -> dict[tuple[str, int], dict]:
    records = {}
    for path in sorted(directory.glob(f"*-trace{trace}.json")):
        record = json.loads(path.read_text())
        records[(record["workload"], record["seed"])] = record
    return records


def _side(record: dict) -> dict:
    return {
        "metrics": {name: m["value"] for name, m in record["metrics"].items()},
        "attempted": record["attempted"],
        "failed": record["failed"],
        "environment": record["environment"],
    }


def _spread(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                 else values * 3)
    return {"q1": q1, "median": statistics.median(values), "q3": q3}


def _end_to_end(pairs: list[dict], declared: dict[str, dict]) -> dict:
    summary = {}
    for name, metric in declared.items():
        direction = metric["better"]
        sides = [(p["parent"]["metrics"][name], p["change"]["metrics"][name]) for p in pairs
                 if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
        if not sides:
            continue
        sign = 1 if direction == "higher" else -1
        parent, change = _spread([before for before, _ in sides]), _spread([after for _, after in sides])
        wins = sum(sign * (after - before) > 0 for before, after in sides)
        losses = sum(sign * (after - before) < 0 for before, after in sides)
        gain, iqr = sign * (change["median"] - parent["median"]), parent["q3"] - parent["q1"]
        resolved = None
        if 10 * wins >= 9 * len(sides) and gain > iqr:
            resolved = "better"
        elif 10 * losses >= 9 * len(sides) and -gain > iqr:
            resolved = "worse"
        move = -sign * (change["median"] / parent["median"] - 1) if parent["median"] else None
        summary[name] = {"better": direction, "bound": metric["bound"], "parent": parent,
                         "change": change, "move": move, "wins": wins, "pairs": len(sides),
                         "resolved": resolved}
    return summary


def pair_records(parent_dir: Path, change_dir: Path) -> dict:
    workloads: dict[str, dict] = {}
    for trace, key in ((0, "pairs"), (1, "traced_pairs")):
        parent, change = _records(parent_dir, trace), _records(change_dir, trace)
        for workload, seed in sorted(parent.keys() & change.keys()):
            entry = workloads.setdefault(workload, {"units": {}, "pairs": [], "traced_pairs": []})
            for name, m in parent[workload, seed]["metrics"].items():
                entry["units"][name] = m["unit"]
            entry[key].append({
                "seed": seed,
                "parent": _side(parent[workload, seed]),
                "change": _side(change[workload, seed]),
            })
    for entry in workloads.values():
        for key, out in (("pairs", "median_ratio"), ("traced_pairs", "traced_median_ratio")):
            ratios: dict[str, list[float]] = {}
            for pair in entry[key]:
                for name, before in pair["parent"]["metrics"].items():
                    after = pair["change"]["metrics"].get(name)
                    if after is not None and before != 0:
                        ratios.setdefault(name, []).append(after / before)
            entry[out] = {name: statistics.median(r) for name, r in ratios.items()}
    declared = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    for entry in workloads.values():
        entry["end_to_end"] = _end_to_end(entry["pairs"], declared)
    return {"workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    result = pair_records(args.parent_dir, args.change_dir)
    if not result["workloads"]:
        print("bench_record: no workload and seed run on both sides", file=sys.stderr)
        return 1
    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
