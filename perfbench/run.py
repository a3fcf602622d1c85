"""Run one crashvol benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process and one client in a closed loop: the next op starts when the
previous one ends, with BLAS/OpenMP threads pinned to 1. Every input and
program seed comes from --seed. With --trace 0 the run is untraced and
reports the end-to-end metrics of BENCHMARK.json; with --trace 1 it runs
the same ops untraced and then traced, plus the layer probe, and reports
the per-layer metrics. Lines before the last start with '#' and are for
people; the last line is one JSON object with the keys correct, attempted,
failed and metrics. A full record with the environment, per-metric sample
counts and any failures is written to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import nullcontext
from importlib import metadata
from pathlib import Path

import probe
import summary
from spans import Tracer
from workloads import ROOT, SRC, THREAD_VARS, WORKLOADS, check

OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 3
MIN_OPS = summary.TAIL_BEYOND + 1


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _sim_sizes(draws_per_month):
    """Draw count and bytes computed for one simulator call, from its arguments.

    Per path and month the simulators draw `draws_per_month` normals, plus
    one in a spike month; they fill the draw buffer and three path arrays.
    """

    def hook(args, kwargs):
        params = _arg(args, kwargs, 0, "params")
        horizon = _arg(args, kwargs, 1, "horizon")
        n_paths = _arg(args, kwargs, 2, "n_paths")
        spikes = {s.month for s in params.spikes}
        m0 = params.start[1] - 1
        per_path = sum(draws_per_month + ((m0 + k) % 12 + 1 in spikes) for k in range(horizon))
        draws = n_paths * per_path
        return {"draws": draws, "bytes": 8 * (draws + 3 * n_paths * horizon)}

    return hook


SPAN_ATTRS = {
    "stochastic_engine.simulate_heston": _sim_sizes(2),
    "stochastic_engine.simulate_vasicek": _sim_sizes(1),
    "evaluation.backtest": lambda a, k: {"model": _arg(a, k, 3, "model", "heston")},
    "cli.main": lambda a, k: {"command": _arg(a, k, 0, "argv")[0]},
}


class Loop:
    """Latencies, MAPEs and failures of one pass over a workload's ops."""

    def __init__(self):
        self.latencies: list[float] = []
        self.mapes: dict = {}
        self.failures: list[dict] = []
        self.wall = 0.0


def run_ops(wl, seen, seconds=None, min_ops=0, count=None, tracer=None) -> Loop:
    """Run whole cycles of ops until `count` ops, or until about `seconds` are used.

    Another cycle starts while it brings the run closer to `seconds`, and
    always until `min_ops` ops are done. `seen` maps op keys to digests
    across passes.
    """
    loop = Loop()
    start = time.perf_counter()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i and i % wl.cycle == 0:
            elapsed = time.perf_counter() - start
            if i >= min_ops and elapsed * (1 + wl.cycle / (2 * i)) >= seconds:
                break
        span = tracer.span(f"op.{wl.name}") if tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            try:
                with span:
                    output = wl.call(i)
            finally:
                loop.latencies.append(time.perf_counter() - t0)
            dig, mape = wl.verify(i, output)
            first = seen.setdefault(wl.key(i), dig)
            check(first == dig, "a repeat with the same inputs gave different output")
            if mape is not None:
                loop.mapes[wl.key(i)] = mape
        except Exception as exc:  # a failed op is counted, and the run goes on
            loop.failures.append({"op": i, "error": f"{type(exc).__name__}: {exc}"})
        i += 1
    loop.wall = time.perf_counter() - start
    return loop


def time_setups(workload: str, seed: int) -> list[float]:
    """Wall time of separate processes that each only set the workload up."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-only"],
            capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - start)
        check(proc.returncode == 0, f"set-up process failed: {proc.stderr.strip()}")
    return times


def end_to_end(wl, args) -> tuple[Loop, dict, dict]:
    loop = run_ops(wl, {}, seconds=args.seconds, min_ops=MIN_OPS)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    setups = time_setups(wl.name, args.seed)
    lat = loop.latencies
    tail_s, tail_pct, beyond = summary.tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "ops_per_s": len(lat) / loop.wall,
        "peak_rss_mb": peak_mb,
    }
    samples = {
        "setup_s": len(setups),
        "op_p50_s": len(lat),
        "op_tail_s": {"percentile": tail_pct, "samples_beyond": beyond, "samples": len(lat)},
        "ops_per_s": len(lat),
        "peak_rss_mb": 1,
        "forecast_mape": len(loop.mapes),
        "failed_frac": len(lat),
    }
    if loop.mapes:
        metrics["forecast_mape"] = statistics.fmean(loop.mapes.values())
    return loop, metrics, samples


def traced(wl, args, workdir) -> tuple[Loop, dict, dict]:
    seen: dict = {}
    plain = run_ops(wl, seen, seconds=args.seconds / 2)
    tracer = Tracer(SPAN_ATTRS)
    with tracer.installed():
        loop = run_ops(wl, seen, count=len(plain.latencies), tracer=tracer)
    probe_tracer = Tracer(SPAN_ATTRS)
    direct = probe.run(probe_tracer, workdir)
    metrics = summary.layer_metrics(tracer.records, probe_tracer.records, direct)
    metrics["trace.overhead_frac"] = sum(loop.latencies) / sum(plain.latencies) - 1.0
    spans = {"workload": tracer.records, "probe": probe_tracer.records}
    (OUT / f"spans-{wl.name}-seed{args.seed}.json").write_text(json.dumps(spans))
    loop.failures += plain.failures
    loop.latencies += plain.latencies
    return loop, metrics, {"ops_per_pass": len(plain.latencies)}


def git_commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def speed_ref_s() -> float:
    """Median time of a fixed pure-Python loop, to tell a slow spell of the machine."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        sum(i * i for i in range(200_000))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment(seed: int) -> dict:
    sources = hashlib.sha256()
    for path in sorted((SRC / "crashvol").rglob("*.py")):
        sources.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": sources.hexdigest(),
        "workload_seed": seed,
        "machine": platform.machine(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up and exit; used to time set-up")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "crashvol" / "__init__.py").is_file():
        print(f"perfbench: no crashvol package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    speed = [] if args.setup_only else [speed_ref_s()]
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=".*relies on the reflection scheme")
            wl.setup()
            if args.setup_only:
                return 0
            if args.trace:
                loop, metrics, samples = traced(wl, args, workdir)
            else:
                loop, metrics, samples = end_to_end(wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    speed.append(speed_ref_s())

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    attempted, failed = len(loop.latencies), len(loop.failures)
    shown = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
             for m in wanted if m["name"] in metrics}
    correct = failed == 0 and len(shown) == len(wanted)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": {**environment(args.seed), "speed_ref_s": speed},
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "metrics": shown, "samples": samples,
        "failures": loop.failures[:20], "latencies_s": loop.latencies,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    print(f"# environment {json.dumps(record['environment'])}")
    for name, m in shown.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}  samples: {samples.get(name, '-')}")
    print(f"# failed_frac = {failed / attempted:.6g} ratio  ({failed} of {attempted} ops)")
    for failure in loop.failures[:5]:
        print(f"# failed op {failure['op']}: {failure['error']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
