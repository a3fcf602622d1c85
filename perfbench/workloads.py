"""The workloads. Each is an endless, seeded sequence of ops.

An op is one timed unit of work: `call(i)` runs op i and returns its raw
output, `verify(i, output)` checks that output and returns a digest plus the
op's forecast MAPE (None when it has no held-out window). Ops run in whole
cycles of `cycle` ops. `key(i)` names op i's inputs: ops with one key must
give the same digest, so every repeat is a determinism check.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "crashvol" / "data"
FIXTURE_A = DATA / "dc_2010_2014.csv"
FIXTURE_B = DATA / "dc_2015_2019.csv"
TRAIN = ((2010, 1), (2014, 12))
TEST = ((2015, 1), (2019, 12))
HORIZON = 60
LEVELS = (0.05, 0.25, 0.75, 0.95)
MODELS = ("heston", "vasicek", "arima", "arima-garch")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class CheckFailed(Exception):
    """An op's output broke one of the benchmark's correctness checks."""


def check(cond, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def derive(seed: int, *labels) -> int:
    """A program seed in [1, 2**31) determined by the workload seed and labels."""
    text = ":".join(str(x) for x in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") % (2**31 - 1) + 1


def child_env() -> dict:
    """Environment for crashvol child processes: this checkout's sources, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("CRASHVOL_LOG", None)
    return env


def window_months() -> list[tuple[int, int]]:
    (y, m), _ = TEST
    return [(y + (m - 1 + k) // 12, (m - 1 + k) % 12 + 1) for k in range(HORIZON)]


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            h.update(part)
        elif hasattr(part, "tobytes"):
            h.update(repr((part.dtype.str, part.shape)).encode())
            h.update(part.tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def check_mape(mape: float) -> float:
    check(math.isfinite(mape) and mape > 0, f"forecast MAPE {mape!r} is not finite and positive")
    return mape


def check_bands(months, rows) -> None:
    """`rows` are q05, q25, median, q75, q95, each one value per month."""
    check(list(months) == window_months(), "forecast months do not line up with the test window")
    for row in rows:
        check(len(row) == HORIZON, "quantile band has the wrong length")
        check(all(math.isfinite(x) for x in row), "non-finite quantile band")
    for lower, upper in zip(rows, rows[1:]):
        check(all(a <= b for a, b in zip(lower, upper)), "quantile bands out of order")


def check_quantiles(q) -> None:
    check(tuple(q.levels) == LEVELS, f"unexpected quantile levels {q.levels}")
    bands = [list(map(float, b)) for b in q.bands]
    check_bands(q.months, bands[:2] + [list(map(float, q.median))] + bands[2:])


class Workload:
    cycle: int

    def key(self, i: int):
        return i % self.cycle


def load_fixtures():
    from crashvol import data_ingest

    a = data_ingest.parse_monthly_csv(FIXTURE_A)
    b = data_ingest.parse_monthly_csv(FIXTURE_B)
    return a, b, data_ingest.merge_series(a, b)


# ---------------------------------------------------------------------------


class CliCold(Workload):
    """Each op is one cold `python -m crashvol ...` process."""

    name = "cli-cold"
    in_process = False

    def __init__(self, seed: int, workdir: Path):
        w = workdir
        a, b = str(FIXTURE_A), str(FIXTURE_B)
        window = ["--train-start", "2010-01", "--train-end", "2014-12"]
        test = ["--test-start", "2015-01", "--test-end", "2019-12"]
        self.seq = [
            ("help", ["--help"], []),
            ("diagnose", ["diagnose", "--input", a, "--input", b, "--out", f"{w}/diag"],
             [f"{w}/diag.stats.csv", f"{w}/diag.hist_rates.csv", f"{w}/diag.hist_logdiffs.csv"]),
            ("fit", ["fit", "--input", a, *window, "--model", "heston",
                     "--out", f"{w}/heston.params"], [f"{w}/heston.params"]),
            ("fit", ["fit", "--input", a, *window, "--model", "arima-garch",
                     "--out", f"{w}/ag.params"], [f"{w}/ag.params"]),
            ("forecast", ["forecast", "--params", f"{w}/heston.params", "--horizon", "60",
                          "--paths", "5000", "--seed", str(derive(seed, self.name, "forecast")),
                          "--out", f"{w}/fc_heston.csv"], [f"{w}/fc_heston.csv"]),
            ("forecast", ["forecast", "--params", f"{w}/ag.params", "--horizon", "60",
                          "--out", f"{w}/fc_ag.csv"], [f"{w}/fc_ag.csv"]),
            ("evaluate", ["evaluate", "--forecast", f"{w}/fc_heston.csv", "--observed", b,
                          "--model-id", "heston", "--out", f"{w}/eval.csv"],
             [f"{w}/eval.csv", f"{w}/eval.coverage.csv"]),
        ]
        for model in MODELS:
            out = f"{w}/bt_{model}"
            self.seq.append((
                "backtest",
                ["backtest", "--input", a, "--input", b, *window, *test, "--model", model,
                 "--paths", "5000", "--seed", str(derive(seed, self.name, model)),
                 "--out", f"{out}.csv"],
                [f"{out}.csv", f"{out}.report.csv", f"{out}.coverage.csv"],
            ))
        self.cycle = len(self.seq)
        self.env = child_env()

    def _run(self, args):
        return subprocess.run(
            [sys.executable, "-m", "crashvol", *args],
            capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=120,
        )

    def setup(self) -> None:
        proc = self._run(["--help"])
        check(proc.returncode == 0, f"warm-up `crashvol --help` exited {proc.returncode}")

    def call(self, i: int):
        return self._run(self.seq[i % self.cycle][1])

    def verify(self, i: int, proc):
        kind, _, outputs = self.seq[i % self.cycle]
        check(proc.returncode == 0, f"{kind} exited {proc.returncode}: {proc.stderr.strip()}")
        check("crashvol: E_" not in proc.stderr, f"{kind} reported {proc.stderr.strip()}")
        check("Traceback" not in proc.stderr, f"{kind} raised: {proc.stderr.strip()}")
        blobs = [Path(p).read_bytes() for p in outputs]
        mape = None
        if kind == "help":
            check(proc.stdout.startswith("usage:"), "--help printed no usage line")
        elif kind == "diagnose":
            stats = dict(line.split(",", 1) for line in blobs[0].decode().splitlines()[1:])
            vol = float(stats["window_vol"])
            check(math.isfinite(vol) and vol > 0, "diagnose window_vol not finite and positive")
        elif kind == "fit":
            check(b"=" in blobs[0], "fit wrote no key = value lines")
        if kind in ("forecast", "backtest"):
            self._check_forecast_csv(blobs[0].decode())
        if kind in ("evaluate", "backtest"):
            found = re.search(r"mape=(\S+)", proc.stdout)
            check(found is not None, f"{kind} printed no mape")
            mape = check_mape(float(found.group(1)))
        return digest(proc.stdout.encode(), *blobs), mape

    @staticmethod
    def _check_forecast_csv(text: str) -> None:
        lines = text.splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        months = [(int(r["year"]), int(r["month"])) for r in rows]
        cols = ("q05", "q25", "median", "q75", "q95")
        check_bands(months, [[float(r[c]) for r in rows] for c in cols])


class SimPaths(Workload):
    """In-process Monte Carlo: one simulator call plus quantiles per op."""

    name = "sim-paths"
    in_process = True
    cycle = 2
    n_paths = 20000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        from crashvol import data_ingest, evaluation, stochastic_engine

        self.se = stochastic_engine
        _, _, series = load_fixtures()
        fit_from = (evaluation.fit_heston_from_stats, evaluation.fit_vasicek_from_stats)
        self.fitted = [f(series, *TRAIN, TEST[0]) for f in fit_from]
        self.observed = data_ingest.slice_window(series, *TEST).rates
        for i in range(self.cycle):
            first, second = (self._simulate(i, 500, seed=1) for _ in range(2))
            check(digest(first.median, first.bands) == digest(second.median, second.bands),
                  "repeat with one seed changed the result")

    def _simulate(self, i: int, n_paths: int, seed: int):
        simulate = (self.se.simulate_heston, self.se.simulate_vasicek)[i % 2]
        params, history = self.fitted[i % 2]
        return self.se.forecast_quantiles(simulate(params, HORIZON, n_paths, seed, history), LEVELS)

    def key(self, i: int):
        return i

    def call(self, i: int):
        return self._simulate(i, self.n_paths, derive(self.seed, self.name, i))

    def verify(self, i: int, q):
        check_quantiles(q)
        median = [float(x) for x in q.median]
        mape = sum(abs(f - o) / o for f, o in zip(median, self.observed)) / HORIZON
        return digest(q.median, q.bands), check_mape(mape)


class BacktestSeeds(Workload):
    """In-process library backtests over models, seeds and path counts.

    Per derived seed: both simulation models at each path count, then each
    ARIMA model once, since those take no path count.
    """

    name = "backtest-seeds"
    in_process = True
    seed_pool = 4
    path_counts = (5000, 500)

    def __init__(self, seed: int, workdir: Path):
        self.combos = [
            (model, n_paths, derive(seed, self.name, k))
            for k in range(self.seed_pool)
            for model in MODELS
            for n_paths in (self.path_counts if model in ("heston", "vasicek") else (500,))
        ]
        self.cycle = len(self.combos)

    def setup(self) -> None:
        from crashvol import data_ingest, evaluation

        self.ev = evaluation
        _, _, self.merged = load_fixtures()
        self.observed = evaluation.dated_rates(data_ingest.slice_window(self.merged, *TEST))
        for model in MODELS:
            self._backtest(model, 500, 1)

    def _backtest(self, model, n_paths, seed):
        q, report = self.ev.backtest(self.merged, TRAIN, TEST, model, {"n_paths": n_paths}, seed)
        return q, report, self.ev.interval_coverage(q, self.observed, 0.25, 0.75)

    def call(self, i: int):
        return self._backtest(*self.combos[i % self.cycle])

    def verify(self, i: int, output):
        q, report, (n_out, frac) = output
        check_quantiles(q)
        check(report.n_months == HORIZON, "report does not cover the test window")
        check(0 <= frac <= 1 and n_out == round(frac * HORIZON), "coverage out of range")
        return digest(q.median, q.bands, report, n_out), check_mape(report.overall[2])


WORKLOADS = {w.name: w for w in (CliCold, SimPaths, BacktestSeeds)}
