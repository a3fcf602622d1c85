"""The layer probe: a fixed list of calls that touches every layer once.

Every traced run makes the same calls, whatever its workload, so the exact
counts repeat and a layer the workload never calls still gets a figure.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
import time

from workloads import (
    FIXTURE_A,
    FIXTURE_B,
    HORIZON,
    LEVELS,
    MODELS,
    ROOT,
    TEST,
    TRAIN,
    check,
    child_env,
    load_fixtures,
)

STARTS = 3
PROBE_PATHS = 5000
PROBE_SEED = 11
COUNT_MODULES = (
    "import json, sys, crashvol.cli; "
    "print(json.dumps([len(sys.modules), "
    "sum(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)]))"
)


def _cold(code: str):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=120)
    elapsed = time.perf_counter() - start
    check(proc.returncode == 0, f"cold start probe failed: {proc.stderr.strip()}")
    return elapsed, proc.stdout


def cli_startup() -> dict:
    """Interpreter floor, cold import of crashvol.cli above it, and module counts."""
    floor = statistics.median(_cold("pass")[0] for _ in range(STARTS))
    runs = [_cold(COUNT_MODULES) for _ in range(STARTS)]
    modules, scipy_modules = json.loads(runs[-1][1])
    return {
        "cli.python_start_s": floor,
        "cli.import_s": statistics.median(t for t, _ in runs) - floor,
        "cli.modules_loaded": modules,
        "cli.scipy_modules_loaded": scipy_modules,
    }


def run(tracer, workdir) -> dict:
    """Run every layer under `tracer`; returns the figures measured outside spans."""
    from crashvol import arima_garch, cli, data_ingest, evaluation, series_stats
    from crashvol import stochastic_engine as se

    direct = cli_startup()
    with tracer.installed():
        parse_times = []
        for _ in range(STARTS):
            start = time.perf_counter()
            _, _, merged = load_fixtures()
            parse_times.append(time.perf_counter() - start)
        direct["data_ingest.parse_s"] = statistics.median(parse_times)
        direct["data_ingest.rows"] = len(merged)

        train = data_ingest.slice_window(merged, *TRAIN)
        series_stats.volatility_profile(train)
        series_stats.annual_growth_rate(train)
        series_stats.season_profile(train)
        series_stats.distribution_diagnostics(train)

        fits = (
            (evaluation.fit_heston_from_stats, se.simulate_heston),
            (evaluation.fit_vasicek_from_stats, se.simulate_vasicek),
        )
        for fit, simulate in fits:
            params, history = fit(merged, *TRAIN, TEST[0])
            path = workdir / f"probe_{simulate.__name__}.params"
            se.write_stochastic_params(params, path, history)
            params, history = se.read_stochastic_params(path)
            result = simulate(params, HORIZON, PROBE_PATHS, PROBE_SEED, history)
            se.forecast_quantiles(result, LEVELS)

        x = train.rates
        order = arima_garch.select_order(x, 2, 2, 2)
        fit = arima_garch.fit_arima(x, *order)
        garch = arima_garch.fit_garch(fit.residuals, 2, 1)
        arima_garch.forecast_arima(fit, x, HORIZON)
        innov = arima_garch.forecast_garch_variance(garch, fit.residuals, HORIZON)
        arima_garch.forecast_level_variance(fit, HORIZON, innov)

        observed = evaluation.dated_rates(data_ingest.slice_window(merged, *TEST))
        for model in MODELS:
            q, _ = evaluation.backtest(merged, TRAIN, TEST, model,
                                       {"n_paths": PROBE_PATHS}, PROBE_SEED)
            evaluation.interval_coverage(q, observed, 0.25, 0.75)

        a, b, w = str(FIXTURE_A), str(FIXTURE_B), str(workdir)
        window = ["--train-start", "2010-01", "--train-end", "2014-12"]
        argvs = (
            ["diagnose", "--input", a, "--out", f"{w}/probe_diag"],
            ["fit", "--input", a, *window, "--model", "heston", "--out", f"{w}/probe.params"],
            ["forecast", "--params", f"{w}/probe.params", "--paths", str(PROBE_PATHS),
             "--seed", str(PROBE_SEED), "--out", f"{w}/probe_fc.csv"],
            ["evaluate", "--forecast", f"{w}/probe_fc.csv", "--observed", b,
             "--out", f"{w}/probe_eval.csv"],
            ["backtest", "--input", a, "--input", b, *window, "--test-start", "2015-01",
             "--test-end", "2019-12", "--paths", str(PROBE_PATHS), "--seed", str(PROBE_SEED),
             "--out", f"{w}/probe_bt.csv"],
        )
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(argv)
            check(status == 0, f"cli.main({argv[0]}) returned {status}")
    return direct
