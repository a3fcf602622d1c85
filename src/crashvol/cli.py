"""Command-line front end.

Subcommands: diagnose | fit | forecast | evaluate | backtest. Every
stochastic run takes an explicit --seed; there are no wall-clock or entropy
defaults, so identical flags and files always reproduce identical outputs.
Errors, usage errors included, print a single machine-parsable line
`crashvol: E_<CODE>: detail` to stderr and exit 1; `--help` exits 0. The
CRASHVOL_LOG environment variable (debug, info, warning, error) controls
log verbosity.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from . import evaluation, series_stats, stochastic_engine
from .data_ingest import (
    CrashvolError,
    MonthlySeries,
    ParseError,
    ValidationError,
    _read_csv,
    _write_csv,
    add_months,
    merge_series,
    parse_kv_file,
    parse_monthly_csv,
    slice_window,
)

log = logging.getLogger("crashvol")

_MAX_HORIZON = 1200  # months; the Euler loop is one Python step per month


def _parse_ym(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d{4})-(\d{1,2})", text.strip())
    if not m:
        raise ValidationError(f"expected YYYY-MM, got {text!r}")
    year, month = int(m.group(1)), int(m.group(2))
    if not 1 <= month <= 12:
        raise ValidationError(f"month {month} outside 1..12 in {text!r}")
    return year, month


def _int_at_least(floor: int):
    """An argparse type: an int of at least `floor`, checked as the flag is parsed."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < floor:
            raise argparse.ArgumentTypeError(f"{value} must be at least {floor}")
        return value
    return parse


def _parse_levels(text: str) -> tuple[float, ...]:
    try:
        percents = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ValidationError(f"bad quantile levels {text!r}") from None
    if not percents:
        raise ValidationError("need at least one quantile level")
    return stochastic_engine._check_levels(p / 100.0 for p in percents)


def _parse_orders(text: str) -> tuple[tuple[int, int, int], tuple[int, int]]:
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError:
        raise ValidationError(f"bad orders {text!r}, expected p,d,q[,gp,gq]") from None
    if len(parts) in (3, 5):
        return tuple(parts[:3]), tuple(parts[3:]) or evaluation._DEFAULT_GARCH_ORDERS
    raise ValidationError(f"bad orders {text!r}, expected p,d,q[,gp,gq]")


def _load_inputs(paths) -> MonthlySeries:
    series = parse_monthly_csv(paths[0])
    for extra in paths[1:]:
        series = merge_series(series, parse_monthly_csv(extra))
    return series


def _write_forecast_csv(path, quantiles: stochastic_engine.ForecastQuantiles) -> None:
    finite = np.isfinite(quantiles.median) & np.isfinite(quantiles.bands).all(axis=0)
    if not finite.all():  # nothing is written; the first such month is named
        raise ValidationError("non-finite forecast at %d-%02d" % quantiles.months[finite.argmin()])
    names = [stochastic_engine._level_name(x) for x in quantiles.levels]
    rows = [["year", "month", "median", *names]]
    for t, (y, m) in enumerate(quantiles.months):
        rows.append([y, m, quantiles.median[t], *quantiles.bands[:, t]])
    _write_csv(path, rows)


def _read_forecast_csv(path) -> stochastic_engine.ForecastQuantiles:
    header, rows = _read_csv(path)
    if header[:3] != ["year", "month", "median"]:
        raise ParseError(f"{path}: expected header year,month,median,q...")
    levels = []
    for name in header[3:]:
        level = stochastic_engine._level_from_name(name)
        if level is None:
            raise ParseError(f"{path}: bad quantile column {name!r}")
        levels.append(level)
    months, values = [], []
    for lineno, row in rows:
        try:
            months.append((int(row[0]), int(row[1])))
            values.append([float(x) for x in row[2:]])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        if not 1 <= months[-1][1] <= 12:
            raise ParseError(f"{path}:{lineno}: month {months[-1][1]} outside 1..12")
        if not all(math.isfinite(x) for x in values[-1]):
            raise ParseError(f"{path}:{lineno}: non-finite value")
    table = np.array(values)  # one row per month: median, then each level
    return stochastic_engine.ForecastQuantiles(
        months=tuple(months), median=table[:, 0], levels=tuple(levels), bands=table[:, 1:].T
    )


def _stem(path) -> Path:
    p = Path(path)
    return p.with_suffix("") if p.suffix else p


# ---------------------------------------------------------------------------
# subcommands

def cmd_diagnose(args) -> int:
    series = _load_inputs(args.input)
    stem = args.out or _stem(args.input[0])
    prof = series_stats.volatility_profile(series)
    growth = series_stats.annual_growth_rate(series)
    season = series_stats.season_profile(series)
    diag = series_stats.distribution_diagnostics(series)
    rows = [("statistic", "value"), ("window_vol", prof.window_vol)]
    if math.isfinite(prof.vol_of_vol):
        rows.append(("vol_of_vol", prof.vol_of_vol))
    else:
        log.info("skipping vol_of_vol, needs 3 full calendar years of nonzero volatility")
    rows += [(f"yearly_vol.{y}", v) for y, v in zip(prof.years, prof.yearly_vols)]
    rows += [("growth", growth.annual_growth), ("growth_method", growth.method)]
    for m in range(1, 13):
        rows.append((f"season.{m}.mean", season.mean[m - 1]))
        rows.append((f"season.{m}.std", season.std[m - 1]))
    spike_months = series_stats.detect_spike_months(season, evaluation.DEFAULT_SPIKE_THRESHOLD)
    rows.append(("spike_months", ";".join(str(m) for m in spike_months)))
    try:
        rows.append(("rate_vol_correlation", series_stats.rate_vol_correlation(series)))
    except CrashvolError as exc:
        log.info("skipping rate/vol correlation: %s", exc)
    rows += [("jb_stat", diag.jarque_bera), ("jb_pvalue", diag.jb_pvalue)]

    stats_path = f"{stem}.stats.csv"
    _write_csv(stats_path, rows)
    for name, edges, counts in (
        ("hist_rates", diag.rate_bin_edges, diag.rate_counts),
        ("hist_logdiffs", diag.logdiff_bin_edges, diag.logdiff_counts),
    ):
        bins = [(edges[i], edges[i + 1], int(c)) for i, c in enumerate(counts)]
        _write_csv(f"{stem}.{name}.csv", [("bin_low", "bin_high", "count"), *bins])
    log.info("diagnostics written to %s", stats_path)
    print(stats_path)
    return 0


def _fit_options(args) -> dict:
    orders, garch_orders = _parse_orders(args.orders)
    overrides = {key: getattr(args, key) for key in ("rho", "spike_threshold", "scheme")}
    overrides = {key: value for key, value in overrides.items() if value is not None}
    for key in ("rho", "spike_threshold"):
        if key in overrides and not math.isfinite(overrides[key]):
            raise ValidationError(f"--{key.replace('_', '-')} must be finite, got {overrides[key]}")
    return {"orders": orders, "garch_orders": garch_orders, "overrides": overrides}


def cmd_fit(args) -> int:
    series = _load_inputs(args.input)
    train = (_parse_ym(args.train_start), _parse_ym(args.train_end))
    model = evaluation.MODELS[args.model]
    state = model.fit(series, train, add_months(*train[1], 1), _fit_options(args))
    model.write(state, args.out)
    log.info("parameters written to %s", args.out)
    print(args.out)
    return 0


def _check_seed(model_id, seed):
    if evaluation.MODELS[model_id].seeded and seed is None:
        raise ValidationError(f"--seed is required for the {model_id} model")


def cmd_forecast(args) -> int:
    if not 1 <= args.horizon <= _MAX_HORIZON:
        raise ValidationError(f"--horizon {args.horizon} must be 1 to {_MAX_HORIZON} months")
    levels = _parse_levels(args.levels)
    model_id = parse_kv_file(args.params).get("model", "heston")
    model = evaluation.MODELS.get(model_id)
    if model is None:
        raise ValidationError(f"{args.params}: unknown model {model_id}")
    _check_seed(model_id, args.seed)
    state = model.read(args.params)
    quantiles = model.quantiles(state, args.horizon, args.paths, args.seed, levels)
    _write_forecast_csv(args.out, quantiles)
    log.info("forecast written to %s", args.out)
    print(args.out)
    return 0


def _coverage_band(args) -> tuple[float, float]:
    """--low and --high as levels, checked before any work is done."""
    for flag, value in (("--low", args.low), ("--high", args.high)):
        if not 0.0 < value < 100.0:
            raise ValidationError(f"{flag} {value} must lie strictly between 0 and 100")
    if not args.low < args.high:
        raise ValidationError(f"--low {args.low} must be below --high {args.high}")
    return args.low / 100.0, args.high / 100.0


def _write_scores(args, band, quantiles, observed, report, report_path, stem) -> int:
    """Write the error report and the coverage side-car; print the summary line."""
    evaluation.write_error_report(report, report_path)
    low, high = band
    if low in quantiles.levels and high in quantiles.levels:
        n_out, frac = evaluation.interval_coverage(quantiles, observed, low, high)
        evaluation.write_coverage(f"{stem}.coverage.csv", low, high, n_out, frac)
    else:
        log.warning("levels %s/%s not among the forecast quantiles, skipping coverage",
                    args.low, args.high)
    mae, rmse, mape = report.overall
    print(f"{report.model_id} overall mae={mae:.6g} rmse={rmse:.6g} mape={mape:.6g}")
    return 0


def cmd_evaluate(args) -> int:
    band = _coverage_band(args)
    quantiles = _read_forecast_csv(args.forecast)
    observed_series = _load_inputs(args.observed)
    try:
        observed_slice = slice_window(series=observed_series,
                                      start=quantiles.months[0], end=quantiles.months[-1])
    except CrashvolError:
        raise evaluation.AlignmentError(
            f"observed series {observed_series.start[0]}-{observed_series.start[1]:02d}.."
            f"{observed_series.end[0]}-{observed_series.end[1]:02d} does not cover forecast "
            f"months {quantiles.months[0][0]}-{quantiles.months[0][1]:02d}.."
            f"{quantiles.months[-1][0]}-{quantiles.months[-1][1]:02d}"
        ) from None
    observed = evaluation.dated_rates(observed_slice)
    forecast = list(zip(quantiles.months, (float(x) for x in quantiles.median)))
    report = evaluation.yearly_error_report(forecast, observed, model_id=args.model_id)
    return _write_scores(args, band, quantiles, observed, report, args.out, _stem(args.out))


def cmd_backtest(args) -> int:
    band = _coverage_band(args)
    series = _load_inputs(args.input)
    train = (_parse_ym(args.train_start), _parse_ym(args.train_end))
    test = (_parse_ym(args.test_start), _parse_ym(args.test_end))
    levels = _parse_levels(args.levels)
    _check_seed(args.model, args.seed)
    config = {"n_paths": args.paths, "levels": levels, **_fit_options(args)}
    quantiles, report = evaluation.backtest(
        series, train, test, model=args.model, config=config, seed=args.seed or 0
    )
    _write_forecast_csv(args.out, quantiles)
    stem = _stem(args.out)
    observed = evaluation.dated_rates(slice_window(series, *test))
    return _write_scores(args, band, quantiles, observed, report, f"{stem}.report.csv", stem)


# ---------------------------------------------------------------------------
# parser wiring

class _Parser(argparse.ArgumentParser):
    """A usage error (bad or missing flag) is one E_VALIDATION line, exit 1."""

    def error(self, message):
        raise ValidationError(f"{message} (see {self.prog} --help)".replace("\n", "\\n"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="crashvol",
        description="Crash-rate statistics, stochastic simulation, and forecast backtesting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument(
            "--input",
            action="append",
            required=True,
            help="monthly crash/VMT CSV; repeat to merge overlapping files",
        )

    p = sub.add_parser("diagnose", help="write descriptive statistics and histograms")
    add_input(p)
    p.add_argument("--out", help="output stem (default: input path without extension)")
    p.set_defaults(func=cmd_diagnose)

    def add_fit_flags(p):
        p.add_argument("--train-start", required=True, metavar="YYYY-MM")
        p.add_argument("--train-end", required=True, metavar="YYYY-MM")
        p.add_argument("--model", default="heston", choices=evaluation.MODEL_IDS)
        p.add_argument("--orders", default=",".join(map(str, evaluation._DEFAULT_ORDERS)),
                       help="p,d,q[,gp,gq] for the ARIMA models")
        p.add_argument("--rho", type=float, default=None, help="rate/variance correlation override")
        p.add_argument("--spike-threshold", type=float, default=None,
                       help="mean-deviation threshold for spike months "
                            f"(default {evaluation.DEFAULT_SPIKE_THRESHOLD:g})")
        p.add_argument("--scheme", choices=("reflect", "truncate"), default=None)

    def add_forecast_flags(p):
        p.add_argument("--paths", type=_int_at_least(1), default=evaluation._DEFAULT_PATHS,
                       help=f"at least 1 (default {evaluation._DEFAULT_PATHS})")
        p.add_argument("--seed", type=_int_at_least(0), default=None, help="at least 0")
        p.add_argument("--levels", help="quantile percentages",
                       default=",".join(f"{x * 100:g}" for x in evaluation.DEFAULT_LEVELS))

    def add_coverage_flags(p):
        p.add_argument("--low", type=float, default=25.0, help="lower coverage percentile")
        p.add_argument("--high", type=float, default=75.0, help="upper coverage percentile")

    p = sub.add_parser("fit", help="fit model parameters on a training window")
    add_input(p)
    add_fit_flags(p)
    p.add_argument("--out", required=True, help="parameter file to write")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("forecast", help="forecast from a parameter file")
    p.add_argument("--params", required=True, help="parameter or fitted-model file")
    p.add_argument("--horizon", type=int, default=60,
                   help=f"months to forecast, 1 to {_MAX_HORIZON} (default 60)")
    add_forecast_flags(p)
    p.add_argument("--out", required=True, help="forecast CSV to write")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("evaluate", help="score a forecast CSV against observed rates")
    p.add_argument("--forecast", required=True, help="forecast CSV")
    p.add_argument("--observed", action="append", required=True, dest="observed",
                   help="observed crash/VMT CSV; repeat to merge")
    p.add_argument("--model-id", default="model", help="model column value for the report")
    add_coverage_flags(p)
    p.add_argument("--out", required=True, help="error-report CSV to write")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("backtest", help="fit, forecast, and score in one run")
    add_input(p)
    add_fit_flags(p)
    p.add_argument("--test-start", required=True, metavar="YYYY-MM")
    p.add_argument("--test-end", required=True, metavar="YYYY-MM")
    add_forecast_flags(p)
    add_coverage_flags(p)
    p.add_argument("--out", required=True, help="forecast CSV; report/coverage use its stem")
    p.set_defaults(func=cmd_backtest)
    return parser


def _configure_logging():
    level = os.environ.get("CRASHVOL_LOG", "warning").strip().lower()
    names = {"debug": logging.DEBUG, "info": logging.INFO,
             "warning": logging.WARNING, "error": logging.ERROR}
    logging.basicConfig(level=names.get(level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    # held warnings are shown after a success (a FellerWarning as one log line), not an error
    with warnings.catch_warnings(record=True) as held:
        status = _run(argv)
    if status == 0:
        feller = [w for w in held if issubclass(w.category, stochastic_engine.FellerWarning)]
        for w in held:
            if w not in feller:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
        if feller:
            log.warning("%s", feller[0].message)
    return status


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CrashvolError as exc:
        print(f"crashvol: {exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"crashvol: E_IO: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # last resort: an allocation that no size check covers
        detail = " ".join(str(exc).split())
        print(f"crashvol: E_VALIDATION: out of memory: {detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
