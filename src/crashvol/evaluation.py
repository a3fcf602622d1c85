"""Forecast scoring and end-to-end backtests.

A backtest fits the selected model on the training window only, forecasts
the test horizon, and scores the point forecast (the cross-path median for
the simulation models) against observed rates. Error tables carry one
MAE/RMSE/MAPE row per calendar year plus an `overall` row holding the
unweighted mean of the yearly rows. All values are rate fractions; percent
formatting happens at I/O boundaries.

Repeated backtests of one window pay again only for their seeds. The
simulator fits keep the window statistics of their last 64 windows, as the
ARIMA and GARCH fits keep their outcomes; the overrides, each model's own
values and the spike selection still run on every call. A report scores
all years of one length in one pass, by the plain formulas wherever they
give the bits of the scaled ones.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import arima_garch, series_stats, stochastic_engine
from .data_ingest import (
    AlignmentError,
    InsufficientDataError,
    MonthlySeries,
    RangeError,
    ValidationError,
    _integer,
    _write_csv,
    add_months,
    slice_window,
)

DEFAULT_LEVELS = (0.05, 0.25, 0.75, 0.95)
DEFAULT_RHO = -0.5936
# 0.12 selects the three strong calendar months (Jan, Jul, Aug) on the
# 2010-2014 data; 0.10 would also pull in March at a -10.7% mean deviation
DEFAULT_SPIKE_THRESHOLD = 0.12
# backtest config and CLI defaults: simulated paths, ARIMA (p,d,q), GARCH (gp,gq)
_DEFAULT_PATHS = 5000
_DEFAULT_ORDERS = (1, 2, 2)
_DEFAULT_GARCH_ORDERS = (2, 1)
KAPPA_EPS = 1e-6


def _powers_above(x) -> np.ndarray:
    """Per element, the power of two just above |x|, at most 2**1023 (1 for 0, inf, nan)."""
    return np.ldexp(1.0, np.minimum(np.frexp(x)[1], 1023))


def _scaled_error_stats(f, o) -> tuple[float, float, float]:
    # errors and ratios |f - o| / o come from rates divided by a power of two at
    # or above them, and each mean from values divided by the power just above
    # the largest finite one, then scaled back: no difference, square or sum
    # overflows, and division by a power of two is exact in the normal range
    p = _powers_above(np.maximum(np.abs(f), o))
    with np.errstate(divide="ignore", over="ignore"):  # such a ratio is inf
        ratio = np.abs(f / p - o / p) / (o / p)
    s = float(p.max())
    err = f / s - o / s
    t = float(_powers_above(err).max())
    u = float(_powers_above(ratio).max())
    mae = s * (t * float(np.mean(np.abs(err / t))))
    rmse = s * (t * math.sqrt(np.mean((err / t) ** 2)))
    if np.isinf(ratio).any():
        # a ratio past the float range: each is a / b * 2**e (mantissas and exponents of
        # |f/p - o/p|, o and p); their mean 2**top * mean(a / b * 2**(e - top)) is inf only if it is
        (a, ea), (b, eb) = np.frexp(np.abs(f / p - o / p)), np.frexp(o)
        e = ea - eb + np.frexp(p)[1] - 1
        with np.errstate(over="ignore"):
            return mae, rmse, float(np.ldexp(np.mean(a / b * np.ldexp(1.0, e - e.max())), e.max()))
    return mae, rmse, u * float(np.mean(ratio / u))


def _error_rows(f: np.ndarray, o: np.ndarray) -> np.ndarray:
    """(MAE, RMSE, MAPE) of each row of two (rows, n) arrays of checked rates."""
    # the plain formulas, when every nonzero |f|, o and |f - o| lies in
    # [2**-250, 2**251): then every difference, square, ratio, sum and mean
    # here and in `_scaled_error_stats` is zero or a normal float, so the
    # scaled code's divisions by powers of two are exact and both paths give
    # the same bits. A nan or inf rate makes some MAE non-finite
    with np.errstate(all="ignore"):
        d = f - o
        e = np.abs(d)
        rows = np.stack((e.mean(axis=-1), np.sqrt((d * d).mean(axis=-1)), (e / o).mean(axis=-1)),
                        axis=-1)
    exponents = np.frexp(np.concatenate((f, o, d), axis=-1))[1]  # 0 for zeros
    if -249 <= exponents.min() and exponents.max() <= 251 and np.isfinite(rows[:, 0]).all():
        return rows
    return np.array([_scaled_error_stats(a, b) for a, b in zip(f, o)])


def _checked_rates(forecast, observed) -> tuple[np.ndarray, np.ndarray]:
    f = np.asarray(forecast, dtype=float)
    o = np.asarray(observed, dtype=float)
    if f.shape != o.shape or f.size == 0:
        raise AlignmentError(f"length mismatch: forecast {f.size}, observed {o.size}")
    if np.any(o <= 0):
        raise ValidationError("MAPE needs strictly positive observed rates")
    return f, o


def error_stats(forecast, observed) -> tuple[float, float, float]:
    """MAE, RMSE, and MAPE between two aligned rate vectors; each is finite
    whenever its true value is within float range, and RMSE is non-zero
    whenever an error is."""
    f, o = _checked_rates(forecast, observed)
    return tuple(_error_rows(f.reshape(1, -1), o.reshape(1, -1))[0].tolist())


@dataclass(frozen=True)
class ErrorReport:
    model_id: str
    per_year: tuple[tuple[int, float, float, float], ...]
    overall: tuple[float, float, float]
    n_months: int


def _check_dates(fc_months, ob_months):
    if list(fc_months) != list(ob_months):
        extra_f = [m for m in fc_months if m not in ob_months]
        extra_o = [m for m in ob_months if m not in fc_months]
        detail = []
        if extra_f:
            detail.append("forecast-only " + ", ".join(f"{y}-{m:02d}" for y, m in extra_f[:3]))
        if extra_o:
            detail.append("observed-only " + ", ".join(f"{y}-{m:02d}" for y, m in extra_o[:3]))
        raise AlignmentError("misaligned dates: " + ("; ".join(detail) or "different order"))


def yearly_error_report(forecast, observed, model_id: str) -> ErrorReport:
    """Per-calendar-year error triples from two sequences of ((year, month), rate)."""
    fc = list(forecast)
    ob = list(observed)
    _check_dates([d for d, _ in fc], [d for d, _ in ob])
    # each year's positions, in the order given. The years of one length (a
    # window's whole years; its first or last partial year) are scored in one
    # call, a contiguous row each, which numpy sums as that year on its own
    at: dict = {}
    for i, ((year, _), _) in enumerate(fc):
        at.setdefault(year, []).append(i)
    years = sorted(at)
    f, o = _checked_rates([v for _, v in fc], [v for _, v in ob])
    triples = {}
    for n in {len(positions) for positions in at.values()}:
        same = [y for y in years if len(at[y]) == n]
        index = [at[y] for y in same]
        triples.update(zip(same, _error_rows(f[index], o[index]).tolist()))
    rows = tuple((y, *triples[y]) for y in years)
    return ErrorReport(
        model_id=model_id,
        per_year=rows,
        overall=tuple(float(x) for x in np.array([r[1:] for r in rows]).mean(axis=0)),
        n_months=len(fc),
    )


def interval_coverage(
    quantiles: stochastic_engine.ForecastQuantiles, observed, low: float, high: float
) -> tuple[int, float]:
    """Count observed months strictly outside the [q_low, q_high] band."""
    if not low < high:
        raise ValidationError("low level must be below high level")
    try:
        i = quantiles.levels.index(low)
        j = quantiles.levels.index(high)
    except ValueError:
        raise ValidationError(
            f"levels ({low}, {high}) not among computed quantiles {quantiles.levels}"
        ) from None
    ob = list(observed)
    _check_dates(list(quantiles.months), [d for d, _ in ob])
    vals = np.array([v for _, v in ob])
    outside = np.sum((vals < quantiles.bands[i]) | (vals > quantiles.bands[j]))
    return int(outside), float(outside / vals.size)


def dated_rates(series: MonthlySeries) -> list[tuple[tuple[int, int], float]]:
    """((year, month), rate) pairs for every observation."""
    return list(zip(series.months, (float(r) for r in series.rates)))


# ---------------------------------------------------------------------------
# parameter assembly from training data

def _train_slice_for_stats(series: MonthlySeries, train_start, train_end) -> MonthlySeries:
    # extend one month back when available so the first January carries its
    # December boundary log-difference; whole-year statistics are unaffected
    prior = add_months(*train_start, -1)
    try:
        series.index_of(*prior)
    except RangeError:
        return slice_window(series, train_start, train_end)
    return slice_window(series, prior, train_end)


def _anchor_rate(series: MonthlySeries, train_end, test_start) -> float:
    try:
        return float(series.rates[series.index_of(*test_start)])
    except RangeError:
        return float(series.rates[series.index_of(*train_end)])


def _spike_specs(profile: series_stats.SeasonProfile, threshold: float):
    months = series_stats.detect_spike_months(profile, threshold)
    return tuple(
        stochastic_engine.SpikeSpec(
            month=m, mean_a=float(profile.mean[m - 1]), std_b=float(profile.std[m - 1])
        )
        for m in months
    )


# windows whose statistics the simulator fits keep, as many as arima_garch keeps fits
_WINDOW_CACHE_SIZE = 64


class _Window(NamedTuple):
    """What a simulator fit reads from the series for one window; arrays read-only."""

    profile: series_stats.VolatilityProfile
    growth: float
    season: series_stats.SeasonProfile
    train_rates: np.ndarray
    history: tuple[float, ...]
    c1: float


_windows: OrderedDict = OrderedDict()  # least recently used first


def _window(series: MonthlySeries, train_start, train_end, test_start) -> _Window:
    # memoised like arima_garch's fits. The statistics read only the rates and
    # the first month, so those key the series (hashing it would hash every
    # observation); a window that raises is not kept, and raises on every call
    key = (series.rates.tobytes(), series.start, train_start, train_end, test_start)
    window = _windows.pop(key, None)
    if window is None:
        stats_slice = _train_slice_for_stats(series, train_start, train_end)
        train = slice_window(series, train_start, train_end)
        profile = series_stats.volatility_profile(stats_slice)
        season = series_stats.season_profile(stats_slice)
        for array in (profile.yearly_vols, season.deviations, season.mean, season.std):
            array.flags.writeable = False
        window = _Window(profile, series_stats.annual_growth_rate(stats_slice).annual_growth,
                         season, train.rates, tuple(float(r) for r in train.rates[-12:]),
                         _anchor_rate(series, train_end, test_start))
    # no lock: each insert trims after itself, so threads fitting at once
    # can overshoot the bound only while they run
    _windows[key] = window
    if len(_windows) > _WINDOW_CACHE_SIZE:
        _windows.popitem(last=False)
    return window


def _fit_from_stats(params_cls, model_values, series, train_start, train_end, test_start, overrides):
    # the statistics and overrides both simulators share; `model_values`
    # pops its own overrides and returns the model-specific parameters
    overrides = dict(overrides or {})
    # integers, so that no float month finds the entry of an integer one
    train_start, train_end, test_start = (
        tuple(_integer(x, name) for x in month) for name, month in
        (("train_start", train_start), ("train_end", train_end), ("test_start", test_start))
    )
    window = _window(series, train_start, train_end, test_start)
    threshold = float(overrides.pop("spike_threshold", DEFAULT_SPIKE_THRESHOLD))

    values = {
        **model_values(window.profile, window.train_rates, overrides),
        "c1": window.c1,
        "mu": window.growth,
        "spikes": _spike_specs(window.season, threshold),
        "start": test_start,
    }
    spikes = overrides.pop("spikes", None)
    if spikes is not None:
        values["spikes"] = tuple(
            s
            if isinstance(s, stochastic_engine.SpikeSpec)
            else stochastic_engine.SpikeSpec(month=s[0], mean_a=float(s[1]), std_b=float(s[2]))
            for s in spikes
        )
    for key in ("c1", "mu", "scheme"):
        if key in overrides:
            values[key] = overrides.pop(key)
    if overrides:
        raise ValidationError(f"unknown parameter overrides: {', '.join(sorted(overrides))}")
    return params_cls(**values), window.history


def _heston_values(prof, train_rates, overrides) -> dict:
    if "xi" not in overrides and not math.isfinite(prof.vol_of_vol):
        raise InsufficientDataError("heston vol_of_vol is not finite: it needs at least 3 full "
                                    "calendar years of nonzero volatility, and the training "
                                    f"window has {len(prof.years)}")
    theta_vol = float(overrides.pop("theta_vol", prof.window_vol))
    v0_vol = float(overrides.pop("v0_vol", theta_vol))
    xi = float(overrides.pop("xi", prof.vol_of_vol))
    kappa = float(
        overrides.pop("kappa", stochastic_engine.feller_bound(xi, theta_vol) * (1.0 + KAPPA_EPS))
    )
    return {
        "theta": stochastic_engine._power(theta_vol, 2, "theta_vol"),
        "v0": stochastic_engine._power(v0_vol, 2, "v0_vol"),
        "kappa": kappa,
        "xi": xi,
        "rho": float(overrides.pop("rho", DEFAULT_RHO)),
    }


def fit_heston_from_stats(
    series: MonthlySeries,
    train_start: tuple[int, int],
    train_end: tuple[int, int],
    test_start: tuple[int, int],
    overrides: dict | None = None,
) -> tuple[stochastic_engine.HestonParams, tuple[float, ...]]:
    """Assemble simulation parameters from training-window statistics.

    Defaults: v0_vol = theta_vol = training window volatility, xi = training
    vol-of-vol, kappa infinitesimally above xi^2/(2*theta_vol), rho from the
    override (falling back to -0.5936), spikes from the season profile
    restricted to threshold-clearing sign-stable months. Returns the params
    and the up-to-12 trailing training rates used by the spike baseline.
    """
    return _fit_from_stats(
        stochastic_engine.HestonParams, _heston_values,
        series, train_start, train_end, test_start, overrides,
    )


def _ar1_slope(rates: np.ndarray) -> float:
    x = rates[:-1]
    y = rates[1:]
    vx = np.var(x)
    if vx == 0:
        raise ValidationError("constant training rates, AR(1) slope undefined")
    return float(np.cov(x, y, bias=True)[0, 1] / vx)


def _vasicek_values(prof, train_rates, overrides) -> dict:
    if "kappa_v" in overrides:
        kappa_v = float(overrides.pop("kappa_v"))
    else:
        slope = _ar1_slope(train_rates)
        if not math.exp(-2.0) < slope < 1:  # so kappa_v is below 24, as monthly steps need
            raise ValidationError(f"AR(1) slope {slope:.4g} outside (e^-2, 1): kappa_v "
                                  "undefined or not below 24 per year")
        kappa_v = -12.0 * math.log(slope)
    return {"kappa_v": kappa_v, "sigma_v": float(overrides.pop("sigma_v", prof.window_vol))}


def fit_vasicek_from_stats(
    series: MonthlySeries,
    train_start: tuple[int, int],
    train_end: tuple[int, int],
    test_start: tuple[int, int],
    overrides: dict | None = None,
) -> tuple[stochastic_engine.VasicekParams, tuple[float, ...]]:
    """Mean-reverting baseline parameters from training statistics.

    kappa_v = -12*ln(AR(1) slope of the training rates in (e^-2, 1)), sigma_v =
    training window volatility; growth target and spikes match the primary model.
    """
    return _fit_from_stats(
        stochastic_engine.VasicekParams, _vasicek_values,
        series, train_start, train_end, test_start, overrides,
    )


def gaussian_quantiles(
    months, points: np.ndarray, level_vars: np.ndarray, levels
) -> stochastic_engine.ForecastQuantiles:
    """Quantile bands from Gaussian forecast distributions around the points."""
    lv = stochastic_engine._check_levels(levels)
    # imported here, not at module level: loading statistics costs a cold
    # process ~1.8 ms and ~0.45 MB, which only ARIMA forecasts need to pay
    from statistics import NormalDist

    sd = np.sqrt(level_vars)
    bands = np.array([points + NormalDist().inv_cdf(level) * sd for level in lv])
    return stochastic_engine.ForecastQuantiles(
        months=tuple(months), median=points.copy(), levels=lv, bands=bands
    )


# ---------------------------------------------------------------------------
# the model table

class _Model(NamedTuple):
    """One model's steps: fit, file write/read, and forecast quantiles.

    Steps look functions up on their module at call time, so wrappers
    installed on a module (such as perfbench's spans) see every call.
    """

    seeded: bool  # forecasts draw random paths and need a seed
    fit: Callable  # (series, train, test_start, options) -> fitted state
    write: Callable  # (state, path) -> None
    read: Callable  # (path) -> state
    quantiles: Callable  # (state, horizon, n_paths, seed, levels) -> ForecastQuantiles


def _write_params(state, path) -> None:
    params, history = state
    stochastic_engine.write_stochastic_params(params, path, history)


def _simulated(model, state, horizon, n_paths, seed, levels):
    # forecast_quantiles(simulate_*(...)), from each month's row as it is simulated
    params, history = state
    return stochastic_engine._simulate(params, *model(params), horizon, n_paths, seed, history,
                                       levels)


def _fit_arima(series, train, test_start, options, with_garch):
    # the state has read_arima_model's layout; in memory it keeps every
    # training level and residual, so the GARCH variances are recomputed
    overrides = sorted(options["overrides"])
    if overrides:
        raise ValidationError(f"ARIMA models take no parameter overrides: {', '.join(overrides)}")
    rates = slice_window(series, *train).rates
    arima = arima_garch.fit_arima(rates, *options["orders"])
    garch = None
    if with_garch:
        garch = arima_garch.fit_garch(arima.residuals, *options["garch_orders"])
    return arima, garch, tuple(test_start), rates, None


def _write_arima(state, path) -> None:
    arima, garch, start, level_tail, h_tail = state
    arima_garch.write_arima_model(arima, path, start, level_tail, garch, h_tail)


def _gaussian_forecast(state, horizon, n_paths, seed, levels):
    arima, garch, start, level_tail, h_tail = state
    points = arima_garch.forecast_arima(arima, level_tail, horizon)
    innov = None
    if garch is not None:
        innov = arima_garch.forecast_garch_variance(garch, arima.residuals, horizon, h_tail)
    level_vars = arima_garch.forecast_level_variance(arima, horizon, innov)
    months = [add_months(*start, k) for k in range(horizon)]
    return gaussian_quantiles(months, points, level_vars, levels)


MODELS = {
    "heston": _Model(
        seeded=True,
        fit=lambda series, train, test_start, options: fit_heston_from_stats(
            series, *train, test_start, options["overrides"]
        ),
        write=_write_params,
        read=lambda path: stochastic_engine.read_stochastic_params(path),
        quantiles=lambda state, *args: _simulated(stochastic_engine._heston, state, *args),
    ),
    "vasicek": _Model(
        seeded=True,
        fit=lambda series, train, test_start, options: fit_vasicek_from_stats(
            series, *train, test_start, options["overrides"]
        ),
        write=_write_params,
        read=lambda path: stochastic_engine.read_stochastic_params(path),
        quantiles=lambda state, *args: _simulated(stochastic_engine._vasicek, state, *args),
    ),
    "arima": _Model(
        seeded=False,
        fit=lambda series, train, test_start, options: _fit_arima(
            series, train, test_start, options, with_garch=False
        ),
        write=_write_arima,
        read=lambda path: arima_garch.read_arima_model(path),
        quantiles=_gaussian_forecast,
    ),
    "arima-garch": _Model(
        seeded=False,
        fit=lambda series, train, test_start, options: _fit_arima(
            series, train, test_start, options, with_garch=True
        ),
        write=_write_arima,
        read=lambda path: arima_garch.read_arima_model(path),
        quantiles=_gaussian_forecast,
    ),
}
MODEL_IDS = tuple(MODELS)


def _orders(config: dict, key: str, default: tuple[int, ...]) -> tuple[int, ...]:
    # config[key], else `default`: as many integers as `default`, each read by `_integer`
    value = config.pop(key, default)
    values = tuple(value) if isinstance(value, Iterable) else ()
    if len(values) != len(default):
        raise ValidationError(f"{key} must be {len(default)} integers, not {value!r}")
    return tuple(_integer(x, key) for x in values)


def backtest(
    series: MonthlySeries,
    train: tuple[tuple[int, int], tuple[int, int]],
    test: tuple[tuple[int, int], tuple[int, int]],
    model: str = "heston",
    config: dict | None = None,
    seed: int = 0,
) -> tuple[stochastic_engine.ForecastQuantiles, ErrorReport]:
    """Fit on the train window, forecast the test window, score the forecast.

    `config` accepts n_paths, levels, orders (p,d,q), garch_orders (gp,gq),
    and an `overrides` dict forwarded to the parameter assembly (c1, mu,
    v0_vol, theta_vol, kappa, xi, rho, sigma_v, kappa_v, spikes, scheme,
    spike_threshold).
    """
    config = dict(config or {})
    train_start, train_end = (tuple(w) for w in train)
    test_start, test_end = (tuple(w) for w in test)
    if add_months(*train_end, 1) != test_start:
        raise RangeError(
            f"train window ending {train_end[0]}-{train_end[1]:02d} must immediately "
            f"precede test window starting {test_start[0]}-{test_start[1]:02d}"
        )
    test_slice = slice_window(series, test_start, test_end)
    horizon = len(test_slice)
    observed = dated_rates(test_slice)
    months = test_slice.months
    n_paths = _integer(config.pop("n_paths", _DEFAULT_PATHS), "n_paths", 1)
    levels = stochastic_engine._check_levels(config.pop("levels", DEFAULT_LEVELS))
    overrides = config.pop("overrides", {})
    if not isinstance(overrides, Mapping):
        raise ValidationError(f"overrides must be a mapping, not {overrides!r}")
    options = {
        "orders": _orders(config, "orders", _DEFAULT_ORDERS),
        "garch_orders": _orders(config, "garch_orders", _DEFAULT_GARCH_ORDERS),
        "overrides": dict(overrides),
    }
    if config:
        raise ValidationError(f"unknown backtest config keys: {', '.join(sorted(config))}")
    if model not in MODELS:
        raise ValidationError(f"unknown model {model!r}, expected one of {', '.join(MODEL_IDS)}")

    entry = MODELS[model]
    state = entry.fit(series, (train_start, train_end), test_start, options)
    quantiles = entry.quantiles(state, horizon, n_paths, seed, levels)
    forecast = list(zip(months, (float(x) for x in quantiles.median)))
    report = yearly_error_report(forecast, observed, model_id=model)
    return quantiles, report


def write_error_report(report: ErrorReport, path) -> None:
    """Write the `model,year,mae,rmse,mape` table with its overall row."""
    rows = [("model", "year", "mae", "rmse", "mape")]
    rows += [(report.model_id, *row) for row in report.per_year]
    rows.append((report.model_id, "overall", *report.overall))
    _write_csv(path, rows)


def write_coverage(path, low: float, high: float, n_outside: int, frac_outside: float) -> None:
    rows = [("low", "high", "n_outside", "frac_outside"), (low, high, n_outside, frac_outside)]
    _write_csv(path, rows)
