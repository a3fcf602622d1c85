import dataclasses
import itertools
import math
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crashvol import evaluation
from crashvol.data_ingest import (
    AlignmentError,
    InsufficientDataError,
    MonthlyObservation,
    MonthlySeries,
    ValidationError,
    add_months,
)
from crashvol.evaluation import (
    DEFAULT_LEVELS,
    DEFAULT_SPIKE_THRESHOLD,
    MODEL_IDS,
    MODELS,
    backtest,
    dated_rates,
    error_stats,
    fit_heston_from_stats,
    fit_vasicek_from_stats,
    gaussian_quantiles,
    interval_coverage,
    write_coverage,
    write_error_report,
    yearly_error_report,
)
from crashvol.stochastic_engine import (
    FellerWarning,
    ForecastQuantiles,
    forecast_quantiles,
    simulate_heston,
    simulate_vasicek,
)


def test_error_stats_hand_values():
    mae, rmse, mape = error_stats([1.0, 2.0], [2.0, 4.0])
    assert mae == pytest.approx(1.5)
    assert rmse == pytest.approx(math.sqrt((1 + 4) / 2))
    assert mape == pytest.approx((0.5 + 0.5) / 2)
    # squared errors above ~1e308 overflow; the result is finite and quiet
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mae, rmse, mape = error_stats([3e200, 2e200], [1e200, 1e200])
    assert mae == pytest.approx(1.5e200)
    assert rmse == pytest.approx(math.sqrt((4 + 1) / 2) * 1e200)
    assert mape == pytest.approx(1.5)
    # squared errors below ~1e-308 underflow; RMSE stays non-zero and above MAE
    mae, rmse, mape = error_stats([1e-170, 3e-170], [2e-170, 1e-170])
    assert mae == pytest.approx(1.5e-170)
    assert rmse == pytest.approx(math.sqrt((1 + 4) / 2) * 1e-170)
    assert rmse >= mae
    assert mape == pytest.approx((0.5 + 2.0) / 2)
    # an error of at least 2**1023 scales by 2**1023, not by the next power of two
    mae, rmse, mape = error_stats([1e308, 1.0], [1.0, 1.0])
    assert mae == pytest.approx(5e307)
    assert rmse == pytest.approx(1e308 / math.sqrt(2))
    assert mape == pytest.approx(5e307)
    # a difference that overflows leaves MAPE to the ratio; RMSE is rightly inf
    mae, rmse, mape = error_stats([-1.7e308, 1.0], [1.7e308, 1.0])
    assert mae == pytest.approx(1.7e308)
    assert rmse == math.inf
    assert mape == 1.0
    # a ratio that overflows over a subnormal observed rate stays inf
    assert error_stats([1.0, 1.0], [5e-324, 1.0])[2] == math.inf
    # finite ratios whose sum overflows still give a finite MAPE
    assert error_stats([1.5e308, 1.5e308], [1.0, 1.0]) == pytest.approx((1.5e308,) * 3)


def test_error_stats_mape_past_one_ratio_overflow():
    # a ratio |f - o| / o beyond the float range with a mean inside it is a
    # finite MAPE, to within rounding of the exact mean; a mean beyond it is inf
    from fractions import Fraction

    cases = [([2.0, 1.0], [1e-308, 1.0]), ([2.0, 3.0, 1e-300], [2**-1024, 1e-300, 1e-300]),
             ([-3.0, 1.0, 1.0, 1.0], [1e-308, 1.0, 2.0, 3.0]),
             ([1e300] + [2.0] * 9, [1e-9] + [1.0] * 9)]
    for f, o in cases:
        exact = sum(abs(Fraction(a) - Fraction(b)) / Fraction(b) for a, b in zip(f, o)) / len(f)
        mape = error_stats(f, o)[2]
        assert math.isfinite(mape) and abs(Fraction(mape) - exact) <= exact * 2**-50, (f, o)
    assert error_stats([2.0, 1.0], [5e-309, 1.0])[2] == math.inf
    assert error_stats([math.inf, 1.0], [1e-308, 1.0])[2] == math.inf


def test_error_stats_guards():
    with pytest.raises(AlignmentError):
        error_stats([1.0], [1.0, 2.0])
    with pytest.raises(ValidationError):
        error_stats([1.0, 2.0], [1.0, 0.0])


@st.composite
def _rate_pairs(draw):
    # forecast and observed rates of one length: either anywhere in the float
    # range (nan and inf forecasts, subnormal and inf observed rates too), or
    # about one power of two, some errors exactly zero. The power is anywhere
    # in the range, or near where a step of either path leaves it: the plain
    # path's bounds 2**-250 and 2**251, squares at 2**-511 and 2**512, and
    # the subnormals below 2**-1022
    n = draw(st.integers(1, 30))
    if draw(st.booleans()):
        f = draw(st.lists(st.floats(), min_size=n, max_size=n))
        o = draw(st.lists(st.floats(min_value=0.0, exclude_min=True), min_size=n, max_size=n))
        return f, o
    if draw(st.booleans()):
        scale = draw(st.integers(-1100, 1018))
    else:
        scale = draw(st.sampled_from([-1022, -511, -250, 251, 512])) + draw(st.integers(-40, 40))
    spread = st.integers(-3, 3)
    o = [max(math.ldexp(draw(st.floats(0.5, 4.0)), scale + draw(spread)), 5e-324)
         for _ in range(n)]
    f = [b if draw(st.booleans()) else
         math.ldexp(draw(st.floats(-4.0, 4.0)), scale + draw(spread)) for b in o]
    return f, o


@settings(max_examples=1000, deadline=None)
@given(pair=_rate_pairs())
@example(pair=([3e200, 2e200], [1e200, 1e200]))  # squares past the float range
@example(pair=([1e-170, 3e-170], [2e-170, 1e-170]))  # squares below it
@example(pair=([1e308, 1.0], [1.0, 1.0]))  # an error of at least 2**1023
@example(pair=([-1.7e308, 1.0], [1.7e308, 1.0]))  # a difference past the float range
@example(pair=([1.0, 1.0], [5e-324, 1.0]))  # a ratio over a subnormal rate
@example(pair=([1.5e308, 1.5e308], [1.0, 1.0]))  # finite ratios whose sum overflows
@example(pair=([2.0, 1.0], [1e-308, 1.0]))  # a ratio past the range, its mean inside
@example(pair=([math.inf, 1.0], [1e-308, 1.0]))
@example(pair=([2.0**-250, 1.0], [2.0**251 * (1 - 2.0**-53), 1.0]))  # the plain path's bounds
@example(pair=([2.0**-240 * (1 + 2.0**-52)], [2.0**-240]))  # an error below them
def test_plain_scoring_has_the_bits_of_the_scaled_code(pair):
    # error_stats and each row of a report take the plain formulas only
    # where they give the scaled code's bits, over the whole float range
    f, o = (np.array(x) for x in pair)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = np.array(evaluation._scaled_error_stats(f, o))
        assert np.array(error_stats(f, o)).tobytes() == want.tobytes()
        rows = evaluation._error_rows(np.stack((f, f)), np.stack((o, o)))
    assert rows.tobytes() == np.stack((want, want)).tobytes()


@pytest.mark.parametrize("f, o, plain", [
    ([1.0, 2.0], [2.0, 4.0], True),
    ([0.0, 1.0], [1.0, 1.0], True),  # a zero forecast
    ([1.0, 1.0], [1.0, 1.0], True),  # zero errors
    ([2.0**-250, 1.0], [1.0, 1.0], True),
    ([2.0**-250 * (1 - 2.0**-53), 1.0], [1.0, 1.0], False),
    ([1.0, 1.0], [2.0**-250 * (1 - 2.0**-53), 1.0], False),
    ([2.0**251 * (1 - 2.0**-53), 1.0], [1.0, 1.0], True),
    ([-(2.0**251), 1.0], [1.0, 1.0], False),
    ([1.0, 1.0], [2.0**251, 1.0], False),
    ([2.0**-240 * (1 + 2.0**-52)], [2.0**-240], False),  # |f - o| = 2**-292
    ([math.nan, 1.0], [1.0, 1.0], False),
    ([math.inf, 1.0], [1.0, 1.0], False),
    ([1.0, 1.0], [math.inf, 1.0], False),
])
def test_plain_scoring_bounds(f, o, plain, monkeypatch):
    # every nonzero |f|, o and |f - o| in [2**-250, 2**251), and finite
    calls = []
    scaled = evaluation._scaled_error_stats
    monkeypatch.setattr(evaluation, "_scaled_error_stats",
                        lambda a, b: calls.append(1) or scaled(a, b))
    with np.errstate(all="ignore"):
        error_stats(f, o)
    assert calls == ([] if plain else [1])


def _months(first, last):
    months = [first]
    while months[-1] != last:
        months.append(add_months(*months[-1], 1))
    return months


@pytest.mark.parametrize("first, last", [
    ((2015, 4), (2017, 12)),  # a partial first year
    ((2015, 1), (2017, 5)),  # a partial last year
    ((2015, 4), (2017, 5)),  # both
    ((2015, 3), (2015, 9)),  # a single partial year
    ((2015, 10), (2016, 3)),  # two partial years of one length
    ((2015, 1), (2016, 12)),  # whole years only
])
@pytest.mark.parametrize("huge", [False, True], ids=["plain", "scaled-year"])
def test_yearly_error_report_rows_have_the_bytes_of_error_stats(first, last, huge):
    # each year's row is error_stats of that year alone, byte for byte, also
    # when one year (here the first) must take the scaled path
    months = _months(first, last)
    rng = np.random.default_rng(len(months))
    f = rng.uniform(0.003, 0.007, len(months))
    o = rng.uniform(0.003, 0.007, len(months))
    if huge:
        f[[y == first[0] for y, _ in months]] *= 1e300
    rep = yearly_error_report(list(zip(months, f.tolist())), list(zip(months, o.tolist())), "m")
    years = sorted({y for y, _ in months})
    assert [row[0] for row in rep.per_year] == years
    for year, *triple in rep.per_year:
        pick = [y == year for y, _ in months]
        assert np.array(triple).tobytes() == np.array(error_stats(f[pick], o[pick])).tobytes()
    mean = np.array([row[1:] for row in rep.per_year]).mean(axis=0)
    assert np.array(rep.overall).tobytes() == mean.tobytes()
    assert rep.n_months == len(months)


def test_yearly_error_report_groups_unordered_months_by_year():
    # months need not be consecutive or in order: each year's rates are
    # scored in the order given, and the rows come in year order
    months = [(2016, 3), (2015, 7), (2016, 1), (2018, 2), (2015, 2), (2016, 12)]
    f = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    o = [2.0, 2.5, 2.0, 5.0, 4.0, 7.0]
    rep = yearly_error_report(list(zip(months, f)), list(zip(months, o)), "m")
    for year, *triple in rep.per_year:
        pick = [i for i, (y, _) in enumerate(months) if y == year]
        want = error_stats([f[i] for i in pick], [o[i] for i in pick])
        assert np.array(triple).tobytes() == np.array(want).tobytes()
    assert [row[0] for row in rep.per_year] == [2015, 2016, 2018]
    with pytest.raises(ValidationError, match="strictly positive"):
        yearly_error_report(list(zip(months, f)), list(zip(months, [1.0] * 5 + [0.0])), "m")


def test_yearly_error_report_unweighted_overall():
    months_a = [((2015, m), 1.0) for m in range(1, 13)]
    months_b = [((2016, m), 1.0) for m in range(1, 13)]
    fc = months_a + months_b
    # 2015 observed at 2.0 (50% error), 2016 at 1.25 (20% error)
    ob = [((y, m), 2.0 if y == 2015 else 1.25) for (y, m), _ in fc]
    rep = yearly_error_report(fc, ob, "toy")
    assert rep.model_id == "toy"
    assert rep.n_months == 24
    years = [row[0] for row in rep.per_year]
    assert years == [2015, 2016]
    assert rep.per_year[0][3] == pytest.approx(0.5)
    assert rep.per_year[1][3] == pytest.approx(0.2)
    assert rep.overall[2] == pytest.approx(0.35)  # mean of the yearly rows


def test_yearly_error_report_alignment():
    fc = [((2015, 1), 1.0), ((2015, 2), 1.0)]
    ob = [((2015, 2), 1.0), ((2015, 3), 1.0)]
    with pytest.raises(AlignmentError, match="2015-0"):
        yearly_error_report(fc, ob, "toy")


def test_interval_coverage_strictly_outside():
    months = tuple((2015, m) for m in range(1, 5))
    bands = np.array([
        [1.0, 1.0, 1.0, 1.0],
        [2.0, 2.0, 2.0, 2.0],
    ])
    q = ForecastQuantiles(months=months, median=np.full(4, 1.5), levels=(0.25, 0.75), bands=bands)
    observed = [((2015, 1), 0.5), ((2015, 2), 1.0), ((2015, 3), 2.0), ((2015, 4), 2.5)]
    n, frac = interval_coverage(q, observed, 0.25, 0.75)
    # band edges count as covered
    assert n == 2
    assert frac == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        interval_coverage(q, observed, 0.05, 0.75)


def test_dated_rates(train_series):
    dr = dated_rates(train_series)
    assert dr[0][0] == (2009, 12)
    assert dr[-1][0] == (2015, 1)
    assert dr[1][1] == pytest.approx(train_series.rates[1])


HESTON_DEFAULTS = {
    "c1": 0.00497734627832,
    "mu": 0.136695684862,
    "theta_vol": 0.633262782434,
    "xi": 0.262599599386,
    "kappa": 0.0544470798449,
    "rho": -0.5936,
}


def test_fit_heston_from_stats_defaults(full_series):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params, history = fit_heston_from_stats(
            full_series, (2010, 1), (2014, 12), (2015, 1)
        )
    assert params.c1 == pytest.approx(HESTON_DEFAULTS["c1"], abs=1e-12)
    assert params.mu == pytest.approx(HESTON_DEFAULTS["mu"], abs=1e-12)
    assert math.sqrt(params.theta) == pytest.approx(HESTON_DEFAULTS["theta_vol"], abs=1e-12)
    assert params.v0 == params.theta
    assert params.xi == pytest.approx(HESTON_DEFAULTS["xi"], abs=1e-12)
    assert params.kappa == pytest.approx(HESTON_DEFAULTS["kappa"], abs=1e-12)
    assert params.rho == -0.5936
    assert params.start == (2015, 1)
    assert [s.month for s in params.spikes] == [1, 7, 8]
    assert params.spikes[0].mean_a == pytest.approx(-0.173148374514, abs=1e-10)
    assert len(history) == 12
    assert history[0] == pytest.approx(0.004655405405, abs=1e-10)
    assert history[-1] == pytest.approx(0.00479245283, abs=1e-10)
    # kappa default sits a hair above the volatility-units bound
    bound = params.xi**2 / (2.0 * math.sqrt(params.theta))
    assert params.kappa == pytest.approx(bound * (1 + 1e-6), rel=1e-12)


def test_fit_heston_override_and_rejection(full_series):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params, _ = fit_heston_from_stats(
            full_series, (2010, 1), (2014, 12), (2015, 1),
            overrides={"rho": -0.3, "spikes": ((7, 0.3, 0.05),), "kappa": 0.9},
        )
    assert params.rho == -0.3
    assert params.kappa == 0.9
    assert [s.month for s in params.spikes] == [7]
    with pytest.raises(ValidationError, match="bogus"):
        fit_heston_from_stats(
            full_series, (2010, 1), (2014, 12), (2015, 1), overrides={"bogus": 1.0}
        )
    # a volatility too large to square is named, not a raw OverflowError
    for key in ("theta_vol", "v0_vol"):
        with pytest.raises(ValidationError, match=f"{key} = 1e\\+200 overflows"):
            fit_heston_from_stats(
                full_series, (2010, 1), (2014, 12), (2015, 1), overrides={key: 1e200}
            )


def test_heston_fit_on_two_full_years_needs_an_xi(full_series):
    # 2010-2011 has one yearly vol log-ratio, so vol_of_vol is NaN; an xi
    # override stands in for it
    with pytest.raises(InsufficientDataError, match="3 full calendar years.* has 2$"):
        fit_heston_from_stats(full_series, (2010, 1), (2011, 12), (2012, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params, _ = fit_heston_from_stats(
            full_series, (2010, 1), (2011, 12), (2012, 1), overrides={"xi": 0.2}
        )
    assert params.xi == 0.2 and math.isfinite(params.kappa)


def test_fit_vasicek_from_stats(full_series):
    params, history = fit_vasicek_from_stats(full_series, (2010, 1), (2014, 12), (2015, 1))
    assert params.kappa_v == pytest.approx(4.89432725416, abs=1e-9)
    assert params.sigma_v == pytest.approx(0.633262782434, abs=1e-10)
    assert params.mu == pytest.approx(0.136695684862, abs=1e-10)
    assert params.c1 == pytest.approx(HESTON_DEFAULTS["c1"], abs=1e-12)
    assert len(history) == 12


TRAIN = ((2010, 1), (2014, 12))


def _fitted(fit, series, *window, **kwargs):
    # a fit's parameters and history as text and bytes: repr gives every float in full
    params, history = fit(series, *window, **kwargs)
    return repr(params), np.array(history).tobytes()


@pytest.mark.parametrize("fit", [fit_heston_from_stats, fit_vasicek_from_stats])
def test_window_cache_hit_has_the_bytes_of_a_miss(fit, full_series):
    miss = _fitted(fit, full_series, *TRAIN, (2015, 1))
    assert len(evaluation._windows) == 1
    assert _fitted(fit, full_series, *TRAIN, (2015, 1)) == miss
    assert _fitted(fit, full_series, [2010, 1], [2014, 12], [2015, 1]) == miss  # lists key alike
    assert len(evaluation._windows) == 1
    window = next(iter(evaluation._windows.values()))
    for array in (window.train_rates, window.profile.yearly_vols, window.season.deviations,
                  window.season.mean, window.season.std):
        assert not array.flags.writeable


def test_feller_warning_fires_on_every_fit(full_series):
    for _ in range(2):
        with pytest.warns(FellerWarning):
            fit_heston_from_stats(full_series, *TRAIN, (2015, 1), overrides={"kappa": 0.01})
    assert len(evaluation._windows) == 1


@pytest.mark.parametrize("fit, overrides", [
    (fit_heston_from_stats, {"theta_vol": 0.5, "v0_vol": 0.7, "xi": 0.3, "kappa": 2.0,
                             "rho": -0.2, "spike_threshold": 0.05, "c1": 0.01, "mu": 0.05,
                             "scheme": "truncate"}),
    (fit_vasicek_from_stats, {"kappa_v": 3.0, "sigma_v": 0.4, "spikes": [(1, -0.1, 0.1)],
                              "c1": 0.01}),
], ids=["heston", "vasicek"])
def test_an_override_stays_in_its_call(fit, overrides, full_series):
    # a plain fit and an override fit on one window read one cached entry,
    # and each gives what it gives on a cold cache, in either order
    given = dict(overrides)
    plain = _fitted(fit, full_series, *TRAIN, (2015, 1))
    changed = _fitted(fit, full_series, *TRAIN, (2015, 1), overrides=overrides)
    assert _fitted(fit, full_series, *TRAIN, (2015, 1)) == plain != changed
    evaluation._windows.clear()
    assert _fitted(fit, full_series, *TRAIN, (2015, 1), overrides=overrides) == changed
    assert _fitted(fit, full_series, *TRAIN, (2015, 1)) == plain
    assert overrides == given and len(evaluation._windows) == 1


def test_window_cache_misses_on_another_start_or_window(full_series):
    # the same rates dated one month later, another training window and
    # another first test month each read the series afresh
    later = MonthlySeries(tuple(
        dataclasses.replace(ob, year=y, month=m) for ob, (y, m) in
        zip(full_series.observations, (add_months(ob.year, ob.month, 1)
                                       for ob in full_series.observations))
    ))
    assert later.rates.tobytes() == full_series.rates.tobytes()
    calls = [(full_series, *TRAIN, (2015, 1)), (later, *TRAIN, (2015, 1)),
             (full_series, (2010, 1), (2013, 12), (2014, 1)),
             (full_series, *TRAIN, (2015, 2))]
    warm = [_fitted(fit_vasicek_from_stats, *call) for call in calls]
    assert len(evaluation._windows) == len(calls) == len(set(warm))
    for call, fitted in zip(calls, warm):
        evaluation._windows.clear()
        assert _fitted(fit_vasicek_from_stats, *call) == fitted


@pytest.mark.parametrize("window, match", [
    (((2010.0, 1), (2014, 12), (2015, 1)), r"^train_start must be an integer, not 2010\.0$"),
    (((2010, 1), (2014, 12.0), (2015, 1)), r"^train_end must be an integer, not 12\.0$"),
    (((2010, 1), (2014, 12), ("2015", 1)), r"^test_start must be an integer, not '2015'$"),
])
def test_window_months_are_integers_warm_or_cold(window, match, full_series):
    # a float month equals an integer one as a key, so it is refused before the cache
    for _ in range(2):
        with pytest.raises(ValidationError, match=match):
            fit_vasicek_from_stats(full_series, *window)
        fit_vasicek_from_stats(full_series, *TRAIN, (2015, 1))
    as_numpy = [tuple(np.int64(x) for x in month) for month in (*TRAIN, (2015, 1))]
    assert _fitted(fit_vasicek_from_stats, full_series, *as_numpy) == _fitted(
        fit_vasicek_from_stats, full_series, *TRAIN, (2015, 1))


def test_a_window_that_raises_is_not_kept(full_series):
    # one full year has no volatility profile: every call raises
    for _ in range(2):
        with pytest.raises(InsufficientDataError, match="at least 2 full calendar years"):
            fit_vasicek_from_stats(full_series, (2010, 1), (2010, 12), (2011, 1))
    assert not evaluation._windows
    # two full years have statistics, which are kept, but no heston vol-of-vol
    for _ in range(2):
        with pytest.raises(InsufficientDataError, match="3 full calendar years"):
            fit_heston_from_stats(full_series, (2010, 1), (2011, 12), (2012, 1))
    assert len(evaluation._windows) == 1


def test_window_cache_keeps_the_64_most_recently_used(full_series):
    windows = [((2010, 1), end, add_months(*end, k)) for end in ((2013, 12), (2014, 12))
               for k in range(1, 41)]
    for window in windows[:64]:
        fit_vasicek_from_stats(full_series, *window)
    fit_vasicek_from_stats(full_series, *windows[0])  # now the most recently used
    for window in windows[64:]:
        fit_vasicek_from_stats(full_series, *window)
        assert len(evaluation._windows) == 64
    kept = [key[2:] for key in evaluation._windows]
    assert kept == [*windows[17:64], windows[0], *windows[64:]]  # windows[1:17] went first


def test_window_cache_holds_under_concurrent_fits_and_a_short_switch_interval(full_series):
    # four threads fit 80 windows in turn from different offsets, switching
    # every 10 us, so they hit, miss and evict at once: every fit gives its
    # cold bytes, every caller finishes, and the cache ends within its bound
    windows = [((2010, 1), end, add_months(*end, k)) for end in ((2013, 12), (2014, 12))
               for k in range(1, 41)]
    want = {}
    for window in windows:
        evaluation._windows.clear()
        want[window] = _fitted(fit_vasicek_from_stats, full_series, *window)
    got, errors = [], []

    def fits(offset):
        try:
            for window in windows[offset:] + windows[:offset]:
                got.append(_fitted(fit_vasicek_from_stats, full_series, *window) == want[window])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    callers = [threading.Thread(target=fits, args=(offset,)) for offset in (0, 20, 40, 60)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert errors == [] and got == [True] * (4 * len(windows))
    assert len(evaluation._windows) <= 64


def test_default_spike_threshold_excludes_march(train_series):
    # at the default threshold only the three strong months survive
    from crashvol.series_stats import detect_spike_months, season_profile

    sp = season_profile(train_series)
    assert detect_spike_months(sp, DEFAULT_SPIKE_THRESHOLD) == [1, 7, 8]


def test_gaussian_quantiles_bands():
    months = tuple((2015, m) for m in range(1, 4))
    pts = np.array([1.0, 2.0, 3.0])
    var = np.array([1.0, 4.0, 9.0])
    q = gaussian_quantiles(months, pts, var, (0.05, 0.25, 0.75, 0.95))
    from scipy.stats import norm

    z75 = norm.ppf(0.75)
    assert np.allclose(q.median, pts)
    assert q.bands[2] == pytest.approx(pts + z75 * np.sqrt(var))
    assert q.bands[1] == pytest.approx(pts - z75 * np.sqrt(var))
    assert q.bands[0] == pytest.approx(pts + norm.ppf(0.05) * np.sqrt(var))
    # z comes from statistics.NormalDist (Wichura's AS 241), within 1e-14 of scipy
    from scipy.special import ndtri

    # levels as `--levels` reads them: every k/10 % and random percentages at
    # 6 significant digits, tails down to 0.0001 % included
    tails = 10.0 ** np.random.default_rng(3).uniform(-4.0, 1.7, 2000)
    percents = np.concatenate([np.arange(1, 1000) / 10, tails, 100.0 - tails])
    levels = np.unique([float(f"{x:.6g}") for x in percents]) / 100
    q = gaussian_quantiles([(2015, 1)], np.zeros(1), np.ones(1), levels)
    np.testing.assert_allclose(q.bands[:, 0], ndtri(levels), rtol=1e-14, atol=0)
    for bad in ((0.0, 0.5), (0.5, 1.0), (math.nan,), (0.25, 0.05)):
        with pytest.raises(ValidationError):
            gaussian_quantiles(months, pts, var, bad)


def test_backtest_requires_adjacent_windows(full_series):
    from crashvol.data_ingest import RangeError

    with pytest.raises(RangeError, match="immediately precede"):
        backtest(
            full_series,
            ((2010, 1), (2014, 12)),
            ((2015, 2), (2019, 12)),
            model="heston",
            config={},
            seed=1,
        )


@pytest.mark.parametrize("train, test, month", [
    (((2010, 0), (2014, 12)), ((2015, 1), (2019, 12)), "month 0 outside 1..12 (2010)"),
    (((2010, 1), (2014, 12)), ((2015, 1), (2019, 13)), "month 13 outside 1..12 (2019)"),
], ids=["train-start-month-0", "test-end-month-13"])
def test_backtest_window_months_must_be_calendar_months(full_series, train, test, month):
    # a training window from (2010, 0) would silently start at 2009-12
    with pytest.raises(ValidationError, match=f"^{re.escape(month)}$"):
        backtest(full_series, train, test, model="heston", config={}, seed=1)


def test_backtest_rejects_unknown_keys(full_series):
    # scheme and spike_threshold are parameter overrides, not config keys
    for key, value in (("paths", 10), ("scheme", "truncate"), ("spike_threshold", 0.1)):
        with pytest.raises(ValidationError, match=key):
            backtest(
                full_series,
                ((2010, 1), (2014, 12)),
                ((2015, 1), (2019, 12)),
                model="heston",
                config={key: value},
                seed=1,
            )
    with pytest.raises(ValidationError):
        backtest(
            full_series,
            ((2010, 1), (2014, 12)),
            ((2015, 1), (2019, 12)),
            model="sarima",
            config={},
            seed=1,
        )


@pytest.mark.parametrize("levels", [(0.0, 0.5), (0.75, 0.25)], ids=["zero", "descending"])
def test_backtest_rejects_bad_levels(full_series, levels):
    # the Gaussian bands would be -inf at level 0 and unordered when descending
    with pytest.raises(ValidationError, match="quantile level"):
        backtest(
            full_series,
            ((2010, 1), (2014, 12)),
            ((2015, 1), (2019, 12)),
            model="arima",
            config={"levels": levels},
        )


@pytest.mark.parametrize("model", ["arima", "arima-garch"])
def test_arima_backtest_rejects_overrides(full_series, model):
    # the ARIMA fits read no parameter override, so one given is an error
    with pytest.raises(ValidationError, match="overrides: rho"):
        backtest(
            full_series,
            ((2010, 1), (2014, 12)),
            ((2015, 1), (2019, 12)),
            model=model,
            config={"overrides": {"rho": 0.3}},
        )


@pytest.mark.parametrize("model,key", [("heston", "kappa"), ("vasicek", "kappa_v")])
def test_backtest_rejects_a_mean_reversion_the_monthly_step_cannot_hold(full_series, model, key):
    # explicit Euler scales a deviation by (1 - kappa/12) a month, so 24 per
    # year flips its sign every month and anything above grows without bound
    with pytest.raises(ValidationError, match=rf"^violated invariant: {key} < 24 per year.*not 24$"):
        backtest(
            full_series,
            ((2010, 1), (2014, 12)),
            ((2015, 1), (2019, 12)),
            model=model,
            config={"n_paths": 50, "overrides": {key: 24.0}},
            seed=1,
        )


def test_backtest_matches_manual_composition(full_series, holdout_series):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        q, rep = backtest(
            full_series,
            ((2010, 1), (2014, 12)),
            ((2015, 1), (2019, 12)),
            model="heston",
            config={"n_paths": 300},
            seed=17,
        )
        params, history = fit_heston_from_stats(
            full_series, (2010, 1), (2014, 12), (2015, 1)
        )
    res = simulate_heston(params, 60, 300, seed=17, history_tail=history)
    q2 = forecast_quantiles(res, q.levels)
    assert np.array_equal(q.median, q2.median)
    assert np.array_equal(q.bands, q2.bands)
    observed = holdout_series.rates[holdout_series.index_of(2015, 1):]
    rep2 = yearly_error_report(
        list(zip(q.months, q.median)),
        list(zip(q.months, observed)),
        "heston",
    )
    assert rep.overall == pytest.approx(rep2.overall, rel=1e-12)


@pytest.mark.parametrize("scheme", ["reflect", "truncate"])
@pytest.mark.parametrize("model", ["heston", "vasicek"])
def test_streamed_forecast_has_the_bytes_of_the_collected_paths(model, scheme, full_series):
    # the program's forecast takes each month's quantiles from its row as it
    # is simulated and keeps a ring of at most 12 base-rate rows; it gives the
    # bytes of forecast_quantiles over the library's full arrays, at horizons
    # on either side of the ring's length, with a spike in the first month
    # (January) that reads none, 3 or all 12 values of the history tail
    fit, simulate = {"heston": (fit_heston_from_stats, simulate_heston),
                     "vasicek": (fit_vasicek_from_stats, simulate_vasicek)}[model]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params, history = fit(full_series, (2010, 1), (2014, 12), (2015, 1))
        params = dataclasses.replace(params, scheme=scheme)
    assert params.start == (2015, 1) and 1 in {s.month for s in params.spikes}
    assert len(history) == 12
    for seed, n_paths, horizon in itertools.product(
        (1, 7, 2**64 + 3), (1, 2, 7, 500, 4999), (1, 11, 12, 13, 60)
    ):
        for tail in ((), history[-3:], history):
            got = MODELS[model].quantiles((params, tail), horizon, n_paths, seed, DEFAULT_LEVELS)
            want = forecast_quantiles(simulate(params, horizon, n_paths, seed, tail),
                                      DEFAULT_LEVELS)
            case = (seed, n_paths, horizon, len(tail))
            assert got.months == want.months and got.levels == want.levels, case
            assert got.median.tobytes() == want.median.tobytes(), case
            assert got.bands.tobytes() == want.bands.tobytes(), case


@pytest.mark.parametrize("n_paths", [5000, 20000])
@pytest.mark.parametrize("model", ["heston", "vasicek"])
def test_streamed_backtest_keeps_no_month_array(model, n_paths, full_series):
    # a warm backtest's traced peak stays below half of one (60, paths) array:
    # the forecast keeps 12 months of base rates, not every month's paths
    train, test = ((2010, 1), (2014, 12)), ((2015, 1), (2019, 12))
    backtest(full_series, train, test, model, {"n_paths": n_paths}, seed=1)
    tracemalloc.start()
    try:
        backtest(full_series, train, test, model, {"n_paths": n_paths}, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 60 * n_paths * 8, peak


def test_backtest_vasicek_variance_plane(full_series):
    q, rep = backtest(
        full_series,
        ((2010, 1), (2014, 12)),
        ((2015, 1), (2019, 12)),
        model="vasicek",
        config={"n_paths": 200},
        seed=3,
    )
    assert rep.model_id == "vasicek"
    assert len(q.months) == 60
    assert q.months[0] == (2015, 1)


@pytest.mark.parametrize("n_paths", [2.7, "12", None])
def test_backtest_rejects_non_integer_path_counts(full_series, n_paths):
    # the simulators' rule: no float is truncated and no string parsed
    with pytest.raises(ValidationError, match=f"^n_paths must be an integer, not {n_paths!r}$"):
        backtest(full_series, ((2010, 1), (2014, 12)), ((2015, 1), (2019, 12)),
                 model="vasicek", config={"n_paths": n_paths}, seed=3)


@pytest.mark.parametrize("model_id", MODEL_IDS)
@pytest.mark.parametrize("n_paths", [0, -5])
def test_backtest_floors_path_counts_at_one(full_series, model_id, n_paths):
    # every model reads n_paths by the simulators' rule, ARIMA models too
    with pytest.raises(ValidationError,
                       match=rf"^n_paths must be at least 1 \(n_paths >= 1\), not {n_paths}$"):
        backtest(full_series, ((2010, 1), (2014, 12)), ((2015, 1), (2019, 12)),
                 model=model_id, config={"n_paths": n_paths}, seed=3)


@pytest.mark.parametrize("model_id", MODEL_IDS)
@pytest.mark.parametrize("config, match", [
    ({"orders": 5}, r"^orders must be 3 integers, not 5$"),
    ({"orders": (1, 2)}, r"^orders must be 3 integers, not \(1, 2\)$"),
    ({"orders": (1, 2, 2, 1)}, r"^orders must be 3 integers, not \(1, 2, 2, 1\)$"),
    ({"orders": (1.7, 2, 2)}, r"^orders must be an integer, not 1\.7$"),
    ({"orders": ("1", 2, 2)}, r"^orders must be an integer, not '1'$"),
    ({"garch_orders": (2,)}, r"^garch_orders must be 2 integers, not \(2,\)$"),
    ({"garch_orders": (2.0, 1)}, r"^garch_orders must be an integer, not 2\.0$"),
    ({"overrides": 5}, r"^overrides must be a mapping, not 5$"),
    ({"overrides": [("c1", 0.01)]}, r"^overrides must be a mapping, not \[\('c1', 0\.01\)\]$"),
], ids=["orders-int", "orders-2", "orders-4", "orders-float", "orders-str", "garch-1",
        "garch-float", "overrides-int", "overrides-pairs"])
def test_backtest_config_is_checked_where_it_is_read(full_series, model_id, config, match):
    # every model reads its config by one rule: one ValidationError naming the key
    with pytest.raises(ValidationError, match=match):
        backtest(full_series, ((2010, 1), (2014, 12)), ((2015, 1), (2019, 12)),
                 model=model_id, config={"n_paths": 20, **config}, seed=3)


def test_backtest_numpy_integer_path_count(full_series):
    train, test = ((2010, 1), (2014, 12)), ((2015, 1), (2019, 12))
    q_int, _ = backtest(full_series, train, test, "vasicek", {"n_paths": 200}, seed=3)
    q_np, _ = backtest(full_series, train, test, "vasicek", {"n_paths": np.int64(200)}, seed=3)
    assert q_np.median.tobytes() == q_int.median.tobytes()
    assert q_np.bands.tobytes() == q_int.bands.tobytes()


@pytest.mark.parametrize("model_id", MODEL_IDS)
def test_model_file_forecast_matches_backtest(model_id, full_series, tmp_path):
    # fit -> file -> read -> quantiles agrees with the in-memory backtest up
    # to the 12 significant digits the file stores
    train, test = ((2010, 1), (2014, 12)), ((2015, 1), (2019, 12))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        q_mem, _ = backtest(full_series, train, test, model_id, {"n_paths": 300}, seed=5)
        model = MODELS[model_id]
        options = {"overrides": {}, "orders": (1, 2, 2), "garch_orders": (2, 1)}
        state = model.fit(full_series, train, test[0], options)
        path = tmp_path / f"{model_id}.params"
        model.write(state, path)
        q_file = model.quantiles(model.read(path), 60, 300, 5, DEFAULT_LEVELS)
    assert q_file.months == q_mem.months
    assert q_file.levels == q_mem.levels
    np.testing.assert_allclose(q_file.median, q_mem.median, rtol=1e-10)
    np.testing.assert_allclose(q_file.bands, q_mem.bands, rtol=1e-10)


def test_write_error_report_and_coverage(tmp_path):
    fc = [((2015, m), 1.0) for m in range(1, 13)]
    ob = [((2015, m), 1.25) for m in range(1, 13)]
    rep = yearly_error_report(fc, ob, "toy")
    out = tmp_path / "rep.csv"
    write_error_report(rep, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "model,year,mae,rmse,mape"
    assert lines[1].startswith("toy,2015,0.25,0.25,0.2")
    assert lines[-1].startswith("toy,overall,")
    cov = tmp_path / "cov.csv"
    write_coverage(cov, 0.25, 0.75, 5, 5 / 60)
    text = cov.read_text().strip().splitlines()
    assert text[0] == "low,high,n_outside,frac_outside"
    assert text[1].startswith("0.25,0.75,5,0.0833")
    for path in (out, cov):  # lines end with LF, as in every other CSV
        data = path.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n")
