import csv
import math
import statistics
import struct
import warnings
from dataclasses import fields, is_dataclass
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crashvol.data_ingest import (
    InsufficientDataError,
    MonthlyObservation,
    MonthlySeries,
    ValidationError,
    add_months,
    slice_window,
)
from crashvol.series_stats import (
    GrowthEstimate,
    SeasonProfile,
    VolatilityProfile,
    annual_growth_rate,
    annualized_volatility,
    detect_spike_months,
    distribution_diagnostics,
    jarque_bera,
    log_differences,
    rate_vol_correlation,
    season_profile,
    volatility_profile,
)

# regression values computed from the bundled 2010-2014 file
T1_YEARLY = {
    2010: 0.657189172739,
    2011: 0.778725603761,
    2012: 0.557168797301,
    2013: 0.681780175368,
    2014: 0.573530073117,
}
T1_WINDOW = 0.633262782434
T1_VOL_OF_VOL = 0.262599599386
T1_GROWTH = 0.136695684862

A1_WINDOW = 0.686140219289
A1_VOL_OF_VOL = 0.11734138277
A1_GROWTH = 0.0316047887599


def test_log_differences():
    ld = log_differences([1.0, math.e, math.e])
    assert ld == pytest.approx([1.0, 0.0])
    with pytest.raises(ValidationError):
        log_differences([1.0, 0.0])
    with pytest.raises(InsufficientDataError):
        log_differences([1.0])


def test_annualized_volatility_hand_value():
    # sample sd of [0.1, -0.1] is 0.1*sqrt(2), annualized by sqrt(12)
    assert annualized_volatility([0.1, -0.1]) == pytest.approx(
        0.1 * math.sqrt(2) * math.sqrt(12)
    )


def test_yearly_volatilities(train_series):
    vp = volatility_profile(train_series)
    assert vp.years == tuple(T1_YEARLY)
    for year, vol in zip(vp.years, vp.yearly_vols):
        assert vol == pytest.approx(T1_YEARLY[year], abs=1e-10)

    # independent recomputation from the raw CSV rows, stdlib only: rate is
    # crashes per thousand VMT, each log-difference belongs to its endpoint's
    # year, volatility is the sample sd scaled by sqrt(12)
    with open(files("crashvol") / "data" / "dc_2010_2014.csv", newline="") as fh:
        rows = [(int(r["year"]), int(r["crashes"]) / int(r["vmt_thousands"]))
                for r in csv.DictReader(fh)]
    logdiffs = {}
    for (_, prev), (year, rate) in zip(rows, rows[1:]):
        logdiffs.setdefault(year, []).append(math.log(rate / prev))
    for year, expected in T1_YEARLY.items():
        assert len(logdiffs[year]) == 12
        vol = statistics.stdev(logdiffs[year]) * math.sqrt(12)
        assert vol == pytest.approx(expected, abs=1e-9)


def test_window_volatility(train_series):
    vp = volatility_profile(train_series)
    assert vp.window_vol == pytest.approx(T1_WINDOW, abs=1e-10)
    assert vp.vol_of_vol == pytest.approx(T1_VOL_OF_VOL, abs=1e-10)


def test_window_uses_full_years_only(train_series):
    # the leading December feeds a boundary log-difference into the window;
    # the trailing January (partial year) must stay out of it
    trimmed = slice_window(train_series, (2009, 12), (2014, 12))
    vp_full = volatility_profile(train_series)
    vp_trim = volatility_profile(trimmed)
    assert vp_trim.window_vol == pytest.approx(vp_full.window_vol, abs=1e-12)
    inner = slice_window(train_series, (2010, 1), (2014, 12))
    vp_inner = volatility_profile(inner)
    assert vp_inner.window_vol != pytest.approx(vp_full.window_vol, abs=1e-6)
    # differences belong to their endpoint's year, so dropping the lead-in
    # December moves only the first year's volatility
    assert vp_inner.yearly_vols[0] != pytest.approx(vp_full.yearly_vols[0], abs=1e-6)
    assert np.allclose(vp_inner.yearly_vols[1:], vp_full.yearly_vols[1:])


def test_volatility_profile_needs_two_full_years():
    obs = tuple(
        MonthlyObservation(2010, m, 100 + m, 100000) for m in range(1, 13)
    )
    with pytest.raises(InsufficientDataError):
        volatility_profile(MonthlySeries(obs))


def test_two_year_profile_has_no_vol_of_vol():
    obs = []
    for y in (2010, 2011):
        obs.extend(MonthlyObservation(y, m, 90 + ((7 * m + y) % 23), 100000) for m in range(1, 13))
    vp = volatility_profile(MonthlySeries(tuple(obs)))
    assert len(vp.yearly_vols) == 2
    assert vp.window_vol > 0
    assert math.isnan(vp.vol_of_vol)


def test_holdout_profile(holdout_series):
    vp = volatility_profile(holdout_series)
    assert vp.window_vol == pytest.approx(A1_WINDOW, abs=1e-10)
    assert vp.vol_of_vol == pytest.approx(A1_VOL_OF_VOL, abs=1e-10)


def test_growth_rates(train_series, holdout_series):
    g1 = annual_growth_rate(train_series)
    assert g1.annual_growth == pytest.approx(T1_GROWTH, abs=1e-10)
    assert g1.method == "geometric-mean-of-yearly-mean-ratios"
    g2 = annual_growth_rate(holdout_series)
    assert g2.annual_growth == pytest.approx(A1_GROWTH, abs=1e-10)


def test_growth_on_constructed_series():
    # two flat years at 0.001 and 0.0012: growth is exactly 20%
    obs = []
    for y, level in ((2010, 100), (2011, 120)):
        obs.extend(MonthlyObservation(y, m, level, 100000) for m in range(1, 13))
    g = annual_growth_rate(MonthlySeries(tuple(obs)))
    assert g.annual_growth == pytest.approx(0.2, abs=1e-12)


def test_season_profile_values(train_series):
    sp = season_profile(train_series)
    assert sp.years == (2010, 2011, 2012, 2013, 2014)
    assert sp.deviations.shape == (5, 12)
    assert sp.mean[0] == pytest.approx(-0.173148374514, abs=1e-10)
    assert sp.std[0] == pytest.approx(0.125157599252, abs=1e-10)
    assert sp.mean[6] == pytest.approx(0.333957637062, abs=1e-10)
    assert sp.std[6] == pytest.approx(0.0562614772298, abs=1e-10)
    assert sp.mean[7] == pytest.approx(-0.120988731862, abs=1e-10)
    assert sp.std[7] == pytest.approx(0.0410859980574, abs=1e-10)
    # deviations are relative to the own-year mean, so each row sums to ~0
    assert np.allclose(sp.deviations.sum(axis=1), 0.0, atol=1e-12)


def test_season_profile_single_year_has_zero_std():
    obs = tuple(MonthlyObservation(2010, m, 90 + m, 100000) for m in range(1, 13))
    sp = season_profile(MonthlySeries(obs))
    assert np.all(sp.std == 0.0)


def test_spike_detection_thresholds(train_series):
    sp = season_profile(train_series)
    assert detect_spike_months(sp, 0.12) == [1, 7, 8]
    # March sits at a -10.7% mean deviation with a stable sign, so a looser
    # threshold pulls it in
    assert detect_spike_months(sp, 0.10) == [1, 3, 7, 8]
    assert sp.mean[2] == pytest.approx(-0.107259774778, abs=1e-10)


def test_spike_detection_requires_stable_sign():
    # month 6 alternates sign despite a large mean magnitude
    obs = []
    for y, junes in ((2010, 260), (2011, 50)):
        for m in range(1, 13):
            obs.append(MonthlyObservation(y, m, junes if m == 6 else 100, 100000))
    profile = season_profile(MonthlySeries(tuple(obs)))
    assert abs(profile.mean[5]) > 0.2
    assert 6 not in detect_spike_months(profile, 0.2)


def test_rate_vol_correlation(train_series):
    assert rate_vol_correlation(train_series) == pytest.approx(
        -0.596390266713, abs=1e-10
    )


def test_rate_vol_correlation_needs_three_years():
    obs = []
    for y in (2010, 2011):
        obs.extend(MonthlyObservation(y, m, 90 + m + y % 7, 100000) for m in range(1, 13))
    with pytest.raises(InsufficientDataError):
        rate_vol_correlation(MonthlySeries(tuple(obs)))


def test_jarque_bera_normal_sample():
    rng = np.random.default_rng(3)
    jb, p = jarque_bera(rng.standard_normal(5000))
    assert jb < 6.0
    assert p == pytest.approx(math.exp(-jb / 2.0), rel=1e-12)


def test_jarque_bera_hand_value():
    x = np.array([0.0, 1.0, 2.0, 3.0, 10.0])
    n = x.size
    dev = x - x.mean()
    m2 = np.mean(dev**2)
    skew = np.mean(dev**3) / m2**1.5
    kurt = np.mean(dev**4) / m2**2
    expected = n / 6.0 * (skew**2 + (kurt - 3.0) ** 2 / 4.0)
    jb, _ = jarque_bera(x)
    assert jb == pytest.approx(expected, rel=1e-12)


def test_distribution_diagnostics(train_series):
    dd = distribution_diagnostics(train_series)
    assert dd.rate_counts.sum() == len(train_series)
    assert dd.logdiff_counts.sum() == len(train_series) - 1
    assert dd.rate_counts.size == 10
    assert dd.rate_bin_edges.size == 11
    assert dd.jarque_bera == pytest.approx(6.24462201788, abs=1e-9)
    assert dd.jb_pvalue == pytest.approx(0.0440552386345, abs=1e-10)


def test_distribution_diagnostics_guards():
    obs = tuple(MonthlyObservation(2010, m, 100, 100000) for m in range(1, 13))
    with pytest.raises(InsufficientDataError):
        distribution_diagnostics(MonthlySeries(obs))


# A per-month calendar-year partition: the reference that the 12-month row
# blocks of series_stats must reproduce byte for byte.

def _ref_full_years(series):
    have = {}
    for y, m in series.months:
        have.setdefault(y, set()).add(m)
    return sorted(y for y, ms in have.items() if len(ms) == 12)


def _ref_yearly_means(series, years):
    return np.array([
        float(np.mean([series.rates[i] for i, ym in enumerate(series.months) if ym[0] == y]))
        for y in years
    ])


def _ref_volatility_profile(series):
    years = _ref_full_years(series)
    if len(years) < 2:
        raise InsufficientDataError("volatility profile needs at least 2 full calendar years")
    ld = log_differences(series.rates)
    end_years = np.array([ym[0] for ym in series.months[1:]])
    vols = np.array([annualized_volatility(ld[end_years == y]) for y in years])
    vol_ld = np.log(vols[1:] / vols[:-1])
    vov = float(np.std(vol_ld, ddof=1)) if vol_ld.size >= 2 else math.nan
    window = annualized_volatility(ld[np.isin(end_years, years)])
    return VolatilityProfile(tuple(years), vols, window, vov)


def _ref_annual_growth_rate(series):
    years = _ref_full_years(series)
    if len(years) < 2:
        raise InsufficientDataError("growth rate needs at least 2 full calendar years")
    means = _ref_yearly_means(series, years)
    ratios = means[1:] / means[:-1]
    growth = float(np.prod(ratios) ** (1.0 / len(ratios)) - 1.0)
    return GrowthEstimate(growth, "geometric-mean-of-yearly-mean-ratios")


def _ref_season_profile(series):
    years = _ref_full_years(series)
    if not years:
        raise InsufficientDataError("season profile needs at least 1 full calendar year")
    rows = []
    for y in years:
        r = np.array([series.rates[series.index_of(y, m)] for m in range(1, 13)])
        rows.append(r / r.mean() - 1.0)
    dev = np.array(rows)
    std = np.std(dev, axis=0, ddof=1) if len(years) > 1 else np.zeros(12)
    return SeasonProfile(tuple(years), dev, dev.mean(axis=0), std)


def _ref_detect_spike_months(profile, threshold):
    if threshold <= 0:
        raise ValidationError("threshold must be positive")
    out = []
    for m in range(12):
        if abs(profile.mean[m]) < threshold:
            continue
        signs = np.sign(profile.deviations[:, m])
        if np.all(signs == signs[0]) and signs[0] != 0:
            out.append(m + 1)
    return out


def _ref_rate_vol_correlation(series):
    prof = _ref_volatility_profile(series)
    if len(prof.years) < 3:
        raise InsufficientDataError("correlation needs at least 3 full calendar years")
    means = _ref_yearly_means(series, list(prof.years))
    for name, x in (("mean rates", means), ("volatilities", prof.yearly_vols)):
        if np.all(x == x[0]):
            raise ValidationError(f"correlation is undefined: the yearly {name} are all equal")
    return float(np.corrcoef(means, prof.yearly_vols)[0, 1])


def _as_bytes(value):
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return struct.pack("<d", value)
    if is_dataclass(value):
        return type(value).__name__, tuple(_as_bytes(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, (list, tuple)):
        return type(value).__name__, tuple(_as_bytes(v) for v in value)
    return type(value).__name__, value


def _outcome(fn, *args):
    try:
        return "ok", _as_bytes(fn(*args))
    except Exception as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    start=st.tuples(st.integers(1990, 2030), st.integers(1, 12)),
    n=st.integers(12, 90),
    # crash counts and VMT cycle through drawn patterns, so constant series,
    # series that repeat every 12 months and zero counts all occur
    crashes=st.lists(st.integers(0, 3000), min_size=1, max_size=90),
    vmt=st.lists(st.floats(1e3, 1e6), min_size=1, max_size=24),
    threshold=st.sampled_from([0.0, 0.01, 0.05, 0.12, 0.3, 1.0, math.nan]),
)
def test_year_partition_matches_a_per_month_partition(start, n, crashes, vmt, threshold):
    months = [add_months(*start, k) for k in range(n)]
    series = MonthlySeries(tuple(
        MonthlyObservation(y, m, crashes[k % len(crashes)], vmt[k % len(vmt)])
        for k, (y, m) in enumerate(months)
    ))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # zero yearly vols meet a log
        for fn, ref in (
            (volatility_profile, _ref_volatility_profile),
            (annual_growth_rate, _ref_annual_growth_rate),
            (season_profile, _ref_season_profile),
            (rate_vol_correlation, _ref_rate_vol_correlation),
        ):
            assert _outcome(fn, series) == _outcome(ref, series), fn.__name__
        try:
            profile = season_profile(series)
        except InsufficientDataError:
            return
        assert _outcome(detect_spike_months, profile, threshold) == _outcome(
            _ref_detect_spike_months, _ref_season_profile(series), threshold
        )
