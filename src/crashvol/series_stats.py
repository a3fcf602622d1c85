"""Descriptive statistics of monthly crash-rate series.

Volatilities are annualized sample standard deviations of monthly
log-differences (sigma * sqrt(12)). Yearly figures read the full calendar
years, which in a gap-free series are consecutive 12-month rows starting at
the first January. Each log-difference belongs to the year of its endpoint
month, so a January entry carries the difference from the preceding
December. A leading partial year (for example a lone December row)
contributes only that boundary difference; a trailing partial year is
ignored by the whole-window statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_ingest import InsufficientDataError, MonthlySeries, ValidationError


def log_differences(rates) -> np.ndarray:
    """ln(r[i+1] / r[i]) for consecutive rates; requires positive inputs."""
    r = np.asarray(rates, dtype=float)
    if r.size < 2:
        raise InsufficientDataError("need at least 2 rates for log-differences")
    if np.any(r <= 0):
        raise ValidationError("log-differences need strictly positive rates")
    return np.log(r[1:] / r[:-1])


def annualized_volatility(logdiffs) -> float:
    """Sample (n-1) standard deviation of log-differences, scaled by sqrt(12)."""
    x = np.asarray(logdiffs, dtype=float)
    if x.size < 2:
        raise InsufficientDataError("need at least 2 log-differences")
    return float(np.std(x, ddof=1) * math.sqrt(12.0))


def _full_years(series: MonthlySeries) -> tuple[tuple[int, ...], int, np.ndarray]:
    """The full calendar years, the row of their first January, and their
    rates as a (years, 12) view: consecutive 12-month rows of the series."""
    year, month = series.start
    first = (13 - month) % 12
    n = max(len(series) - first, 0) // 12
    years = tuple(range(year + (month > 1), year + (month > 1) + n))
    return years, first, series.rates[first : first + 12 * n].reshape(n, 12)


@dataclass(frozen=True)
class VolatilityProfile:
    years: tuple[int, ...]
    yearly_vols: np.ndarray
    window_vol: float
    vol_of_vol: float


def volatility_profile(series: MonthlySeries) -> VolatilityProfile:
    """Per-calendar-year annualized vols plus whole-window vol and vol-of-vol.

    Only full calendar years enter the profile. The window volatility pools
    every log-difference whose endpoint lies in a full year, which includes
    the December-to-January boundary difference when a preceding December
    is part of the series.
    """
    years, first, _ = _full_years(series)
    if len(years) < 2:
        raise InsufficientDataError("volatility profile needs at least 2 full calendar years")
    ld = log_differences(series.rates)
    # ld[i] ends at row i + 1, so the differences ending at rows lo..hi-1 are ld[lo-1:hi-1]
    end = first + 12 * len(years)
    vols = np.array([
        annualized_volatility(ld[max(lo - 1, 0) : lo + 11]) for lo in range(first, end, 12)
    ])
    # vol-of-vol is the plain sample sd of the yearly log-diffs, not annualized;
    # a 2-year window has a single diff and no spread estimate, and a zero
    # yearly vol makes it NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        vol_ld = np.log(vols[1:] / vols[:-1])
        vov = float(np.std(vol_ld, ddof=1)) if vol_ld.size >= 2 else math.nan
    return VolatilityProfile(
        years=years,
        yearly_vols=vols,
        window_vol=annualized_volatility(ld[max(first - 1, 0) : end - 1]),
        vol_of_vol=vov,
    )


@dataclass(frozen=True)
class GrowthEstimate:
    annual_growth: float
    method: str


def annual_growth_rate(series: MonthlySeries) -> GrowthEstimate:
    """Geometric mean of year-over-year ratios of calendar-year mean rates."""
    years, _, block = _full_years(series)
    if len(years) < 2:
        raise InsufficientDataError("growth rate needs at least 2 full calendar years")
    means = block.mean(axis=1)
    ratios = means[1:] / means[:-1]
    growth = float(np.prod(ratios) ** (1.0 / len(ratios)) - 1.0)
    return GrowthEstimate(annual_growth=growth, method="geometric-mean-of-yearly-mean-ratios")


@dataclass(frozen=True)
class SeasonProfile:
    """Per-calendar-month deviation statistics against the own-year average.

    `deviations` has one row per full calendar year and one column per month,
    holding r / year_mean - 1 as fractions.
    """

    years: tuple[int, ...]
    deviations: np.ndarray
    mean: np.ndarray
    std: np.ndarray


def season_profile(series: MonthlySeries) -> SeasonProfile:
    years, _, block = _full_years(series)
    if not years:
        raise InsufficientDataError("season profile needs at least 1 full calendar year")
    dev = block / block.mean(axis=1, keepdims=True) - 1.0
    std = np.std(dev, axis=0, ddof=1) if len(years) > 1 else np.zeros(12)
    return SeasonProfile(years=years, deviations=dev, mean=dev.mean(axis=0), std=std)


def detect_spike_months(profile: SeasonProfile, threshold: float) -> list[int]:
    """Months whose mean deviation clears the threshold with a stable sign.

    A month qualifies only when |mean deviation| >= threshold and every
    training year agrees on the deviation's sign.
    """
    if threshold <= 0:
        raise ValidationError("threshold must be positive")
    signs = np.sign(profile.deviations)
    stable = np.all(signs == signs[0], axis=0) & (signs[0] != 0)
    # "not below" rather than ">=", so a NaN threshold leaves every stable month in
    return (np.flatnonzero(stable & ~(np.abs(profile.mean) < threshold)) + 1).tolist()


def rate_vol_correlation(series: MonthlySeries) -> float:
    """Pearson correlation of per-year mean rates with per-year vols.

    Diagnostic only; the rate/variance correlation used in simulation is a
    config input rather than this estimate.
    """
    prof = volatility_profile(series)
    if len(prof.years) < 3:
        raise InsufficientDataError("correlation needs at least 3 full calendar years")
    means = _full_years(series)[2].mean(axis=1)
    for name, x in (("mean rates", means), ("volatilities", prof.yearly_vols)):
        if np.all(x == x[0]):
            raise ValidationError(f"correlation is undefined: the yearly {name} are all equal")
    return float(np.corrcoef(means, prof.yearly_vols)[0, 1])


@dataclass(frozen=True)
class DistributionDiagnostics:
    rate_bin_edges: np.ndarray
    rate_counts: np.ndarray
    logdiff_bin_edges: np.ndarray
    logdiff_counts: np.ndarray
    jarque_bera: float
    jb_pvalue: float


def jarque_bera(sample) -> tuple[float, float]:
    """Jarque-Bera normality statistic and its chi-square(2) p-value."""
    x = np.asarray(sample, dtype=float)
    n = x.size
    if n < 3:
        raise InsufficientDataError("Jarque-Bera needs at least 3 observations")
    c = x - x.mean()
    m2 = np.mean(c**2)
    if m2 <= 0:
        raise ValidationError("degenerate sample variance")
    skew = np.mean(c**3) / m2**1.5
    kurt = np.mean(c**4) / m2**2
    jb = n / 6.0 * (skew**2 + (kurt - 3.0) ** 2 / 4.0)
    # chi-square survival with 2 degrees of freedom has the closed form exp(-x/2)
    return float(jb), float(math.exp(-jb / 2.0))


def distribution_diagnostics(series: MonthlySeries) -> DistributionDiagnostics:
    """Ten-bin histograms of raw rates and log-differences plus a normality test."""
    if len(series) < 24:
        raise InsufficientDataError("distribution diagnostics need at least 24 observations")
    ld = log_differences(series.rates)
    if np.std(ld) == 0:
        raise ValidationError("degenerate sample variance")
    rate_counts, rate_edges = np.histogram(series.rates, bins=10)
    ld_counts, ld_edges = np.histogram(ld, bins=10)
    jb, p = jarque_bera(ld)
    return DistributionDiagnostics(
        rate_bin_edges=rate_edges,
        rate_counts=rate_counts,
        logdiff_bin_edges=ld_edges,
        logdiff_counts=ld_counts,
        jarque_bera=jb,
        jb_pvalue=p,
    )
