"""Acceptance gate: one pass/fail verdict line per criterion.

Each test prints `[criterion NN] PASS|FAIL detail` on the real stdout before
asserting, so the verdict survives pytest capture. Known data discrepancies
fail honestly rather than being patched around; README.md documents them.
"""

import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from crashvol import (
    HestonParams,
    parse_monthly_csv,
    simulate_heston,
)
from crashvol.arima_garch import fit_arima, fit_garch
from crashvol.evaluation import backtest, dated_rates, interval_coverage
from crashvol.series_stats import (
    annual_growth_rate,
    season_profile,
    volatility_profile,
)
from crashvol.stochastic_engine import SpikeSpec, feller_bound

# parameter set under test: the published calibration for the 2010-2014
# training window (annual units; volatilities quoted, variances simulated)
REFERENCE = {
    "c1": 0.00498,
    "mu": 0.1361,
    "v0_vol": 0.6333,
    "theta_vol": 0.6333,
    "kappa": 0.0545,
    "xi": 0.2626,
    "rho": -0.5936,
    "spikes": ((1, -0.173, 0.125), (7, 0.334, 0.056), (8, -0.121, 0.041)),
}
TRAIN = ((2010, 1), (2014, 12))
TEST = ((2015, 1), (2019, 12))
SEEDS = tuple(range(1, 11))


# collected verdict lines, replayed in the terminal summary by conftest so
# they survive pytest's output capture on passing tests
VERDICTS: list[str] = []


def _verdict(n: int, failures: list[str], note: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    detail = note if not failures else "; ".join(failures)
    line = f"[criterion {n:02d}] {status}" + (f" {detail}" if detail else "")
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)


def _check(failures: list[str], ok: bool, msg: str) -> None:
    if not ok:
        failures.append(msg)


@pytest.fixture(scope="module")
def ten_seed_runs(full_series, holdout_series):
    """Heston and Vasicek backtests at the reference calibration, 10 seeds."""
    observed = dated_rates(holdout_series)[1:]  # drop the 2014-12 lead-in
    heston_overrides = dict(REFERENCE)
    vasicek_overrides = {
        "c1": REFERENCE["c1"],
        "mu": REFERENCE["mu"],
        "spikes": REFERENCE["spikes"],
    }
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in SEEDS:
            t0 = time.perf_counter()
            qh, rh = backtest(full_series, TRAIN, TEST, model="heston",
                              config={"overrides": heston_overrides}, seed=seed)
            elapsed = time.perf_counter() - t0
            _, rv = backtest(full_series, TRAIN, TEST, model="vasicek",
                             config={"overrides": vasicek_overrides}, seed=seed)
            n_out, _ = interval_coverage(qh, observed, 0.25, 0.75)
            worst = max(rh.per_year, key=lambda row: row[3])[0]
            rows.append({
                "seed": seed,
                "heston_mape": rh.overall[2],
                "vasicek_mape": rv.overall[2],
                "worst_year": worst,
                "n_outside": n_out,
                "seconds": elapsed,
            })
    return rows


@pytest.fixture(scope="module")
def arima_mapes(full_series):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, ra = backtest(full_series, TRAIN, TEST, model="arima",
                         config={"orders": (1, 2, 2)}, seed=0)
        _, rg = backtest(full_series, TRAIN, TEST, model="arima-garch",
                         config={"orders": (1, 2, 2), "garch_orders": (2, 1)}, seed=0)
    return ra.overall[2], rg.overall[2]


def test_criterion_01_statistics_regression(train_series, holdout_series):
    failures = []
    t0 = time.perf_counter()
    vp1 = volatility_profile(train_series)
    g1 = annual_growth_rate(train_series)
    sp1 = season_profile(train_series)
    vp2 = volatility_profile(holdout_series)
    g2 = annual_growth_rate(holdout_series)
    elapsed = time.perf_counter() - t0

    targets = {2010: 0.6572, 2011: 0.7787, 2012: 0.5772, 2013: 0.5983, 2014: 0.5735}
    for year, vol in zip(vp1.years, vp1.yearly_vols):
        _check(failures, abs(vol - targets[year]) <= 5e-4,
               f"{year} volatility {vol:.4f} vs target {targets[year]:.4f} (tol 0.0005)")
    _check(failures, abs(vp1.window_vol - 0.6333) <= 5e-4,
           f"window volatility {vp1.window_vol:.4f} vs 0.6333")
    _check(failures, abs(vp1.vol_of_vol - 0.2626) <= 5e-4,
           f"vol-of-vol {vp1.vol_of_vol:.4f} vs 0.2626")
    _check(failures, abs(g1.annual_growth - 0.1361) <= 5e-3,
           f"growth {g1.annual_growth:.4f} vs 0.1361")
    spike_targets = {1: (-0.173, 0.125), 7: (0.334, 0.056), 8: (-0.121, 0.041)}
    for month, (mean_t, std_t) in spike_targets.items():
        mean_m = sp1.mean[month - 1]
        std_m = sp1.std[month - 1]
        _check(failures, abs(mean_m - mean_t) <= 2e-3,
               f"month {month} mean deviation {mean_m:.4f} vs {mean_t:.3f}")
        _check(failures, abs(std_m - std_t) <= 2e-3,
               f"month {month} deviation std {std_m:.4f} vs {std_t:.3f}")
    _check(failures, abs(vp2.window_vol - 0.6861) <= 5e-4,
           f"holdout window volatility {vp2.window_vol:.4f} vs 0.6861")
    _check(failures, abs(vp2.vol_of_vol - 0.1173) <= 5e-4,
           f"holdout vol-of-vol {vp2.vol_of_vol:.4f} vs 0.1173")
    _check(failures, abs(g2.annual_growth - 0.0297) <= 5e-3,
           f"holdout growth {g2.annual_growth:.4f} vs 0.0297")
    _check(failures, elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s")
    _verdict(1, failures, note=f"all statistics within tolerance ({elapsed:.2f}s)")
    assert not failures, "; ".join(failures)


def test_criterion_02_feller_arithmetic():
    failures = []
    value = feller_bound(0.2626, 0.6333)
    _check(failures, abs(value - 0.05445) <= 1e-6,
           f"feller_bound(0.2626, 0.6333) = {value:.8f}, "
           f"off the 0.05445 target by {abs(value - 0.05445):.2e} (tol 1e-06)")
    _verdict(2, failures, note=f"feller_bound = {value:.8f}")
    assert not failures, "; ".join(failures)


def test_criterion_03_forecast_reproduction(ten_seed_runs):
    failures = []
    mapes = [row["heston_mape"] for row in ten_seed_runs]
    _check(failures, all(0.05 <= m <= 0.13 for m in mapes),
           f"overall MAPE range {min(mapes):.3f}..{max(mapes):.3f} outside [0.05, 0.13]")
    worst_2016 = sum(1 for row in ten_seed_runs if row["worst_year"] == 2016)
    worst_seen = sorted({row["worst_year"] for row in ten_seed_runs})
    _check(failures, worst_2016 >= 8,
           f"2016 is worst year in {worst_2016}/10 seeds (observed worst years: {worst_seen})")
    slow = [row["seconds"] for row in ten_seed_runs if row["seconds"] >= 10.0]
    _check(failures, not slow, f"{len(slow)} seeds exceeded 10s")
    _verdict(3, failures,
             note=f"MAPE {min(mapes):.3f}..{max(mapes):.3f}, worst-year 2016 in {worst_2016}/10")
    assert not failures, "; ".join(failures)


def test_criterion_04_model_ranking(ten_seed_runs, arima_mapes):
    failures = []
    arima_mape, garch_mape = arima_mapes
    h = [row["heston_mape"] for row in ten_seed_runs]
    v = [row["vasicek_mape"] for row in ten_seed_runs]
    wins = sum(1 for a, b in zip(h, v) if a <= b)
    _check(failures, wins >= 7,
           f"first model beats baseline in {wins}/10 seeds "
           f"(mean MAPE {np.mean(h):.3f} vs {np.mean(v):.3f})")
    _check(failures, np.mean(h) < arima_mape,
           f"mean stochastic MAPE {np.mean(h):.3f} does not beat ARIMA {arima_mape:.3f}")
    _check(failures, np.mean(v) < arima_mape,
           f"mean baseline MAPE {np.mean(v):.3f} does not beat ARIMA {arima_mape:.3f}")
    _check(failures, np.mean(h) < garch_mape,
           f"mean stochastic MAPE {np.mean(h):.3f} does not beat ARIMA-GARCH {garch_mape:.3f}")
    _check(failures, np.mean(v) < garch_mape,
           f"mean baseline MAPE {np.mean(v):.3f} does not beat ARIMA-GARCH {garch_mape:.3f}")
    _check(failures, abs(arima_mape - garch_mape) <= 0.005,
           f"ARIMA {arima_mape:.4f} vs ARIMA-GARCH {garch_mape:.4f} differ by more than 0.5pp")
    _verdict(4, failures,
             note=f"ranking holds (heston {np.mean(h):.3f}, vasicek {np.mean(v):.3f}, "
                  f"arima {arima_mape:.3f})")
    assert not failures, "; ".join(failures)


def _reference_params(**kw):
    base = dict(
        c1=REFERENCE["c1"], mu=REFERENCE["mu"],
        v0=REFERENCE["v0_vol"] ** 2, theta=REFERENCE["theta_vol"] ** 2,
        kappa=REFERENCE["kappa"], xi=REFERENCE["xi"], rho=REFERENCE["rho"],
        spikes=(), start=(2015, 1),
    )
    base.update(kw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return HestonParams(**base)


def test_criterion_05_sde_moments():
    failures = []
    dt = 1.0 / 12

    # drift of the rate at the reference calibration, spikes off
    res = simulate_heston(_reference_params(), 60, 5000, seed=42)
    for t in (12, 36, 60):
        c = res.rate_paths[:, t - 1]
        target = REFERENCE["c1"] * (1 + REFERENCE["mu"] * t / 12.0)
        se = c.std(ddof=1) / math.sqrt(c.size)
        z = (c.mean() - target) / se
        _check(failures, abs(z) <= 3.0,
               f"E[C] at month {t}: {c.mean():.6f} vs {target:.6f} is {z:+.1f} standard errors "
               f"(the nonnegativity fold inflates the mean once paths touch zero)")

    # stationarity of the variance at v0 = theta
    v = res.var_paths[:, -1]
    theta = REFERENCE["theta_vol"] ** 2
    z = (v.mean() - theta) / (v.std(ddof=1) / math.sqrt(v.size))
    _check(failures, abs(z) <= 3.0, f"E[v] {v.mean():.5f} vs theta {theta:.5f} at {z:+.1f} SE")

    # deterministic decay with xi = 0 and v0 = 2*theta
    p_decay = _reference_params(v0=0.8, theta=0.4, xi=0.0, kappa=0.5, rho=0.0)
    res_d = simulate_heston(p_decay, 60, 2, seed=1)
    n = np.arange(1, 61)
    cont = 0.4 + 0.4 * np.exp(-0.5 * n * dt)
    envelope = 0.4 * n * (0.5 * dt) ** 2
    err = np.abs(res_d.var_paths[0] - cont)
    _check(failures, bool(np.all(err <= envelope)),
           f"variance decay error {err.max():.2e} above the O(dt) envelope")

    # innovation correlation, measured where the fold never engages
    p_corr = _reference_params(v0=0.01, theta=0.01, kappa=0.5, xi=0.05)
    res_c = simulate_heston(p_corr, 60, 2000, seed=7)
    v_prev = np.concatenate([np.full((2000, 1), 0.01), res_c.var_paths[:, :-1]], axis=1)
    dc = np.diff(res_c.base_paths, axis=1, prepend=p_corr.c1)
    zc = (dc - p_corr.mu * p_corr.c1 * dt) / (np.sqrt(v_prev) * p_corr.c1 * math.sqrt(dt))
    dv = np.diff(res_c.var_paths, axis=1, prepend=0.01) - p_corr.kappa * (0.01 - v_prev) * dt
    zv = dv / (p_corr.xi * np.sqrt(v_prev) * math.sqrt(dt))
    r = float(np.corrcoef(zc.ravel(), zv.ravel())[0, 1])
    _check(failures, zc.size >= 100_000, f"only {zc.size} steps sampled")
    _check(failures, abs(r - REFERENCE["rho"]) <= 0.02,
           f"innovation correlation {r:+.4f} vs {REFERENCE['rho']} (tol 0.02)")

    # nonnegativity sweep over randomized parameter sets
    rng = np.random.default_rng(2024)
    negatives = 0
    for _ in range(30):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pk = HestonParams(
                c1=rng.uniform(1e-4, 0.05), mu=rng.uniform(-0.5, 0.5),
                v0=rng.uniform(0.0, 4.0), theta=rng.uniform(1e-4, 4.0),
                kappa=rng.uniform(0.0, 3.0), xi=rng.uniform(0.0, 2.0),
                rho=rng.uniform(-0.99, 0.99),
                spikes=(SpikeSpec(1, rng.uniform(-1, 1), rng.uniform(0, 0.5)),),
                start=(2014, 11),
                scheme=str(rng.choice(["reflect", "truncate"])),
            )
        rk = simulate_heston(pk, 24, 200, seed=int(rng.integers(1, 1_000_000)),
                             history_tail=np.full(6, pk.c1))
        if (rk.rate_paths < 0).any() or (rk.var_paths < 0).any():
            negatives += 1
    _check(failures, negatives == 0, f"{negatives}/30 randomized parameter sets went negative")

    _verdict(5, failures, note="drift, stationarity, decay, correlation, nonnegativity hold")
    assert not failures, "; ".join(failures)


def test_criterion_06_estimator_oracles():
    failures = []
    rng = np.random.default_rng(11)

    n = 2000
    e = rng.standard_normal(n + 100)
    x = np.zeros(n + 100)
    for t in range(1, n + 100):
        x[t] = 0.7 * x[t - 1] + e[t]
    fit_ar = fit_arima(x[100:], 1, 0, 0)
    _check(failures, abs(fit_ar.ar_coeffs[0] - 0.7) <= 0.05,
           f"AR(1) coefficient {fit_ar.ar_coeffs[0]:.4f} vs 0.7 (tol 0.05)")

    e = rng.standard_normal(n + 1)
    y = e[1:] + 0.5 * e[:-1]
    fit_ma = fit_arima(y, 0, 0, 1)
    _check(failures, abs(fit_ma.ma_coeffs[0] - 0.5) <= 0.05,
           f"MA(1) coefficient {fit_ma.ma_coeffs[0]:.4f} vs 0.5 (tol 0.05)")

    m = 5000
    z = rng.standard_normal(m + 200)
    h = np.empty(m + 200)
    eps = np.empty(m + 200)
    h[0] = 1.0
    eps[0] = z[0]
    for t in range(1, m + 200):
        h[t] = 0.1 + 0.1 * eps[t - 1] ** 2 + 0.8 * h[t - 1]
        eps[t] = math.sqrt(h[t]) * z[t]
    fit_g = fit_garch(eps[200:], 1, 1)
    for name, got, want in (
        ("omega", fit_g.omega, 0.1),
        ("alpha", fit_g.alpha_coeffs[0], 0.1),
        ("beta", fit_g.beta_coeffs[0], 0.8),
    ):
        _check(failures, abs(got - want) <= 0.1,
               f"GARCH {name} {got:.4f} vs {want} (tol 0.1)")

    for spec in (fit_ar, fit_ma):
        if spec.p:
            roots = np.roots(np.concatenate(([1.0], -spec.ar_coeffs))[::-1])
            _check(failures, bool(np.all(np.abs(roots) > 1.0)), "AR roots inside unit circle")
        if spec.q:
            roots = np.roots(np.concatenate(([1.0], spec.ma_coeffs))[::-1])
            _check(failures, bool(np.all(np.abs(roots) > 1.0)), "MA roots inside unit circle")
    _check(failures,
           float(np.sum(fit_g.alpha_coeffs) + np.sum(fit_g.beta_coeffs)) < 1.0,
           "GARCH persistence at or above 1")

    _verdict(6, failures, note="AR/MA/GARCH parameters recovered, roots valid")
    assert not failures, "; ".join(failures)


def test_criterion_07_determinism(tmp_path):
    failures = []
    data_dir = tmp_path
    from importlib.resources import files as _files
    import shutil

    for name in ("dc_2010_2014.csv", "dc_2015_2019.csv"):
        shutil.copy(str(_files("crashvol") / "data" / name), data_dir / name)

    # the child runs from data_dir, where a relative PYTHONPATH no longer
    # resolves: put the directory holding the imported package first
    import crashvol

    pkg_parent = os.path.dirname(os.path.dirname(os.path.abspath(crashvol.__file__)))
    pythonpath = os.pathsep.join(filter(None, (pkg_parent, os.environ.get("PYTHONPATH"))))

    def run(cmd, threads):
        env = dict(os.environ, OMP_NUM_THREADS=threads, PYTHONHASHSEED="0",
                   PYTHONPATH=pythonpath)
        proc = subprocess.run(
            [sys.executable, "-m", "crashvol", *cmd],
            capture_output=True, text=True, cwd=data_dir, env=env,
        )
        if proc.returncode != 0:
            failures.append(f"command {' '.join(cmd[:2])} failed: {proc.stderr.strip()[:120]}")
        return proc.returncode

    run(["fit", "--input", "dc_2010_2014.csv", "--train-start", "2010-01",
         "--train-end", "2014-12", "--model", "heston", "--out", "h.params"], "1")

    outputs = {}
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        fc = f"fc_{tag}.csv"
        bt = f"bt_{tag}.csv"
        run(["forecast", "--params", "h.params", "--horizon", "24",
             "--paths", "1000", "--seed", "7", "--out", fc], threads)
        run(["backtest", "--input", "dc_2010_2014.csv", "--input", "dc_2015_2019.csv",
             "--train-start", "2010-01", "--train-end", "2014-12",
             "--test-start", "2015-01", "--test-end", "2019-12",
             "--model", "vasicek", "--paths", "500", "--seed", "3", "--out", bt], threads)
        if failures:
            _verdict(7, failures)
            assert not failures, "; ".join(failures)
        outputs[tag] = {
            "forecast": (data_dir / fc).read_bytes(),
            "backtest": (data_dir / bt).read_bytes(),
            "report": (data_dir / f"bt_{tag}.report.csv").read_bytes(),
            "coverage": (data_dir / f"bt_{tag}.coverage.csv").read_bytes(),
        }
    for kind in ("forecast", "backtest", "report", "coverage"):
        _check(failures, outputs["a"][kind] == outputs["b"][kind],
               f"{kind} differs between identical runs")
        _check(failures, outputs["a"][kind] == outputs["c"][kind],
               f"{kind} differs across thread counts")

    _verdict(7, failures, note="byte-identical across reruns and thread counts")
    assert not failures, "; ".join(failures)


def test_criterion_08_interval_coverage(ten_seed_runs):
    failures = []
    counts = [row["n_outside"] for row in ten_seed_runs]
    good = sum(1 for c in counts if c <= 12)
    _check(failures, good >= 8,
           f"only {good}/10 seeds kept <=12/60 months outside the 25-75 band (counts {counts})")
    _verdict(8, failures,
             note=f"{good}/10 seeds within bound (outside counts {sorted(set(counts))})")
    assert not failures, "; ".join(failures)
