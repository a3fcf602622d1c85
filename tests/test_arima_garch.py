import inspect
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crashvol import arima_garch
from crashvol.arima_garch import (
    ArimaSpec,
    ConvergenceError,
    GarchSpec,
    aic,
    difference,
    fit_arima,
    fit_garch,
    forecast_arima,
    forecast_garch_variance,
    forecast_level_variance,
    garch_variances,
    psi_weights,
    read_arima_model,
    select_order,
    write_arima_model,
)
from crashvol.data_ingest import InsufficientDataError, ValidationError
from crashvol.evaluation import MODELS


def _ar1_sample(phi, n, seed, burn=100):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n + burn)
    x = np.zeros(n + burn)
    for t in range(1, n + burn):
        x[t] = phi * x[t - 1] + e[t]
    return x[burn:]


def _ma1_sample(theta, n, seed):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n + 1)
    return e[1:] + theta * e[:-1]


def test_difference():
    x = [1.0, 4.0, 9.0, 16.0]
    assert np.array_equal(difference(x, 0), x)
    assert np.array_equal(difference(x, 1), [3.0, 5.0, 7.0])
    assert np.array_equal(difference(x, 2), [2.0, 2.0])
    with pytest.raises(ValidationError):
        difference(x, -1)
    with pytest.raises(InsufficientDataError):
        difference([1.0, 2.0], 2)


def test_pacf_to_coef_order_one_and_two():
    assert arima_garch._durbin_levinson([0.6]) == pytest.approx([0.6])
    # order 2: a1 = r1*(1 - r2), a2 = r2
    r1, r2 = 0.5, -0.3
    a = arima_garch._durbin_levinson([r1, r2])
    assert a == pytest.approx([r1 * (1 - r2), r2])


def test_pacf_map_always_stationary():
    rng = np.random.default_rng(14)
    for _ in range(25):
        r = rng.uniform(-0.999, 0.999, size=rng.integers(1, 6))
        a = np.array(arima_garch._durbin_levinson(r.tolist()))
        poly = np.concatenate(([1.0], -a))[::-1]
        assert np.all(np.abs(np.roots(poly)) > 1.0)


def test_css_residuals_ar1_hand_value():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    e = arima_garch._residuals(x, 0.5, [0.5], [])
    # e_t = x_t - 0.5 - 0.5*x_{t-1}, pre-sample x_0 = 0
    assert e == pytest.approx([0.5, 1.0, 2.5, 5.5])


def test_css_residuals_ma1_hand_value():
    x = np.array([1.0, 1.0, 1.0])
    e = arima_garch._residuals(x, 0.0, [], [0.5])
    # e_t = x_t - 0.5*e_{t-1}
    assert e == pytest.approx([1.0, 0.5, 0.75])


def test_arima_spec_rejects_bad_roots():
    ok = ArimaSpec(
        p=1, d=0, q=1,
        ar_coeffs=np.array([0.5]), ma_coeffs=np.array([0.4]),
        intercept=0.0, residuals=np.zeros(3), sigma2=1.0, css=3.0,
    )
    assert ok.p == 1
    with pytest.raises(ValidationError, match="AR"):
        ArimaSpec(
            p=1, d=0, q=0,
            ar_coeffs=np.array([1.2]), ma_coeffs=np.empty(0),
            intercept=0.0, residuals=np.zeros(3), sigma2=1.0, css=3.0,
        )
    with pytest.raises(ValidationError, match="MA"):
        ArimaSpec(
            p=0, d=0, q=1,
            ar_coeffs=np.empty(0), ma_coeffs=np.array([1.5]),
            intercept=0.0, residuals=np.zeros(3), sigma2=1.0, css=3.0,
        )
    with pytest.raises(ValidationError):
        ArimaSpec(
            p=2, d=0, q=0,
            ar_coeffs=np.array([0.5]), ma_coeffs=np.empty(0),
            intercept=0.0, residuals=np.zeros(3), sigma2=1.0, css=3.0,
        )


def test_fit_recovers_ar1():
    x = _ar1_sample(0.6, 600, seed=5)
    fit = fit_arima(x, 1, 0, 0)
    assert fit.ar_coeffs[0] == pytest.approx(0.6, abs=0.1)
    assert fit.sigma2 == pytest.approx(1.0, rel=0.2)
    assert fit.css == pytest.approx(fit.residuals @ fit.residuals, rel=1e-12)
    assert fit.sigma2 == pytest.approx(fit.css / x.size, rel=1e-12)


def test_fit_recovers_ma1():
    y = _ma1_sample(0.5, 600, seed=6)
    fit = fit_arima(y, 0, 0, 1)
    assert fit.ma_coeffs[0] == pytest.approx(0.5, abs=0.1)


def test_fit_short_series_guard():
    with pytest.raises(InsufficientDataError):
        fit_arima(np.ones(4), 1, 2, 2)
    with pytest.raises(ValidationError):
        fit_arima(np.ones(30), -1, 0, 0)


def test_fit_boundary_ma_root_stays_invertible(train_series):
    # over-differencing pushes an exact unit MA root; the fit must stop just
    # inside the invertible region instead of failing validation
    x = train_series.rates[train_series.index_of(2010, 1):]
    fit = fit_arima(x, 1, 2, 2)
    roots = np.roots(np.concatenate(([1.0], fit.ma_coeffs))[::-1])
    assert np.all(np.abs(roots) > 1.0)
    assert np.min(np.abs(roots)) < 1.001
    assert fit.ar_coeffs[0] == pytest.approx(-0.15, abs=0.05)


def test_forecast_ar1_closed_form():
    x = _ar1_sample(0.7, 400, seed=9)
    fit = fit_arima(x, 1, 0, 0)
    fc = forecast_arima(fit, x, 5)
    phi, c = fit.ar_coeffs[0], fit.intercept
    want = []
    prev = x[-1]
    for _ in range(5):
        prev = c + phi * prev
        want.append(prev)
    assert fc == pytest.approx(want, rel=1e-12)


def test_forecast_integrates_levels():
    # d=1 with no ARMA terms forecasts a straight line with slope = intercept
    spec = ArimaSpec(
        p=0, d=1, q=0,
        ar_coeffs=np.empty(0), ma_coeffs=np.empty(0),
        intercept=2.0, residuals=np.zeros(5), sigma2=1.0, css=5.0,
    )
    fc = forecast_arima(spec, [10.0, 13.0], 4)
    assert fc == pytest.approx([15.0, 17.0, 19.0, 21.0])


def test_forecast_double_integration():
    # d=2, all coefficients zero: levels continue the last linear trend
    spec = ArimaSpec(
        p=0, d=2, q=0,
        ar_coeffs=np.empty(0), ma_coeffs=np.empty(0),
        intercept=0.0, residuals=np.zeros(5), sigma2=1.0, css=5.0,
    )
    fc = forecast_arima(spec, [5.0, 7.0], 3)
    assert fc == pytest.approx([9.0, 11.0, 13.0])


def test_forecast_guards():
    spec = ArimaSpec(
        p=1, d=1, q=0,
        ar_coeffs=np.array([0.5]), ma_coeffs=np.empty(0),
        intercept=0.0, residuals=np.zeros(5), sigma2=1.0, css=5.0,
    )
    with pytest.raises(ValidationError):
        forecast_arima(spec, [1.0, 2.0, 3.0], 0)
    with pytest.raises(InsufficientDataError):
        forecast_arima(spec, [1.0], 3)


def test_psi_weights_closed_forms():
    ar1 = ArimaSpec(
        p=1, d=0, q=0,
        ar_coeffs=np.array([0.6]), ma_coeffs=np.empty(0),
        intercept=0.0, residuals=np.zeros(3), sigma2=1.0, css=3.0,
    )
    assert psi_weights(ar1, 5) == pytest.approx(0.6 ** np.arange(5))
    ma1 = ArimaSpec(
        p=0, d=0, q=1,
        ar_coeffs=np.empty(0), ma_coeffs=np.array([0.4]),
        intercept=0.0, residuals=np.zeros(3), sigma2=1.0, css=3.0,
    )
    assert psi_weights(ma1, 4) == pytest.approx([1.0, 0.4, 0.0, 0.0])
    i1 = ArimaSpec(
        p=0, d=1, q=0,
        ar_coeffs=np.empty(0), ma_coeffs=np.empty(0),
        intercept=0.0, residuals=np.zeros(3), sigma2=1.0, css=3.0,
    )
    assert psi_weights(i1, 4) == pytest.approx(np.ones(4))
    i2 = ArimaSpec(
        p=0, d=2, q=0,
        ar_coeffs=np.empty(0), ma_coeffs=np.empty(0),
        intercept=0.0, residuals=np.zeros(3), sigma2=1.0, css=3.0,
    )
    assert psi_weights(i2, 4) == pytest.approx([1.0, 2.0, 3.0, 4.0])


def test_level_variance_homoscedastic():
    spec = ArimaSpec(
        p=0, d=1, q=0,
        ar_coeffs=np.empty(0), ma_coeffs=np.empty(0),
        intercept=0.0, residuals=np.zeros(3), sigma2=2.0, css=6.0,
    )
    # random walk: Var(x_{T+h}) = h * sigma2
    assert forecast_level_variance(spec, 4) == pytest.approx([2.0, 4.0, 6.0, 8.0])


def test_level_variance_pairs_newest_innovation_first():
    spec = ArimaSpec(
        p=0, d=0, q=1,
        ar_coeffs=np.empty(0), ma_coeffs=np.array([0.5]),
        intercept=0.0, residuals=np.zeros(3), sigma2=1.0, css=3.0,
    )
    # psi = (1, 0.5); step 2 mixes var(e_{T+2})*1 + var(e_{T+1})*0.25
    out = forecast_level_variance(spec, 2, innovation_vars=[3.0, 7.0])
    assert out == pytest.approx([3.0, 7.0 + 0.25 * 3.0])
    with pytest.raises(ValidationError):
        forecast_level_variance(spec, 3, innovation_vars=[1.0])


def test_garch_variances_hand_recursion():
    spec = GarchSpec(p=1, q=1, omega=0.2, alpha_coeffs=np.array([0.1]), beta_coeffs=np.array([0.5]))
    e = np.array([1.0, -2.0, 0.5])
    m = float(np.mean(e**2))
    h1 = 0.2 + 0.1 * m + 0.5 * m
    h2 = 0.2 + 0.1 * 1.0 + 0.5 * h1
    h3 = 0.2 + 0.1 * 4.0 + 0.5 * h2
    assert garch_variances(spec, e) == pytest.approx([h1, h2, h3], rel=1e-12)


def test_garch_spec_validation():
    with pytest.raises(ValidationError):
        GarchSpec(p=1, q=1, omega=0.0, alpha_coeffs=np.array([0.1]), beta_coeffs=np.array([0.5]))
    with pytest.raises(ValidationError):
        GarchSpec(p=1, q=1, omega=0.1, alpha_coeffs=np.array([-0.1]), beta_coeffs=np.array([0.5]))
    with pytest.raises(ValidationError):
        GarchSpec(p=1, q=1, omega=0.1, alpha_coeffs=np.array([0.5]), beta_coeffs=np.array([0.5]))


def test_fit_garch_guards():
    with pytest.raises(ValidationError):
        fit_garch(np.random.default_rng(1).standard_normal(100), 0, 0)
    with pytest.raises(InsufficientDataError):
        fit_garch(np.ones(3), 1, 1)
    with pytest.raises(ValidationError):
        fit_garch(np.zeros(50), 1, 1)


def test_garch_variance_forecast_converges_to_unconditional():
    spec = GarchSpec(p=1, q=1, omega=0.1, alpha_coeffs=np.array([0.1]), beta_coeffs=np.array([0.8]))
    rng = np.random.default_rng(10)
    e = rng.standard_normal(200)
    fc = forecast_garch_variance(spec, e, 400)
    assert fc[-1] == pytest.approx(0.1 / (1 - 0.9), rel=1e-3)
    # geometric approach: one-step relation h_{k+1}-u = (a+b)(h_k-u)
    u = 1.0
    assert fc[5] - u == pytest.approx((fc[4] - u) * 0.9, rel=1e-9)


def test_arima_garch_points_equal_plain_arima(train_series):
    # the GARCH layer only reshapes the bands; the point forecasts are the ARIMA ones
    options = {"orders": (1, 2, 2), "garch_orders": (2, 1), "overrides": {}}
    out = {}
    for model_id in ("arima", "arima-garch"):
        model = MODELS[model_id]
        state = model.fit(train_series, ((2010, 1), (2014, 12)), (2015, 1), options)
        out[model_id] = model.quantiles(state, 24, 0, None, (0.05, 0.95))
    plain, garch = out["arima"], out["arima-garch"]
    assert np.array_equal(plain.median, garch.median)
    assert garch.bands.shape == (2, 24)
    assert np.all(garch.bands[0] < garch.median) and np.all(garch.median < garch.bands[1])
    assert not np.allclose(plain.bands, garch.bands)


def test_model_file_round_trip(tmp_path, train_series):
    x = train_series.rates[train_series.index_of(2010, 1):]
    fit = fit_arima(x, 1, 2, 2)
    g = fit_garch(fit.residuals, 2, 1)
    path = tmp_path / "m.model"
    write_arima_model(fit, path, start=(2015, 1), level_tail=x[-3:], garch=g)
    spec, garch, start, tail, h_tail = read_arima_model(path)
    assert (spec.p, spec.d, spec.q) == (1, 2, 2)
    assert start == (2015, 1)
    assert spec.ar_coeffs == pytest.approx(fit.ar_coeffs, rel=1e-11)
    assert spec.ma_coeffs == pytest.approx(fit.ma_coeffs, rel=1e-11)
    assert spec.intercept == pytest.approx(fit.intercept, rel=1e-11)
    assert spec.sigma2 == pytest.approx(fit.sigma2, rel=1e-11)
    assert tail == pytest.approx(x[-3:], rel=1e-11)
    assert garch.p == 2 and garch.q == 1
    assert garch.omega == pytest.approx(g.omega, rel=1e-11)
    assert len(h_tail) == garch.q
    # forecasts from the file match forecasts from the fitted objects
    fc_file = forecast_arima(spec, tail, 12)
    fc_live = forecast_arima(fit, x, 12)
    assert fc_file == pytest.approx(fc_live, rel=1e-9)
    # variance forecasts from the stored tails match the full-history ones
    h_file = forecast_garch_variance(garch, spec.residuals, 12, h_tail)
    h_live = forecast_garch_variance(g, fit.residuals, 12)
    assert h_file == pytest.approx(h_live, rel=1e-9)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_PACF = st.lists(st.floats(-0.99, 0.99), max_size=3)


def _model_values(spec, garch, start, tail, h_tail) -> dict:
    values = {"intercept": spec.intercept, "sigma2": spec.sigma2, "css": spec.css,
              "start": start, "ar": list(spec.ar_coeffs), "ma": list(spec.ma_coeffs),
              "tail": list(tail), "resid": list(spec.residuals)}
    if garch is not None:
        values.update(omega=garch.omega, alpha=list(garch.alpha_coeffs),
                      beta=list(garch.beta_coeffs), h=list(h_tail))
    return values


@settings(max_examples=100, deadline=None)
@given(
    pacf=st.tuples(_PACF, _PACF),
    d=st.integers(0, 2),
    scalars=st.tuples(_FINITE, _FINITE, _FINITE),
    residuals=st.lists(_FINITE, min_size=3, max_size=6),
    levels=st.lists(_FINITE, min_size=5, max_size=5),
    start=st.tuples(st.integers(0, 9999), st.integers(1, 12)),
    garch=st.none() | st.tuples(st.floats(1e-12, 1e6), st.lists(st.floats(0.0, 0.24), max_size=2),
                                st.lists(st.floats(0.0, 0.24), max_size=2)),
)
def test_model_file_write_read_write(pacf, d, scalars, residuals, levels, start, garch):
    # every stored value reads back at the file's 12 significant digits, and
    # a file read back is written again to the same bytes (with a GARCH
    # layer, through the stored variances); a stored variance that
    # overflows is refused when written
    ar = np.array(arima_garch._durbin_levinson(pacf[0]))
    ma = -np.array(arima_garch._durbin_levinson(pacf[1]))
    intercept, sigma2, css = scalars
    spec = ArimaSpec(p=ar.size, d=d, q=ma.size, ar_coeffs=ar, ma_coeffs=ma, intercept=intercept,
                     residuals=np.array(residuals), sigma2=sigma2, css=css)
    g = h = None
    if garch is not None and (garch[1] or garch[2]):
        omega, alpha, beta = garch
        g = GarchSpec(p=len(alpha), q=len(beta), omega=omega, alpha_coeffs=np.array(alpha),
                      beta_coeffs=np.array(beta))
    with tempfile.TemporaryDirectory() as tmp, np.errstate(over="ignore", invalid="ignore"):
        first, second = Path(tmp) / "first", Path(tmp) / "second"
        if g is not None:
            h = garch_variances(g, residuals)[len(residuals) - g.q:]
            if not np.all(np.isfinite(h)):
                with pytest.raises(ValidationError, match=r"key garch\.h\.\d+ is not finite"):
                    write_arima_model(spec, first, start, levels, garch=g)
                return
        write_arima_model(spec, first, start, levels, garch=g)
        back = read_arima_model(first)
        back_spec, back_garch, back_start, back_tail, back_h = back
        write_arima_model(back_spec, second, back_start, back_tail, back_garch, back_h)
        assert second.read_bytes() == first.read_bytes()
    sent = _model_values(spec, g, start, levels[len(levels) - spec.p - d:], h)
    sent["resid"] = residuals[len(residuals) - max(spec.q, g.p if g else 0):]
    want = {key: v if key == "start" else [float(f"{x:.12g}") for x in v]
            if isinstance(v, list) else float(f"{v:.12g}") for key, v in sent.items()}
    assert _model_values(*back) == want


def test_model_file_rejects_tampering(tmp_path, train_series):
    x = train_series.rates[train_series.index_of(2010, 1):]
    fit = fit_arima(x, 1, 2, 2)
    path = tmp_path / "m.model"
    write_arima_model(fit, path, start=(2015, 1), level_tail=x[-3:])
    text = path.read_text()
    hole = tmp_path / "hole.model"
    hole.write_text(text.replace("ma.1", "ma.3"))
    with pytest.raises(ValidationError):
        read_arima_model(hole)
    junk = tmp_path / "junk.model"
    junk.write_text(text.replace("sigma2 = ", "sigma2 = zzz # "))
    with pytest.raises(ValidationError):
        read_arima_model(junk)


def test_aic_formula_and_tie_breaks():
    assert aic(10.0, 50, 4) == pytest.approx(50 * math.log(10.0 / 50) + 8.0)
    with pytest.raises(ValidationError):
        aic(0.0, 50, 4)


def test_select_order_finds_ar1():
    x = _ar1_sample(0.8, 400, seed=13)
    best = select_order(x, 2, 1, 2)
    assert best == (1, 0, 0)


@pytest.mark.parametrize("ar,ma", [([1e-320], []), ([], [1e-320]), ([0.5, 1e-320], []),
                                   ([], [0.4, -1e-320])])
def test_arima_spec_accepts_subnormal_last_coefficient(ar, ma):
    # the last coefficient leads the polynomial in B; a subnormal one must not
    # be divided by (its root, ~1e320, lies far outside the unit circle)
    spec = ArimaSpec(p=len(ar), d=0, q=len(ma), ar_coeffs=np.array(ar), ma_coeffs=np.array(ma),
                     intercept=0.0, residuals=np.zeros(3), sigma2=1.0, css=3.0)
    assert list(spec.ar_coeffs) == ar and list(spec.ma_coeffs) == ma


def test_convergence_error_carries_best(monkeypatch, train_series):
    x = train_series.rates[train_series.index_of(2010, 1):]
    monkeypatch.setattr(arima_garch, "_MAXITER", 2)
    with pytest.raises(ConvergenceError) as exc:
        fit_arima(x, 1, 2, 2)
    assert exc.value.code == "E_CONVERGENCE"
    assert isinstance(exc.value.best, ArimaSpec)


# ---------------------------------------------------------------------------
# the in-repo kernels give the bytes of the scipy routines they replace

def _objective(kind, center, weights):
    # the same float operations whether u is a list (the port) or an array (scipy)
    def bowl(u):
        acc = 0.0
        for ui, ci, wi in zip(u, center, weights):
            d = float(ui) - ci
            acc += wi * d * d
        return acc

    if kind == "bowl":
        return bowl
    if kind == "steps":  # plateaus: many equal values, so ties in the reordering
        return lambda u: math.floor(bowl(u))
    if kind in ("wall", "holes"):  # inf or nan outside a box: ties, inf - inf, nan last
        outside = math.inf if kind == "wall" else math.nan
        return lambda u: bowl(u) if all(abs(float(v)) < 2.0 for v in u) else outside
    return lambda u: bowl(u) + 10.0 * (float(u[-1]) - float(u[0]) ** 2) ** 2  # curved valley


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["bowl", "steps", "wall", "holes", "valley"]),
    x0=st.lists(st.floats(-3.0, 3.0) | st.just(0.0), min_size=1, max_size=4),
    center=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
    weights=st.lists(st.floats(0.01, 10.0), min_size=4, max_size=4),
    maxiter=st.integers(1, 400),
    tol=st.sampled_from([(1e-8, 1e-10), (1e-4, 1e-4), (0.0, 0.0)]),
)
# an expansion that ties the reflection, a shrink whose rounding shows, and a
# nan vertex left in the final simplex
@example("steps", [-0.74, 1.79, -1.84, -0.66], [1.8, -0.7, 1.3, 0.7], [9.4, 9.9, 7.3, 8.1],
         38, (1e-8, 1e-10))
@example("valley", [1.66, 0.44, 0.12], [-0.3, -3.0, -1.2, 0.1], [1.5, 7.7, 2.7, 6.8],
         51, (1e-8, 1e-10))
@example("holes", [0.33, 0.87, 1.93], [1.7, 2.2, 2.3, -0.7], [8.0, 7.9, 8.8, 6.4], 1, (1e-8, 1e-10))
def test_nelder_mead_matches_scipy(kind, x0, center, weights, maxiter, tol):
    from scipy.optimize import minimize

    xatol, fatol = tol
    objective = _objective(kind, center, weights)
    with np.errstate(invalid="ignore"):  # scipy's spread test meets inf - inf
        res = minimize(objective, np.array(x0), method="Nelder-Mead",
                       options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol})
    fun, x, success, nit, nfev = arima_garch._nelder_mead(objective, x0, maxiter, xatol, fatol)
    assert (success, nit, nfev) == (res.success, res.nit, res.nfev)
    assert np.float64(fun).tobytes() == np.float64(res.fun).tobytes()  # nan too
    assert x.tobytes() == res.x.tobytes()


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64).tolist()


def _garch_kernel(omega, alpha, beta, e2, m):
    # the GARCH kernel over e2 and coefficient arrays, as garch_variances calls it
    delays = arima_garch._delays(e2, len(alpha), m)
    return arima_garch._garch_h(omega, [*map(float, alpha)], [*map(float, beta)], delays, m)


def test_filters_match_lfilter():
    # the MA inverse filter of the ARMA residuals (zero state) and the GARCH-lag
    # filter of garch_variances (lfiltic state), against scipy on random
    # inputs of lengths 1-79 and orders 1-4, some coefficients exactly zero
    from scipy.signal import lfilter, lfiltic

    rng = np.random.default_rng(11)
    for trial in range(3000):
        n, order = int(rng.integers(1, 80)), int(rng.integers(1, 5))
        x = rng.normal(size=n) * 10.0 ** rng.integers(-4, 4)
        coefs = rng.uniform(-0.6, 0.6, size=order) * (rng.random(order) > 0.1)
        c, ar = float(rng.normal()), rng.uniform(-0.5, 0.5, size=int(rng.integers(0, 3)))
        rhs = x - c - np.convolve(x, np.concatenate(([0.0], ar)))[:n] if ar.size else x - c
        want = lfilter([1.0], np.concatenate(([1.0], coefs)), rhs)
        got = arima_garch._residuals(x, c, ar.tolist(), coefs.tolist())
        assert _bits(got) == _bits(want), trial

        beta = np.abs(coefs) / (1.0 + order)
        e2, m = x**2, float(rng.uniform(0.1, 3.0))
        rhs = np.full(n, 0.3) + 0.1 * np.concatenate(([m], e2))[:n]
        a_poly = np.concatenate(([1.0], -beta))
        want = lfilter([1.0], a_poly, rhs, zi=lfiltic([1.0], a_poly, np.full(order, m)))[0]
        got = _garch_kernel(0.3, [0.1], beta, e2, m)
        assert _bits(got) == _bits(want), trial


# ---------------------------------------------------------------------------
# the fit objectives over plain floats give the bytes of the numpy objectives
# they replaced; the references below are those objectives and the kernels
# they called, kept as written

def _reference_all_pole(x, a, z) -> list[float]:
    out = []
    if len(a) <= 2:
        # unrolled for the default orders, where a generic loop is slower than
        # lfilter; order 1 runs as order 2 with a1 = 0 (only zero signs differ)
        a0, a1 = (*a, 0.0)[:2]
        z0, z1 = (*z, 0.0)[:2]
        for xt in x:
            y = z0 + xt
            out.append(y)
            z0 = z1 - y * a0
            z1 = -(y * a1)
        return out
    z = list(z)
    last = len(a) - 1
    for xt in x:
        y = z[0] + xt
        out.append(y)
        for i in range(last):
            z[i] = z[i + 1] - y * a[i]
        z[last] = -(y * a[last])
    return out


def _reference_pacf_to_coef(pacf) -> np.ndarray:
    a = []
    for r in map(float, pacf):
        a = [x - r * y for x, y in zip(a, reversed(a))] + [r]
    return np.array(a)


def _reference_css_residuals(z, intercept: float, ar, ma) -> np.ndarray:
    x = np.asarray(z, dtype=float)
    rhs = x - intercept
    if len(ar):
        rhs = rhs - np.convolve(x, [0.0, *ar])[: x.size]
    if len(ma):
        # e_t = rhs_t - sum_j ma_j e_{t-j}, zero initial conditions
        return np.array(_reference_all_pole(rhs.tolist(), list(map(float, ma)), [0.0] * len(ma)))
    return rhs


def _reference_garch_recursion(omega, alpha, beta, e2, m) -> np.ndarray:
    rhs = np.full(e2.size, omega)
    for i, a in enumerate(alpha, start=1):
        rhs += a * np.concatenate([np.full(i, m), e2])[: e2.size]
    if len(beta) == 0:
        return rhs
    # lfiltic's state for pre-sample h = m, summed as it sums: z_k = sum_{i>=k} beta_i*m
    z = [float(np.sum(np.multiply(beta[k:], m))) for k in range(len(beta))]
    return np.array(_reference_all_pole(rhs.tolist(), [-b for b in beta], z))


def _reference_arima_objective(series, p, d, q):
    _BOUNDARY_SQUASH = arima_garch._BOUNDARY_SQUASH
    x = np.asarray(series, dtype=float)
    z = difference(x, d)
    scale = float(np.std(z))
    if scale == 0.0:
        scale = 1.0
    zs = z / scale

    def unpack(u):
        ar = _reference_pacf_to_coef(_BOUNDARY_SQUASH * np.tanh(u[1 : 1 + p])) if p else np.empty(0)
        ma = -_reference_pacf_to_coef(_BOUNDARY_SQUASH * np.tanh(u[1 + p :])) if q else np.empty(0)
        return u[0], ar, ma

    def objective(u):
        c, ar, ma = unpack(u)
        e = _reference_css_residuals(zs, c, ar, ma)
        return float(e @ e)

    return objective


def _reference_garch_objective(residuals, p, q):
    _BOUNDARY_SQUASH = arima_garch._BOUNDARY_SQUASH
    e = np.asarray(residuals, dtype=float)
    s2 = float(np.var(e))
    es = e / math.sqrt(s2)
    e2 = es**2
    m = float(e2.mean())

    def unpack(u):
        u = [min(max(v, -60.0), 60.0) for v in u]
        ex = np.exp(u[1:])
        w = (_BOUNDARY_SQUASH * ex / (1.0 + ex.sum())).tolist()
        return math.exp(u[0]), w[:p], w[p:]

    def objective(u):
        h = _reference_garch_recursion(*unpack(u), e2, m)
        return float(np.sum(np.log(h) + e2 / h))

    return objective


class _Captured(Exception):
    pass


def _objective_of(monkeypatch, fit, *args):
    # the closure a fit hands to the optimizer
    def capture(objective, x0, rng):
        raise _Captured(objective)

    with monkeypatch.context() as m, pytest.raises(_Captured) as exc:
        m.setattr(arima_garch, "_multi_start", capture)
        fit(*args)
    return exc.value.args[0]


def _same(a, b):
    # equal float bits, any nan equal to any nan
    return (math.isnan(a) and math.isnan(b)) or np.float64(a).tobytes() == np.float64(b).tobytes()


def _points(rng, size, count):
    # random points with exact zeros, tanh saturated (|u| > 19), the GARCH
    # clip edges at +-60 and beyond, and nan
    edges = [0.0, -0.0, 19.5, -25.0, 60.0, -60.0, 60.5, -61.0, 1e3, -1e5, math.nan]
    for k in range(count):
        u = rng.normal(0.0, [1.0, 5.0, 30.0][k % 3], size)
        for i in np.flatnonzero(rng.random(size) < 0.25):
            u[i] = edges[rng.integers(len(edges))]
        yield u.tolist()


@pytest.mark.parametrize("d", [0, 1, 2])
def test_arima_objective_matches_reference(monkeypatch, train_series, d):
    rng = np.random.default_rng(20 + d)
    noise = np.cumsum(rng.normal(size=50)) * 1e-3
    for series in (train_series.rates, noise):
        for p in range(4):
            for q in range(4):
                got = _objective_of(monkeypatch, fit_arima, series, p, d, q)
                want = _reference_arima_objective(series, p, d, q)
                with np.errstate(all="ignore"):
                    for u in _points(rng, 1 + p + q, 40):
                        assert _same(got(u), want(u)), (p, d, q, u)


@pytest.mark.parametrize("p,q", [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 2), (2, 3)])
def test_garch_objective_matches_reference(monkeypatch, train_series, p, q):
    rng = np.random.default_rng(30 + 4 * p + q)
    residuals = fit_arima(train_series.rates, 1, 2, 2).residuals
    for resid in (residuals, rng.standard_t(4, size=45)):
        got = _objective_of(monkeypatch, fit_garch, resid, p, q)
        want = _reference_garch_objective(resid, p, q)
        with np.errstate(all="ignore"):
            for u in _points(rng, 1 + p + q, 60):
                assert _same(got(u), want(u)), (p, q, u)


def test_residuals_and_variances_match_reference():
    # the ARMA residuals and the GARCH recursion behind garch_variances,
    # at AR orders 0-4 (np.convolve from three lags) and GARCH orders up to (3, 4)
    rng = np.random.default_rng(12)
    for trial in range(600):
        n = int(rng.integers(1, 70))
        x = rng.normal(size=n) * 10.0 ** rng.integers(-3, 3)
        ar = rng.uniform(-0.5, 0.5, size=int(rng.integers(0, 5)))
        ma = rng.uniform(-0.5, 0.5, size=int(rng.integers(0, 4)))
        c = float(rng.normal())
        want = _reference_css_residuals(x, c, ar, ma)
        got = arima_garch._residuals(x, c, ar.tolist(), ma.tolist())
        assert _bits(got) == _bits(want), trial

        alpha = rng.uniform(0.0, 0.3, size=int(rng.integers(0, 4)))
        beta = rng.uniform(0.0, 0.2, size=int(rng.integers(0, 5)))
        e2, m = x**2, float(rng.uniform(0.1, 3.0))
        want = _reference_garch_recursion(0.3, alpha, beta, e2, m)
        assert _bits(_garch_kernel(0.3, alpha, beta, e2, m)) == _bits(want), trial


def test_one_tanh_call_matches_two_slices():
    # the ARIMA objective squashes all partial autocorrelations in one np.tanh
    # call where it made one call per polynomial
    rng = np.random.default_rng(13)
    squash = arima_garch._BOUNDARY_SQUASH
    for trial in range(400):
        u = next(_points(rng, int(rng.integers(1, 40)), 1))
        whole = (squash * np.tanh(u)).tolist()
        for s in range(len(u) + 1):
            parts = [*(squash * np.tanh(u[:s])).tolist(), *(squash * np.tanh(u[s:])).tolist()]
            assert all(map(_same, whole, parts)), (trial, s)


def test_objectives_call_no_public_kernel(monkeypatch, train_series):
    # tracers wrap every public function of the module; a fit may call them a
    # fixed number of times, never once per objective evaluation
    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    public = [name for name, obj in vars(arima_garch).items()
              if not name.startswith("_") and inspect.isfunction(obj)
              and obj.__module__ == arima_garch.__name__]
    assert {"difference", "garch_variances", "fit_arima", "fit_garch"} <= set(public)
    x = train_series.rates
    e = np.random.default_rng(6).standard_normal(60)
    counts = []
    for maxiter in (2000, 2):
        _clear_fit_caches()  # a memoised fit would call nothing
        calls = dict.fromkeys(public, 0)
        with monkeypatch.context() as m:
            for name in public:
                m.setattr(arima_garch, name, counted(getattr(arima_garch, name)))
            m.setattr(arima_garch, "_MAXITER", maxiter)
            # at 2 iterations the ARIMA fit raises, so each fit runs on its own
            try:
                fit_arima(x, 1, 2, 2)
            except ConvergenceError:
                pass
            try:
                fit_garch(e, 2, 1)
            except ConvergenceError:
                pass
        counts.append(calls)
    assert counts[0] == counts[1]
    assert all(n <= 1 for n in counts[0].values())
    # the ARIMA fit really ran in each pass: it differences its input once
    assert [c["difference"] for c in counts] == [1, 1]


def test_default_fits_keep_their_optimizer_path(monkeypatch, train_series):
    # (nit, nfev) of every start of the default fits on the 2010-2014 fixture
    path = []
    nelder_mead = arima_garch._nelder_mead

    def record(*args):
        result = nelder_mead(*args)
        path.append(result[3:])
        return result

    monkeypatch.setattr(arima_garch, "_nelder_mead", record)
    fit_garch(fit_arima(train_series.rates, 1, 2, 2).residuals, 2, 1)
    assert path == [(407, 687), (366, 630), (574, 961), (350, 601), (354, 589),
                    (212, 413), (114, 269), (106, 264), (112, 256), (107, 260)]


# ---------------------------------------------------------------------------
# fits are memoised on their exact input bytes, shape and orders

def _counted_starts(monkeypatch):
    # the number of Nelder-Mead starts run so far
    starts = []
    nelder_mead = arima_garch._nelder_mead

    def counted(*args):
        starts.append(1)
        return nelder_mead(*args)

    monkeypatch.setattr(arima_garch, "_nelder_mead", counted)
    return starts


def _spec_bits(spec):
    return {k: _bits(v) if isinstance(v, np.ndarray) else v for k, v in vars(spec).items()}


def _clear_fit_caches():
    arima_garch._arima_outcome.cache_clear()
    arima_garch._garch_outcome.cache_clear()


def test_fit_cache_hit_gives_the_bytes_of_a_cold_fit(monkeypatch, train_series):
    x = train_series.rates
    fit_garch(fit_arima(x, 1, 2, 2).residuals, 2, 1)
    starts = _counted_starts(monkeypatch)
    arima = fit_arima(x, 1, 2, 2)
    garch = fit_garch(arima.residuals, 2, 1)
    assert starts == []
    _clear_fit_caches()
    cold = fit_arima(x, 1, 2, 2)
    cold_garch = fit_garch(cold.residuals, 2, 1)
    assert len(starts) == 2 * arima_garch._N_STARTS
    assert _spec_bits(arima) == _spec_bits(cold)
    assert _spec_bits(garch) == _spec_bits(cold_garch)


def test_fitted_spec_arrays_are_read_only(train_series):
    arima = fit_arima(train_series.rates, 1, 2, 2)
    garch = fit_garch(arima.residuals, 2, 1)
    arrays = [arima.ar_coeffs, arima.ma_coeffs, arima.residuals,
              garch.alpha_coeffs, garch.beta_coeffs]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("order", [(1, 0, 1), (1, 2, 2)])
def test_fit_cache_sees_a_changed_input(monkeypatch, train_series, order):
    # d = 0 fits the caller's array itself: changing it in place is a new key
    x = np.array(train_series.rates)
    e = np.array(fit_arima(x, *order).residuals)
    old = fit_arima(x, *order)
    old_garch = fit_garch(e, 2, 1)
    before, before_garch = _spec_bits(old), _spec_bits(old_garch)
    starts = _counted_starts(monkeypatch)
    x[5] += 0.25
    e[5] += 0.25
    new = fit_arima(x, *order)
    new_garch = fit_garch(e, 2, 1)
    assert len(starts) == 2 * arima_garch._N_STARTS
    assert _spec_bits(new) != before and _spec_bits(new_garch) != before_garch
    assert _spec_bits(old) == before and _spec_bits(old_garch) == before_garch


def test_fit_cache_keys_orders_as_ints(monkeypatch, train_series):
    # a float order equal to a cached int order is still an error, not a hit
    x = train_series.rates
    spec = fit_arima(x, 1, 2, 2)
    garch = fit_garch(spec.residuals, 2, 1)
    with pytest.raises(ValidationError, match=r"^p must be an integer, not 1\.0$"):
        fit_arima(x, 1.0, 2, 2)
    with pytest.raises(ValidationError, match=r"^p must be an integer, not 2\.0$"):
        fit_garch(spec.residuals, 2.0, 1)
    starts = _counted_starts(monkeypatch)
    assert fit_arima(x, *np.array([1, 2, 2])) is spec
    assert fit_garch(spec.residuals, np.int64(2), np.int64(1)) is garch
    assert starts == []


def test_non_converged_fit_raises_on_miss_and_hit(monkeypatch, train_series):
    x = train_series.rates
    monkeypatch.setattr(arima_garch, "_MAXITER", 2)
    e = np.random.default_rng(5).standard_normal(60)
    for fit, args, spec_type in [(fit_arima, (x, 1, 2, 2), ArimaSpec),
                                 (fit_garch, (e, 2, 1), GarchSpec)]:
        starts = _counted_starts(monkeypatch)
        errors = []
        for _ in range(2):
            with pytest.raises(ConvergenceError) as exc:
                fit(*args)
            errors.append(exc.value)
        miss, hit = errors
        assert len(starts) == arima_garch._N_STARTS
        assert miss is not hit and hit.__context__ is None
        assert isinstance(hit.best, spec_type) and hit.best is miss.best
        assert str(hit) == str(miss) and hit.code == "E_CONVERGENCE"


@pytest.mark.parametrize("fit,args,error,match", [
    (fit_arima, (np.arange(10.0), -1, 1, 1), ValidationError, "nonnegative"),
    (fit_arima, (np.arange(10.0), -1.0, 1, 1), ValidationError, "nonnegative"),
    (fit_arima, (np.arange(4.0), 1, 1, 1), InsufficientDataError, "too short"),
    (fit_garch, (np.arange(10.0), 0, 0), ValidationError, "at least one"),
    (fit_garch, (np.arange(10.0), 1, -1), ValidationError, "nonnegative"),
    (fit_garch, (np.arange(3.0), 1, 1), InsufficientDataError, "need more than"),
    (fit_garch, (np.full(20, 0.25), 2, 1), ValidationError, "zero variance"),
], ids=["negative", "negative-float", "short", "no-lags", "negative", "short", "zero-variance"])
def test_fit_argument_errors_come_before_the_cache(fit, args, error, match):
    # bad arguments raise the same error on every call and are never cached
    for _ in range(2):
        with pytest.raises(error, match=match):
            fit(*args)
    for cached in (arima_garch._arima_outcome, arima_garch._garch_outcome):
        assert cached.cache_info().currsize == 0


@pytest.mark.parametrize("horizon, match", [
    (0, r"^horizon must be at least 1 \(horizon >= 1\), not 0$"),
    (-1, r"^horizon must be at least 1 \(horizon >= 1\), not -1$"),
    (2.0, r"^horizon must be an integer, not 2\.0$"),
])
def test_gaussian_forecast_horizons_are_checked(train_series, horizon, match):
    # the four Gaussian-forecast kernels read the horizon by one rule
    spec = fit_arima(train_series.rates, 1, 2, 2)
    garch = fit_garch(spec.residuals, 2, 1)
    for kernel, args in [
        (forecast_arima, (spec, train_series.rates, horizon)),
        (psi_weights, (spec, horizon)),
        (forecast_level_variance, (spec, horizon)),
        (forecast_garch_variance, (garch, spec.residuals, horizon)),
    ]:
        with pytest.raises(ValidationError, match=match):
            kernel(*args)
        assert len(kernel(*args[:-1], np.int64(2))) == 2, kernel.__name__


def test_select_order_leaves_its_fits_resident(monkeypatch, train_series):
    x = train_series.rates
    order = select_order(x, 2, 2, 2)
    starts = _counted_starts(monkeypatch)
    fit_arima(x, *order)
    assert starts == []


def test_fit_cache_is_bounded():
    bound = arima_garch._FIT_CACHE_SIZE
    rng = np.random.default_rng(11)
    series = [rng.standard_normal(12) for _ in range(bound + 6)]
    for x in series:
        fit_arima(x, 0, 0, 0)
        fit_garch(x, 1, 0)
    for cached in (arima_garch._arima_outcome, arima_garch._garch_outcome):
        info = cached.cache_info()
        assert info.maxsize == bound and info.currsize == bound and info.misses == bound + 6
    # the oldest fits were evicted, the newest stay
    fit_arima(series[-1], 0, 0, 0)
    fit_arima(series[0], 0, 0, 0)
    info = arima_garch._arima_outcome.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, bound + 7, bound)


@pytest.mark.parametrize("x0,center,weights,tie", [
    # a new vertex's value equals that of a vertex other than the best
    ([-0.15, -0.66, -0.4, -1.91], [1.2, 1.2, -2.0, -1.5], [8.8, 4.0, 7.3, 6.7], "new"),
    # the vertices kept from the last step already hold two equal values
    ([-0.06, -0.24, -0.43, -2.99], [-2.9, -0.1, -0.3, -1.0], [1.3, 3.7, 6.8, 8.2], "kept"),
])
def test_nelder_mead_ties_fall_back_to_argsort(monkeypatch, x0, center, weights, tie):
    # a tie leaves np.argsort's order of equal values to decide the simplex, so
    # the step re-sorts with np.argsort instead of inserting the new vertex
    from scipy.optimize import minimize

    objective = _objective("steps", center, weights)
    res = minimize(objective, np.array(x0), method="Nelder-Mead",
                   options={"maxiter": 40, "xatol": 1e-8, "fatol": 1e-10})
    sorts, nfev = [], [0]

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def argsort(self, a):
            sorts.append((list(a), nfev[0]))
            return np.argsort(a)

    def counted(u):
        nfev[0] += 1
        return objective(u)

    with monkeypatch.context() as m:
        m.setattr(arima_garch, "np", CountingNumpy())
        fun, x, success, nit, n = arima_garch._nelder_mead(counted, x0, 40, 1e-8, 1e-10)
    assert (success, nit, n) == (res.success, res.nit, res.nfev)
    assert np.float64(fun).tobytes() == np.float64(res.fun).tobytes()
    assert x.tobytes() == res.x.tobytes()
    # the re-sorts after a step of one or two evaluations (not a shrink, which
    # makes n + 2) met the tie
    steps = [f for (f, k), (_, before) in zip(sorts[2:], sorts[1:]) if k - before <= 2]
    if tie == "new":
        assert any(f[-1] in f[1:-1] for f in steps)
    else:
        assert any(f[-1] not in f[:-1] and len(set(f[:-1])) < len(f) - 1 for f in steps)
