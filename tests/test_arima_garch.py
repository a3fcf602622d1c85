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
    css_residuals,
    difference,
    fit_arima,
    fit_garch,
    forecast_arima,
    forecast_garch_variance,
    forecast_level_variance,
    garch_variances,
    pacf_to_coef,
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
    assert pacf_to_coef([0.6]) == pytest.approx([0.6])
    # order 2: a1 = r1*(1 - r2), a2 = r2
    r1, r2 = 0.5, -0.3
    a = pacf_to_coef([r1, r2])
    assert a == pytest.approx([r1 * (1 - r2), r2])


def test_pacf_map_always_stationary():
    rng = np.random.default_rng(14)
    for _ in range(25):
        r = rng.uniform(-0.999, 0.999, size=rng.integers(1, 6))
        a = pacf_to_coef(r)
        poly = np.concatenate(([1.0], -a))[::-1]
        assert np.all(np.abs(np.roots(poly)) > 1.0)


def test_css_residuals_ar1_hand_value():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    e = css_residuals(x, 0.5, [0.5], [])
    # e_t = x_t - 0.5 - 0.5*x_{t-1}, pre-sample x_0 = 0
    assert e == pytest.approx([0.5, 1.0, 2.5, 5.5])


def test_css_residuals_ma1_hand_value():
    x = np.array([1.0, 1.0, 1.0])
    e = css_residuals(x, 0.0, [], [0.5])
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
    ar, ma = pacf_to_coef(pacf[0]), -pacf_to_coef(pacf[1])
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


def test_filters_match_lfilter():
    # the MA inverse filter of css_residuals (zero state) and the GARCH-lag
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
        assert _bits(css_residuals(x, c, ar, coefs)) == _bits(want), trial

        beta = np.abs(coefs) / (1.0 + order)
        e2, m = x**2, float(rng.uniform(0.1, 3.0))
        rhs = np.full(n, 0.3) + 0.1 * np.concatenate(([m], e2))[:n]
        a_poly = np.concatenate(([1.0], -beta))
        want = lfilter([1.0], a_poly, rhs, zi=lfiltic([1.0], a_poly, np.full(order, m)))[0]
        got = arima_garch._garch_recursion(0.3, [0.1], beta, e2, m)
        assert _bits(got) == _bits(want), trial
