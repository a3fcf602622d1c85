"""ARIMA and GARCH baselines fitted by derivative-free optimization.

ARIMA(p,d,q) coefficients minimize the conditional sum of squares on the
d-times differenced series, with pre-sample values and residuals taken as
zero. Stationarity and invertibility are enforced by optimizing partial
autocorrelations squashed through tanh and mapped to polynomial
coefficients by the Durbin-Levinson recursion (the MA side negates the map
so the roots of 1 + theta(B) stay outside the unit circle). GARCH(p,q)
uses Gaussian quasi-maximum-likelihood with positivity and covariance
stationarity built into the parameter transform (omega = exp(u), lag
weights through a multinomial-logistic map so their sum stays below 1).

The optimizer is a Nelder-Mead simplex with 5 deterministic restarts, each
jittered around the best point so far, capped at 2000 iterations per start
with an objective-spread tolerance of 1e-10.

The module runs on numpy alone: `_nelder_mead` and `_all_pole` (the MA and
GARCH filters) port scipy's `minimize(method="Nelder-Mead")` and `lfilter`
operation for operation over Python floats, so fits keep those calls' bytes.
The Durbin-Levinson map also runs over Python floats. The fit objectives form
the AR term (`np.convolve`) and the ARCH sum (one `+=` per lag) in numpy at
every order, as do `np.tanh`, `np.exp` and `np.log` (numpy's own kernels, not
libm), `np.sum` and `e @ e` (pairwise and BLAS summation orders).

`fit_arima` and `fit_garch` each keep the outcome of their last 64 fits, an
LRU keyed on the input's float64 bytes and shape and the orders, so a repeated
fit returns the same read-only spec without running the optimizer again.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .data_ingest import (
    ConvergenceError,
    InsufficientDataError,
    ValidationError,
    _integer,
    _pop_float,
    _pop_indexed,
    _pop_int,
    _pop_start,
    parse_kv_file,
    write_kv_file,
)

_MAXITER = 2000
_FTOL = 1e-10
_N_STARTS = 5
_JITTER_SEED = 777
# tanh and softmax saturate in float64 for large |u|; shrink mapped values
# slightly so boundary optima keep roots outside the unit circle and
# alpha+beta strictly below 1
_BOUNDARY_SQUASH = 1.0 - 1e-6
# entries per fit cache: a full select_order(x, 2, 2, 2) grid (27 fits) and its
# follow-up fits stay resident. An entry holds the input's bytes and a spec with
# its residuals: ~2.5 KB at 60 months, growing 16 bytes per observation, so a
# full cache holds ~160 KB for monthly series and ~1 MB per 1000 observations
_FIT_CACHE_SIZE = 64


def difference(series, d: int) -> np.ndarray:
    """Apply the first-difference operator d times."""
    x = np.asarray(series, dtype=float)
    d = _integer(d, "d", 0)
    if x.size <= d:
        raise InsufficientDataError(f"need more than {d} observations to difference {d} times")
    for _ in range(d):
        x = np.diff(x)
    return x


def _durbin_levinson(pacf) -> list[float]:
    """Durbin-Levinson map from partial autocorrelations to AR coefficients.

    Inputs in (-1, 1) yield a polynomial 1 - sum(a_k B^k) with all roots
    strictly outside the unit circle. Runs over Python floats.
    """
    a = []
    for r in pacf:
        a = [x - r * y for x, y in zip(a, reversed(a))] + [r]
    return a


def _poly_roots_outside(coefs, sign: float) -> bool:
    # characteristic polynomial 1 - sign*sum(c_k B^k); its roots lie outside
    # the unit circle exactly when those of the reversed polynomial in 1/B,
    # whose leading coefficient is 1, lie inside (so a tiny last coefficient
    # is never a divisor)
    c = np.asarray(coefs, dtype=float)
    if c.size == 0:
        return True
    roots = np.roots(np.concatenate(([1.0], -sign * c)))
    return bool(np.all(np.abs(roots) < 1.0))


def _all_pole(x, a, z) -> list[float]:
    """y_t = x_t - sum_i a_i y_{t-1-i} from state z, over Python floats.

    In the order of scipy.signal's lfilter([1], [1, *a], x, zi=z) (direct form
    II transposed): y = z_0 + x, z_i = z_{i+1} - y*a_i, z_last = -(y*a_last).
    For finite values the outputs equal lfilter's bit for bit, up to the sign
    of an exact zero.
    """
    out = []
    # orders 1 and 2 (the defaults) unrolled: the generic loop below is slower
    if len(a) == 1:
        a0, z0 = a[0], z[0]
        for xt in x:
            y = z0 + xt
            out.append(y)
            z0 = -(y * a0)
        return out
    if len(a) == 2:
        a0, a1 = a
        z0, z1 = z
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


def _residuals(x, c, ar, ma) -> np.ndarray:
    """One-step residuals of an ARMA recursion with zero pre-sample terms."""
    rhs = (x - c) - np.convolve(x, [0.0, *ar])[: x.size]
    # e_t = rhs_t - sum_j ma_j e_{t-j}, zero initial conditions
    return np.array(_all_pole(rhs.tolist(), ma, [0.0] * len(ma))) if ma else rhs


@dataclass(frozen=True)
class ArimaSpec:
    p: int
    d: int
    q: int
    ar_coeffs: np.ndarray
    ma_coeffs: np.ndarray
    intercept: float
    residuals: np.ndarray
    sigma2: float
    css: float

    def __post_init__(self):
        if len(self.ar_coeffs) != self.p or len(self.ma_coeffs) != self.q:
            raise ValidationError("coefficient lengths must match the orders")
        if not _poly_roots_outside(self.ar_coeffs, sign=1.0):
            raise ValidationError("AR polynomial roots inside the unit circle")
        if not _poly_roots_outside(self.ma_coeffs, sign=-1.0):
            raise ValidationError("MA polynomial roots inside the unit circle")


def _nelder_mead(objective, x0, maxiter: int, xatol: float, fatol: float):
    """Minimize by the Nelder-Mead simplex (Nelder & Mead, Computer Journal 1965).

    The non-adaptive, unbounded branch of scipy.optimize's
    minimize(method="Nelder-Mead") with `maxiter` given, over Python floats:
    the same initial simplex, coefficients (1, 2, 0.5, 0.5), operation order,
    stopping test and np.argsort reordering, so it returns the same bytes.
    `objective` receives a list of floats. Returns (fun, x, success, nit, nfev).
    """
    nfev = 0

    def f(x):
        nonlocal nfev
        nfev += 1
        return objective(x)

    def reorder(sim, fsim):
        idx = np.argsort(fsim).tolist()
        return [sim[i] for i in idx], [fsim[i] for i in idx]

    def toward(cb, cw):
        # scipy's moves (1 + c)*xbar - c*worst, rounded the same: negation is exact
        return [cb * b + cw * w for b, w in zip(xbar, sim[-1])]

    n = len(x0)
    sim = [[float(v) for v in x0]]
    for k in range(n):
        y = list(sim[0])
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    sim, fsim = reorder(*reorder(sim, [f(x) for x in sim]))  # scipy sorts twice
    nit = 1
    while nit < maxiter:
        best = sim[0]
        if all(abs(fsim[0] - fx) <= fatol for fx in fsim[1:]) and all(
            abs(v - b) <= xatol for x in sim[1:] for v, b in zip(x, best)
        ):
            break
        xbar = best
        for x in sim[1:-1]:
            xbar = [s + v for s, v in zip(xbar, x)]
        xbar = [s / n for s in xbar]
        xr = toward(2.0, -1.0)
        fxr = f(xr)
        if fxr < fsim[0]:  # expand
            xe = toward(3.0, -2.0)
            fxe = f(xe)
            new = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:  # reflect
            new = (xr, fxr)
        else:  # contract outside or inside, else shrink
            outside = fxr < fsim[-1]
            xc = toward(1.5, -0.5) if outside else toward(0.5, 0.5)
            fxc = f(xc)
            new = (xc, fxc) if (fxc <= fxr if outside else fxc < fsim[-1]) else None
        nit += 1
        if new:
            rest, (x, fx) = fsim[:-1], new
            if fx == fx and fx not in rest and all(a < b for a, b in zip([-math.inf, *rest], rest)):
                # no nan and no tie: the one sorted order, which np.argsort gives too
                k = bisect.bisect(rest, fx)
                sim[k:], fsim[k:] = [x, *sim[k:-1]], [fx, *rest[k:]]
                continue
            sim[-1], fsim[-1] = new
        else:
            for j in range(1, n + 1):
                sim[j] = [b + 0.5 * (v - b) for b, v in zip(best, sim[j])]
                fsim[j] = f(sim[j])
        sim, fsim = reorder(sim, fsim)
    return float(np.min(fsim)), np.array(sim[0]), nit < maxiter, nit, nfev


def _multi_start(objective, x0, rng):
    """Nelder-Mead with deterministic restarts jittered around the best point."""
    best = None
    converged = False
    for k in range(_N_STARTS):
        start = x0 if k == 0 else best[1] + rng.normal(0.0, 0.3, size=len(x0))
        fun, x, success, _, _ = _nelder_mead(objective, start, _MAXITER, 1e-8, _FTOL)
        if best is None or fun < best[0]:
            best = (fun, x)
        converged = converged or success
    return best, converged


def fit_arima(series, p: int, d: int, q: int) -> ArimaSpec:
    """Estimate ARIMA(p,d,q) by conditional sum of squares."""
    p, d, q = _integer(p, "p", 0), _integer(d, "d", 0), _integer(q, "q", 0)
    x = np.asarray(series, dtype=float)
    if x.size < p + q + d + 2:
        raise InsufficientDataError(
            f"series of {x.size} too short for ARIMA({p},{d},{q}), floor {p + q + d + 2}"
        )
    spec, converged = _arima_outcome(x.tobytes(), x.shape, p, d, q)
    if not converged:
        raise ConvergenceError(
            f"ARIMA({p},{d},{q}) fit did not converge within {_MAXITER} iterations per start",
            best=spec,
        )
    return spec


@functools.lru_cache(maxsize=_FIT_CACHE_SIZE)
def _arima_outcome(data: bytes, shape, p: int, d: int, q: int):
    # fit_arima's outcome (spec, converged) for its checked input
    z = difference(np.frombuffer(data).reshape(shape), d)
    scale = float(np.std(z))
    if scale == 0.0:
        scale = 1.0
    zs = z / scale

    def unpack(u):
        r = (_BOUNDARY_SQUASH * np.tanh(u[1:])).tolist()
        return u[0], _durbin_levinson(r[:p]), [-a for a in _durbin_levinson(r[p:])]

    def objective(u):
        e = _residuals(zs, *unpack(u))
        return float(e @ e)

    x0 = np.zeros(1 + p + q)
    x0[0] = float(np.mean(zs))
    rng = np.random.default_rng(_JITTER_SEED)
    (fun, u_best), converged = _multi_start(objective, x0, rng)
    c, ar, ma = unpack(u_best)
    resid = _residuals(z, float(c * scale), ar, ma)
    css = float(resid @ resid)
    spec = ArimaSpec(
        p=p,
        d=d,
        q=q,
        ar_coeffs=_frozen(ar),
        ma_coeffs=_frozen(ma),
        intercept=float(c * scale),
        residuals=_frozen(resid),
        sigma2=css / z.size,
        css=css,
    )
    return spec, converged


def _frozen(values) -> np.ndarray:
    # a read-only float array, so no caller can change a cached spec
    a = np.array(values, dtype=float)
    a.flags.writeable = False
    return a


def forecast_arima(model: ArimaSpec, last_observations, horizon: int) -> np.ndarray:
    """Iterated conditional-mean forecasts, integrated back to levels."""
    horizon = _integer(horizon, "horizon", 1)
    obs = np.asarray(last_observations, dtype=float)
    if obs.size < model.p + model.d:
        raise InsufficientDataError(
            f"need at least {model.p + model.d} trailing observations, got {obs.size}"
        )
    if len(model.residuals) < model.q:
        raise InsufficientDataError("model carries fewer trailing residuals than its MA order")
    zs = list(difference(obs, model.d)[-model.p :]) if model.p else []
    es = list(np.asarray(model.residuals, dtype=float)[-model.q :]) if model.q else []
    levels = list(obs[-model.d :]) if model.d else []
    try:
        weights = [(-1.0) ** (j + 1) * math.comb(model.d, j) for j in range(1, model.d + 1)]
    except OverflowError:
        raise ValidationError(f"d = {model.d}: its integration weights overflow a float") from None
    for _ in range(horizon):
        zhat = model.intercept
        for i in range(model.p):
            zhat += model.ar_coeffs[i] * zs[-1 - i]
        for j in range(model.q):
            zhat += model.ma_coeffs[j] * es[-1 - j]
        zs.append(zhat)
        es.append(0.0)
        level = zhat
        for j, w in enumerate(weights, start=1):
            level += w * levels[-j]
        levels.append(level)
    return np.array(levels[model.d :])


@dataclass(frozen=True)
class GarchSpec:
    p: int
    q: int
    omega: float
    alpha_coeffs: np.ndarray
    beta_coeffs: np.ndarray

    def __post_init__(self):
        if len(self.alpha_coeffs) != self.p or len(self.beta_coeffs) != self.q:
            raise ValidationError("coefficient lengths must match the orders")
        if self.omega <= 0:
            raise ValidationError("omega must be positive")
        if np.any(np.asarray(self.alpha_coeffs) < 0) or np.any(np.asarray(self.beta_coeffs) < 0):
            raise ValidationError("ARCH/GARCH coefficients must be nonnegative")
        if np.sum(self.alpha_coeffs) + np.sum(self.beta_coeffs) >= 1.0:
            raise ValidationError("alpha + beta must sum below 1")


def _delays(x, k: int, fill: float) -> np.ndarray:
    # x delayed by 0..k months, one row each, pre-sample values `fill`
    padded = np.concatenate((np.full(k, fill), x))
    return np.array([padded[k - i : k - i + x.size] for i in range(k + 1)])


def _garch_h(omega, alpha, beta, delays, m) -> np.ndarray:
    """h_t = omega + sum_i alpha_i e2_{t-i} + sum_j beta_j h_{t-j}, pre-sample e2 and h
    all m, over delays = _delays(e2, p, m) and lists of floats alpha and beta."""
    rhs = np.full(delays.shape[1], omega)
    for a, lag in zip(alpha, delays[1:]):
        rhs += a * lag
    if not beta:
        return rhs
    # lfiltic's state for pre-sample h = m, summed as it sums: z_k = sum_{i>=k} beta_i*m;
    # np.sum of one or two terms is that term or their sum
    bm = [b * m for b in beta]
    z = [bm[k] if k == len(bm) - 1 else bm[k] + bm[k + 1] if k == len(bm) - 2
         else float(np.sum(bm[k:])) for k in range(len(bm))]
    return np.array(_all_pole(rhs.tolist(), [-b for b in beta], z))


def garch_variances(spec: GarchSpec, residuals) -> np.ndarray:
    """In-sample conditional variances; pre-sample terms use the sample mean square."""
    e2 = np.asarray(residuals, dtype=float) ** 2
    m = float(e2.mean())
    alpha, beta = ([*map(float, c)] for c in (spec.alpha_coeffs, spec.beta_coeffs))
    return _garch_h(spec.omega, alpha, beta, _delays(e2, spec.p, m), m)


def fit_garch(residuals, p: int, q: int) -> GarchSpec:
    """Gaussian QMLE for GARCH(p,q); p counts ARCH lags, q counts GARCH lags."""
    p, q = _integer(p, "p", 0), _integer(q, "q", 0)
    if p < 1 and q < 1:
        raise ValidationError("at least one ARCH or GARCH lag is required")
    e = np.asarray(residuals, dtype=float)
    if e.size < p + q + 2:
        raise InsufficientDataError(f"need more than {p + q + 1} residuals")
    if float(np.var(e)) == 0.0:
        raise ValidationError("degenerate residuals with zero variance")
    spec, converged = _garch_outcome(e.tobytes(), e.shape, p, q)
    if not converged:
        raise ConvergenceError(
            f"GARCH({p},{q}) fit did not converge within {_MAXITER} iterations per start",
            best=spec,
        )
    return spec


@functools.lru_cache(maxsize=_FIT_CACHE_SIZE)
def _garch_outcome(data: bytes, shape, p: int, q: int):
    # fit_garch's outcome (spec, converged) for its checked input
    e = np.frombuffer(data).reshape(shape)
    s2 = float(np.var(e))
    es = e / math.sqrt(s2)
    e2 = es**2
    m = float(e2.mean())
    delays = _delays(e2, p, m)

    def unpack(u):
        u = [-60.0 if v < -60.0 else 60.0 if v > 60.0 else v for v in u]
        ex = np.exp(u[1:])
        total = 1.0 + float(ex.sum())
        w = [_BOUNDARY_SQUASH * v / total for v in ex.tolist()]
        return math.exp(u[0]), w[:p], w[p:]

    def objective(u):
        h = _garch_h(*unpack(u), delays, m)
        return float(np.sum(np.log(h) + e2 / h))

    # start near omega = 0.1*var, total ARCH weight 0.1, total GARCH weight 0.8
    x0 = np.empty(1 + p + q)
    x0[0] = math.log(0.1 * m)
    x0[1 : 1 + p] = math.log(0.1 / p * 10.0) if p else 0.0
    x0[1 + p :] = math.log(0.8 / q * 10.0) if q else 0.0
    rng = np.random.default_rng(_JITTER_SEED + 1)
    (_, u_best), converged = _multi_start(objective, x0, rng)
    omega, alpha, beta = unpack(u_best)
    spec = GarchSpec(
        p=p,
        q=q,
        omega=float(omega * s2),
        alpha_coeffs=_frozen(alpha),
        beta_coeffs=_frozen(beta),
    )
    return spec, converged


def forecast_garch_variance(
    spec: GarchSpec, residuals, horizon: int, h_insample=None
) -> np.ndarray:
    """h-step innovation-variance forecasts from the GARCH recursion.

    Future squared residuals are replaced by their conditional expectations.
    `residuals` and `h_insample` may be trailing slices of different lengths;
    both are taken to end at the last in-sample month.
    """
    horizon = _integer(horizon, "horizon", 1)
    e2 = list(np.asarray(residuals, dtype=float) ** 2)
    h = list(h_insample) if h_insample is not None else list(garch_variances(spec, residuals))
    if len(e2) < spec.p or len(h) < spec.q:
        raise ValidationError(
            f"GARCH({spec.p},{spec.q}) forecast needs {spec.p} trailing residuals "
            f"and {spec.q} trailing variances, got {len(e2)} and {len(h)}"
        )
    out = []
    for _ in range(horizon):
        val = spec.omega
        for i, a in enumerate(spec.alpha_coeffs, start=1):
            val += a * e2[-i]
        for j, b in enumerate(spec.beta_coeffs, start=1):
            val += b * h[-j]
        out.append(val)
        e2.append(val)  # E[e^2] = h for future steps
        h.append(val)
    return np.array(out)


def psi_weights(model: ArimaSpec, horizon: int) -> np.ndarray:
    """Moving-average representation weights of the integrated process.

    psi solves theta(B) = phi(B) (1-B)^d psi(B); the variance of the h-step
    level forecast is sigma2 * sum(psi_i^2, i < h) under homoscedastic
    innovations.
    """
    horizon = _integer(horizon, "horizon", 1)
    poly = np.concatenate(([1.0], -np.asarray(model.ar_coeffs, dtype=float)))
    for _ in range(model.d):
        poly = np.convolve(poly, [1.0, -1.0])
    a = -poly[1:]  # recursion weights: psi_j = theta_j + sum a_i psi_{j-i}
    psi = np.zeros(horizon)
    psi[0] = 1.0
    for j in range(1, horizon):
        val = model.ma_coeffs[j - 1] if j - 1 < model.q else 0.0
        for i in range(1, min(j, a.size) + 1):
            val += a[i - 1] * psi[j - i]
        psi[j] = val
    return psi


def forecast_level_variance(model: ArimaSpec, horizon: int, innovation_vars=None) -> np.ndarray:
    """Variance of the h-step level forecast via accumulated psi weights."""
    psi = psi_weights(model, horizon)
    out = np.empty(horizon)
    if innovation_vars is None:
        out[:] = model.sigma2 * np.cumsum(psi**2)
    else:
        iv = np.asarray(innovation_vars, dtype=float)
        if iv.size < horizon:
            raise ValidationError("need one innovation variance per forecast step")
        for h in range(1, horizon + 1):
            # psi_i pairs with the innovation variance of step h-i
            out[h - 1] = float(np.sum(psi[:h] ** 2 * iv[:h][::-1]))
    return out


# ---------------------------------------------------------------------------
# flat key = value fitted-model files

def write_arima_model(
    arima: ArimaSpec,
    path,
    start: tuple[int, int],
    level_tail,
    garch: GarchSpec | None = None,
    h_tail=None,
) -> None:
    """Persist a fitted model with the state needed to forecast from the file.

    `level_tail` holds the last p+d training levels; the file also carries
    trailing residuals (and conditional variances when a GARCH layer is
    present) so h-step forecasts reproduce the in-memory ones exactly. The
    variances are recomputed from `arima.residuals` unless `h_tail` (as
    returned by `read_arima_model`) gives them, so a model read back is
    written again to the same bytes.
    """
    level_tail = [float(x) for x in level_tail]
    if len(level_tail) < arima.p + arima.d:
        raise ValidationError(f"need {arima.p + arima.d} trailing levels, got {len(level_tail)}")
    n_resid = max(arima.q, garch.p if garch else 0)
    resid_tail = [float(x) for x in np.asarray(arima.residuals)[-n_resid:]] if n_resid else []

    def indexed(prefix, values):
        return [(f"{prefix}{i}", float(x)) for i, x in enumerate(values, start=1)]

    pairs = [
        ("model", "arima-garch" if garch else "arima"),
        ("p", arima.p),
        ("d", arima.d),
        ("q", arima.q),
        ("intercept", arima.intercept),
        ("sigma2", arima.sigma2),
        ("css", arima.css),
        ("start_year", start[0]),
        ("start_month", start[1]),
        *indexed("ar.", arima.ar_coeffs),
        *indexed("ma.", arima.ma_coeffs),
        *indexed("tail.", level_tail[len(level_tail) - arima.p - arima.d :]),
        *indexed("resid.", resid_tail),
    ]
    if garch is not None:
        h = garch_variances(garch, arima.residuals) if h_tail is None else np.asarray(h_tail)
        if len(h) < garch.q:
            raise ValidationError(f"need {garch.q} trailing variances, got {len(h)}")
        pairs += [("garch.p", garch.p), ("garch.q", garch.q), ("garch.omega", garch.omega)]
        pairs += indexed("garch.alpha.", garch.alpha_coeffs)
        pairs += indexed("garch.beta.", garch.beta_coeffs)
        pairs += indexed("garch.h.", h[-garch.q :] if garch.q else [])
    write_kv_file(path, pairs)


def read_arima_model(path):
    """Load a fitted-model file.

    Returns (ArimaSpec, GarchSpec | None, start, level_tail, h_tail); the
    returned spec's residuals hold only the stored trailing values.
    """
    kv = parse_kv_file(path)
    model = kv.pop("model", "arima")
    if model not in ("arima", "arima-garch"):
        raise ValidationError(f"{path}: unknown model {model}")
    p, d, q = (_pop_int(kv, key, path) for key in ("p", "d", "q"))
    intercept = _pop_float(kv, "intercept", path)
    sigma2 = _pop_float(kv, "sigma2", path)
    css = _pop_float(kv, "css", path)
    start = _pop_start(kv, path)
    ar, ma, tail, resid = (
        np.array(_pop_indexed(kv, prefix, path)) for prefix in ("ar.", "ma.", "tail.", "resid.")
    )
    spec = ArimaSpec(
        p=p, d=d, q=q, ar_coeffs=ar, ma_coeffs=ma,
        intercept=intercept, residuals=resid, sigma2=sigma2, css=css,
    )
    garch = None
    h_tail = None
    if model == "arima-garch":
        gp, gq = _pop_int(kv, "garch.p", path), _pop_int(kv, "garch.q", path)
        omega = _pop_float(kv, "garch.omega", path)
        alpha, beta, h_tail = (
            np.array(_pop_indexed(kv, prefix, path))
            for prefix in ("garch.alpha.", "garch.beta.", "garch.h.")
        )
        garch = GarchSpec(p=gp, q=gq, omega=omega, alpha_coeffs=alpha, beta_coeffs=beta)
    if kv:
        raise ValidationError(f"{path}: unknown keys {', '.join(sorted(kv))}")
    return spec, garch, start, tail, h_tail


def aic(css: float, n: int, k: int) -> float:
    """Gaussian AIC up to constants: n*ln(css/n) + 2k."""
    if css <= 0 or n <= 0:
        raise ValidationError("AIC needs positive css and sample size")
    return n * math.log(css / n) + 2.0 * k


def select_order(series, max_p: int, max_d: int, max_q: int) -> tuple[int, int, int]:
    """Grid search minimizing AIC; ties prefer smaller p+q, then smaller d."""
    x = np.asarray(series, dtype=float)
    results = []
    for d in range(max_d + 1):
        for p in range(max_p + 1):
            for q in range(max_q + 1):
                try:
                    fit = fit_arima(x, p, d, q)
                except (ConvergenceError, InsufficientDataError, ValidationError):
                    continue
                n = x.size - d
                try:
                    score = aic(fit.css, n, p + q + 2)
                except ValidationError:
                    continue
                results.append((score, p + q, d, p, q))
    if not results:
        raise ConvergenceError("no ARIMA order in the grid produced a converged fit")
    results.sort()
    _, _, d, p, q = results[0]
    return p, d, q
