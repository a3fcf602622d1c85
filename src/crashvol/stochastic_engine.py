"""Seeded Monte Carlo simulation of the crash-rate dynamics.

Two-factor model: the rate follows dC = mu*C1*dt + sqrt(v)*C1*dW_c with
increments scaled to the initial rate C1 (state-independent steps), and the
variance follows dv = kappa*(theta - v)*dt + xi*sqrt(v)*dW_v, with corr(W_c,
W_v) = rho. Discretization is explicit Euler, one step of dt = 1/12 year per
calendar month (not a setting). A step scales a deviation from the
mean-reversion target by (1 - kappa/12), so the simulators take kappa and
kappa_v below 24 per year only. The rate update uses the start-of-step
variance. Negative excursions of either process are folded back by
reflection (absolute value), or clipped to zero under the `truncate` scheme.

Calendar-hurdle spikes: in configured months the reported rate is
|base + trailing_average * (a + b*z)| with a fresh z per path per
occurrence. The base (pre-spike) series, not the spiked one, feeds both the
next Euler step and the trailing average, so spikes stay transient.

An Ornstein-Uhlenbeck variant with a deterministic growth target and the
identical spike machinery serves as a baseline.

Determinism (random stream v3): draw row r, the r-th normal of every path
(months in order; within a month z_c, z_v, then any spike draw), is the
first `n_paths` values of `Generator(PCG64(seed).jumped(r)).standard_normal`
for any seed >= 0, and path p is column p of every row. A fill of k values
equals the first k values of any longer fill, so path p depends neither on
`n_paths` nor on the other paths. Each side that draws seeds one PCG64
per call, and each row resets it to that state and advances it by r
jumps. A row is the same whichever side draws it and each row is drawn
once, so the bytes depend neither on the thread nor on the CPU count.

Layout: the state is month-major, one C-ordered row of paths per month, and
each Euler step folds its result straight into a row. Draw row r of the
call goes into row r % `_DRAW_ROWS` of a ring. From `_AHEAD_PATHS` paths on
more than one CPU a worker thread and the caller share the rows: each side
takes the lowest unclaimed row, and row r only while r < first[t] +
`_DRAW_ROWS` for the caller's month t. Before month t's step the caller
draws such rows of months t and t + 1 until none of month t's is left
unclaimed or on the worker, and waits only when it has none to take.
Otherwise the caller draws each month just before its step.
`forecast_quantiles` shares its month rows' sorts the same way. The
simulators keep every month's base and reported rows, and heston's
variances, as read-only (paths, months) `.T` views; the baseline's constant
variance is a broadcast of one value. A forecast keeps a
ring of the latest 12 base rows, one variance row and one spike row, and
takes each month's quantiles from its reported row as it is done. The spike
baseline adds each path's window w of k <= 12 months, oldest first, into one
scratch row in the order numpy's pairwise sum takes a contiguous row of k
values: left to right for k < 8, else ((w0+w1)+(w2+w3))+((w4+w5)+(w6+w7))
and then w8, w9, ... in turn. So the bytes depend on no numpy reduction
kernel, and a path's sum on no other path.
"""

from __future__ import annotations

import math
import numbers
import os
import re
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data_ingest import (
    ValidationError,
    _integer,
    _pop_float,
    _pop_indexed,
    _pop_start,
    add_months,
    parse_kv_file,
    write_kv_file,
)

_DT = 1.0 / 12.0  # one Euler step per calendar month, in years


class FellerWarning(UserWarning):
    """Raised when kappa <= xi^2 / (2 theta) in variance units."""


@dataclass(frozen=True)
class SpikeSpec:
    """Normal-draw spike parameters for one calendar month: G = mean_a + std_b*z."""

    month: int
    mean_a: float
    std_b: float

    def __post_init__(self):
        object.__setattr__(self, "month", _integer(self.month, "spike month"))
        if not 1 <= self.month <= 12:
            raise ValidationError(f"spike month {self.month} outside 1..12")
        if not (math.isfinite(self.mean_a) and math.isfinite(self.std_b)):
            raise ValidationError(f"spike month {self.month} has a non-finite mean or std")
        if self.std_b < 0:
            raise ValidationError("spike std must be nonnegative")


def _check(cond: bool, what: str):
    if not cond:
        raise ValidationError(f"violated invariant: {what}")


def _power(x: float, p: float, name: str) -> float:
    """x ** p; a result too large for a float is a ValidationError naming `name`."""
    try:
        return x**p
    except OverflowError:
        raise ValidationError(f"{name} = {x:.6g} overflows at power {p:g}") from None


def _check_common(params, *model_values):
    """Invariants shared by both parameter sets; model_values must be finite too."""
    values = (params.c1, params.mu, *model_values)
    _check(all(math.isfinite(x) for x in values), "finite parameters")
    _check(params.c1 > 0, "c1 > 0")
    _check(params.scheme in ("reflect", "truncate"), "scheme in {reflect, truncate}")
    _check(1 <= params.start[1] <= 12, "start month in 1..12")
    months = [s.month for s in params.spikes]
    _check(len(months) == len(set(months)), "unique spike months")


@dataclass(frozen=True)
class HestonParams:
    """Model parameters; v0 and theta are variances in per-year units.

    Config files carry volatility-units values (v0_vol, theta_vol) which are
    squared on load; `feller_satisfied` uses the variance-units bound.
    """

    c1: float
    mu: float
    v0: float
    theta: float
    kappa: float
    xi: float
    rho: float
    spikes: tuple[SpikeSpec, ...] = ()
    start: tuple[int, int] = (2015, 1)
    scheme: str = "reflect"
    feller_satisfied: bool = field(init=False)

    def __post_init__(self):
        _check_common(self, self.v0, self.theta, self.kappa, self.xi, self.rho)
        _check(self.v0 >= 0, "v0 >= 0")
        _check(self.theta >= 0, "theta >= 0")
        _check(self.kappa >= 0, "kappa >= 0")
        _check(self.xi >= 0, "xi >= 0")
        _check(-1.0 <= self.rho <= 1.0, "-1 <= rho <= 1")
        bound = _power(self.xi, 2, "xi") / (2.0 * self.theta) if self.theta > 0 else math.inf
        ok = self.kappa > bound
        object.__setattr__(self, "feller_satisfied", bool(ok))
        if not ok and self.xi > 0:
            warnings.warn(
                f"kappa={self.kappa:.6g} does not exceed xi^2/(2*theta)={bound:.6g}; "
                "the variance process relies on the reflection scheme",
                FellerWarning,
                stacklevel=3,  # past the __init__ that dataclass generates, to the caller
            )


@dataclass(frozen=True)
class VasicekParams:
    """Ornstein-Uhlenbeck baseline: dC = kappa_v*(theta(t) - C)dt + sigma_v*C1*dW
    with theta(t) = C1*(1+mu)^(t/12) tracking the fitted annual growth."""

    c1: float
    mu: float
    kappa_v: float
    sigma_v: float
    spikes: tuple[SpikeSpec, ...] = ()
    start: tuple[int, int] = (2015, 1)
    scheme: str = "reflect"

    def __post_init__(self):
        _check_common(self, self.kappa_v, self.sigma_v)
        _check(self.mu > -1.0, "mu > -1")
        _check(self.kappa_v >= 0, "kappa_v >= 0")
        _check(self.sigma_v >= 0, "sigma_v >= 0")
        _power(self.sigma_v, 2, "sigma_v")  # the reported variance


@dataclass(frozen=True)
class SimulationResult:
    """Simulated paths; rows are paths, columns are consecutive months.

    The arrays are read-only `.T` views of month-major storage, so they need
    not be C-contiguous."""

    rate_paths: np.ndarray
    var_paths: np.ndarray
    base_paths: np.ndarray
    start: tuple[int, int]

    @property
    def n_paths(self) -> int:
        return self.rate_paths.shape[0]

    @property
    def horizon(self) -> int:
        return self.rate_paths.shape[1]

    @property
    def months(self) -> list[tuple[int, int]]:
        return [add_months(*self.start, k) for k in range(self.horizon)]


def _level_name(level: float) -> str:
    """Forecast CSV column of a quantile level: `q` and the percentage at %g."""
    return f"q{level * 100:02g}"


def _level_from_name(name: str) -> float | None:
    """The level a `q...` column name encodes, or None for any other name."""
    m = re.fullmatch(r"q(\d+(?:\.\d+)?)", name)
    return float(m.group(1)) / 100.0 if m else None


def _check_levels(levels) -> tuple[float, ...]:
    """Quantile levels as floats: strictly inside (0, 1), strictly increasing, and
    each read back unchanged from its column name (no precision lost at %g, no
    exponent form, no shared name). No levels at all is a median-only forecast;
    a string, or a level that is not a number, is a ValidationError."""
    items = [levels] if isinstance(levels, str) else list(levels)
    for x in items:
        if not isinstance(x, numbers.Real):
            raise ValidationError(f"quantile level {x!r} is not a number")
    lv = tuple(map(float, items))
    for x in lv:
        if not 0.0 < x < 1.0:
            raise ValidationError(f"quantile level {x:g} ({x * 100:g} %) is not inside (0, 1)")
        if _level_from_name(_level_name(x)) != x:
            raise ValidationError(f"quantile level {x!r} does not survive as {_level_name(x)}")
    if any(a >= b for a, b in zip(lv, lv[1:])):
        raise ValidationError("quantile levels must be sorted and unique")
    return lv


@dataclass(frozen=True)
class ForecastQuantiles:
    """Per-month median and quantile bands; the levels pass `_check_levels`."""

    months: tuple[tuple[int, int], ...]
    median: np.ndarray
    levels: tuple[float, ...]
    bands: np.ndarray  # shape (len(levels), horizon)

    def __post_init__(self):
        object.__setattr__(self, "levels", _check_levels(self.levels))


def feller_bound(xi: float, theta_vol: float) -> float:
    """Mean-reversion threshold xi^2 / (2*theta) with theta in volatility units."""
    if theta_vol <= 0:
        raise ValidationError("theta_vol must be positive")
    return xi * xi / (2.0 * theta_vol)


def _fold(x, scheme: str, out=None):
    """Fold x at zero (|x|, or max(x, 0) under truncate) into `out`; with no
    `out`, in place if x is an array."""
    if out is None and isinstance(x, np.ndarray):
        out = x
    return np.abs(x, out=out) if scheme == "reflect" else np.maximum(x, 0.0, out=out)


def step_variance(v, params: HestonParams, z_v, out=None):
    """One monthly Euler step of the variance, folded to stay nonnegative (into
    `out` if given): v + kappa*(theta - v)*dt + xi*sqrt(v*dt)*z_v, dt = 1/12."""
    raw = v + params.kappa * (params.theta - v) * _DT + params.xi * np.sqrt(v * _DT) * z_v
    return _fold(raw, params.scheme, out)


def step_rate(c_prev, params: HestonParams, v, z_c, out=None):
    """One monthly Euler step of the rate, folded into `out` if given; increments
    scale with c1, not the state: c_prev + mu*c1*dt + sqrt(v)*c1*sqrt(dt)*z_c."""
    raw = c_prev + params.mu * params.c1 * _DT + np.sqrt(v) * params.c1 * math.sqrt(_DT) * z_c
    return _fold(raw, params.scheme, out)


def _step_vasicek(c_prev, params: VasicekParams, t: int, z_c, out=None):
    """One monthly Euler step of the baseline toward theta(t + 1) = c1*(1 + mu)^((t + 1)/12),
    folded into `out` if given: c_prev + kappa_v*(theta - c_prev)*dt + sigma_v*c1*sqrt(dt)*z_c."""
    theta = params.c1 * _power(1.0 + params.mu, (t + 1) / 12.0, "1 + mu")
    raw = (c_prev + params.kappa_v * (theta - c_prev) * _DT
           + params.sigma_v * params.c1 * math.sqrt(_DT) * z_c)
    return _fold(raw, params.scheme, out)


def _allocate(n_paths: int, ring: int, months: list[int]) -> list[np.ndarray]:
    """A ring of `ring` draw rows, as one (ring, paths) array, and one (m,
    paths) array of month rows per m in `months`, allocated together before
    anything is drawn; a size that cannot be allocated is one ValidationError
    naming the total bytes."""
    shapes = [(ring, n_paths), *[(m, n_paths) for m in months]]
    try:
        return [np.empty(shape) for shape in shapes]
    except (MemoryError, ValueError):
        gib = sum(math.prod(shape) for shape in shapes) * 8 / 2**30
        rows = months[0] if len(set(months)) == 1 else ", ".join(map(str, months))
        raise ValidationError(f"{n_paths} paths: a ring of {ring} draw rows and {len(months)} arrays"
                              f" of {rows} months ({gib:.3g} GiB) cannot be allocated") from None


_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835  # `PCG64.jumped`'s step, (phi - 1) * 2**128

# Paths from which a worker thread shares each month's draw rows with the
# caller, and a thread shares `forecast_quantiles`' sorts. The thread
# start and the row claims cost ~1.0-1.8 ms a 60-month call (at 1 path,
# inline -> threaded, medians of 81-121 streamed forecasts over four runs:
# heston 1.8-4.0 -> 3.4-5.5 ms, +1.4-1.8; vasicek 1.1-2.3 -> 2.3-3.5,
# +1.0-1.2). Medians of 41 streamed 60-month forecasts (two runs), inline
# -> threaded, heston and vasicek, 2 shared vCPUs, numpy 2.4.6: 2000 paths
# 7.1-7.4 -> 7.4-7.8 and 4.1-4.4 -> 4.8-5.0 ms; 2500 8.5-8.6 -> 8.0-8.2
# and 4.9-5.0 -> 5.1-5.4; 3000 9.8-10.3 -> 8.3-8.4 and 5.5-5.8 -> 5.0-5.5;
# 4000 13.6-16.7 -> 9.2-10.1 and 7.1-7.2 -> 5.9; 5000 15.4-16.2 ->
# 11.2-11.9 and 9.5-9.7 -> 6.6-7.4. Heston crosses at ~2250 paths (paths x
# rows 4500) and vasicek at ~3000 (paths x rows 3000), so neither paths
# nor paths x rows is one crossover for both; 4000 keeps 500-path calls
# inline and both gain.
_AHEAD_PATHS = 4000

# Rows in the draw ring: the worker may draw this many rows past the first
# of the caller's month, ~3 heston or ~6 vasicek months, so it seldom idles
# through spike months or vasicek's one-row months. 8 x paths x 8 bytes: a
# warm 60-month backtest's traced peak, as a share of one (60, paths) array
# at 5000 and 20000 paths, went 0.42-0.43 -> 0.45-0.46 (heston) and 0.37-0.38
# -> 0.44-0.45 (vasicek) from two month slots. Medians of 31 streamed
# 60-month forecasts, slots -> ring, 2 shared vCPUs: 20000 paths, heston
# 37.4-37.7 -> 32.4-32.6 ms, vasicek 24.4-24.5 -> 19.9; 5000 paths, heston
# 11.0-11.5 -> 11.0-11.3, vasicek 8.4 -> 6.7-6.8.
_DRAW_ROWS = 8


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class _Lanes:
    """Items 0..n - 1, each run once by a function that `make()` returns on
    the side that runs it. Inline, the caller runs them in order. From
    `_AHEAD_PATHS` paths on more than one CPU, one worker thread makes its
    own function and shares the items with the caller: either side claims
    the lowest unclaimed item, the worker only while it lies below `limit`,
    which only the caller raises. A worker exception is raised in the caller
    as it was raised; `close` stops and joins the worker.
    """

    def __init__(self, n: int, n_paths: int, make, name: str):
        self.n, self.next, self.run = n, 0, make()
        self.worker = None
        if n_paths >= _AHEAD_PATHS and _cpus() > 1:
            self.changed = threading.Condition()
            # under the lock: the worker's bound, the item it runs, its exception
            self.limit, self.working, self.error = 0, None, None
            self.worker = threading.Thread(target=self._work, args=(make,), name=name)
            self.worker.start()

    def until(self, end: int, limit: int, reach: int):
        """Raise the worker's limit to `limit` and return once items 0..end - 1
        are done; meanwhile run the items below min(reach, limit) rather than
        wait. Inline, run the items up to `end`."""
        if self.worker is None:
            while self.next < end:
                self.run(self.next)
                self.next += 1
            return
        with self.changed:
            self.limit = limit
            self.changed.notify()
        while (item := self.claim(end, reach)) is not None:
            self.run(item)

    def claim(self, end: int, reach: int, worker: bool = False):
        """One side's next item, the lowest unclaimed, once it lies below
        min(reach, limit); None once every item below `end` is claimed and
        the worker's is not below it. The worker's last item is done when it
        claims the next; a worker exception is raised here."""
        with self.changed:
            if worker:
                self.working = None
                self.changed.notify()
            while self.error is None:
                if self.next >= end and (self.working is None or self.working >= end):
                    return None
                if self.next < min(reach, self.limit):
                    self.next += 1
                    if worker:
                        self.working = self.next - 1
                    return self.next - 1
                self.changed.wait()
            raise self.error

    def _work(self, make):
        try:
            run = make()
            while (item := self.claim(self.n, self.n, worker=True)) is not None:
                run(item)
        except BaseException as exc:  # handed to the caller
            with self.changed:
                self.error = exc
                self.changed.notify()

    def close(self):
        if self.worker is not None:
            with self.changed:
                self.next = self.n
                self.changed.notify()
            self.worker.join()


def _row_fills(seed: int, ring):
    """`make` for `_Lanes`: each call seeds one PCG64 and returns a fill of
    row r of the call (months in order), PCG64(seed).jumped(r), into ring
    row r % len(ring), resetting the PCG64 to its seeded state and advancing
    it r jumps before each row."""

    def make():
        bitgen = np.random.PCG64(seed)
        seeded, normal = bitgen.state, np.random.Generator(bitgen).standard_normal

        def fill(r: int):
            bitgen.state = seeded
            bitgen.advance(r * _JUMP)
            normal(out=ring[r % len(ring)])

        return fill

    return make


def _trailing_average(base, t, tail_arr):
    """Mean over the latest k <= 12 simulated base rates (month t included, month
    i in row i % len(base)), backfilled from the observed tail up to 12 values
    in all; the window is added in the order the module docstring gives."""
    k = min(t + 1, 12)
    w = [base[i % len(base)] for i in range(t + 1 - k, t + 1)]
    total = w[0].copy()
    if k >= 8:
        total += w[1]
        total += w[2] + w[3]
        total += (w[4] + w[5]) + (w[6] + w[7])
    for row in w[1 if k < 8 else 8 :]:
        total += row
    b = min(12 - k, tail_arr.size)
    total += tail_arr[-b:].sum() if b > 0 else 0.0
    total /= k + b
    return total


class _RowQuantiles:
    """Per-month quantiles (numpy's `linear` method) and median, one row of n
    paths at a time: `take` sorts a row and keeps only the order statistics
    read, so no row's quantiles read another row, and `result` reads them as
    `np.quantile` and `np.median` do. Level q interpolates between the sorted
    values at floor((n - 1) q) and the next (both the last when (n - 1) q >=
    n - 1); the median is the mean of the middle one or two; a row with NaN
    sorts it last and gives NaN. numpy partitions instead, which may reorder
    tied zeros of opposite sign; no rate is -0.0, as each is folded to >= +0.
    """

    def __init__(self, levels, n: int, months: int):
        self.levels = _check_levels(levels)
        virt = (n - 1) * np.array(self.levels, dtype=float)
        prev = np.floor(virt)
        nxt = prev + 1
        prev[virt >= n - 1] = nxt[virt >= n - 1] = -1
        self.gamma = (virt - prev)[:, None]
        # columns kept from each sorted row: prev, nxt, the middle one or two, the last
        cols = [prev, nxt, np.arange((n - 1) // 2, n // 2 + 1), [-1]]
        self.cols = np.concatenate(cols).astype(np.intp)
        self.kept = [None] * months

    def take(self, t: int, row) -> None:
        self.kept[t] = np.sort(row)[self.cols]

    def result(self, months) -> ForecastQuantiles:
        kept, n_lv = np.array(self.kept).reshape(-1, self.cols.size), len(self.levels)
        a, b = kept[:, :n_lv].T, kept[:, n_lv : 2 * n_lv].T
        d = b - a
        bands = a + d * self.gamma
        np.subtract(b, d * (1 - self.gamma), out=bands, where=self.gamma >= 0.5)
        med = np.mean(kept[:, 2 * n_lv : -1], axis=1)
        last = kept[:, -1]
        np.copyto(bands, last, where=np.isnan(last))
        np.copyto(med, last, where=np.isnan(last))
        return ForecastQuantiles(months=tuple(months), median=med, levels=self.levels, bands=bands)


def _simulate(params, v0, var_evolves, draws, step, horizon, n_paths, seed, history_tail,
              levels=None):
    """The Monte Carlo loop; `step(c, v, t, z, *out)` advances one month.

    `c` and `v` are the previous month's base-rate and variance rows (c1 and
    v0 in month 0, which broadcast), and `z` holds the month's normal rows,
    one value per path: the step's `draws`, then in a spike month the spike
    draw. The step folds the new base rates into out[0] and, if
    `var_evolves`, the new variances into out[1]; otherwise the variance
    stays v0. Month t's rows are drawn into the draw ring before its step:
    from `_AHEAD_PATHS` paths on more than one CPU by a worker thread and
    the caller together, each side taking the lowest unclaimed row, else by
    the caller alone, to the same bytes. Returns
    the SimulationResult, or with `levels` its `forecast_quantiles`, byte for
    byte, from the rows of a forecast's ring (a month without a spike hands
    over its base row).
    """
    horizon = _integer(horizon, "horizon", 1)
    n_paths = _integer(n_paths, "n_paths", 1)
    seed = _integer(seed, "seed", 0)
    tail_arr = np.asarray(history_tail, dtype=float)
    _check(np.isfinite(tail_arr).all(), "finite history_tail")
    spike_at = {s.month: s for s in params.spikes}
    months = [add_months(*params.start, k) for k in range(horizon)]
    rows = [horizon] * 3 if levels is None else [min(horizon, 12), 1, 1]
    z, base, rep, *var = _allocate(n_paths, _DRAW_ROWS, rows[: 2 + var_evolves])
    # after the allocation, which refuses a path count past numpy's index range
    quantiles = None if levels is None else _RowQuantiles(levels, n_paths, horizon)
    first = [0]  # each month's first draw row of the call, then the end twice
    for _, month in months:
        first.append(first[-1] + draws + (month in spike_at))
    first.append(first[-1])
    ring = list(z) * 2  # the draw ring twice, so a month's rows are one slice
    drawn = _Lanes(first[-1], n_paths, _row_fills(seed, z), "crashvol-draws")

    c, v = params.c1, v0  # every path starts from the same state; month 0 broadcasts it
    try:
        for t, (_, month) in enumerate(months):
            drawn.until(first[t + 1], first[t] + len(z), first[t + 2])
            lo = first[t] % len(z)
            zt = ring[lo : lo + first[t + 1] - first[t]]
            spec = spike_at.get(month)
            new = [a[t % len(a)] for a in (base, *var)]
            step(c, v, t, zt, *new)
            c, v = new[0], (new[1] if var else v0)
            reported = c if spec is None else rep[t % len(rep)]
            if spec is not None:
                avg = _trailing_average(base, t, tail_arr)
                _fold(c + avg * (spec.mean_a + spec.std_b * zt[draws]), params.scheme, reported)
            elif quantiles is None:
                rep[t] = c
            if quantiles is not None:
                quantiles.take(t, reported)
    finally:
        drawn.close()
    if quantiles is not None:
        return quantiles.result(months)
    if not var:
        var = [np.array(v0)]  # one value, broadcast below
    for arr in (rep, base, *var):
        arr.flags.writeable = False  # before any view is taken, so none can be made writeable
    var_paths = np.broadcast_to(var[0].T, (n_paths, horizon))
    return SimulationResult(rep.T, var_paths, base.T, params.start)


def _heston(params: HestonParams):
    """`_simulate`'s model arguments: v0, an evolving variance, 2 draws, the step."""
    _check(params.kappa < 24.0, f"kappa < 24 per year (monthly steps), not {params.kappa:g}")
    rho = params.rho
    rho_c = math.sqrt(1.0 - rho * rho)

    def step(c, v, t, z, c_out, v_out):
        z_v = rho * z[0] + rho_c * z[1]
        # the rate update uses the start-of-step variance
        step_rate(c, params, v, z[0], out=c_out)
        step_variance(v, params, z_v, out=v_out)

    return params.v0, True, 2, step


def _vasicek(params: VasicekParams):
    """`_simulate`'s model arguments: a constant sigma_v^2, 1 draw, the step."""
    _check(params.kappa_v < 24.0, f"kappa_v < 24 per year (monthly steps), not {params.kappa_v:g}")

    def step(c, v, t, z, c_out):
        _step_vasicek(c, params, t, z[0], out=c_out)

    return params.sigma_v**2, False, 1, step


def simulate_heston(params: HestonParams, horizon: int, n_paths: int, seed: int,
                    history_tail=()) -> SimulationResult:
    """Simulate correlated rate/variance paths with calendar spikes.

    Deterministic for a given (params, horizon, n_paths, seed).
    """
    return _simulate(params, *_heston(params), horizon, n_paths, seed, history_tail)


def simulate_vasicek(params: VasicekParams, horizon: int, n_paths: int, seed: int,
                     history_tail=()) -> SimulationResult:
    """Simulate the mean-reverting baseline with the same spike machinery.

    Draw order per path per month is z_c then the spike draw; var_paths
    reports the constant instantaneous variance sigma_v^2 as a read-only
    broadcast of that one value (stride 0), not as an array of its own.
    """
    return _simulate(params, *_vasicek(params), horizon, n_paths, seed, history_tail)


def forecast_quantiles(result: SimulationResult, levels) -> ForecastQuantiles:
    """Per-month empirical quantiles (numpy's `linear` method) plus the median,
    with numpy's bytes, from each month's row as `_RowQuantiles` takes it.
    From `_AHEAD_PATHS` paths on more than one CPU, one thread and the caller
    sort the month rows, each side taking the lowest unclaimed row, to the
    same bytes."""
    by_month = result.rate_paths.T
    quantiles = _RowQuantiles(levels, by_month.shape[1], len(by_month))
    sorts = _Lanes(len(by_month), by_month.shape[1],
                   lambda: lambda t: quantiles.take(t, by_month[t]), "crashvol-sorts")
    try:
        sorts.until(len(by_month), len(by_month), len(by_month))
    finally:
        sorts.close()
    return quantiles.result(result.months)


# ---------------------------------------------------------------------------
# flat key = value parameter files

def write_stochastic_params(params, path, history_tail=()) -> None:
    """Write a heston or vasicek parameter file (flat key = value text)."""
    if isinstance(params, HestonParams):
        model = "heston"
        fields = [("v0_vol", math.sqrt(params.v0)), ("theta_vol", math.sqrt(params.theta)),
                  ("kappa", params.kappa), ("xi", params.xi), ("rho", params.rho)]
    elif isinstance(params, VasicekParams):
        model = "vasicek"
        fields = [("kappa_v", params.kappa_v), ("sigma_v", params.sigma_v)]
    else:
        raise ValidationError(f"unsupported parameter type {type(params).__name__}")
    mu = params.mu
    if model == "vasicek" and float(f"{mu:.12g}") <= -1.0:
        mu = repr(mu)  # in full: at the file's 12 digits it would read as mu <= -1
    pairs = [("model", model), ("c1", params.c1), ("mu", mu), *fields,
             ("scheme", params.scheme), ("start_year", params.start[0]),
             ("start_month", params.start[1])]
    for s in sorted(params.spikes, key=lambda s: s.month):
        pairs += [(f"spike.{s.month}.mean", s.mean_a), (f"spike.{s.month}.std", s.std_b)]
    pairs += [(f"history.{i}", float(r)) for i, r in enumerate(history_tail, start=1)]
    write_kv_file(path, pairs)


def _pop_spikes(kv: dict, path) -> tuple[SpikeSpec, ...]:
    try:
        months = sorted({int(k.split(".")[1]) for k in kv if k.startswith("spike.")})
    except (IndexError, ValueError):
        raise ValidationError(f"{path}: malformed spike key") from None
    return tuple(SpikeSpec(m, _pop_float(kv, f"spike.{m}.mean", path),
                           _pop_float(kv, f"spike.{m}.std", path)) for m in months)


def read_stochastic_params(path):
    """Load a parameter file; returns (HestonParams | VasicekParams, history_tail)."""
    kv = parse_kv_file(path)
    model = kv.pop("model", "heston")
    common = dict(
        c1=_pop_float(kv, "c1", path),
        mu=_pop_float(kv, "mu", path),
        spikes=_pop_spikes(kv, path),
        start=_pop_start(kv, path),
        scheme=kv.pop("scheme", "reflect"),
    )
    # files from before steps were fixed at one month carry a `dt` line
    if "dt" in kv and f"{_pop_float(kv, 'dt', path):.12g}" != f"{_DT:.12g}":
        raise ValidationError(f"{path}: key dt is not 1/12 (0.0833333333333): steps are monthly")
    history = tuple(_pop_indexed(kv, "history.", path))
    if model == "heston":
        params = HestonParams(
            v0=_power(_pop_float(kv, "v0_vol", path), 2, f"{path}: key v0_vol"),
            theta=_power(_pop_float(kv, "theta_vol", path), 2, f"{path}: key theta_vol"),
            kappa=_pop_float(kv, "kappa", path),
            xi=_pop_float(kv, "xi", path),
            rho=_pop_float(kv, "rho", path),
            **common,
        )
    elif model == "vasicek":
        params = VasicekParams(kappa_v=_pop_float(kv, "kappa_v", path),
                               sigma_v=_pop_float(kv, "sigma_v", path), **common)
    else:
        raise ValidationError(f"{path}: unknown model {model}")
    if kv:
        raise ValidationError(f"{path}: unknown keys {', '.join(sorted(kv))}")
    return params, history
