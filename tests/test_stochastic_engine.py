import dataclasses
import itertools
import math
import os
import re
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crashvol import stochastic_engine
from crashvol.data_ingest import ValidationError, add_months
from crashvol.evaluation import DEFAULT_LEVELS, _simulated, backtest
from crashvol.stochastic_engine import (
    FellerWarning,
    ForecastQuantiles,
    HestonParams,
    SimulationResult,
    SpikeSpec,
    VasicekParams,
    _fold,
    _step_vasicek,
    _trailing_average,
    feller_bound,
    forecast_quantiles,
    read_stochastic_params,
    simulate_heston,
    simulate_vasicek,
    step_rate,
    step_variance,
    write_stochastic_params,
)

BENIGN = dict(
    c1=0.005, mu=0.14, v0=0.04, theta=0.04, kappa=0.8, xi=0.05, rho=-0.5
)


def _heston(**kw):
    merged = {**BENIGN, **kw}
    return HestonParams(**merged)


def test_feller_bound_value():
    assert feller_bound(0.2626, 0.6333) == pytest.approx(
        0.2626**2 / (2 * 0.6333), rel=1e-12
    )
    with pytest.raises(ValidationError):
        feller_bound(0.1, 0.0)


def test_param_validation_messages():
    with pytest.raises(ValidationError, match="violated invariant"):
        _heston(c1=0.0)
    with pytest.raises(ValidationError):
        _heston(rho=-1.5)
    with pytest.raises(ValidationError):
        _heston(scheme="clip")
    with pytest.raises(ValidationError):
        _heston(spikes=(SpikeSpec(1, 0.1, 0.1), SpikeSpec(1, 0.2, 0.1)))
    with pytest.raises(ValidationError):
        SpikeSpec(0, 0.1, 0.1)
    with pytest.raises(ValidationError):
        SpikeSpec(1, 0.1, -0.1)
    with pytest.raises(ValidationError, match="finite"):
        _heston(mu=float("nan"))
    with pytest.raises(ValidationError, match="finite"):
        _heston(kappa=float("inf"))
    with pytest.raises(ValidationError, match="finite"):
        VasicekParams(c1=0.005, mu=0.14, kappa_v=4.9, sigma_v=float("nan"))
    with pytest.raises(ValidationError, match="seed >= 0"):
        simulate_heston(_heston(), 3, 2, seed=-1)
    # values whose powers overflow, and a growth rate below -100%
    with pytest.raises(ValidationError, match="xi = 1e"):
        _heston(xi=1e200)
    with pytest.raises(ValidationError, match="sigma_v = 1e"):
        VasicekParams(c1=0.005, mu=0.14, kappa_v=4.9, sigma_v=1e200)
    with pytest.raises(ValidationError, match="mu > -1"):
        VasicekParams(c1=0.005, mu=-2.0, kappa_v=4.9, sigma_v=0.63)
    fast_growth = VasicekParams(c1=0.005, mu=1e100, kappa_v=4.9, sigma_v=0.63)
    with pytest.raises(ValidationError, match="1 \\+ mu"):
        simulate_vasicek(fast_growth, 60, 2, seed=1)


def test_feller_warning_fires_only_when_violated():
    with pytest.warns(FellerWarning):
        p = _heston(kappa=0.01, xi=0.5)
    assert not p.feller_satisfied
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p2 = _heston()
    assert p2.feller_satisfied


def test_feller_warning_points_at_the_caller(train_series):
    # not at the "<string>" __init__ that dataclass generates
    from crashvol.evaluation import fit_heston_from_stats

    with pytest.warns(FellerWarning) as direct:
        _heston(kappa=0.01, xi=0.5)
    assert direct[0].filename == __file__
    with pytest.warns(FellerWarning) as fitted:
        fit_heston_from_stats(train_series, (2010, 1), (2014, 12), (2015, 1))
    assert Path(fitted[0].filename).name == "evaluation.py"
    assert Path(fitted[0].filename).is_file()


def test_step_arithmetic():
    p = _heston()
    dt = 1.0 / 12
    v = step_variance(0.04, p, 0.5)
    assert v == pytest.approx(0.04 + 0.05 * math.sqrt(0.04 * dt) * 0.5)
    c = step_rate(0.005, p, 0.04, -1.0)
    assert c == pytest.approx(
        0.005 + 0.14 * 0.005 * dt - math.sqrt(0.04) * 0.005 * math.sqrt(dt)
    )


def _reference_fold(x, scheme):
    return np.abs(x) if scheme == "reflect" else np.maximum(x, 0.0)


@pytest.mark.parametrize("scheme", ["reflect", "truncate"])
def test_in_place_steps_match_one_expression_forms(scheme):
    # the steps give the bits of their one-expression forms, and never
    # write their inputs
    rng = np.random.default_rng(12)
    n = 4000
    scale = 10.0 ** rng.uniform(-6, 1, n)  # magnitudes where rounding differs
    c = np.abs(rng.standard_normal(n)) * scale
    v = np.abs(rng.standard_normal(n)) * scale
    v[:50] = 0.0
    z = 3.0 * rng.standard_normal(n)  # large shocks drive many raw updates below 0
    dt = 1.0 / 12
    hp = _heston(scheme=scheme, v0=0.3, theta=0.07, kappa=1.3, xi=0.9, mu=0.17, c1=0.0071)
    vp = VasicekParams(c1=0.0071, mu=0.13, kappa_v=3.7, sigma_v=0.9, scheme=scheme)
    saved = [a.copy() for a in (c, v, z)]

    want_v = _reference_fold(v + hp.kappa * (hp.theta - v) * dt + hp.xi * np.sqrt(v * dt) * z, scheme)
    want_c = _reference_fold(
        c + hp.mu * hp.c1 * dt + np.sqrt(v) * hp.c1 * math.sqrt(dt) * z, scheme
    )
    theta_t = vp.c1 * (1.0 + vp.mu) ** (5 / 12.0)
    want_o = _reference_fold(
        c + vp.kappa_v * (theta_t - c) * dt + vp.sigma_v * vp.c1 * math.sqrt(dt) * z, scheme
    )
    got = {
        "variance": (step_variance(v, hp, z), want_v),
        "rate": (step_rate(c, hp, v, z), want_c),
        "vasicek": (_step_vasicek(c, vp, 4, z), want_o),
    }
    for name, (have, want) in got.items():
        assert have.tobytes() == want.tobytes(), name
    # some raw updates fall below zero, so the fold is exercised
    assert (v + hp.kappa * (hp.theta - v) * dt + hp.xi * np.sqrt(v * dt) * z < 0).any()
    assert (c + hp.mu * hp.c1 * dt + np.sqrt(v) * hp.c1 * math.sqrt(dt) * z < 0).any()
    for before, after in zip(saved, (c, v, z)):
        assert before.tobytes() == after.tobytes()
    # folded into a given row, as the simulator passes its result rows
    rows = np.empty((3, n))
    folded = (step_variance(v, hp, z, out=rows[0]), step_rate(c, hp, v, z, out=rows[1]),
              _step_vasicek(c, vp, 4, z, out=rows[2]))
    assert all(have.base is rows for have in folded)
    assert rows.tobytes() == np.stack([want_v, want_c, want_o]).tobytes()
    # on a strided column, as the path-major reference loop below passes them
    zz = np.stack([z, z[::-1]], axis=1)
    assert step_rate(c, hp, v, zz[:, 1]).tobytes() == _reference_fold(
        c + hp.mu * hp.c1 * dt + np.sqrt(v) * hp.c1 * math.sqrt(dt) * zz[:, 1], scheme
    ).tobytes()
    # scalars in, scalar out
    for value in (step_variance(0.04, hp, -0.5), step_rate(0.005, hp, 0.04, 1.5),
                  _step_vasicek(0.005, vp, 0, 0.3)):
        assert np.ndim(value) == 0 and not isinstance(value, np.ndarray)


def _forbid_drawing(monkeypatch):
    # the simulator's draw path: the one PCG64 it seeds and jumps
    def drew(*args):
        raise AssertionError("drew before the allocation check")

    monkeypatch.setattr(np.random, "PCG64", drew)


def test_oversized_draw_buffer_is_one_validation_error(monkeypatch):
    # the allocation is faked: the oversized buffers are never requested from
    # the OS, and nothing may be drawn before the error
    real_empty = np.empty

    def empty(shape, *args, **kwargs):
        if 200_000_000 in np.atleast_1d(shape):
            raise MemoryError("fake: out of memory")
        return real_empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", empty)
    _forbid_drawing(monkeypatch)
    # a ring of 8 draw rows and 3 x 7 result rows of 200e6 paths
    p = _heston(spikes=(SpikeSpec(3, 0.1, 0.1),))
    with pytest.raises(ValidationError, match=r"^200000000 paths: a ring of 8 draw rows and 3 arrays "
                                              r"of 7 months \(43.2 GiB\) cannot be allocated$"):
        simulate_heston(p, 7, 200_000_000, seed=3)
    # vasicek keeps no variance array: the same ring and 2 x 7 result rows
    vp = VasicekParams(c1=0.005, mu=0.14, kappa_v=0.5, sigma_v=2.0,
                       spikes=(SpikeSpec(3, 0.1, 0.1),))
    with pytest.raises(ValidationError, match=r"^200000000 paths: a ring of 8 draw rows and 2 arrays "
                                              r"of 7 months \(32.8 GiB\) cannot be allocated$"):
        simulate_vasicek(vp, 7, 200_000_000, seed=3)


def test_simulators_check_the_mean_reversion_before_any_work(monkeypatch):
    # the monthly Euler step holds kappa and kappa_v below 24 per year; a
    # larger value is one error before anything is allocated or drawn
    assert simulate_heston(_heston(kappa=23.9), 3, 2, seed=1).horizon == 3

    def allocated(*args, **kwargs):
        raise AssertionError("allocated before the mean-reversion check")

    monkeypatch.setattr(np, "empty", allocated)
    _forbid_drawing(monkeypatch)
    bound = r" < 24 per year \(monthly steps\), not "
    with pytest.raises(ValidationError, match=r"^violated invariant: kappa" + bound + "24$"):
        simulate_heston(_heston(kappa=24.0), 3, 2, seed=1)
    vp = VasicekParams(c1=0.005, mu=0.14, kappa_v=34.04, sigma_v=1.4)
    with pytest.raises(ValidationError, match=r"^violated invariant: kappa_v" + bound + "34.04$"):
        simulate_vasicek(vp, 3, 2, seed=1)


def test_fold_schemes():
    p_reflect = _heston(scheme="reflect")
    p_trunc = _heston(scheme="truncate")
    # large negative shock drives the raw update below zero
    r = step_rate(0.001, p_reflect, 1.0, -8.0)
    t = step_rate(0.001, p_trunc, 1.0, -8.0)
    assert r > 0.0
    assert t == 0.0


def test_simulation_shapes_and_calendar():
    p = _heston(start=(2014, 11))
    res = simulate_heston(p, 4, 7, seed=3)
    assert res.rate_paths.shape == (7, 4)
    assert res.var_paths.shape == (7, 4)
    assert res.n_paths == 7
    assert res.horizon == 4
    assert res.months == [(2014, 11), (2014, 12), (2015, 1), (2015, 2)]


def test_simulation_determinism_and_seed_sensitivity():
    p = _heston()
    a = simulate_heston(p, 12, 50, seed=11)
    b = simulate_heston(p, 12, 50, seed=11)
    c = simulate_heston(p, 12, 50, seed=12)
    assert np.array_equal(a.rate_paths, b.rate_paths)
    assert np.array_equal(a.var_paths, b.var_paths)
    assert not np.array_equal(a.rate_paths, c.rate_paths)


def _spiked_params(model, scheme):
    # spikes in November, March and August from a November start: horizon 13
    # holds two of them, 60 holds fifteen
    spikes = (SpikeSpec(11, 0.3, 0.2), SpikeSpec(3, -0.1, 0.4), SpikeSpec(8, 0.05, 0.02))
    common = dict(c1=0.005, mu=0.14, spikes=spikes, start=(2014, 11), scheme=scheme)
    if model == "heston":
        return HestonParams(v0=0.04, theta=0.3, kappa=0.8, xi=0.9, rho=-0.5, **common)
    return VasicekParams(kappa_v=0.5, sigma_v=2.0, **common)


# a 7-month observed tail: the trailing average backfills part of its window
_TAIL = (0.0041, 0.0052, 0.0047, 0.0061, 0.0039, 0.0058, 0.0049)


def test_path_count_invariance_of_prefix():
    # path p's values depend neither on the path count nor on the other
    # paths, down to one path; a trailing average summed month-major, whose
    # order differs between one path and many, breaks this at n_paths = 1
    for model, scheme in itertools.product(("heston", "vasicek"), ("reflect", "truncate")):
        simulate = simulate_heston if model == "heston" else simulate_vasicek
        params = _spiked_params(model, scheme)
        for seed in range(8):
            large = simulate(params, 60, 400, seed, _TAIL)
            for n_paths in (1, 2, 255, 256, 257):
                small = simulate(params, 60, n_paths, seed, _TAIL)
                for got, want in ((small.rate_paths, large.rate_paths),
                                  (small.var_paths, large.var_paths),
                                  (small.base_paths, large.base_paths)):
                    assert got.tobytes() == want[:n_paths].tobytes(), (model, scheme, seed, n_paths)


def _row_streams(seed, n_paths, n_rows):
    # random stream v3 as a (rows, paths) stack: row r is PCG64(seed).jumped(r)
    return np.stack([np.random.Generator(np.random.PCG64(seed).jumped(r)).standard_normal(n_paths)
                     for r in range(n_rows)])


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 10**60])
def test_draw_buffers_match_per_path_generators(seed, monkeypatch):
    # draw row r is the first n_paths values of PCG64(seed).jumped(r), for
    # one-word seeds, two-word seeds and seeds long enough to reach
    # SeedSequence's extra-entropy mixing; the rows are read where the Euler
    # steps receive them: heston takes rows 2t and 2t + 1 in month t
    # (z_v = rho*z_c + rho_c*z), vasicek takes row t
    seen = []

    def spy(fn):
        def wrapper(*args, **kwargs):
            seen.append(np.array(args[-1]))
            return fn(*args, **kwargs)
        return wrapper

    for name in ("step_rate", "step_variance", "_step_vasicek"):
        monkeypatch.setattr(stochastic_engine, name, spy(getattr(stochastic_engine, name)))
    hp, vp = _heston(), VasicekParams(c1=0.005, mu=0.14, kappa_v=0.5, sigma_v=2.0)
    rho, rho_c = hp.rho, math.sqrt(1.0 - hp.rho * hp.rho)
    for n_paths in (1, 7, 1500):
        seen.clear()
        simulate_heston(hp, 3, n_paths, seed)
        rows = _row_streams(seed, n_paths, 6)
        for t in range(3):
            z_v = rho * rows[2 * t]
            z_v += rho_c * rows[2 * t + 1]
            assert seen[2 * t].tobytes() == rows[2 * t].tobytes()
            assert seen[2 * t + 1].tobytes() == z_v.tobytes()
        seen.clear()
        simulate_vasicek(vp, 3, n_paths, seed)
        assert np.stack(seen).tobytes() == _row_streams(seed, n_paths, 3).tobytes()
    large = simulate_heston(hp, 3, 1000, seed)
    small = simulate_heston(hp, 3, 300, seed)
    assert large.rate_paths[:300].tobytes() == small.rate_paths.tobytes()


@settings(max_examples=100, deadline=None)
@given(seed=st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 3, 10**30]),
       row=st.integers(0, 3599))  # up to 1200 months of 3 rows
def test_row_jumps_match_numpy_jumped(seed, row):
    # the simulator's row seeding: reset the seeded state, then advance by
    # row jumps, as numpy's public `jumped` does
    bitgen = np.random.PCG64(seed)
    seeded = bitgen.state
    bitgen.random_raw(3)  # draws that the reset must discard
    bitgen.state = seeded
    bitgen.advance(row * stochastic_engine._JUMP)
    assert bitgen.state == np.random.PCG64(seed).jumped(row).state, (seed, row)


@pytest.mark.parametrize("name, value", [
    ("seed", 1.5), ("seed", "7"), ("seed", None), ("n_paths", 2.7), ("n_paths", "12"),
    ("horizon", 2.0), ("horizon", None),
])
def test_non_integer_arguments_are_validation_errors(name, value):
    args = {"horizon": 3, "n_paths": 4, "seed": 5, name: value}
    vp = VasicekParams(c1=0.005, mu=0.14, kappa_v=0.5, sigma_v=2.0)
    for simulate, params in ((simulate_heston, _heston()), (simulate_vasicek, vp)):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, not "):
            simulate(params, **args)


def test_numpy_integer_arguments_give_the_bytes_of_int():
    want = simulate_heston(_heston(), 4, 6, seed=9)
    got = simulate_heston(_heston(), np.int64(4), np.uint8(6), seed=np.uint64(9))
    assert got.rate_paths.tobytes() == want.rate_paths.tobytes()
    assert got.var_paths.tobytes() == want.var_paths.tobytes()


def test_result_arrays_read_only():
    res = simulate_heston(_heston(), 3, 2, seed=1)
    with pytest.raises(ValueError):
        res.rate_paths[0, 0] = 1.0
    # the (paths, months) arrays are views of month-major storage, and
    # vasicek's constant variance a broadcast of one value; none can be
    # written, nor made writeable
    vp = VasicekParams(c1=0.005, mu=0.14, kappa_v=0.5, sigma_v=2.0)
    vas = simulate_vasicek(vp, 3, 2, seed=1)
    for arr in (res.rate_paths, res.var_paths, res.base_paths,
                vas.rate_paths, vas.var_paths, vas.base_paths):
        assert arr.shape == (2, 3) and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[1, 2] = 1.0
        with pytest.raises(ValueError):
            arr.flags.writeable = True
        with pytest.raises(ValueError):
            arr[:, 1:].flags.writeable = True


def test_vasicek_variance_owns_no_storage():
    # sigma_v**2 in every cell, read through stride 0: the call's traced
    # peak holds the rate and base arrays (9.6 MB each at 60 x 20000) and no
    # third one
    vp = VasicekParams(c1=0.005, mu=0.14, kappa_v=0.5, sigma_v=2.0,
                       spikes=(SpikeSpec(3, 0.1, 0.1),))
    tracemalloc.start()
    try:
        res = simulate_vasicek(vp, 60, 20000, seed=2, history_tail=_TAIL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.var_paths.shape == (20000, 60) and res.var_paths.strides == (0, 0)
    assert res.var_paths.tobytes() == np.full((20000, 60), 4.0).tobytes()
    assert peak < 2.5 * 60 * 20000 * 8, peak


def test_result_arrays_allocated_with_the_draw_buffer(monkeypatch):
    # the result arrays' allocation is faked to fail after the draw ring's
    # succeeded; it must fail before any path is drawn, as one ValidationError
    real_empty = np.empty
    shapes = []

    def empty(shape, *args, **kwargs):
        shapes.append(tuple(np.atleast_1d(shape)))
        if shapes[-1] == (13, 5):
            raise MemoryError("fake: out of memory")
        return real_empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", empty)
    _forbid_drawing(monkeypatch)
    with pytest.raises(ValidationError, match=r"^5 paths: a ring of 8 draw rows and 3 arrays of "
                                              r"13 months \([0-9.e-]+ GiB\) cannot be allocated$"):
        simulate_heston(_heston(), 13, 5, seed=1)
    assert shapes == [(8, 5), (13, 5)]  # draw ring, first result
    # vasicek's total leaves out the variance: (8 + 2 x 13) x 5 values of 8 bytes
    shapes.clear()
    vp = VasicekParams(c1=0.005, mu=0.14, kappa_v=0.5, sigma_v=2.0)
    with pytest.raises(ValidationError, match=r"^5 paths: a ring of 8 draw rows and 2 arrays of "
                                              r"13 months \(1.27e-06 GiB\) cannot be allocated$"):
        simulate_vasicek(vp, 13, 5, seed=1)
    assert shapes == [(8, 5), (13, 5)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_history_tail_is_one_validation_error(bad, monkeypatch):
    # a January spike would read the tail in the first month; the error comes
    # before anything is drawn
    _forbid_drawing(monkeypatch)
    spikes = (SpikeSpec(1, 0.3, 0.05),)
    vp = VasicekParams(c1=0.005, mu=0.14, kappa_v=0.5, sigma_v=2.0, spikes=spikes)
    for simulate, params in ((simulate_heston, _heston(spikes=spikes)), (simulate_vasicek, vp)):
        with pytest.raises(ValidationError, match=r"^violated invariant: finite history_tail$"):
            simulate(params, 3, 4, seed=1, history_tail=(0.005, bad, 0.004))


# The path-major simulator loop that the month-major one replaced, kept as
# written, with its steps and trailing average: the layout must not change a
# byte. Its (paths, draws) draws are the transposed stack of row streams.

def _path_major_trailing_average(base, t, tail_arr):
    # mean over the latest k simulated base rates (k <= 12, current included)
    # backfilled from the observed tail up to 12 values total
    k = min(t + 1, 12)
    sim_sum = base[:, t + 1 - k : t + 1].sum(axis=1)
    b = min(12 - k, tail_arr.size)
    tail_sum = tail_arr[-b:].sum() if b > 0 else 0.0
    return (sim_sum + tail_sum) / (k + b)


def _path_major_simulate(params, v0, draws, step, horizon, n_paths, seed, history_tail):
    spike_at = {s.month: s for s in params.spikes}
    y0, m0 = params.start
    cal_months = [add_months(y0, m0, k)[1] for k in range(horizon)]
    counts = [draws + 1 if m in spike_at else draws for m in cal_months]
    buf = np.ascontiguousarray(_row_streams(seed, n_paths, sum(counts)).T)
    tail_arr = np.asarray(history_tail, dtype=float)

    base = np.empty((n_paths, horizon))
    rep = np.empty((n_paths, horizon))
    var = np.empty((n_paths, horizon))
    c = np.full(n_paths, params.c1)
    v = np.full(n_paths, v0)
    col = 0
    for t, month in enumerate(cal_months):
        c, v = step(c, v, t, buf[:, col : col + draws])
        col += draws
        base[:, t] = c
        var[:, t] = v
        spec = spike_at.get(month)
        if spec is not None:
            # |c + cbar*(a + b*z)|, in place in the same order
            g = spec.std_b * buf[:, col]
            col += 1
            g += spec.mean_a
            g *= _path_major_trailing_average(base, t, tail_arr)
            g += c
            rep[:, t] = _fold(g, params.scheme)
        else:
            rep[:, t] = c
    return rep, var, base


def _path_major_heston(params, horizon, n_paths, seed, history_tail):
    rho = params.rho
    rho_c = math.sqrt(1.0 - rho * rho)

    def step(c, v, t, z):
        z_c = z[:, 0]
        z_v = rho * z_c
        z_v += rho_c * z[:, 1]
        # the rate update uses the start-of-step variance
        return step_rate(c, params, v, z_c), step_variance(v, params, z_v)

    return _path_major_simulate(params, params.v0, 2, step, horizon, n_paths, seed, history_tail)


def _path_major_vasicek(params, horizon, n_paths, seed, history_tail):
    def step(c, v, t, z):
        return _step_vasicek(c, params, t, z[:, 0]), v

    return _path_major_simulate(
        params, params.sigma_v**2, 1, step, horizon, n_paths, seed, history_tail
    )


@pytest.mark.parametrize("scheme", ["reflect", "truncate"])
@pytest.mark.parametrize("model", ["heston", "vasicek"])
def test_month_major_simulation_matches_path_major_loop(model, scheme):
    # windows of 1 to 12 months meet with and without a partly backfilled tail
    params = _spiked_params(model, scheme)
    if model == "heston":
        simulate, reference = simulate_heston, _path_major_heston
    else:
        simulate, reference = simulate_vasicek, _path_major_vasicek
    for seed in (0, 2**40 + 5):
        for n_paths in (1, 2, 257, 401):
            for horizon in (1, 13, 60):
                for history_tail in ((), _TAIL):
                    res = simulate(params, horizon, n_paths, seed, history_tail)
                    want = reference(params, horizon, n_paths, seed, history_tail)
                    for got, arr in zip((res.rate_paths, res.var_paths, res.base_paths), want):
                        assert got.shape == arr.shape
                        assert got.tobytes() == arr.tobytes(), (seed, n_paths, horizon)


def _float_sum(values):
    # numpy's pairwise sum of one contiguous row of at most 15 values, over
    # Python floats: left to right below 8 terms, else the 8 in pairs of
    # pairs and then the rest in turn
    w = [float(x) for x in values]
    if len(w) < 8:
        total, rest = 0.0, w
    else:
        total, rest = ((w[0] + w[1]) + (w[2] + w[3])) + ((w[4] + w[5]) + (w[6] + w[7])), w[8:]
    for x in rest:
        total += x
    return total


def _float_trailing_average(path, t, tail):
    # one path's spike baseline over Python floats, independent of numpy
    k = min(t + 1, 12)
    b = min(12 - k, len(tail))
    tail_sum = _float_sum(tail[len(tail) - b:]) if b > 0 else 0.0
    return (_float_sum(path[t + 1 - k : t + 1]) + tail_sum) / (k + b)


def test_trailing_average_sums_each_window_path_major():
    # windows of k = 1..12 months over values spanning 16 decades, where the
    # order of summation shows in the last bit; tails of 3 and 12 values
    # backfill up to 3 and up to 11 of the 12 months
    rng = np.random.default_rng(4)
    paths = 10.0 ** rng.uniform(-8.0, 8.0, (257, 30))
    month_major = np.ascontiguousarray(paths.T)
    order_shows = False
    for tail in ((), (0.004, 3.0e5, 0.006), tuple(10.0 ** rng.uniform(-8.0, 8.0, 12))):
        tail_arr = np.asarray(tail, dtype=float)
        for t in range(paths.shape[1]):
            got = _trailing_average(month_major, t, tail_arr)
            assert got.tobytes() == _path_major_trailing_average(paths, t, tail_arr).tobytes(), t
            want = [_float_trailing_average(row, t, tail) for row in paths.tolist()]
            assert got.tobytes() == np.array(want).tobytes(), (t, len(tail))
            k = min(t + 1, 12)
            by_row = month_major[t + 1 - k : t + 1].sum(axis=0)
            order_shows |= by_row.tobytes() != paths[:, t + 1 - k : t + 1].sum(axis=1).tobytes()
    assert order_shows  # a month-major sum(axis=0) would give other bytes here


def test_trailing_average_in_blocks_of_paths():
    # thousands of paths: the elementwise adds run in vector blocks and a
    # remainder, and any return to summing in blocks of paths must give the
    # same bytes over whole blocks and a part
    rng = np.random.default_rng(5)
    paths = 10.0 ** rng.uniform(-8.0, 8.0, (4500, 14))
    month_major = np.ascontiguousarray(paths.T)
    tail_arr = np.array([0.004, 3.0e5, 0.006])
    for t in range(paths.shape[1]):
        got = _trailing_average(month_major, t, tail_arr)
        assert got.tobytes() == _path_major_trailing_average(paths, t, tail_arr).tobytes(), t


def test_spike_draw_reconstruction():
    # first forecast month is a spike month; rebuild it from the raw draw
    # rows: z_c, then the variance draw, then the spike draw
    spikes = (SpikeSpec(1, -0.173, 0.125),)
    p = _heston(start=(2015, 1), spikes=spikes)
    tail = np.linspace(0.004, 0.006, 12)
    res = simulate_heston(p, 1, 4, seed=9, history_tail=tail)
    dt = 1.0 / 12
    rows = _row_streams(9, 4, 3)
    for k in range(4):
        z_c, z_raw, z_g = rows[:, k]
        v_start = p.v0
        base = p.c1 + p.mu * p.c1 * dt + math.sqrt(v_start) * p.c1 * math.sqrt(dt) * z_c
        base = abs(base)
        cbar = (tail[-11:].sum() + base) / 12.0
        g = spikes[0].mean_a + spikes[0].std_b * z_g
        want = abs(base + cbar * g)
        assert res.base_paths[k, 0] == pytest.approx(base, rel=1e-12)
        assert res.rate_paths[k, 0] == pytest.approx(want, rel=1e-12)
        z_v = p.rho * z_c + math.sqrt(1.0 - p.rho**2) * z_raw
        v1 = abs(p.v0 + p.kappa * (p.theta - p.v0) * dt + p.xi * math.sqrt(p.v0 * dt) * z_v)
        assert res.var_paths[k, 0] == pytest.approx(v1, rel=1e-12)

    # a February spike in month 14 averages the 12 simulated base rates of
    # months 3..14 and ignores the (deliberately huge) observed history
    p = _heston(start=(2015, 1), spikes=(SpikeSpec(2, 0.3, 0.05),))
    res = simulate_heston(p, 14, 4, seed=9, history_tail=np.full(12, 1.0))
    # 2 draws a month plus a spike draw in months 2 and 14: 30 rows in all
    spike_row = _row_streams(9, 4, 30)[-1]
    for k in range(4):
        z_g = spike_row[k]
        base = res.base_paths[k]
        want = abs(base[13] + base[2:14].mean() * (0.3 + 0.05 * z_g))
        assert res.rate_paths[k, 13] == pytest.approx(want, rel=1e-12)


def test_base_paths_feed_recursion_not_spiked_rates():
    spikes = (SpikeSpec(1, 4.0, 0.0),)  # huge deterministic spike
    p = _heston(start=(2015, 1), spikes=spikes)
    tail = np.full(12, 0.005)
    res = simulate_heston(p, 2, 20, seed=2, history_tail=tail)
    spiked = res.rate_paths[:, 0]
    base = res.base_paths[:, 0]
    assert np.all(spiked > base)  # the spike lifted month 1
    # month 2 continues from the base value: it stays near c1, far below the
    # spiked level that a contaminated recursion would produce
    assert np.median(res.base_paths[:, 1]) < np.median(spiked) / 2


def test_monthly_moments_match_euler_closed_form():
    # with reflection inactive the discrete moments are exact
    p = _heston(v0=0.01, theta=0.01, kappa=0.5, xi=0.02)
    res = simulate_heston(p, 60, 4000, seed=21)
    t = 60
    mean = res.rate_paths[:, -1].mean()
    target = p.c1 * (1 + p.mu * t / 12.0)
    se = res.rate_paths[:, -1].std(ddof=1) / math.sqrt(res.n_paths)
    assert abs(mean - target) < 3 * se


def test_variance_decay_xi_zero():
    p = _heston(v0=0.08, theta=0.04, xi=0.0, kappa=0.5, rho=0.0)
    res = simulate_heston(p, 24, 2, seed=1)
    n = np.arange(1, 25)
    exact = p.theta + (p.v0 - p.theta) * (1 - p.kappa / 12) ** n
    assert np.allclose(res.var_paths[0], exact, rtol=1e-12)
    assert np.allclose(res.var_paths[1], exact, rtol=1e-12)


def test_vasicek_paths_and_target():
    p = VasicekParams(c1=0.005, mu=0.14, kappa_v=4.9, sigma_v=0.6, start=(2015, 1))
    res = simulate_vasicek(p, 60, 500, seed=8)
    assert np.allclose(res.var_paths, 0.36)
    # strong pull tracks the drifting anchor c1*(1+mu)^(t/12)
    t = 60
    target = p.c1 * (1 + p.mu) ** (t / 12.0)
    mean = res.rate_paths[:, -1].mean()
    assert abs(mean / target - 1) < 0.05


def test_vasicek_deterministic_limit():
    p = VasicekParams(c1=0.005, mu=0.0, kappa_v=2.0, sigma_v=0.0)
    res = simulate_vasicek(p, 12, 1, seed=1)
    # zero noise, flat anchor: the path stays at c1
    assert np.allclose(res.rate_paths[0], 0.005, rtol=1e-12)


def test_vasicek_spike_reconstruction():
    spikes = (SpikeSpec(1, 0.3, 0.05),)
    p = VasicekParams(c1=0.005, mu=0.1, kappa_v=2.0, sigma_v=0.5, spikes=spikes, start=(2015, 1))
    tail = np.full(12, 0.005)
    res = simulate_vasicek(p, 1, 3, seed=4, history_tail=tail)
    no_hist = simulate_vasicek(p, 1, 3, seed=4)
    dt = 1.0 / 12
    rows = _row_streams(4, 3, 2)
    for k in range(3):
        z, zg = rows[:, k]
        theta_1 = p.c1 * (1 + p.mu) ** (1 / 12.0)
        base = 0.005 + p.kappa_v * (theta_1 - 0.005) * dt + p.sigma_v * p.c1 * math.sqrt(dt) * z
        base = abs(base)
        cbar = (tail[-11:].sum() + base) / 12.0
        want = abs(base + cbar * (0.3 + 0.05 * zg))
        assert res.rate_paths[k, 0] == pytest.approx(want, rel=1e-12)
        # with no observed history the average is the first simulated month
        assert no_hist.base_paths[k, 0] == pytest.approx(base, rel=1e-12)
        want = abs(base + base * (0.3 + 0.05 * zg))
        assert no_hist.rate_paths[k, 0] == pytest.approx(want, rel=1e-12)


def test_forecast_quantiles_ordering():
    # one path, and the odd and even branches of the median, equal numpy's
    # own statistics over the paths axis exactly, under both schemes
    levels = (0.05, 0.25, 0.75, 0.95)
    for scheme in ("reflect", "truncate"):
        hp = _heston(scheme=scheme, xi=0.9)
        vp = VasicekParams(c1=0.005, mu=0.14, kappa_v=0.5, sigma_v=2.0, scheme=scheme)
        for n_paths in (1, 401, 400):
            for res in (simulate_heston(hp, 12, n_paths, seed=6),
                        simulate_vasicek(vp, 12, n_paths, seed=6)):
                q = forecast_quantiles(res, levels)
                assert isinstance(q, ForecastQuantiles)
                assert q.levels == levels
                assert q.median.shape == (12,) and q.bands.shape == (4, 12)
                assert np.all(q.bands[0] <= q.bands[1])
                assert np.all(q.bands[1] <= q.median + 1e-15)
                assert np.all(q.median <= q.bands[2] + 1e-15)
                assert np.all(q.bands[2] <= q.bands[3])
                assert q.median.tobytes() == np.median(res.rate_paths, axis=0).tobytes()
                want = np.quantile(res.rate_paths, levels, axis=0)
                assert q.bands.tobytes() == want.tobytes()
    # the size sim-paths runs: 20000 paths, each month's row sorted first
    res = simulate_heston(_heston(xi=0.9, spikes=(SpikeSpec(3, 0.2, 0.3),)), 14, 20000, seed=6)
    q = forecast_quantiles(res, levels)
    assert q.median.tobytes() == np.median(res.rate_paths, axis=0).tobytes()
    assert q.bands.tobytes() == np.quantile(res.rate_paths, levels, axis=0).tobytes()
    # numpy's median (a + b)/2 and its quantile lerp at 0.5 differ in the
    # last bit for some pairs; over 2 paths and 1000 months the median must
    # still be np.median's
    paths = np.random.default_rng(0).uniform(0.001, 0.01, (2, 1000))
    res = SimulationResult(rate_paths=paths, var_paths=paths, base_paths=paths, start=(2015, 1))
    q = forecast_quantiles(res, (0.5,))
    assert q.median.tobytes() == np.median(paths, axis=0).tobytes()
    assert q.bands[0].tobytes() == np.quantile(paths, 0.5, axis=0).tobytes()
    assert (q.median != q.bands[0]).any()


def test_forecast_quantiles_read_from_sorted_rows():
    # the order statistics read from the sorted rows are numpy's bytes: row
    # lengths of both parities, ties (no -0.0, as no rate holds one), the
    # default levels, levels at either end (0.9999 reads back from q99.99 as
    # 0.9998999..., so 0.9998), and 0.5 and 0.25, whose virtual index (n - 1) q
    # is whole for some n; a row holding inf or NaN gives what numpy's
    # arithmetic gives there
    rng = np.random.default_rng(18)
    level_sets = ((0.05, 0.25, 0.75, 0.95), (0.0001, 0.5, 0.9998), (0.25,))
    for n in (1, 2, 3, 7, 8, 4999, 5000):
        rows = np.concatenate([
            rng.uniform(0.001, 0.01, (3, n)),
            rng.integers(0, 4, (3, n)) * 0.0025,  # many ties, zeros among them
            np.full((1, n), 0.004),
        ])
        if n > 2:
            rows[0, 1], rows[1, 2] = np.inf, np.nan
        res = SimulationResult(rate_paths=rows.T, var_paths=rows.T, base_paths=rows.T,
                               start=(2015, 1))
        for levels in level_sets:
            with np.errstate(invalid="ignore"):
                q = forecast_quantiles(res, levels)
                want_bands, want_median = np.quantile(rows, levels, axis=1), np.median(rows, axis=1)
            assert q.bands.tobytes() == want_bands.tobytes(), (n, levels)
            assert q.median.tobytes() == want_median.tobytes(), (n, levels)


def _quantile_rows(rng, months, n):
    rows = np.where(rng.random((months, n)) < 0.3,  # ties, zeros among them
                    rng.integers(0, 4, (months, n)) * 0.0025, rng.uniform(0.001, 0.01, (months, n)))
    rows[-1, n // 2] = np.nan  # in the last row
    rows[months // 2, 0] = np.inf
    return rows


@pytest.mark.parametrize("months, n, sorts", [
    (60, 4999, 60), (3, 2**17 + 1, 3), (60, 1, 60), (60, 2, 60), (60, 500, 60),
])
def test_forecast_quantiles_sort_month_blocks(months, n, sorts, monkeypatch):
    # each month row is sorted on its own, one sort per row whatever its
    # length; the quantiles and median are numpy's bytes on every row, a NaN
    # row and an inf row included
    rows = _quantile_rows(np.random.default_rng(n), months, n)
    res = SimulationResult(rate_paths=rows.T, var_paths=rows.T, base_paths=rows.T,
                           start=(2015, 1))
    level_sets = ((0.05, 0.25, 0.75, 0.95), (0.0001, 0.5, 0.9998))
    with np.errstate(invalid="ignore"):
        wants = [(np.quantile(rows, lv, axis=1), np.median(rows, axis=1)) for lv in level_sets]
    calls = []
    real_sort = np.sort

    def sort(a, *args, **kwargs):
        calls.append(a.shape)
        return real_sort(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", sort)
    for levels, (want_bands, want_median) in zip(level_sets, wants):
        calls.clear()
        with np.errstate(invalid="ignore"):
            q = forecast_quantiles(res, levels)
        assert calls == [(n,)] * sorts
        assert q.bands.tobytes() == want_bands.tobytes(), levels
        assert q.median.tobytes() == want_median.tobytes(), levels
    assert np.isnan(q.median[-1]) and np.isnan(q.bands[:, -1]).all()


def test_forecast_quantiles_memory_is_bounded():
    # at 60 x 20000 the paths take 9.6 MB; the quantiles' traced peak is one
    # sorted month row, not a sorted copy of every path
    vp = VasicekParams(c1=0.005, mu=0.14, kappa_v=0.5, sigma_v=2.0)
    res = simulate_vasicek(vp, 60, 20000, seed=3)
    tracemalloc.start()
    try:
        q = forecast_quantiles(res, (0.05, 0.25, 0.75, 0.95))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak
    assert q.median.tobytes() == np.median(res.rate_paths, axis=0).tobytes()


def test_forecast_quantiles_level_validation():
    res = simulate_heston(_heston(), 3, 10, seed=1)
    with pytest.raises(ValidationError):
        forecast_quantiles(res, (0.0, 0.5))
    with pytest.raises(ValidationError):
        forecast_quantiles(res, (0.75, 0.25))
    with pytest.raises(ValidationError):
        forecast_quantiles(res, (0.25, 0.25))
    # 0.123456789 would be written, and read back, as q12.3457
    with pytest.raises(ValidationError, match="q12.3457"):
        forecast_quantiles(res, (0.123456789, 0.5))
    # the constructor applies the same rule; no levels is a median-only forecast
    with pytest.raises(ValidationError):
        ForecastQuantiles(months=((2015, 1),), median=np.ones(1), levels=(0.75, 0.25),
                          bands=np.ones((2, 1)))
    q = ForecastQuantiles(months=((2015, 1),), median=np.ones(1), levels=(),
                          bands=np.empty((0, 1)))
    assert q.levels == ()
    assert forecast_quantiles(res, ()).bands.shape == (0, 3)


@pytest.mark.parametrize("levels, match", [
    ("0.5", r"^quantile level '0\.5' is not a number$"),
    (["a"], r"^quantile level 'a' is not a number$"),
    ((0.25, "0.75"), r"^quantile level '0\.75' is not a number$"),
    ((0.5, None), r"^quantile level None is not a number$"),
])
def test_levels_that_are_not_numbers_are_validation_errors(full_series, levels, match):
    # no string is parsed and no level iterated into characters
    res = simulate_heston(_heston(), 3, 10, seed=1)
    with pytest.raises(ValidationError, match=match):
        forecast_quantiles(res, levels)
    with pytest.raises(ValidationError, match=match):
        ForecastQuantiles(months=((2015, 1),), median=np.ones(1), levels=levels,
                          bands=np.ones((1, 1)))
    with pytest.raises(ValidationError, match=match):
        backtest(full_series, ((2010, 1), (2014, 12)), ((2015, 1), (2019, 12)),
                 model="vasicek", config={"n_paths": 20, "levels": levels}, seed=3)
    numpy_levels = forecast_quantiles(res, np.array([0.25, 0.75]))
    assert numpy_levels.levels == (0.25, 0.75)


@pytest.mark.parametrize("month", [7.5, 7.0, "7", None])
def test_spike_month_must_be_an_integer(full_series, month):
    # a month that no calendar month equals would never fire, and its file
    # keys would not read back
    match = f"^spike month must be an integer, not {re.escape(repr(month))}$"
    with pytest.raises(ValidationError, match=match):
        SpikeSpec(month, 0.3, 0.05)
    with pytest.raises(ValidationError, match=match):
        backtest(full_series, ((2010, 1), (2014, 12)), ((2015, 1), (2019, 12)), model="heston",
                 config={"n_paths": 20, "overrides": {"spikes": [(month, 0.3, 0.05)]}}, seed=3)
    spike = SpikeSpec(np.int64(7), 0.3, 0.05)
    assert spike == SpikeSpec(7, 0.3, 0.05) and type(spike.month) is int


def test_params_file_round_trip(tmp_path):
    spikes = (SpikeSpec(1, -0.173, 0.125), SpikeSpec(7, 0.334, 0.056))
    p = _heston(spikes=spikes, start=(2015, 1))
    tail = tuple(np.linspace(0.004, 0.006, 12))
    path = tmp_path / "h.params"
    write_stochastic_params(p, path, history_tail=tail)
    back, hist = read_stochastic_params(path)
    assert isinstance(back, HestonParams)
    assert back.c1 == pytest.approx(p.c1, rel=1e-11)
    assert back.v0 == pytest.approx(p.v0, rel=1e-11)
    assert back.theta == pytest.approx(p.theta, rel=1e-11)
    assert back.kappa == p.kappa
    assert back.rho == p.rho
    assert back.start == p.start
    assert back.scheme == p.scheme
    assert [s.month for s in back.spikes] == [1, 7]
    assert back.spikes[0].mean_a == pytest.approx(-0.173)
    assert hist == pytest.approx(tail, rel=1e-11)


def test_vasicek_params_file_round_trip(tmp_path):
    p = VasicekParams(c1=0.005, mu=0.14, kappa_v=4.9, sigma_v=0.63)
    path = tmp_path / "v.params"
    write_stochastic_params(p, path)
    back, hist = read_stochastic_params(path)
    assert isinstance(back, VasicekParams)
    assert back.kappa_v == pytest.approx(4.9)
    assert back.sigma_v == pytest.approx(0.63)
    assert hist == ()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NONNEG = st.floats(min_value=0.0, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def _values(params, history) -> dict:
    values = {"c1": params.c1, "mu": params.mu,
              **{f"history.{i}": h for i, h in enumerate(history, start=1)}}
    for s in params.spikes:
        values.update({f"spike.{s.month}.mean": s.mean_a, f"spike.{s.month}.std": s.std_b})
    if isinstance(params, HestonParams):
        values.update(v0=params.v0, theta=params.theta, kappa=params.kappa, xi=params.xi,
                      rho=params.rho)
    else:
        values.update(kappa_v=params.kappa_v, sigma_v=params.sigma_v)
    return values


@settings(max_examples=150, deadline=None)
@given(
    model=st.sampled_from(["heston", "vasicek"]),
    c1=_POSITIVE,
    mu=_FINITE,
    variances=st.tuples(_NONNEG, _NONNEG),
    rates=st.tuples(_NONNEG, _NONNEG),
    rho=st.floats(-1.0, 1.0),
    spikes=st.dictionaries(st.integers(1, 12), st.tuples(_FINITE, _NONNEG), max_size=3),
    start=st.tuples(st.integers(0, 9999), st.integers(1, 12)),
    scheme=st.sampled_from(["reflect", "truncate"]),
    history=st.lists(_FINITE, max_size=4),
)
# a vasicek mu whose 12-digit text, -1, the reader refuses
@example(model="vasicek", c1=0.01, mu=-0.9999999999999999, variances=(0.0, 0.0),
         rates=(1.0, 0.1), rho=0.0, spikes={}, start=(2015, 1), scheme="reflect", history=[])
def test_params_file_write_read_write(
    model, c1, mu, variances, rates, rho, spikes, start, scheme, history
):
    # any parameter set the constructors accept is written, read back at
    # the file's 12 significant digits (a vasicek mu that would read as -1
    # there is written in full), and written again to the same bytes
    common = dict(c1=c1, mu=mu, start=start, scheme=scheme,
                  spikes=tuple(SpikeSpec(m, a, b) for m, (a, b) in spikes.items()))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FellerWarning)
        try:
            if model == "heston":
                p = HestonParams(v0=variances[0], theta=variances[1], kappa=rates[0],
                                 xi=rates[1], rho=rho, **common)
            else:
                p = VasicekParams(kappa_v=rates[0], sigma_v=rates[1], **common)
        except ValidationError:
            assume(False)  # outside the model's domain: mu <= -1, or xi or sigma_v overflow
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first", Path(tmp) / "second"
            write_stochastic_params(p, first, history_tail=history)
            back, hist = read_stochastic_params(first)
            write_stochastic_params(back, second, history_tail=hist)
            assert second.read_bytes() == first.read_bytes()
    want = {key: float(f"{v:.12g}") for key, v in _values(p, history).items()}
    if model == "vasicek" and want["mu"] <= -1.0:
        want["mu"] = p.mu
    if model == "heston":
        # the file holds volatilities, which the reader squares into variances
        want.update({key: float(f"{math.sqrt(v):.12g}") ** 2
                     for key, v in (("v0", p.v0), ("theta", p.theta))})
    assert _values(back, hist) == want
    assert (back.start, back.scheme) == (start, scheme)


def test_params_file_rejects_unknown_and_duplicate_keys(tmp_path):
    p = _heston()
    path = tmp_path / "h.params"
    write_stochastic_params(p, path)
    text = path.read_text()
    bad = tmp_path / "bad.params"
    bad.write_text(text + "mystery = 1\n")
    with pytest.raises(ValidationError, match="mystery"):
        read_stochastic_params(bad)
    dup = tmp_path / "dup.params"
    dup.write_text(text + "kappa = 0.9\n")
    with pytest.raises(ValidationError):
        read_stochastic_params(dup)


def test_params_file_rejects_malformed_values(tmp_path):
    p = _heston(spikes=(SpikeSpec(1, -0.1, 0.1),))
    path = tmp_path / "h.params"
    write_stochastic_params(p, path)
    text = path.read_text()
    bad = tmp_path / "bad.params"
    for key, value in (("kappa", "abc"), ("mu", "nan"), ("xi", "inf"), ("spike.1.std", "nan"),
                       ("start_year", "2015.5"), ("start_month", "x"), ("v0_vol", "1e200"),
                       ("theta_vol", "1e200"), ("xi", "1e200")):
        bad.write_text(text.replace(f"{key} = ", f"{key} = {value} # was "))
        with pytest.raises(ValidationError, match=key):
            read_stochastic_params(bad)
    write_stochastic_params(VasicekParams(c1=0.005, mu=0.14, kappa_v=4.9, sigma_v=0.63), path)
    text = path.read_text()
    for key, value in (("sigma_v", "1e200"), ("mu", "-2")):
        bad.write_text(text.replace(f"{key} = ", f"{key} = {value} # was "))
        with pytest.raises(ValidationError, match=key):
            read_stochastic_params(bad)


@pytest.mark.parametrize("old, new, named", [
    ("spike.7.", "spike.7.5.", "spike.7.5.mean"),
    ("spike.7.mean", "spike.x.mean", "spike.x.mean"),
    ("spike.7.mean", "spike.07.mean", "spike.07.mean"),
    ("spike.7.mean", "spike.+7.mean", "spike.+7.mean"),
    ("spike.7.std", "spike.7.median", "spike.7.median"),
    ("spike.7.std", "spike.7", "spike.7"),
])
def test_params_file_names_a_malformed_spike_key(tmp_path, old, new, named):
    # a spike key is spike.<month>.mean or spike.<month>.std, and any other
    # spike.* key is named as it is written, not as a key the file lacks
    path = tmp_path / "h.params"
    write_stochastic_params(_heston(spikes=(SpikeSpec(1, -0.1, 0.1), SpikeSpec(7, 0.3, 0.05))),
                            path)
    path.write_text(path.read_text().replace(old, new))
    match = f"^{re.escape(str(path))}: malformed spike key {re.escape(named)}$"
    with pytest.raises(ValidationError, match=match):
        read_stochastic_params(path)


@settings(max_examples=50, deadline=None)
@given(
    c1=st.floats(1e-5, 0.05),
    mu=st.floats(-0.9, 0.9),
    v0=st.floats(0.0, 4.0),
    theta=st.floats(1e-4, 4.0),
    kappa=st.floats(0.0, 5.0),
    xi=st.floats(0.0, 3.0),
    rho=st.floats(-1.0, 1.0),
    spike_mean=st.floats(-2.0, 2.0),
    spike_std=st.floats(0.0, 1.0),
    scheme=st.sampled_from(["reflect", "truncate"]),
    seed=st.integers(0, 2**31 - 1),
)
def test_paths_never_negative_under_adversarial_parameters(
    c1, mu, v0, theta, kappa, xi, rho, spike_mean, spike_std, scheme, seed
):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FellerWarning)
        p = HestonParams(
            c1=c1,
            mu=mu,
            v0=v0,
            theta=theta,
            kappa=kappa,
            xi=xi,
            rho=rho,
            spikes=(SpikeSpec(1, spike_mean, spike_std),),
            start=(2014, 11),
            scheme=scheme,
        )
    res = simulate_heston(p, 15, 8, seed=seed, history_tail=np.full(3, c1))
    assert np.all(res.rate_paths >= 0.0)
    assert np.all(res.var_paths >= 0.0)
    assert np.all(np.isfinite(res.rate_paths))


# ---------------------------------------------------------------------------
# month draws on a worker thread

_AHEAD = stochastic_engine._AHEAD_PATHS


def _drawing(monkeypatch, threaded: bool):
    # the worker draws from the threshold on more than one CPU; either switch
    # alone sends a call inline
    monkeypatch.setattr(stochastic_engine, "_AHEAD_PATHS", 1 if threaded else 2**62)
    monkeypatch.setattr(stochastic_engine, "_cpus", lambda: 2 if threaded else 1)


def _thread_starts(monkeypatch) -> list:
    starts, real = [], threading.Thread.start

    def start(self):
        starts.append(self.name)
        real(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return starts


_SPIKED = dict(spikes=(SpikeSpec(1, 0.3, 0.2), SpikeSpec(7, -0.1, 0.1)), start=(2015, 1))
_MODELS = {
    "heston": (_heston(**_SPIKED), simulate_heston, stochastic_engine._heston),
    "vasicek": (VasicekParams(c1=0.005, mu=0.14, kappa_v=0.5, sigma_v=2.0, **_SPIKED),
                simulate_vasicek, stochastic_engine._vasicek),
}


def _rings(model):
    # draw ring sizes: the fewest rows that hold a month's draws (3 in a
    # heston spike month, 2 in a vasicek one), 4, the default 8, and more
    # rows than a 60-month call draws
    return (3 if model == "heston" else 2, 4, 8, _rows_of_call(model, 60) + 1)


@pytest.mark.parametrize("scheme", ["reflect", "truncate"])
@pytest.mark.parametrize("model", ["heston", "vasicek"])
def test_worker_and_inline_draws_give_the_same_bytes(model, scheme, monkeypatch):
    # the library simulators and the program's streamed forecasts, with a
    # spike in month 0 (January) that reads the 12-month history tail, on
    # either side of the threshold and of the forecast's 12-row ring, at
    # each draw ring size: all give the bytes of the default ring inline
    params, simulate, parts = _MODELS[model]
    params = dataclasses.replace(params, scheme=scheme)
    tail = np.linspace(0.004, 0.006, 12)

    def outputs(threaded, ring, seed, n_paths, horizon):
        with monkeypatch.context() as m:
            _drawing(m, threaded)
            m.setattr(stochastic_engine, "_DRAW_ROWS", ring)
            res = simulate(params, horizon, n_paths, seed, tail)
            q = _simulated(parts, (params, tail), horizon, n_paths, seed, DEFAULT_LEVELS)
        return [a.tobytes() for a in (res.rate_paths, res.var_paths, res.base_paths,
                                      q.median, q.bands)]

    for case in itertools.product((1, 7, 2**64 + 3), (1, _AHEAD - 1, _AHEAD), (1, 11, 12, 13, 60)):
        want = outputs(False, stochastic_engine._DRAW_ROWS, *case)
        for ring in _rings(model):
            assert outputs(True, ring, *case) == want, (ring, case)
            assert outputs(False, ring, *case) == want, (ring, case)


class _Raised(Exception):
    pass


@pytest.mark.parametrize("levels", [None, DEFAULT_LEVELS])
@pytest.mark.parametrize("threaded", [True, False])
def test_no_thread_outlives_a_call(threaded, levels, monkeypatch):
    # after a normal return, a step that raises at month 5 (a KeyboardInterrupt
    # too) and a ValidationError from the vasicek growth target at month 12,
    # the thread count is back where it was, and the exception is the one raised
    _drawing(monkeypatch, threaded)
    starts = _thread_starts(monkeypatch)
    before = threading.active_count()
    p = _heston()
    v0, var_evolves, draws, step = stochastic_engine._heston(p)
    stochastic_engine._simulate(p, v0, var_evolves, draws, step, 60, 50, 1, (), levels)
    assert threading.active_count() == before
    for raised in (_Raised("step at month 5"), KeyboardInterrupt()):

        def failing(c, v, t, z, *out):
            if t == 5:
                raise raised
            step(c, v, t, z, *out)

        with pytest.raises(type(raised)) as info:
            stochastic_engine._simulate(p, v0, var_evolves, draws, failing, 60, 50, 1, (), levels)
        assert info.value is raised and threading.active_count() == before
    vp = VasicekParams(c1=0.005, mu=1e300, kappa_v=0.5, sigma_v=2.0)
    with pytest.raises(ValidationError, match=r"^1 \+ mu = 1e\+300 overflows at power 1.08333$"):
        stochastic_engine._simulate(vp, *stochastic_engine._vasicek(vp), 60, 50, 1, (), levels)
    assert threading.active_count() == before
    assert starts == ["crashvol-draws"] * (4 if threaded else 0)
    # forecast_quantiles, with a sort that raises on the caller and, threaded,
    # one that raises on the sorting thread (the caller's sorts wait for it)
    res = simulate_heston(p, 60, 50, seed=1)
    starts.clear()
    for side in ("caller", "thread") if threaded else ("caller",):
        raised, failed, real_sort = _Raised(f"sort on the {side}"), threading.Event(), np.sort

        def sort(a, *args, side=side, raised=raised, failed=failed, **kwargs):
            main = threading.current_thread() is threading.main_thread()
            if main == (side == "caller"):
                failed.set()
                raise raised
            _wait(failed)
            return real_sort(a, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(np, "sort", sort)
            with pytest.raises(_Raised) as info:
                forecast_quantiles(res, DEFAULT_LEVELS)
        assert info.value is raised and threading.active_count() == before
    assert starts == ["crashvol-sorts"] * (2 if threaded else 0)


def _per_thread_fills(monkeypatch, on_caller, on_worker, worker_start=None):
    # np.random.Generator whose fills first run on_caller() on the main
    # thread, else on_worker(); with `worker_start`, a generator made off the
    # main thread waits for that event first
    real = np.random.Generator

    class Generator:
        def __init__(self, bitgen):
            if worker_start is not None and threading.current_thread() is not threading.main_thread():
                _wait(worker_start)
            self.normal = real(bitgen).standard_normal

        def standard_normal(self, out):
            main = threading.current_thread() is threading.main_thread()
            (on_caller if main else on_worker)()
            self.normal(out=out)

    monkeypatch.setattr(np.random, "Generator", Generator)


def _wait(event):
    assert event.wait(timeout=30), "the other side never got there"


@pytest.mark.parametrize("threaded", [True, False])
def test_a_fill_that_raises_is_raised_in_the_caller(threaded, monkeypatch):
    # inline, the 12th fill raises; threaded, once the worker's first fill
    # raises (the caller's fills wait for it, so the worker has a row) and
    # once the caller's first fill raises (the worker's fills wait for it).
    # Each time the caller raises that exception and no thread is left running
    _drawing(monkeypatch, threaded)
    raised = _Raised("a fill")

    def inline():
        rows = []

        def fill():
            rows.append(1)
            if len(rows) == 12:
                raise raised

        _per_thread_fills(monkeypatch, fill, None)

    def failing_on(side):
        failed = threading.Event()

        def fail():
            failed.set()
            raise raised

        def after():
            _wait(failed)

        _per_thread_fills(monkeypatch, *((after, fail) if side == "worker" else (fail, after)))

    setups = [lambda: failing_on("worker"), lambda: failing_on("caller")] if threaded else [inline]
    before = threading.active_count()
    for setup in setups:
        for call in (lambda: simulate_heston(_heston(), 60, 50, seed=1),
                     lambda: _simulated(stochastic_engine._heston, (_heston(), ()), 60, 50, 1,
                                        DEFAULT_LEVELS)):
            setup()
            with pytest.raises(_Raised) as info:
                call()
            assert info.value is raised and threading.active_count() == before


_SIMULATORS = [(model, streamed) for model in ("heston", "vasicek") for streamed in (False, True)]


def _run_simulator(model, streamed, horizon, n_paths, seed):
    params, simulate, parts = _MODELS[model]
    tail = np.linspace(0.004, 0.006, 12)
    if streamed:
        q = _simulated(parts, (params, tail), horizon, n_paths, seed, DEFAULT_LEVELS)
        return [q.median.tobytes(), q.bands.tobytes()]
    res = simulate(params, horizon, n_paths, seed, tail)
    return [a.tobytes() for a in (res.rate_paths, res.var_paths, res.base_paths)]


def _rows_of_call(model, horizon):
    # draw rows of a call: 2 (heston) or 1 (vasicek) a month, plus one in each
    # spike month (months 0 and 6 of each year)
    return sum((2 if model == "heston" else 1) + (t % 12 in (0, 6)) for t in range(horizon))


@pytest.mark.parametrize("threaded", [True, False])
@pytest.mark.parametrize("model, streamed", _SIMULATORS)
def test_every_draw_row_is_filled_once(model, streamed, threaded, monkeypatch):
    # the row a fill draws is told by its generator's state, which is
    # PCG64(seed) advanced r jumps for row r; each row of the call is filled
    # exactly once, whichever side claims it, at each draw ring size
    _drawing(monkeypatch, threaded)
    seed, real = 5, np.random.Generator
    index = {}
    for r in range(_rows_of_call(model, 60)):
        bitgen = np.random.PCG64(seed)
        bitgen.advance(r * stochastic_engine._JUMP)
        index[bitgen.state["state"]["state"]] = r
    fills = []

    class Counting:
        def __init__(self, bitgen):
            self.bitgen, self.normal = bitgen, real(bitgen).standard_normal

        def standard_normal(self, out):
            fills.append(index[self.bitgen.state["state"]["state"]])
            self.normal(out=out)

    monkeypatch.setattr(np.random, "Generator", Counting)
    for ring, horizon in itertools.product(_rings(model), (1, 2, 13, 60)):
        monkeypatch.setattr(stochastic_engine, "_DRAW_ROWS", ring)
        fills.clear()
        _run_simulator(model, streamed, horizon, 50, seed)
        assert sorted(fills) == list(range(_rows_of_call(model, horizon))), (ring, horizon)


def _forced_claim_orders(monkeypatch, model, streamed):
    # each side takes the lowest unclaimed row: the caller claims every row
    # while the worker is held back before its first claim; the worker claims
    # every row while the caller's claims are disabled; the caller draws the
    # rest of month 0 and as much of month 1 as the draw ring holds while the
    # worker is held in its fill of one of month 0's rows. Each gives the
    # inline bytes
    horizon, n_paths, seed = 14, 60, 9
    rows = _rows_of_call(model, horizon)
    _drawing(monkeypatch, threaded=False)
    want = _run_simulator(model, streamed, horizon, n_paths, seed)
    _drawing(monkeypatch, threaded=True)
    with monkeypatch.context() as m:
        caller_rows, done = [], threading.Event()

        def counted():
            caller_rows.append(1)
            if len(caller_rows) == rows:
                done.set()

        # the worker makes its generator before its first claim
        _per_thread_fills(m, counted, lambda: pytest.fail("the worker drew"), worker_start=done)
        assert _run_simulator(model, streamed, horizon, n_paths, seed) == want
        assert len(caller_rows) == rows
    with monkeypatch.context() as m:
        # with a reach of 0 the caller takes no row and waits for the worker's
        worker_rows, real_claim = [], stochastic_engine._Lanes.claim
        m.setattr(stochastic_engine._Lanes, "claim",
                  lambda self, end, reach, worker=False:
                  real_claim(self, end, reach if worker else 0, worker))
        _per_thread_fills(m, lambda: pytest.fail("the caller drew"), lambda: worker_rows.append(1))
        assert _run_simulator(model, streamed, horizon, n_paths, seed) == want
        assert len(worker_rows) == rows
    with monkeypatch.context() as m:
        # the rows of months 0 and 1 that lie in the ring, but the worker's row
        ahead = min(_rows_of_call(model, 2), stochastic_engine._DRAW_ROWS) - 1
        caller_rows, worker_in, caller_ahead = [], threading.Event(), threading.Event()

        def caller():
            _wait(worker_in)
            caller_rows.append(1)
            if len(caller_rows) == ahead:
                caller_ahead.set()

        def worker():
            if not worker_in.is_set():
                worker_in.set()
                _wait(caller_ahead)

        _per_thread_fills(m, caller, worker)
        assert _run_simulator(model, streamed, horizon, n_paths, seed) == want
        assert len(caller_rows) >= ahead


@pytest.mark.parametrize("model, streamed", _SIMULATORS)
def test_forced_claim_orders_give_the_inline_bytes(model, streamed, monkeypatch):
    _forced_claim_orders(monkeypatch, model, streamed)


@pytest.mark.parametrize("model, streamed", _SIMULATORS)
def test_no_row_is_claimed_past_the_ring(model, streamed, monkeypatch):
    # at each draw ring size, under the forced claim orders and free-running,
    # either side claims row r only while r < first[t] + ring for the
    # caller's month t: the draws of months before t are spent, and no row in
    # use is overwritten. The month is recorded as the caller asks for it
    # (told by the end of its rows), so a worker claim may see a later month
    # than its bound
    month, claims = [0], []
    month_ending = {_rows_of_call(model, t + 1): t for t in range(60)}
    real_until, real_claim = stochastic_engine._Lanes.until, stochastic_engine._Lanes.claim

    def until(self, end, limit, reach):
        month[0] = month_ending[end]
        return real_until(self, end, limit, reach)

    def claim(self, end, reach, worker=False):
        r = real_claim(self, end, reach, worker)
        if r is not None:
            claims.append((r, month[0]))
        return r

    monkeypatch.setattr(stochastic_engine._Lanes, "until", until)
    monkeypatch.setattr(stochastic_engine._Lanes, "claim", claim)
    for ring in _rings(model):
        monkeypatch.setattr(stochastic_engine, "_DRAW_ROWS", ring)
        claims.clear()
        _forced_claim_orders(monkeypatch, model, streamed)
        _drawing(monkeypatch, threaded=False)
        want = _run_simulator(model, streamed, 60, 300, 4)
        _drawing(monkeypatch, threaded=True)
        assert _run_simulator(model, streamed, 60, 300, 4) == want, ring
        past = [(r, t) for r, t in claims if r >= _rows_of_call(model, t) + ring]
        assert claims and not past, (ring, past)


@pytest.mark.parametrize("n", [_AHEAD - 1, _AHEAD, 20000])
def test_two_lane_forecast_quantiles_give_the_one_lane_bytes(n, monkeypatch):
    # from _AHEAD_PATHS paths on more than one CPU a thread and the caller
    # sort month rows, each taking the lowest unclaimed row; the bytes are
    # those of the caller sorting every row, a NaN row and an inf row included
    starts = _thread_starts(monkeypatch)
    for months in (1, 2, 61):
        rows = _quantile_rows(np.random.default_rng(months), months, n)
        res = SimulationResult(rate_paths=rows.T, var_paths=rows.T, base_paths=rows.T,
                               start=(2015, 1))
        got = []
        for cpus in (1, 2):
            monkeypatch.setattr(stochastic_engine, "_cpus", lambda cpus=cpus: cpus)
            with np.errstate(invalid="ignore"):
                q = forecast_quantiles(res, DEFAULT_LEVELS)
            got.append((q.median.tobytes(), q.bands.tobytes(), q.months))
        assert got[0] == got[1], months
        assert np.isnan(q.median[-1]) and np.isnan(q.bands[:, -1]).all()
    assert starts == ["crashvol-sorts"] * 3 * (n >= _AHEAD)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("affinity", [True, False])
def test_one_usable_cpu_starts_no_thread(cpus, affinity, monkeypatch):
    # the CPUs this process may run on, or the machine's count where the
    # platform has no affinity call; at the threshold only one CPU keeps a
    # call inline, the draws' and forecast_quantiles' sorts alike
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    starts = _thread_starts(monkeypatch)
    at = simulate_heston(_heston(), 3, _AHEAD, seed=1)
    _simulated(stochastic_engine._vasicek, (_MODELS["vasicek"][0], ()), 3, _AHEAD, 1,
               DEFAULT_LEVELS)
    below = simulate_heston(_heston(), 3, _AHEAD - 1, seed=1)
    forecast_quantiles(at, DEFAULT_LEVELS)
    forecast_quantiles(below, DEFAULT_LEVELS)
    assert starts == ["crashvol-draws", "crashvol-draws", "crashvol-sorts"] * (cpus - 1)


def test_oversized_draw_slots_start_no_thread(monkeypatch):
    # the allocation fails before anything is drawn or any thread started
    real_empty = np.empty

    def empty(shape, *args, **kwargs):
        if 200_000_000 in np.atleast_1d(shape):
            raise MemoryError("fake: out of memory")
        return real_empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", empty)
    _forbid_drawing(monkeypatch)
    _drawing(monkeypatch, threaded=True)
    starts = _thread_starts(monkeypatch)
    with pytest.raises(ValidationError, match=r"^200000000 paths: a ring of 8 draw rows and 3 "):
        simulate_heston(_heston(), 7, 200_000_000, seed=3)
    with pytest.raises(ValidationError, match=r"^200000000 paths: a ring of 8 draw rows and 2 "):
        _simulated(stochastic_engine._vasicek, (VasicekParams(0.005, 0.14, 0.5, 2.0), ()), 7,
                   200_000_000, 3, DEFAULT_LEVELS)
    assert starts == []


def test_worker_draws_hold_under_concurrent_calls_and_a_short_switch_interval(monkeypatch):
    # four calling threads at once, each with its own worker (8 threads on
    # fewer cores), switching every 10 us, with the fewest draw rows that hold
    # a heston spike month and with the default ring: each call still gives
    # the bytes of the inline draws and one-lane sorts, and every caller finishes
    cases = [(model, seed) for model in ("heston", "vasicek") for seed in (1, 7)]

    def outputs(model, seed):
        params, simulate, parts = _MODELS[model]
        q = _simulated(parts, (params, ()), 60, 300, seed, DEFAULT_LEVELS)
        res = simulate(params, 60, 300, seed)
        sorted_q = forecast_quantiles(res, DEFAULT_LEVELS)
        return b"".join(a.tobytes() for a in (res.rate_paths, q.bands, sorted_q.bands))

    _drawing(monkeypatch, threaded=False)
    want = {case: outputs(*case) for case in cases}
    _drawing(monkeypatch, threaded=True)
    for ring in (3, stochastic_engine._DRAW_ROWS):
        monkeypatch.setattr(stochastic_engine, "_DRAW_ROWS", ring)
        got = {}
        callers = [threading.Thread(target=lambda case=case: got.update({case: outputs(*case)}))
                   for case in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers), ring
        assert got == want, ring
