"""Turn op latencies and span records into the benchmark's metrics."""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import self_times

MODELS = ("heston", "vasicek", "arima", "arima-garch")
CLI_COMMANDS = ("diagnose", "fit", "forecast", "evaluate", "backtest")
TAIL_BEYOND = 10


def tail(latencies, beyond: int = TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Nearest rank: the k-th smallest of n samples has n - k samples beyond it,
    so the highest qualifying rank is k = n - beyond, the 100*k/n percentile.
    Returns (value, percentile, samples_beyond), or None for n <= beyond.
    """
    xs = sorted(latencies)
    k = len(xs) - beyond
    if k < 1:
        return None
    return xs[k - 1], 100.0 * k / len(xs), len(xs) - k


class Spans:
    """Per-call figures from the workload's spans, else from the layer probe's."""

    def __init__(self, work, probe):
        self.passes = (work, probe)
        self.self_s = [self_times(records) for records in self.passes]

    def pick(self, keep):
        """Matching records of the first pass that has any, with that pass's index."""
        for i, records in enumerate(self.passes):
            found = [r for r in records if keep(r)]
            if found:
                return found, i
        return [], None

    def named(self, *names):
        return self.pick(lambda r: r["name"] in names)[0]

    def per_call(self, *names, **attrs) -> float:
        recs, _ = self.pick(
            lambda r: r["name"] in names
            and all(r.get("attrs", {}).get(k) == v for k, v in attrs.items())
        )
        return statistics.median(r["busy"] / r["calls"] for r in recs)


def layer_metrics(work, probe, direct) -> dict[str, float]:
    """Every per-layer metric; `direct` holds those measured outside spans."""
    sp = Spans(work, probe)
    out = dict(direct)
    out["series_stats.stats_s"] = sum(
        sp.per_call(f"series_stats.{fn}")
        for fn in ("volatility_profile", "annual_growth_rate", "season_profile",
                   "distribution_diagnostics")
    )

    se = "stochastic_engine."
    out[se + "simulate_heston_s"] = sp.per_call(se + "simulate_heston")
    out[se + "simulate_vasicek_s"] = sp.per_call(se + "simulate_vasicek")
    out[se + "quantiles_s"] = sp.per_call(se + "forecast_quantiles")
    sims = sp.named(se + "simulate_heston", se + "simulate_vasicek")
    largest = max(sims, key=lambda r: r["attrs"]["draws"])
    out[se + "normal_draws"] = largest["attrs"]["draws"]
    out[se + "bytes_computed"] = largest["attrs"]["bytes"]
    out[se + "ns_per_draw"] = 1e9 * sum(r["busy"] for r in sims) / sum(
        r["attrs"]["draws"] for r in sims
    )
    out[se + "params_io_s"] = sp.per_call(se + "write_stochastic_params") + sp.per_call(
        se + "read_stochastic_params"
    )

    ag = "arima_garch."
    out[ag + "select_order_s"] = sp.per_call(ag + "select_order")
    out[ag + "fit_arima_s"] = sp.per_call(ag + "fit_arima")
    out[ag + "fit_garch_s"] = sp.per_call(ag + "fit_garch")
    out[ag + "forecast_s"] = sum(
        sp.per_call(ag + fn)
        for fn in ("forecast_arima", "forecast_garch_variance", "forecast_level_variance")
    )
    grids, i = sp.pick(lambda r: r["name"] == ag + "select_order")
    fits = defaultdict(list)
    for r in sp.passes[i]:
        if r["name"] == ag + "fit_arima":
            fits[r["parent"]].append(r)
    attempts = [fits[g["id"]] for g in grids]
    out[ag + "grid_points"] = statistics.median_low(len(a) for a in attempts)
    out[ag + "grid_converged_ratio"] = sum(
        not f["error"] for a in attempts for f in a
    ) / sum(len(a) for a in attempts)

    ev = "evaluation."
    out[ev + "fit_from_stats_s"] = sp.per_call(ev + "fit_heston_from_stats",
                                               ev + "fit_vasicek_from_stats")
    out[ev + "score_s"] = sp.per_call(ev + "yearly_error_report") + sp.per_call(
        ev + "interval_coverage"
    )
    for model in MODELS:
        out[f"{ev}backtest_s.{model}"] = sp.per_call(ev + "backtest", model=model)
    runs, i = sp.pick(lambda r: r["name"] == ev + "backtest")
    out[ev + "backtest_self_s"] = statistics.median(sp.self_s[i][r["id"]] for r in runs)

    for cmd in CLI_COMMANDS:
        out[f"cli.main_s.{cmd}"] = sp.per_call("cli.main", command=cmd)
    return out
