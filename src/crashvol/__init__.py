"""Monthly crash-rate analytics: descriptive statistics, stochastic-volatility
simulation with calendar spikes, ARIMA/GARCH baselines, and backtesting."""

from .data_ingest import (
    CrashvolError,
    MonthlyObservation,
    MonthlySeries,
    merge_series,
    parse_monthly_csv,
    slice_window,
)
from .evaluation import ErrorReport, backtest, error_stats, interval_coverage
from .stochastic_engine import (
    ForecastQuantiles,
    HestonParams,
    SimulationResult,
    SpikeSpec,
    VasicekParams,
    forecast_quantiles,
    simulate_heston,
    simulate_vasicek,
)

__version__ = "0.3.0"

__all__ = [
    "CrashvolError",
    "ErrorReport",
    "ForecastQuantiles",
    "HestonParams",
    "MonthlyObservation",
    "MonthlySeries",
    "SimulationResult",
    "SpikeSpec",
    "VasicekParams",
    "__version__",
    "backtest",
    "error_stats",
    "forecast_quantiles",
    "interval_coverage",
    "merge_series",
    "parse_monthly_csv",
    "simulate_heston",
    "simulate_vasicek",
    "slice_window",
]
