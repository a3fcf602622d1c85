"""Shared fixtures: bundled series, and cold ARIMA/GARCH fit caches per test."""

import sys
from importlib.resources import files

import pytest

from crashvol import arima_garch, merge_series, parse_monthly_csv


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # replay acceptance verdicts after the run; capture eats the live prints
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "VERDICTS", None) if mod else None
    if not lines:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance verdicts", sep="-")
    for line in lines:
        terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def cold_fit_caches():
    # every test starts with no memoised fit, as if it ran alone
    arima_garch._arima_outcome.cache_clear()
    arima_garch._garch_outcome.cache_clear()


def data_path(name: str) -> str:
    return str(files("crashvol") / "data" / name)


@pytest.fixture(scope="session")
def train_series():
    # 2009-12 lead-in, 2010-2014 observations, 2015-01 lead-out
    return parse_monthly_csv(data_path("dc_2010_2014.csv"))


@pytest.fixture(scope="session")
def holdout_series():
    # 2014-12 lead-in, 2015-2019 observations
    return parse_monthly_csv(data_path("dc_2015_2019.csv"))


@pytest.fixture(scope="session")
def full_series(train_series, holdout_series):
    return merge_series(train_series, holdout_series)
