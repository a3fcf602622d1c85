import re
import tempfile
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crashvol import cli
from crashvol.arima_garch import read_arima_model
from crashvol.data_ingest import (
    AlignmentError,
    CrashvolError,
    GapError,
    MonthlyObservation,
    MonthlySeries,
    ParseError,
    RangeError,
    ValidationError,
    add_months,
    merge_series,
    parse_kv_file,
    parse_monthly_csv,
    slice_window,
    write_kv_file,
)
from crashvol.evaluation import MODELS
from crashvol.stochastic_engine import read_stochastic_params


def _series(pairs):
    return MonthlySeries(tuple(MonthlyObservation(y, m, c, v) for y, m, c, v in pairs))


def test_add_months_rollover():
    assert add_months(2014, 12, 1) == (2015, 1)
    assert add_months(2015, 1, -1) == (2014, 12)
    assert add_months(2010, 6, 30) == (2012, 12)
    assert add_months(2010, 6, 0) == (2010, 6)


def test_observation_rate():
    obs = MonthlyObservation(2010, 1, 762, 259000)
    assert obs.rate == pytest.approx(762 / 259000)


def test_observation_validation():
    with pytest.raises(ValidationError):
        MonthlyObservation(2010, 13, 1, 1000)
    with pytest.raises(ValidationError):
        MonthlyObservation(2010, 0, 1, 1000)
    with pytest.raises(ValidationError):
        MonthlyObservation(2010, 1, -1, 1000)
    with pytest.raises(ValidationError):
        MonthlyObservation(2010, 1, 1, 0.0)
    for vmt in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="non-finite"):
            MonthlyObservation(2010, 1, 1, vmt)
    # a rate that does not fit a float: a 400-digit count, or a count over 1e-320
    for crashes, vmt in ((10**400, 100.0), (1, 1e-320)):
        with pytest.raises(ValidationError, match="non-finite crash rate"):
            MonthlyObservation(2010, 1, crashes, vmt)


def test_series_requires_contiguity():
    with pytest.raises(GapError, match="missing"):
        _series([(2010, 1, 1, 100), (2010, 3, 1, 100)])
    with pytest.raises(GapError, match="duplicate"):
        _series([(2010, 1, 1, 100), (2010, 1, 2, 100)])
    single = _series([(2010, 1, 1, 100)])
    assert len(single) == 1


def test_series_properties():
    s = _series([(2014, 11, 10, 100), (2014, 12, 20, 100), (2015, 1, 30, 100)])
    assert s.start == (2014, 11)
    assert s.end == (2015, 1)
    assert s.months == [(2014, 11), (2014, 12), (2015, 1)]
    assert np.allclose(s.rates, [0.1, 0.2, 0.3])
    assert s.index_of(2014, 12) == 1
    with pytest.raises(RangeError):
        s.index_of(2015, 2)


def test_rates_are_read_only():
    s = _series([(2010, 1, 1, 100), (2010, 2, 2, 100)])
    with pytest.raises(ValueError):
        s.rates[0] = 9.9


def test_parse_bundled_fixtures(train_series, holdout_series):
    assert train_series.start == (2009, 12)
    assert train_series.end == (2015, 1)
    assert len(train_series) == 62
    assert holdout_series.start == (2014, 12)
    assert holdout_series.end == (2019, 12)
    assert len(holdout_series) == 61


def test_parse_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("year,month\n2010,1\n")
    with pytest.raises(ParseError) as exc:
        parse_monthly_csv(p)
    assert exc.value.code == "E_PARSE"
    assert "header" in str(exc.value)


def test_parse_reports_line_numbers(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("year,month,crashes,vmt_thousands\n2010,1,abc,100\n")
    with pytest.raises(ParseError) as exc:
        parse_monthly_csv(p)
    assert ":2:" in str(exc.value)  # offending line number


def test_parse_sorts_rows(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text(
        "year,month,crashes,vmt_thousands\n"
        "2010,2,2,100\n2010,1,1,100\n2010,3,3,100\n"
    )
    s = parse_monthly_csv(p)
    assert s.months == [(2010, 1), (2010, 2), (2010, 3)]


def test_parse_gap_mentions_missing_month(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("year,month,crashes,vmt_thousands\n2010,1,1,100\n2010,3,3,100\n")
    with pytest.raises(GapError) as exc:
        parse_monthly_csv(p)
    assert exc.value.code == "E_GAP"
    assert "2010-02" in str(exc.value)


def test_slice_window(train_series):
    w = slice_window(train_series, (2010, 1), (2014, 12))
    assert w.start == (2010, 1)
    assert w.end == (2014, 12)
    assert len(w) == 60
    with pytest.raises(RangeError):
        slice_window(train_series, (2009, 1), (2014, 12))


def test_months_outside_the_calendar_are_validation_errors(train_series):
    # month 0 or 14 would otherwise shift into the neighbouring years:
    # (2011, -11) read as index 1, and (2010, 0)..(2010, 14) as 2009-12..2011-02
    with pytest.raises(ValidationError, match=r"^month -11 outside 1\.\.12 \(2011\)$"):
        train_series.index_of(2011, -11)
    with pytest.raises(ValidationError, match=r"^month 0 outside 1\.\.12 \(2010\)$"):
        slice_window(train_series, (2010, 0), (2010, 14))
    with pytest.raises(ValidationError, match=r"^month 14 outside 1\.\.12 \(2010\)$"):
        slice_window(train_series, (2010, 1), (2010, 14))


def test_merge_overlap_and_conflict():
    a = _series([(2010, 1, 1, 100), (2010, 2, 2, 100)])
    b = _series([(2010, 2, 2, 100), (2010, 3, 3, 100)])
    merged = merge_series(a, b)
    assert merged.months == [(2010, 1), (2010, 2), (2010, 3)]
    conflicting = _series([(2010, 2, 5, 100), (2010, 3, 3, 100)])
    with pytest.raises(ValidationError):
        merge_series(a, conflicting)


def test_merge_disjoint_gap():
    a = _series([(2010, 1, 1, 100)])
    b = _series([(2010, 4, 4, 100)])
    with pytest.raises(GapError):
        merge_series(a, b)


def test_error_codes():
    assert ParseError("x").code == "E_PARSE"
    assert GapError("x").code == "E_GAP"
    assert RangeError("x").code == "E_RANGE"
    assert ValidationError("x").code == "E_VALIDATION"
    assert AlignmentError("x").code == "E_ALIGN"


def test_kv_file_writer_formats_and_round_trips(tmp_path):
    path = tmp_path / "m.params"
    write_kv_file(path, [("model", "heston"), ("p", 2), ("c1", 0.1 + 0.2), ("big", 1e200),
                         ("coef", np.float64(-1.0 / 3.0))])
    assert path.read_text() == (
        "model = heston\np = 2\nc1 = 0.3\nbig = 1e+200\ncoef = -0.333333333333\n"
    )
    assert parse_kv_file(path) == {
        "model": "heston", "p": "2", "c1": "0.3", "big": "1e+200", "coef": "-0.333333333333"
    }


CSV_READERS = {
    "monthly": (parse_monthly_csv, "year,month,crashes,vmt_thousands", "2010,{m},1,100"),
    "forecast": (cli._read_forecast_csv, "year,month,median,q25,q75", "2015,{m},0.5,0.4,0.6"),
}


@pytest.mark.parametrize("reader", CSV_READERS)
@pytest.mark.parametrize("case", ["blank-rows", "short-row", "huge-field", "empty"])
def test_csv_readers_share_rules(tmp_path, reader, case):
    read, header, row = CSV_READERS[reader]
    rows = [row.format(m=1), row.format(m=2)]
    path = tmp_path / "in.csv"
    if case == "blank-rows":
        # padded header cells and whitespace-only rows are accepted
        padded = " " + header.replace(",", " , ")
        path.write_text(f"{padded}\n\n{rows[0]}\n \t\n , \n{rows[1]}\n")
        assert len(read(path).months) == 2
        return
    width = header.count(",") + 1
    text, match = {
        "short-row": (f"{header}\n{rows[0]}\n2010,2\n",
                      f"{path}:3: expected {width} fields, got 2"),
        "huge-field": (f"{header}\n{'9' * 200_000}\n", f"{path}:2: field larger than field limit"),
        "empty": ("", f"{path}: empty file"),
    }[case]
    path.write_text(text)
    with pytest.raises(ParseError, match=re.escape(match)):
        read(path)


FUZZED_READERS = {
    "monthly": parse_monthly_csv,
    "forecast": cli._read_forecast_csv,
    "heston": read_stochastic_params,
    "arima-garch": read_arima_model,
}


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory, train_series):
    """One valid file per fuzzed reader, as bytes, for the fuzzer to mutate."""
    tmp = tmp_path_factory.mktemp("valid")
    options = {"orders": (1, 1, 1), "garch_orders": (1, 1), "overrides": {}}
    for model in ("heston", "arima-garch"):
        entry = MODELS[model]
        entry.write(entry.fit(train_series, ((2010, 1), (2014, 12)), (2015, 1), options),
                    tmp / model)
    monthly = (files("crashvol") / "data" / "dc_2010_2014.csv").read_bytes().splitlines(keepends=True)
    return {
        "monthly": b"".join(monthly[:6]),
        "forecast": b"year,month,median,q25,q75\n2015,1,0.5,0.4,0.6\n2015,2,0.5,0.4,0.6\n",
        **{model: (tmp / model).read_bytes() for model in ("heston", "arima-garch")},
    }


def _mutants(valid: bytes):
    # splice a short run of bytes over part of a valid file, so that the
    # value rules are reached and not only the format checks
    junk = st.one_of(st.binary(max_size=12),
                     st.text("0123456789-+.eE,=#\n\r \"nai", max_size=12).map(str.encode))
    return st.builds(lambda i, k, b: valid[:i] + b + valid[i + k:],
                     st.integers(0, len(valid)), st.integers(0, 12), junk)


@pytest.mark.parametrize("reader", FUZZED_READERS)
def test_readers_raise_only_crashvol_errors(reader, valid_inputs):
    # any bytes either read back or raise CrashvolError, the CLI's E_<CODE> line;
    # derandomized, so that the run is the same each time
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"

        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(data=st.one_of(st.binary(max_size=400), _mutants(valid_inputs[reader])))
        def read_any(data):
            path.write_bytes(data)
            try:
                FUZZED_READERS[reader](path)
            except CrashvolError:
                pass

        read_any()
