import numpy as np
import pytest

from crashvol.data_ingest import (
    AlignmentError,
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
