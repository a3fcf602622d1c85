import contextlib
import csv
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crashvol import cli
from crashvol.cli import main
from crashvol.data_ingest import ValidationError, add_months
from crashvol.stochastic_engine import FellerWarning, ForecastQuantiles, read_stochastic_params


@pytest.fixture()
def workdir(tmp_path):
    for name in ("dc_2010_2014.csv", "dc_2015_2019.csv"):
        shutil.copy(str(files("crashvol") / "data" / name), tmp_path / name)
    return tmp_path


def _read_stats(path):
    with open(path, newline="") as fh:
        return {row["statistic"]: row["value"] for row in csv.DictReader(fh)}


def test_diagnose_writes_statistics(workdir, capsys):
    out = workdir / "t1"
    rc = main(["diagnose", "--input", str(workdir / "dc_2010_2014.csv"), "--out", str(out)])
    assert rc == 0
    stats = _read_stats(workdir / "t1.stats.csv")
    assert stats["window_vol"] == "0.6332627824"
    assert stats["vol_of_vol"] == "0.2625995994"
    assert stats["yearly_vol.2012"] == "0.5571687973"
    assert stats["growth"] == "0.1366956849"
    assert stats["spike_months"] == "1;7;8"
    assert stats["growth_method"] == "geometric-mean-of-yearly-mean-ratios"
    assert float(stats["rate_vol_correlation"]) == pytest.approx(-0.5963902667)
    with open(workdir / "t1.hist_rates.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sum(int(r["count"]) for r in rows) == 62
    assert (workdir / "t1.hist_logdiffs.csv").exists()


def _write_series(path, rows):
    path.write_text("year,month,crashes,vmt_thousands\n"
                    + "".join(f"{y},{m},{c},50000\n" for y, m, c in rows))


_PATTERN = [100, 90, 110, 95, 120, 130, 150, 115, 105, 100, 98, 125]


@pytest.mark.parametrize("rows, skipped", [
    # two full years and a December lead-in: one yearly log-ratio, no vol-of-vol
    ([(2009, 12, 100)] + [(y, m, _PATTERN[m - 1] + (y - 2010) * 7 + m * 3 % 5)
                          for y in (2010, 2011) for m in range(1, 13)],
     ["vol_of_vol", "rate/vol correlation: correlation needs at least 3 full calendar years"]),
    # three years of one monthly pattern: equal yearly means, no correlation
    ([(y, m, _PATTERN[m - 1]) for y in (2010, 2011, 2012) for m in range(1, 13)],
     ["rate/vol correlation: correlation is undefined: the yearly mean rates are all equal"]),
    # a year of constant rates from the December before: a zero yearly vol
    ([(y, m, 100 if y == 2011 or m == 12 else _PATTERN[m - 1] + y)
      for y in (2010, 2011, 2012, 2013) for m in range(1, 13)],
     ["vol_of_vol"]),
], ids=["two-full-years", "equal-yearly-means", "zero-yearly-vol"])
def test_diagnose_leaves_out_undefined_statistics(workdir, capsys, caplog, rows, skipped):
    path = workdir / "s.csv"
    _write_series(path, rows)
    caplog.set_level("INFO", logger="crashvol")
    assert main(["diagnose", "--input", str(path)]) == 0
    assert capsys.readouterr().err == ""
    stats = _read_stats(workdir / "s.stats.csv")
    assert all(math.isfinite(float(v)) for k, v in stats.items()
               if k not in ("growth_method", "spike_months"))
    notes = [r.getMessage() for r in caplog.records if r.getMessage().startswith("skipping")]
    assert len(notes) == len(skipped)
    assert all(n.startswith(f"skipping {s}") for n, s in zip(notes, skipped)), notes
    assert ("vol_of_vol" in stats) == ("vol_of_vol" not in skipped)


def test_diagnose_out_is_used_as_given(workdir):
    for out in ("run.v2", "run.v3"):
        rc = main(["diagnose", "--input", str(workdir / "dc_2010_2014.csv"),
                   "--out", str(workdir / out)])
        assert rc == 0
    for out in ("run.v2", "run.v3"):
        for name in ("stats", "hist_rates", "hist_logdiffs"):
            assert (workdir / f"{out}.{name}.csv").exists()
    assert not (workdir / "run.stats.csv").exists()


def test_fit_heston_writes_params(workdir):
    out = workdir / "h.params"
    rc = main([
        "fit", "--input", str(workdir / "dc_2010_2014.csv"),
        "--train-start", "2010-01", "--train-end", "2014-12",
        "--model", "heston", "--out", str(out),
    ])
    assert rc == 0
    text = out.read_text()
    assert "model = heston" in text
    assert "theta_vol = 0.633262782434" in text
    assert "spike.7.mean = 0.333957637062" in text
    assert "history.12 = " in text
    assert "start_year = 2015" in text


def test_fit_arima_writes_model(workdir):
    out = workdir / "a.model"
    rc = main([
        "fit", "--input", str(workdir / "dc_2010_2014.csv"),
        "--train-start", "2010-01", "--train-end", "2014-12",
        "--model", "arima", "--orders", "1,2,2", "--out", str(out),
    ])
    assert rc == 0
    text = out.read_text()
    assert "model = arima" in text
    assert "p = 1" in text
    assert "ma.2 = " in text


def test_forecast_from_arima_garch_file(workdir):
    # the variance recursion must work from the stored tails alone
    params = workdir / "ag.model"
    rc = main([
        "fit", "--input", str(workdir / "dc_2010_2014.csv"),
        "--train-start", "2010-01", "--train-end", "2014-12",
        "--model", "arima-garch", "--orders", "1,2,2,1,1", "--out", str(params),
    ])
    assert rc == 0
    out = workdir / "agf.csv"
    rc = main(["forecast", "--params", str(params), "--horizon", "12", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "year,month,median,q05,q25,q75,q95"
    assert len(lines) == 13
    row = lines[1].split(",")
    q05, q25, med, q75, q95 = (float(row[i]) for i in (3, 4, 2, 5, 6))
    assert q05 < q25 < med < q75 < q95


def test_forecast_requires_seed(workdir, capsys):
    params = workdir / "h.params"
    main([
        "fit", "--input", str(workdir / "dc_2010_2014.csv"),
        "--train-start", "2010-01", "--train-end", "2014-12",
        "--model", "heston", "--out", str(params),
    ])
    capsys.readouterr()  # drop fit output
    rc = main(["forecast", "--params", str(params), "--horizon", "12",
               "--paths", "50", "--out", str(workdir / "f.csv")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("crashvol: E_VALIDATION:")
    assert "--seed" in err
    # a negative seed is a usage error naming the flag; a non-finite
    # parameter fails as one line too
    nan_params = workdir / "nan.params"
    nan_params.write_text(params.read_text().replace("mu = ", "mu = nan # "))
    for path, seed, detail in ((params, "-1", "argument --seed: -1 must be at least 0"),
                               (nan_params, "1", "key mu is not finite")):
        rc = main(["forecast", "--params", str(path), "--horizon", "12",
                   "--paths", "50", "--seed", seed, "--out", str(workdir / "f.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("crashvol: E_VALIDATION: ") and detail in err
        assert err.count("\n") == 1


@pytest.mark.parametrize("model", ["heston", "arima"])
def test_negative_seed_is_rejected_before_any_fit(workdir, capsys, monkeypatch, model):
    # every model parses --seed alike, so an unseeded model does not ignore it
    def no_fit(*args, **kwargs):
        raise AssertionError("fitted before the usage error")

    monkeypatch.setattr(cli.evaluation, "backtest", no_fit)
    out = workdir / "bt.csv"
    rc = main(["backtest", "--input", str(workdir / "dc_2010_2014.csv"),
               "--input", str(workdir / "dc_2015_2019.csv"),
               "--train-start", "2010-01", "--train-end", "2014-12",
               "--test-start", "2015-01", "--test-end", "2019-12",
               "--model", model, "--paths", "50", "--seed", "-1", "--out", str(out)])
    err = capsys.readouterr().err
    assert (rc, err.count("\n")) == (1, 1), err
    assert err.startswith("crashvol: E_VALIDATION: argument --seed: -1 must be at least 0")
    assert not out.exists()


def test_heston_fit_on_two_full_years_names_its_cause(workdir, capsys):
    # two full years give one yearly log-ratio, so no vol-of-vol spread
    out = workdir / "h.params"
    rc = main(["fit", "--input", str(workdir / "dc_2010_2014.csv"), "--train-start", "2010-01",
               "--train-end", "2011-12", "--model", "heston", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == ("crashvol: E_VALIDATION: heston vol_of_vol is not finite: it needs at least "
                   "3 full calendar years of nonzero volatility, and the training window has 2\n")
    assert not out.exists()
    # the vasicek fit reads no vol-of-vol and still succeeds on that window
    assert main(["fit", "--input", str(workdir / "dc_2010_2014.csv"), "--train-start", "2010-01",
                 "--train-end", "2011-12", "--model", "vasicek", "--out", str(out)]) == 0


def test_forecast_writes_quantile_csv(workdir):
    params = workdir / "h.params"
    main([
        "fit", "--input", str(workdir / "dc_2010_2014.csv"),
        "--train-start", "2010-01", "--train-end", "2014-12",
        "--model", "heston", "--out", str(params),
    ])
    out = workdir / "f.csv"
    rc = main(["forecast", "--params", str(params), "--horizon", "18",
               "--paths", "200", "--seed", "4", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 18
    assert list(rows[0]) == ["year", "month", "median", "q05", "q25", "q75", "q95"]
    assert rows[0]["year"] == "2015"
    assert rows[0]["month"] == "1"
    assert rows[-1]["month"] == "6"
    med = [float(r["median"]) for r in rows]
    assert all(m > 0 for m in med)


def test_forecast_custom_levels(workdir):
    params = workdir / "v.params"
    main([
        "fit", "--input", str(workdir / "dc_2010_2014.csv"),
        "--train-start", "2010-01", "--train-end", "2014-12",
        "--model", "vasicek", "--out", str(params),
    ])
    out = workdir / "f.csv"
    rc = main(["forecast", "--params", str(params), "--horizon", "6",
               "--paths", "100", "--seed", "2", "--levels", "10,90", "--out", str(out)])
    assert rc == 0
    header = out.read_text().splitlines()[0]
    assert header == "year,month,median,q10,q90"


def test_forecast_rejects_bad_levels(workdir, capsys):
    params = workdir / "v.params"
    main([
        "fit", "--input", str(workdir / "dc_2010_2014.csv"),
        "--train-start", "2010-01", "--train-end", "2014-12",
        "--model", "vasicek", "--out", str(params),
    ])
    forecast = ["forecast", "--params", str(params), "--horizon", "6", "--paths", "50"]
    backtest = ["backtest", "--input", str(workdir / "dc_2010_2014.csv"),
                "--input", str(workdir / "dc_2015_2019.csv"),
                "--train-start", "2010-01", "--train-end", "2014-12",
                "--test-start", "2015-01", "--test-end", "2019-12",
                "--model", "vasicek", "--paths", "50"]
    # out of range, descending, `q1e-05` names, and two levels that would
    # both be written as `q12.3457`
    for command, levels in ((forecast, "0,150"), (forecast, "75,25"),
                            (forecast, "0.00001,50"), (forecast, ","),
                            (backtest, "12.34567891,12.34567892,50")):
        capsys.readouterr()
        rc = main([*command, "--seed", "2", "--levels", levels, "--out", str(workdir / "f.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("crashvol: E_VALIDATION:")
        assert err.count("\n") == 1
        assert not (workdir / "f.csv").exists()


@pytest.mark.parametrize("command", ["forecast", "backtest"])
def test_seeded_model_requires_seed(workdir, capsys, command):
    params = workdir / "h.params"
    main(["fit", "--input", str(workdir / "dc_2010_2014.csv"),
          "--train-start", "2010-01", "--train-end", "2014-12",
          "--model", "heston", "--out", str(params)])
    capsys.readouterr()
    argv = {
        "forecast": ["forecast", "--params", str(params)],
        "backtest": ["backtest", "--input", str(workdir / "dc_2010_2014.csv"),
                     "--input", str(workdir / "dc_2015_2019.csv"),
                     "--train-start", "2010-01", "--train-end", "2014-12",
                     "--test-start", "2015-01", "--test-end", "2019-12"],
    }[command]
    rc = main([*argv, "--paths", "50", "--out", str(workdir / "f.csv")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "crashvol: E_VALIDATION: --seed is required for the heston model\n"
    )


def test_forecast_deterministic_output(workdir):
    params = workdir / "h.params"
    main([
        "fit", "--input", str(workdir / "dc_2010_2014.csv"),
        "--train-start", "2010-01", "--train-end", "2014-12",
        "--model", "heston", "--out", str(params),
    ])
    a, b = workdir / "a.csv", workdir / "b.csv"
    for out in (a, b):
        rc = main(["forecast", "--params", str(params), "--horizon", "24",
                   "--paths", "500", "--seed", "33", "--out", str(out)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_evaluate_reports_errors(workdir, capsys):
    params = workdir / "h.params"
    main([
        "fit", "--input", str(workdir / "dc_2010_2014.csv"),
        "--train-start", "2010-01", "--train-end", "2014-12",
        "--model", "heston", "--out", str(params),
    ])
    fc = workdir / "f.csv"
    main(["forecast", "--params", str(params), "--horizon", "60",
          "--paths", "300", "--seed", "5", "--out", str(fc)])
    rep = workdir / "rep.csv"
    rc = main(["evaluate", "--forecast", str(fc),
               "--observed", str(workdir / "dc_2015_2019.csv"),
               "--model-id", "heston", "--out", str(rep)])
    assert rc == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("heston overall mae=")
    body = rep.read_text().splitlines()
    assert body[0] == "model,year,mae,rmse,mape"
    assert body[1].startswith("heston,2015,")
    assert body[-1].startswith("heston,overall,")
    cov = (workdir / "rep.coverage.csv").read_text().splitlines()
    assert cov[0] == "low,high,n_outside,frac_outside"
    assert cov[1].startswith("0.25,0.75,")


def test_evaluate_detects_missing_observations(workdir, capsys):
    params = workdir / "h.params"
    main([
        "fit", "--input", str(workdir / "dc_2010_2014.csv"),
        "--train-start", "2010-01", "--train-end", "2014-12",
        "--model", "heston", "--out", str(params),
    ])
    fc = workdir / "f.csv"
    main(["forecast", "--params", str(params), "--horizon", "72",
          "--paths", "100", "--seed", "5", "--out", str(fc)])
    rc = main(["evaluate", "--forecast", str(fc),
               "--observed", str(workdir / "dc_2015_2019.csv"),
               "--model-id", "heston", "--out", str(workdir / "rep.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "E_RANGE" in err or "E_ALIGN" in err


def test_backtest_end_to_end(workdir, capsys):
    out = workdir / "bt.csv"
    rc = main([
        "backtest",
        "--input", str(workdir / "dc_2010_2014.csv"),
        "--input", str(workdir / "dc_2015_2019.csv"),
        "--train-start", "2010-01", "--train-end", "2014-12",
        "--test-start", "2015-01", "--test-end", "2019-12",
        "--model", "vasicek", "--paths", "300", "--seed", "6",
        "--out", str(out),
    ])
    assert rc == 0
    assert out.exists()
    assert (workdir / "bt.report.csv").exists()
    assert (workdir / "bt.coverage.csv").exists()
    for path in (out, workdir / "bt.report.csv", workdir / "bt.coverage.csv"):
        data = path.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n"), path.name
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("vasicek overall mae=")
    with open(out, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 60


def test_backtest_window_mismatch(workdir, capsys):
    rc = main([
        "backtest",
        "--input", str(workdir / "dc_2010_2014.csv"),
        "--input", str(workdir / "dc_2015_2019.csv"),
        "--train-start", "2010-01", "--train-end", "2014-11",
        "--test-start", "2015-01", "--test-end", "2019-12",
        "--model", "vasicek", "--paths", "50", "--seed", "6",
        "--out", str(workdir / "bt.csv"),
    ])
    assert rc == 1
    assert "E_RANGE" in capsys.readouterr().err


def test_io_error_code(workdir, capsys):
    rc = main(["diagnose", "--input", str(workdir / "dc_2010_2014.csv"),
               "--out", str(workdir / "no" / "such" / "dir" / "x")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("crashvol: E_IO:")


FORECAST_ROWS = "year,month,median,q25,q75\n2015,1,0.005,0.004,0.006\n"


def _reading(workdir, flag, path):
    """argv of a command that reads `path` through `flag`; its other inputs are valid."""
    fc = workdir / "fc.csv"
    fc.write_text(FORECAST_ROWS)
    return {
        "diagnose --input": ["diagnose", "--input", path],
        "forecast --params": ["forecast", "--params", path, "--seed", "1"],
        "evaluate --forecast": ["evaluate", "--forecast", path,
                                "--observed", str(workdir / "dc_2015_2019.csv")],
        "evaluate --observed": ["evaluate", "--forecast", str(fc), "--observed", path],
    }[flag] + ["--out", str(workdir / "x.csv")]


@pytest.mark.parametrize("missing", [
    "diagnose --input", "forecast --params", "evaluate --forecast", "evaluate --observed",
], ids=lambda m: m.replace(" --", "-"))
def test_missing_input_file(workdir, capsys, missing):
    rc = main(_reading(workdir, missing, str(workdir / "nope.csv")))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("crashvol: E_IO:")
    assert "nope.csv" in err


@pytest.mark.parametrize("flag,text", [
    ("diagnose --input", "year,month,crashes,vmt_thousands\n2010,1,1,1\xff\n"),
    ("forecast --params", "model = heston\nc1 = 0.1\xff\n"),
    ("evaluate --forecast", "year,month,median\n2015,1,0.005\xff\n"),
], ids=["diagnose-input", "forecast-params", "evaluate-forecast"])
def test_undecodable_input_file(workdir, capsys, flag, text):
    # a byte that is not UTF-8 is one E_PARSE line naming its line, not a traceback
    bad = workdir / "bad.txt"
    bad.write_bytes(text.encode("latin-1"))
    rc = main(_reading(workdir, flag, str(bad)))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"crashvol: E_PARSE: {bad}:2: not UTF-8")
    assert err.count("\n") == 1
    assert sorted(p.name for p in workdir.iterdir()) == [
        "bad.txt", "dc_2010_2014.csv", "dc_2015_2019.csv", "fc.csv"
    ]


@pytest.mark.parametrize("orders,key,error", [
    ("1,2,2", "ar.1", None),
    ("0,1,1", "ma.1", None),
    ("1,2,2", "ma.2", "crashvol: E_VALIDATION: MA polynomial roots inside the unit circle"),
])
def test_forecast_from_subnormal_last_coefficient(workdir, capsys, orders, key, error):
    # a last AR or MA coefficient of 1e-320 is read and root-checked without
    # dividing by it: the forecast runs, or fails as one E_ line
    params = workdir / "a.model"
    assert main(["fit", "--input", str(workdir / "dc_2010_2014.csv"),
                 "--train-start", "2010-01", "--train-end", "2014-12",
                 "--model", "arima", "--orders", orders, "--out", str(params)]) == 0
    lines = params.read_text().splitlines()
    lines = [f"{key} = 1e-320" if line.startswith(f"{key} = ") else line for line in lines]
    params.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["forecast", "--params", str(params), "--out", str(workdir / "fc.csv")])
    err = capsys.readouterr().err
    if error is None:
        assert (rc, err) == (0, "")
        assert (workdir / "fc.csv").exists()
    else:
        assert (rc, err) == (1, error + "\n")


NO_SCIPY_CHILD = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # from here on, any scipy import raises ImportError
from crashvol.cli import main

codes = []
for argv in json.loads(sys.argv[1]):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(main(argv))
    except SystemExit as exc:  # --help
        codes.append(exc.code)
print(json.dumps(codes))
"""


def _all_model_runs(data, out):
    train = ["--input", str(data / "dc_2010_2014.csv"),
             "--train-start", "2010-01", "--train-end", "2014-12"]
    runs = []
    for model in ("heston", "vasicek", "arima", "arima-garch"):
        runs.append(["fit", *train, "--model", model, "--out", str(out / f"{model}.params")])
        runs.append(["forecast", "--params", str(out / f"{model}.params"), "--horizon", "12",
                     "--paths", "200", "--seed", "3", "--out", str(out / f"{model}.fc.csv")])
        runs.append(["backtest", *train, "--input", str(data / "dc_2015_2019.csv"),
                     "--test-start", "2015-01", "--test-end", "2019-12", "--model", model,
                     "--paths", "200", "--seed", "3", "--out", str(out / f"bt.{model}.csv")])
    return runs


def test_every_command_runs_without_scipy(workdir):
    # a child process in which scipy cannot be imported runs --help and fit,
    # forecast and backtest of all four models, and writes the bytes that the
    # same runs write here
    import crashvol

    child, here = workdir / "child", workdir / "here"
    child.mkdir()
    here.mkdir()
    pkg_parent = os.path.dirname(os.path.dirname(os.path.abspath(crashvol.__file__)))
    pythonpath = os.pathsep.join(filter(None, (pkg_parent, os.environ.get("PYTHONPATH"))))
    runs = [["--help"], *_all_model_runs(workdir, child)]
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_CHILD, json.dumps(runs)],
        capture_output=True, text=True, cwd=workdir, env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(runs), proc.stderr
    for argv in _all_model_runs(workdir, here):
        assert main(argv) == 0
    written = {p.name: p.read_bytes() for p in sorted(child.iterdir())}
    assert len(written) == 4 * 5  # params, forecast, backtest forecast, report, coverage
    assert written == {p.name: p.read_bytes() for p in sorted(here.iterdir())}


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random adds ~20 ms to a cold start; it loads with the first
    # simulation, not with the CLI. statistics (~1.8 ms) loads with the first
    # Gaussian band, so heston and vasicek commands never pay for it
    import crashvol

    pkg_parent = os.path.dirname(os.path.dirname(os.path.abspath(crashvol.__file__)))
    pythonpath = os.pathsep.join(filter(None, (pkg_parent, os.environ.get("PYTHONPATH"))))
    code = ("import sys, crashvol.cli; "
            "print(sorted(m for m in sys.modules if 'random' in m or m == 'statistics'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 0, proc.stderr
    assert "numpy.random" not in proc.stdout, proc.stdout
    assert "'statistics'" not in proc.stdout, proc.stdout


@pytest.mark.parametrize("command,flag,value", [
    ("fit", "--rho", "inf"),
    ("fit", "--spike-threshold", "nan"),
    ("backtest", "--spike-threshold", "-inf"),
    ("backtest", "--low", "nan"),
    ("backtest", "--low", "0"),
    ("backtest", "--high", "inf"),
    ("evaluate", "--high", "100"),
    ("evaluate", "--low", "-5"),
])
def test_bad_float_flags_end_as_one_line(workdir, capsys, command, flag, value):
    # non-finite floats and coverage percentiles outside (0, 100) fail before
    # any file is written
    fc = workdir / "fc.csv"
    fc.write_text("year,month,median,q25,q75\n2015,1,0.005,0.004,0.006\n")
    train = ["--input", str(workdir / "dc_2010_2014.csv"),
             "--train-start", "2010-01", "--train-end", "2014-12", "--model", "heston"]
    argv = {
        "fit": ["fit", *train],
        "backtest": ["backtest", *train, "--input", str(workdir / "dc_2015_2019.csv"),
                     "--test-start", "2015-01", "--test-end", "2019-12",
                     "--paths", "50", "--seed", "1"],
        "evaluate": ["evaluate", "--forecast", str(fc),
                     "--observed", str(workdir / "dc_2015_2019.csv")],
    }[command]
    before = sorted(p.name for p in workdir.iterdir())
    rc = main([*argv, f"{flag}={value}", "--out", str(workdir / "out.csv")])
    err = capsys.readouterr().err
    assert (rc, err.count("\n")) == (1, 1), err
    assert err.startswith(f"crashvol: E_VALIDATION: {flag}")
    assert sorted(p.name for p in workdir.iterdir()) == before


@pytest.mark.parametrize("argv,detail", [
    (["forecast", "--params", "h.params", "--paths", "abc", "--seed", "1", "--out", "f.csv"],
     "argument --paths: invalid int value: 'abc' (see crashvol forecast --help)"),
    (["forecast", "--seed", "1", "--out", "f.csv"],
     "the following arguments are required: --params (see crashvol forecast --help)"),
    (["fit", "--input", "dc_2010_2014.csv", "--train-start", "2010-01", "--train-end", "2014-12",
      "--rho", "-inf", "--out", "h.params"],
     "argument --rho: expected one argument (see crashvol fit --help)"),
    (["fit", "--input", "dc_2010_2014.csv", "--train-start", "2010-01", "--train-end", "2014-12",
      "--model", "garch", "--out", "h.params"],
     "argument --model: invalid choice: 'garch'"),
    ([], "the following arguments are required: command (see crashvol --help)"),
    (["forecast", "--params", "h.params", "--out", "f.csv", "a\nb"],
     "unrecognized arguments: a\\nb (see crashvol --help)"),
], ids=["bad-int", "missing-flag", "rho-minus-inf", "bad-choice", "no-command", "extra-arg"])
def test_usage_errors_end_as_one_line(workdir, capsys, monkeypatch, argv, detail):
    # argparse's usage errors are one E_VALIDATION line with exit 1, not the
    # usage block with exit 2, and come before any file is written
    monkeypatch.chdir(workdir)
    before = sorted(p.name for p in workdir.iterdir())
    rc = main(argv)
    captured = capsys.readouterr()
    assert (rc, captured.err.count("\n"), captured.out) == (1, 1, ""), captured.err
    assert captured.err.startswith(f"crashvol: E_VALIDATION: {detail}")
    assert sorted(p.name for p in workdir.iterdir()) == before


@pytest.mark.parametrize("argv", [["--help"], ["forecast", "--help"], ["fit", "-h"]])
def test_help_still_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 0
    assert captured.out.startswith("usage: crashvol") and captured.err == ""


def _no_draws(*args):
    # the simulator's one generator: seeding it would be the first draw
    raise AssertionError("drew before the allocation check")


def test_oversized_path_count_ends_as_one_line(workdir, capsys, monkeypatch):
    # the buffers' allocation is faked to fail: no test asks the OS for 273 GiB
    params = workdir / "h.params"
    assert main(["fit", "--input", str(workdir / "dc_2010_2014.csv"), "--train-start", "2010-01",
                 "--train-end", "2014-12", "--model", "heston", "--out", str(params)]) == 0
    capsys.readouterr()
    real_empty = np.empty

    def empty(shape, *args, **kwargs):
        if 200_000_000 in np.atleast_1d(shape):
            raise MemoryError("fake: out of memory")
        return real_empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", empty)
    monkeypatch.setattr(np.random, "PCG64", _no_draws)
    out = workdir / "f.csv"
    rc = main(["forecast", "--params", str(params), "--paths", "200000000", "--seed", "1",
               "--out", str(out)])
    err = capsys.readouterr().err
    assert (rc, err.count("\n")) == (1, 1), err
    # the forecast keeps a ring of 12 base rates, one variance and one spike row
    assert err.startswith("crashvol: E_VALIDATION: 200000000 paths: a ring of 8 draw rows and "
                          "3 arrays of 12, 1, 1 months (")
    assert err.endswith(" GiB) cannot be allocated\n")
    assert not out.exists()


def test_feller_warning_is_one_log_line_or_none(workdir, capsys, caplog):
    # FellerWarning is re-enabled here (pytest's settings ignore it) and shown
    # on stderr as Python shows it outside pytest: the default heston
    # calibration raises it, a command that fails after it prints only its E_
    # line, and one that succeeds logs it once
    train = ["--input", str(workdir / "dc_2010_2014.csv"), "--train-start", "2010-01",
             "--train-end", "2014-12", "--model", "heston"]
    params = workdir / "h.params"
    forecast = ["forecast", "--params", str(params), "--seed", "1"]
    backtest = ["backtest", *train, "--input", str(workdir / "dc_2015_2019.csv"),
                "--test-start", "2015-01", "--test-end", "2019-12", "--seed", "1"]
    missing = workdir / "missing"

    def to_stderr(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

    with warnings.catch_warnings():
        warnings.simplefilter("always", FellerWarning)
        warnings.showwarning = to_stderr
        for argv in (["fit", *train, "--out", str(params)],
                     [*forecast, "--paths", "10", "--out", str(workdir / "f.csv")],
                     [*backtest, "--paths", "10", "--out", str(workdir / "bt.csv")]):
            caplog.clear()
            assert main(argv) == 0
            err = capsys.readouterr().err
            warned = [r for r in caplog.records if r.levelname == "WARNING"]
            assert len(warned) <= 1 and err.count("\n") <= 1 and "FellerWarning" not in err, err
            assert [r.getMessage() for r in warned if "does not exceed" in r.getMessage()], argv[0]
        failures = {
            "paths": ([*forecast, "--paths", "-1", "--out", "f.csv"],
                      "E_VALIDATION: argument --paths: -1 must be at least 1"),
            "forecast": ([*forecast, "--paths", "10", "--out", str(missing / "f.csv")], "E_IO: "),
            "backtest": ([*backtest, "--paths", "10", "--out", str(missing / "bt.csv")], "E_IO: "),
            "backtest-paths": ([*backtest, "--paths", "0", "--out", "bt.csv"],
                               "E_VALIDATION: argument --paths: 0 must be at least 1"),
        }
        for name, (argv, detail) in failures.items():
            caplog.clear()
            assert main(argv) == 1, name
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith(f"crashvol: {detail}"), (name, err)
            assert not [r for r in caplog.records if r.levelname == "WARNING"], name
        with pytest.warns(FellerWarning):  # the library still warns
            read_stochastic_params(params)


def _fit_heston(workdir, capsys):
    params = workdir / "h.params"
    assert main(["fit", "--input", str(workdir / "dc_2010_2014.csv"), "--train-start", "2010-01",
                 "--train-end", "2014-12", "--model", "heston", "--out", str(params)]) == 0
    capsys.readouterr()
    return params


def test_unallocatable_result_arrays_end_as_one_line(workdir, capsys, monkeypatch):
    # the draw ring is allocated, then the allocation of the forecast's
    # ring of 12 months of base rates is faked to fail; nothing large is allocated
    params = _fit_heston(workdir, capsys)
    real_empty = np.empty
    shapes = []

    def empty(shape, *args, **kwargs):
        shapes.append(tuple(np.atleast_1d(shape)))
        if shapes[-1] == (12, 5):
            raise MemoryError("fake: out of memory")
        return real_empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", empty)
    monkeypatch.setattr(np.random, "PCG64", _no_draws)
    out = workdir / "f.csv"
    rc = main(["forecast", "--params", str(params), "--horizon", "13", "--paths", "5",
               "--seed", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert (rc, err.count("\n")) == (1, 1), err
    assert err.startswith("crashvol: E_VALIDATION: 5 paths: a ring of 8 draw rows and "
                          "3 arrays of 12, 1, 1 months (")
    assert err.endswith(" GiB) cannot be allocated\n")
    assert shapes[0] == (8, 5) and shapes[-1] == (12, 5) and not out.exists()


@pytest.mark.parametrize("paths", [2**63 - 1, 2**70])
def test_path_count_past_the_index_range_ends_as_one_line(workdir, capsys, monkeypatch, paths):
    # numpy refuses these shapes before asking the OS for memory; the forecast
    # builds nothing sized by the path count before that check (2**70 paths
    # ended in an OverflowError traceback from the quantile columns)
    params = _fit_heston(workdir, capsys)
    monkeypatch.setattr(np.random, "PCG64", _no_draws)
    out = workdir / "f.csv"
    rc = main(["forecast", "--params", str(params), "--paths", str(paths), "--seed", "1",
               "--out", str(out)])
    err = capsys.readouterr().err
    assert (rc, err.count("\n")) == (1, 1), err
    assert err.startswith(f"crashvol: E_VALIDATION: {paths} paths: a ring of 8 draw rows and "
                          "3 arrays of 12, 1, 1 months (")
    assert err.endswith(" GiB) cannot be allocated\n") and not out.exists()


def test_any_memory_error_ends_as_one_line(workdir, capsys, monkeypatch):
    # an allocation no size check covers (here the sorted copy the quantiles
    # take) is still one line, with the error's text on that line
    params = _fit_heston(workdir, capsys)

    def sort(*args, **kwargs):
        raise MemoryError("fake: unable to allocate\n9.16 MiB")

    monkeypatch.setattr(np, "sort", sort)
    out = workdir / "f.csv"
    rc = main(["forecast", "--params", str(params), "--paths", "5", "--seed", "1",
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and not out.exists()
    assert err == "crashvol: E_VALIDATION: out of memory: fake: unable to allocate 9.16 MiB\n"


@pytest.mark.parametrize("horizon", ["1000000", "0", "-3"])
def test_forecast_horizon_checked_before_any_work(workdir, capsys, horizon):
    params = _fit_heston(workdir, capsys)
    out = workdir / "f.csv"
    started = time.perf_counter()
    rc = main(["forecast", "--params", str(params), "--horizon", horizon, "--paths", "1",
               "--seed", "1", "--out", str(out)])
    elapsed = time.perf_counter() - started
    err = capsys.readouterr().err
    assert (rc, err) == (1, f"crashvol: E_VALIDATION: --horizon {horizon} must be 1 to 1200 months\n")
    assert elapsed < 1.0 and not out.exists()
    # the limit itself is a forecast, and --help states it
    assert main(["forecast", "--params", str(params), "--horizon", "1200", "--paths", "1",
                 "--seed", "1", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 1200
    with pytest.raises(SystemExit):
        main(["forecast", "--help"])
    assert "1 to 1200" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["evaluate", "backtest"])
def test_coverage_band_checked_before_any_output(workdir, capsys, command):
    out = workdir / "out.csv"
    fc = workdir / "fc.csv"
    fc.write_text("year,month,median,q10,q90\n2015,1,0.005,0.004,0.006\n")
    argv = {
        "evaluate": ["evaluate", "--forecast", str(fc),
                     "--observed", str(workdir / "dc_2015_2019.csv")],
        "backtest": ["backtest", "--input", str(workdir / "dc_2010_2014.csv"),
                     "--input", str(workdir / "dc_2015_2019.csv"),
                     "--train-start", "2010-01", "--train-end", "2014-12",
                     "--test-start", "2015-01", "--test-end", "2019-12",
                     "--model", "vasicek", "--paths", "50", "--seed", "1", "--levels", "10,90"],
    }[command]
    rc = main([*argv, "--low", "90", "--high", "10", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("crashvol: E_VALIDATION: --low")
    assert err.count("\n") == 1
    assert sorted(p.name for p in workdir.iterdir()) == [
        "dc_2010_2014.csv", "dc_2015_2019.csv", "fc.csv"
    ]


@pytest.mark.parametrize("model", ["arima", "arima-garch"])
def test_arima_rejects_parameter_overrides(workdir, capsys, model):
    # the ARIMA fits read none of --rho, --scheme or --spike-threshold
    rc = main(["backtest", "--input", str(workdir / "dc_2010_2014.csv"),
               "--input", str(workdir / "dc_2015_2019.csv"),
               "--train-start", "2010-01", "--train-end", "2014-12",
               "--test-start", "2015-01", "--test-end", "2019-12", "--model", model,
               "--rho", "0.3", "--scheme", "truncate", "--spike-threshold", "5",
               "--out", str(workdir / "bt.csv")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "crashvol: E_VALIDATION: ARIMA models take no parameter overrides: "
        "rho, scheme, spike_threshold\n"
    )
    assert not (workdir / "bt.csv").exists()


@pytest.mark.parametrize("columns", [",q75,q25", ",q0,q100", ""],
                         ids=["descending", "outside-0-100", "median-only"])
def test_evaluate_checks_quantile_columns(workdir, capsys, columns):
    fc = workdir / "fc.csv"
    bands = ",0.004,0.006" if columns else ""
    fc.write_text(f"year,month,median{columns}\n2015,1,0.005{bands}\n")
    rc = main(["evaluate", "--forecast", str(fc),
               "--observed", str(workdir / "dc_2015_2019.csv"), "--out", str(workdir / "r.csv")])
    err = capsys.readouterr().err
    if columns:
        assert rc == 1
        assert err.startswith("crashvol: E_VALIDATION: quantile level")
        assert err.count("\n") == 1
        assert not (workdir / "r.csv").exists()
    else:
        # a median-only forecast is scored; coverage is skipped
        assert rc == 0
        assert (workdir / "r.csv").exists()
        assert not (workdir / "r.coverage.csv").exists()


@pytest.mark.parametrize("row", ["2015,2,nan,0.004,0.006", "2015,2,0.005,0.004,inf"],
                         ids=["median-nan", "band-inf"])
def test_evaluate_rejects_non_finite_forecast(workdir, capsys, row):
    fc = workdir / "fc.csv"
    fc.write_text(FORECAST_ROWS + row + "\n")
    rc = main(["evaluate", "--forecast", str(fc),
               "--observed", str(workdir / "dc_2015_2019.csv"), "--out", str(workdir / "r.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"crashvol: E_PARSE: {fc}:3: non-finite")
    assert err.count("\n") == 1
    assert not (workdir / "r.csv").exists()


def test_evaluate_scores_an_error_near_the_float_limit(workdir, capsys):
    # an error of at least 2**1023 overflowed the power of two that scales it
    fc = workdir / "fc.csv"
    fc.write_text(FORECAST_ROWS.replace("0.005", "1e308"))
    rc = main(["evaluate", "--forecast", str(fc),
               "--observed", str(workdir / "dc_2015_2019.csv"), "--out", str(workdir / "r.csv")])
    assert rc == 0
    assert "Traceback" not in capsys.readouterr().err
    assert (workdir / "r.csv").read_text().splitlines()[-1].startswith("model,overall,1e+308,1e+308,")


def test_evaluate_rejects_month_outside_the_calendar(workdir, capsys):
    # month 13 was read as the next January and reported as misaligned dates
    fc = workdir / "fc.csv"
    fc.write_text(FORECAST_ROWS + "2014,13,0.005,0.004,0.006\n")
    rc = main(["evaluate", "--forecast", str(fc),
               "--observed", str(workdir / "dc_2015_2019.csv"), "--out", str(workdir / "r.csv")])
    assert rc == 1
    assert capsys.readouterr().err == f"crashvol: E_PARSE: {fc}:3: month 13 outside 1..12\n"
    assert not (workdir / "r.csv").exists()


def _tiny_vmt(src, dst, scale):
    # the same crash counts over VMT scaled by `scale`: rates near the float limit
    rows = src.read_text().splitlines()
    out = [rows[0]]
    for row in rows[1:]:
        year, month, crashes, vmt = row.split(",")
        out.append(f"{year},{month},{crashes},{float(vmt) * scale!r}")
    dst.write_text("\n".join(out) + "\n")


def test_non_finite_forecast_writes_nothing(workdir, capsys):
    # a finite but huge c1 overflows the simulation: the forecast CSV would
    # hold nan and inf medians (which evaluate refuses to read) with exit 0;
    # numpy's overflow warnings are dropped with the error
    params = _fit_heston(workdir, capsys)
    text = params.read_text()
    start = text.index("\nc1 = ") + 1
    params.write_text(text[:start] + "c1 = 1.7e308" + text[text.index("\n", start):])
    out = workdir / "f.csv"
    rc = main(["forecast", "--params", str(params), "--horizon", "6", "--paths", "50",
               "--seed", "1", "--out", str(out)])
    assert (rc, capsys.readouterr().err) == (
        1, "crashvol: E_VALIDATION: non-finite forecast at 2015-01\n")
    assert not out.exists()
    # backtest writes its forecast before the report: neither is written
    for name in ("dc_2010_2014.csv", "dc_2015_2019.csv"):
        _tiny_vmt(workdir / name, workdir / f"tiny_{name}", 1e-309)
    out = workdir / "bt.csv"
    rc = main(["backtest", "--input", str(workdir / "tiny_dc_2010_2014.csv"),
               "--input", str(workdir / "tiny_dc_2015_2019.csv"), "--train-start", "2010-01",
               "--train-end", "2014-12", "--test-start", "2015-01", "--test-end", "2019-12",
               "--model", "heston", "--paths", "50", "--seed", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and err.count("\n") == 1, err
    assert err.startswith("crashvol: E_VALIDATION: non-finite forecast at "), err
    assert not list(workdir.glob("bt*"))


@pytest.mark.parametrize("model,key,value", [
    ("heston", "v0_vol", "1e200"), ("heston", "theta_vol", "1e200"),
    ("vasicek", "sigma_v", "1e200"), ("vasicek", "mu", "-2"),
    ("arima", "start_month", "13"), ("arima-garch", "start_month", "0"),
    ("heston", "start_month", "13"),
    # a mean reversion the monthly step cannot hold: with xi = 0 a kappa of
    # 30 took the variance 0.7, 0.05, 0.925, ... instead of settling at theta
    ("heston", "kappa", "30"), ("vasicek", "kappa_v", "24"),
])
def test_forecast_rejects_out_of_domain_params(workdir, capsys, model, key, value):
    params = workdir / "p.params"
    main(["fit", "--input", str(workdir / "dc_2010_2014.csv"),
          "--train-start", "2010-01", "--train-end", "2014-12",
          "--model", model, "--out", str(params)])
    params.write_text(params.read_text().replace(f"\n{key} = ", f"\n{key} = {value} # "))
    capsys.readouterr()
    rc = main(["forecast", "--params", str(params), "--horizon", "12",
               "--paths", "50", "--seed", "1", "--out", str(workdir / "f.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("crashvol: E_VALIDATION:")
    assert key in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("model", ["heston", "vasicek"])
def test_legacy_dt_line_is_read_only_at_one_month(workdir, capsys, model):
    # files written before monthly steps were fixed carry a `dt` line: at 1/12
    # they read and forecast as the file without it; any other value is one
    # error naming the key, and nothing is written
    params = workdir / "p.params"
    assert main(["fit", "--input", str(workdir / "dc_2010_2014.csv"), "--train-start", "2010-01",
                 "--train-end", "2014-12", "--model", model, "--out", str(params)]) == 0
    assert "dt =" not in params.read_text()
    legacy = workdir / "legacy.params"

    def forecast(path, out):
        capsys.readouterr()
        rc = main(["forecast", "--params", str(path), "--horizon", "24", "--paths", "300",
                   "--seed", "3", "--out", str(out)])
        return rc, capsys.readouterr().err

    for line in ("dt = 0.0833333333333", "dt = 0.08333333333333333"):
        legacy.write_text(params.read_text() + line + "\n")
        assert read_stochastic_params(legacy) == read_stochastic_params(params)
        assert forecast(legacy, workdir / "legacy.csv")[0] == 0
        assert forecast(params, workdir / "plain.csv")[0] == 0
        assert (workdir / "legacy.csv").read_bytes() == (workdir / "plain.csv").read_bytes()
    for value in ("1", "abc", "0.083333333333"):
        legacy.write_text(params.read_text() + f"dt = {value}\n")
        out = workdir / f"bad{value}.csv"
        rc, err = forecast(legacy, out)
        assert (rc, err.count("\n")) == (1, 1), err
        assert err.startswith("crashvol: E_VALIDATION: ") and "key dt" in err, err
        assert not out.exists()


def _ar1_noise_series(path):
    # 62 months of rates around 0.005 whose AR(1) slope on 2010-2014 is
    # 0.0586, so -12 ln(slope) gives kappa_v = 34.04 per year
    random.seed(17)
    e, rows = 0.0, []
    for k in range(62):
        e = 0.1 * e + random.gauss(0, 1)
        rows.append((*add_months(2009, 12, k), int(500 + 100 * e)))
    path.write_text("year,month,crashes,vmt_thousands\n"
                    + "".join(f"{y},{m},{c},100000\n" for y, m, c in rows))


def test_vasicek_fit_rejects_a_slope_the_monthly_step_cannot_hold(workdir, capsys):
    # this fit used to write kappa_v = 34.04, and a 60-month forecast from it
    # then wrote a q95 band of 3662 at 2017-12 and 7.9e9 at 2019-12, exit 0
    series = workdir / "ar1.csv"
    _ar1_noise_series(series)
    out = workdir / "v.params"
    rc = main(["fit", "--input", str(series), "--train-start", "2010-01",
               "--train-end", "2014-12", "--model", "vasicek", "--out", str(out)])
    assert (rc, capsys.readouterr().err) == (
        1, "crashvol: E_VALIDATION: AR(1) slope 0.05863 outside (e^-2, 1): kappa_v undefined "
           "or not below 24 per year\n")
    assert not out.exists()


def test_arima_file_with_a_huge_differencing_order_is_one_line(workdir, capsys):
    # C(1030, 515) is past the float range: that was an OverflowError traceback
    lines = ["model = arima", "p = 0", "d = 1030", "q = 0", "intercept = 0", "sigma2 = 1e-06",
             "css = 1e-06", "start_year = 2015", "start_month = 1"]
    lines += [f"tail.{i} = 0.005" for i in range(1, 1031)]
    params = workdir / "a.model"
    params.write_text("\n".join(lines) + "\n")
    out = workdir / "fc.csv"
    rc = main(["forecast", "--params", str(params), "--horizon", "12", "--out", str(out)])
    assert (rc, capsys.readouterr().err) == (
        1, "crashvol: E_VALIDATION: d = 1030: its integration weights overflow a float\n")
    assert not out.exists()


def test_missing_coverage_levels_warn_in_both_commands(workdir, caplog):
    bt = workdir / "bt.csv"
    rc = main([
        "backtest",
        "--input", str(workdir / "dc_2010_2014.csv"),
        "--input", str(workdir / "dc_2015_2019.csv"),
        "--train-start", "2010-01", "--train-end", "2014-12",
        "--test-start", "2015-01", "--test-end", "2019-12",
        "--model", "vasicek", "--paths", "50", "--seed", "6", "--levels", "5,95",
        "--out", str(bt),
    ])
    assert rc == 0
    rc = main(["evaluate", "--forecast", str(bt),
               "--observed", str(workdir / "dc_2015_2019.csv"), "--out", str(workdir / "ev.csv")])
    assert rc == 0
    assert (workdir / "bt.report.csv").exists() and (workdir / "ev.csv").exists()
    assert not (workdir / "bt.coverage.csv").exists()
    assert not (workdir / "ev.coverage.csv").exists()
    skipped = [r for r in caplog.records if "skipping coverage" in r.getMessage()]
    assert [r.levelname for r in skipped] == ["WARNING", "WARNING"]


def test_bad_month_format(workdir, capsys):
    rc = main([
        "fit", "--input", str(workdir / "dc_2010_2014.csv"),
        "--train-start", "2010-13", "--train-end", "2014-12",
        "--model", "heston", "--out", str(workdir / "h.params"),
    ])
    assert rc == 1
    assert "E_VALIDATION" in capsys.readouterr().err


def test_merged_inputs_align(workdir):
    # repeated --input merges into one contiguous series
    out = workdir / "d"
    rc = main(["diagnose",
               "--input", str(workdir / "dc_2010_2014.csv"),
               "--input", str(workdir / "dc_2015_2019.csv"),
               "--out", str(out)])
    assert rc == 0
    stats = _read_stats(workdir / "d.stats.csv")
    assert "yearly_vol.2019" in stats
    assert "yearly_vol.2010" in stats


_PERCENT = st.one_of(
    st.floats(min_value=-5.0, max_value=105.0),
    st.integers(1, 999).map(lambda k: k / 10),
    st.sampled_from([0.0, 100.0, 1e-5, 12.34567891, 12.34567892, float("nan"), float("inf")]),
)


@settings(max_examples=100, deadline=None)
@given(
    percents=st.one_of(
        st.lists(st.integers(1, 99999), min_size=1, max_size=6, unique=True).map(
            lambda ks: [k / 1000 for k in sorted(ks)]
        ),
        st.lists(_PERCENT, max_size=6).map(sorted),
        st.lists(_PERCENT, max_size=6),
    ),
    start=st.tuples(st.integers(1900, 2100), st.integers(1, 12)),
    horizon=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_forecast_csv_round_trip(percents, start, horizon, seed):
    # any --levels list is either E_VALIDATION up front, or its forecast CSV
    # reads back with the same levels and months and the values at 10 digits
    try:
        levels = cli._parse_levels(",".join(repr(p) for p in percents))
    except ValidationError:
        return
    rng = np.random.default_rng(seed)
    rows = 1 + len(levels)
    values = rng.standard_normal((rows, horizon)) * 10.0 ** rng.integers(-8, 8, (rows, 1))
    months = tuple(add_months(*start, k) for k in range(horizon))
    q = ForecastQuantiles(months=months, median=values[0], levels=levels, bands=values[1:])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fc.csv"
        cli._write_forecast_csv(path, q)
        back = cli._read_forecast_csv(path)
    assert back.levels == levels
    assert back.months == months
    want = np.array([[float(f"{v:.10g}") for v in row] for row in values]).reshape(rows, horizon)
    assert np.array_equal(back.median, want[0])
    assert np.array_equal(back.bands, want[1:])


# ---------------------------------------------------------------------------
# cli.main over mutated argv

_MUTANTS = ["", "nan", "inf", "-1", "0", "\u00e9t\u00e9", "\u0663", str(2**64 + 1), str(2**70)]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    # the bundled CSVs and one parameter file per kind, fitted once
    root = tmp_path_factory.mktemp("fuzz")
    for name in ("dc_2010_2014.csv", "dc_2015_2019.csv"):
        shutil.copy(str(files("crashvol") / "data" / name), root / name)
    train = ["--input", str(root / "dc_2010_2014.csv"),
             "--train-start", "2010-01", "--train-end", "2014-12"]
    for model in ("heston", "arima-garch"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["fit", *train, "--model", model, "--out", str(root / model)]) == 0
    return root


def _fuzz_flags(data, root, command):
    # [flag, value] pairs of a valid call; --paths and --horizon stay small
    model = data.draw(st.sampled_from(list(cli.evaluation.MODEL_IDS)))
    fit = [["--input", str(root / "dc_2010_2014.csv")], ["--train-start", "2010-01"],
           ["--train-end", "2014-12"], ["--model", model],
           ["--orders", data.draw(st.sampled_from(["1,2,2", "0,1,1", "1,1,0,1,1"]))]]
    if model in ("heston", "vasicek"):
        fit += data.draw(st.lists(st.sampled_from(
            [["--rho", "-0.3"], ["--spike-threshold", "0.1"], ["--scheme", "truncate"]]),
            unique_by=lambda f: f[0], max_size=3))
    sim = [["--paths", str(data.draw(st.integers(1, 300)))],
           ["--seed", str(data.draw(st.integers(0, 2**32)))], ["--levels", "5,25,75,95"]]
    if command == "fit":
        return [*fit, ["--out", "out.params"]]
    if command == "forecast":
        params = root / data.draw(st.sampled_from(["heston", "arima-garch"]))
        return [["--params", str(params)], ["--horizon", str(data.draw(st.integers(1, 300)))],
                *sim, ["--out", "out.csv"]]
    test = [["--input", str(root / "dc_2015_2019.csv")], ["--test-start", "2015-01"],
            ["--test-end", data.draw(st.sampled_from(["2015-12", "2019-12"]))]]
    return [*fit, *test, *sim, ["--low", "25"], ["--high", "75"], ["--out", "out.csv"]]


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["fit", "forecast", "backtest"]), data=st.data())
def test_mutated_argv_ends_in_files_or_one_error_line(fuzz_dir, command, data):
    # one value replaced by a hostile one, or one flag given twice: the call
    # either writes its files with exit 0 or prints one E_ line with exit 1
    flags = _fuzz_flags(data, fuzz_dir, command)
    k = data.draw(st.integers(0, len(flags) - 1))
    mutant = data.draw(st.sampled_from([None, *_MUTANTS]))
    if mutant is None:
        flags.insert(k, list(flags[k]))
    else:
        flags[k] = [flags[k][0], mutant]
    argv = [command, *(part for flag in flags for part in flag)]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as m:
        m.chdir(tmp)
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = main(argv)
        except SystemExit as exc:  # argparse's own exit 2 must never escape
            pytest.fail(f"SystemExit({exc.code}) from {argv}")
        written = sorted(os.listdir(tmp))
    err = err.getvalue()
    if rc == 0:
        out = dict(flags)["--out"]
        want = [out, f"{cli._stem(out)}.report.csv"] if command == "backtest" else [out]
        assert set(want) <= set(written), (argv, written)
    else:
        assert rc == 1 and err.count("\n") == 1 and err.startswith("crashvol: E_"), (argv, err)
