"""Print a sha256 digest of every file the CLI writes over a fixed run list.

Usage: python scripts/output_digests.py

Runs `crashvol.cli.main` in-process from the source tree next to this
script: diagnose of the training file, of the holdout file and of both
merged (stems without dots, which older trees cut at the dot); fit of all
four models; forecast from each fit file (seed 7); evaluate of each
forecast, and of the heston forecast once more under the model id
`heston,v2`; backtest of all four models over
seeds 1-10 at 5000 paths; one `--scheme truncate` backtest per simulator;
one heston forecast and one heston backtest at non-default `--levels`,
`--low` and `--high`; an arima and an arima-garch forecast and backtest at
`--levels` 0.1,2.5,10,50,90,97.5,99.9, which pin the Gaussian bands' z
values from the centre out to both tails; a heston and a vasicek forecast
at seed 2**32 and at seed 10**30, which `PCG64(seed)` seeds from two and
from four 32-bit words of SeedSequence entropy, so they pin the seeding of
multi-word seeds; an arima and an arima-garch fit and backtest at each
of `--orders` 2,1,1,1,0, 0,1,3,1,2, 1,1,0 and 3,1,0,3,2; a heston and a vasicek
forecast at `--paths` 1, 4999, 257, 20000, 3999 and 4000 (one path, the odd
branch of the median, a few hundred paths, the size of the benchmark's
simulations, and either side of the path count from which a worker thread
draws the next month's normals); a heston and a vasicek forecast (seed 7,
257 paths) at `--horizon` 1, 11 and 13, on either side of the 12 months of
base rates a forecast keeps for the spike window; a heston and a vasicek
forecast (seed 7, 4000 paths) at `--horizon` 1 and 2, where the caller,
sharing the draws with the worker thread, looks past the last month for
rows to draw; a heston and a vasicek
forecast (seed 7) from a copy of the fit file with a `dt = 0.0833333333333` line
appended, as files written before monthly steps were fixed carry, which
must give the bytes of the forecast from the fit file itself.
Prints one `<sha256>  <file>` line per output, then `<sha256>  ALL`, the
digest of those lines. Two trees that print the same last line wrote the
same bytes. Exits 1 if any run fails or a legacy forecast differs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from crashvol import cli  # noqa: E402

DATA = Path(__file__).resolve().parents[1] / "src" / "crashvol" / "data"
TRAIN_CSV = str(DATA / "dc_2010_2014.csv")
TEST_CSV = str(DATA / "dc_2015_2019.csv")
MODELS = ("heston", "vasicek", "arima", "arima-garch")
TRAIN = ["--train-start", "2010-01", "--train-end", "2014-12"]
TEST = ["--test-start", "2015-01", "--test-end", "2019-12"]
# forecasts that must equal another forecast of the list, byte for byte
SAME = {f"{model}.legacy.fc.csv": f"{model}.fc.csv" for model in ("heston", "vasicek")}


def runs(w: str):
    yield ["diagnose", "--input", TRAIN_CSV, "--out", f"{w}/diag"]
    yield ["diagnose", "--input", TEST_CSV, "--out", f"{w}/diag_holdout"]
    yield ["diagnose", "--input", TRAIN_CSV, "--input", TEST_CSV, "--out", f"{w}/diag_merged"]
    for model in MODELS:
        yield ["fit", "--input", TRAIN_CSV, *TRAIN, "--model", model,
               "--out", f"{w}/{model}.params"]
    for model in MODELS:
        yield ["forecast", "--params", f"{w}/{model}.params", "--seed", "7",
               "--out", f"{w}/{model}.fc.csv"]
    for model in MODELS:
        yield ["evaluate", "--forecast", f"{w}/{model}.fc.csv", "--observed", TEST_CSV,
               "--model-id", model, "--out", f"{w}/{model}.eval.csv"]
    # a model id with a comma pins the quoting of the error report
    yield ["evaluate", "--forecast", f"{w}/heston.fc.csv", "--observed", TEST_CSV,
           "--model-id", "heston,v2", "--out", f"{w}/heston.quoted.eval.csv"]
    backtest = ["backtest", "--input", TRAIN_CSV, "--input", TEST_CSV, *TRAIN, *TEST,
                "--paths", "5000"]
    for model in MODELS:
        for seed in range(1, 11):
            yield [*backtest, "--model", model, "--seed", str(seed),
                   "--out", f"{w}/bt.{model}.{seed}.csv"]
    for model in ("heston", "vasicek"):
        yield [*backtest, "--model", model, "--seed", "1", "--scheme", "truncate",
               "--out", f"{w}/bt.{model}.truncate.csv"]
    levels = ["--levels", "2.5,10,50,90,97.5"]
    yield ["forecast", "--params", f"{w}/heston.params", "--seed", "7", *levels,
           "--out", f"{w}/heston.levels.fc.csv"]
    yield [*backtest, "--model", "heston", "--seed", "1", *levels, "--low", "10", "--high", "90",
           "--out", f"{w}/bt.heston.levels.csv"]
    tails = ["--levels", "0.1,2.5,10,50,90,97.5,99.9"]
    for model in ("arima", "arima-garch"):
        yield ["forecast", "--params", f"{w}/{model}.params", *tails,
               "--out", f"{w}/{model}.levels.fc.csv"]
        yield [*backtest, "--model", model, *tails, "--low", "2.5", "--high", "97.5",
               "--out", f"{w}/bt.{model}.levels.csv"]
    for seed in (2**32, 10**30):
        for model in ("heston", "vasicek"):
            yield ["forecast", "--params", f"{w}/{model}.params", "--seed", str(seed),
                   "--out", f"{w}/{model}.seed{seed}.fc.csv"]
    # orders off the default 1,2,2 / 2,1 path: one MA lag and no GARCH lag,
    # three MA lags and two GARCH lags, no MA filter at all, three AR lags and
    # three ARCH lags
    for orders in ("2,1,1,1,0", "0,1,3,1,2", "1,1,0", "3,1,0,3,2"):
        for model in ("arima", "arima-garch"):
            name = f"{model}.{orders.replace(',', '')}"
            yield ["fit", "--input", TRAIN_CSV, *TRAIN, "--model", model, "--orders", orders,
                   "--out", f"{w}/{name}.params"]
            yield [*backtest, "--model", model, "--orders", orders, "--out", f"{w}/bt.{name}.csv"]
    for paths in ("1", "4999", "257", "20000", "3999", "4000"):
        for model in ("heston", "vasicek"):
            yield ["forecast", "--params", f"{w}/{model}.params", "--seed", "7", "--paths", paths,
                   "--out", f"{w}/{model}.paths{paths}.fc.csv"]
    # horizons short of, inside and just past the 12 months of base rates
    # that a forecast keeps for the spike window
    for horizon in ("1", "11", "13"):
        for model in ("heston", "vasicek"):
            yield ["forecast", "--params", f"{w}/{model}.params", "--seed", "7", "--paths", "257",
                   "--horizon", horizon, "--out", f"{w}/{model}.horizon{horizon}.fc.csv"]
    # the shortest horizons that draw on the worker thread: the caller looks
    # past month 0, then past the last month, for rows to draw
    for horizon in ("1", "2"):
        for model in ("heston", "vasicek"):
            yield ["forecast", "--params", f"{w}/{model}.params", "--seed", "7", "--paths", "4000",
                   "--horizon", horizon, "--out", f"{w}/{model}.paths4000.horizon{horizon}.fc.csv"]
    # written here, once the fits above have run: main runs each argv before
    # asking for the next
    for model in ("heston", "vasicek"):
        fitted = Path(w, f"{model}.params").read_text().splitlines()
        lines = [line for line in fitted if not line.startswith("dt =")] + ["dt = 0.0833333333333"]
        Path(w, f"{model}.legacy.params").write_text("\n".join(lines) + "\n")
        yield ["forecast", "--params", f"{w}/{model}.legacy.params", "--seed", "7",
               "--out", f"{w}/{model}.legacy.fc.csv"]


def main() -> int:
    warnings.simplefilter("ignore")
    with tempfile.TemporaryDirectory() as tmp:
        for argv in runs(tmp):
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(argv)
            if status != 0:
                print(f"failed: {' '.join(argv)}", file=sys.stderr)
                return 1
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(Path(tmp).iterdir())}
    lines = [f"{digest}  {name}" for name, digest in digests.items()]
    print("\n".join(lines))
    for name, other in SAME.items():
        if digests[name] != digests[other]:
            print(f"differs: {name} from {other}", file=sys.stderr)
            return 1
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"{total}  ALL")
    print(f"{len(lines)} files", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
