"""Parsing and validation of monthly crash/VMT series.

Input files are UTF-8 CSVs with header ``year,month,crashes,vmt_thousands``.
Rows may arrive unsorted; after sorting they must form a gap-free run of
consecutive calendar months. Crash rates are stored as dimensionless
fractions (crashes divided by VMT in thousands), never as percentages.

Every input file is decoded, and every CSV read or written, by the helpers
at the end of this module, which also own the flat ``key = value`` format.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

HEADER = ("year", "month", "crashes", "vmt_thousands")


class CrashvolError(Exception):
    """Base error; `code` is the machine-parsable prefix used by the CLI."""

    code = "E_ERROR"


class ParseError(CrashvolError):
    code = "E_PARSE"


class GapError(CrashvolError):
    code = "E_GAP"


class RangeError(CrashvolError):
    code = "E_RANGE"


class ValidationError(CrashvolError):
    code = "E_VALIDATION"


class AlignmentError(CrashvolError):
    code = "E_ALIGN"


class ConvergenceError(CrashvolError):
    code = "E_CONVERGENCE"

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class InsufficientDataError(CrashvolError):
    code = "E_VALIDATION"


def add_months(year: int, month: int, k: int) -> tuple[int, int]:
    """Shift a (year, month) pair by k calendar months."""
    idx = year * 12 + (month - 1) + k
    return idx // 12, idx % 12 + 1


@dataclass(frozen=True)
class MonthlyObservation:
    year: int
    month: int
    crashes: int
    vmt_thousands: float

    def __post_init__(self):
        if not 1 <= self.month <= 12:
            raise ValidationError(f"month {self.month} outside 1..12 ({self.year})")
        if self.crashes < 0:
            raise ValidationError(f"negative crash count at {self.year}-{self.month:02d}")
        if not math.isfinite(self.vmt_thousands) or self.vmt_thousands <= 0:
            raise ValidationError(f"nonpositive or non-finite VMT at {self.year}-{self.month:02d}")
        if self.crashes > sys.float_info.max or not math.isfinite(self.rate):
            raise ValidationError(f"non-finite crash rate at {self.year}-{self.month:02d}")

    @property
    def rate(self) -> float:
        return self.crashes / self.vmt_thousands


@dataclass(frozen=True)
class MonthlySeries:
    """Gap-free run of monthly observations with derived crash rates."""

    observations: tuple[MonthlyObservation, ...]
    rates: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.observations:
            raise ValidationError("empty series")
        prev = None
        for ob in self.observations:
            if prev is not None:
                expect = add_months(prev.year, prev.month, 1)
                got = (ob.year, ob.month)
                if got != expect:
                    if got == (prev.year, prev.month):
                        raise GapError(f"duplicate month {got[0]}-{got[1]:02d}")
                    raise GapError(f"missing month {expect[0]}-{expect[1]:02d}")
            prev = ob
        rates = np.array([ob.rate for ob in self.observations])
        object.__setattr__(self, "rates", rates)
        rates.flags.writeable = False

    def __len__(self):
        return len(self.observations)

    @property
    def start(self) -> tuple[int, int]:
        return self.observations[0].year, self.observations[0].month

    @property
    def end(self) -> tuple[int, int]:
        return self.observations[-1].year, self.observations[-1].month

    @property
    def months(self) -> list[tuple[int, int]]:
        return [(ob.year, ob.month) for ob in self.observations]

    def index_of(self, year: int, month: int) -> int:
        if not 1 <= month <= 12:
            raise ValidationError(f"month {month} outside 1..12 ({year})")
        i = (year - self.observations[0].year) * 12 + (month - self.observations[0].month)
        if not 0 <= i < len(self.observations):
            raise RangeError(
                f"{year}-{month:02d} outside series span "
                f"{self.start[0]}-{self.start[1]:02d}..{self.end[0]}-{self.end[1]:02d}"
            )
        return i


def parse_monthly_csv(path) -> MonthlySeries:
    """Read a crash/VMT CSV into a validated MonthlySeries."""
    header, rows = _read_csv(path)
    if tuple(header) != HEADER:
        raise ParseError(f"{path}: expected header {','.join(HEADER)}")
    observations = []
    for lineno, row in rows:
        try:
            year, month, crashes, vmt = int(row[0]), int(row[1]), int(row[2]), float(row[3])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        observations.append(MonthlyObservation(year, month, crashes, vmt))
    observations.sort(key=lambda ob: (ob.year, ob.month))
    return MonthlySeries(tuple(observations))


def slice_window(series: MonthlySeries, start: tuple[int, int], end: tuple[int, int]) -> MonthlySeries:
    """Inclusive sub-series between two (year, month) bounds."""
    i = series.index_of(*start)
    j = series.index_of(*end)
    if j < i:
        raise RangeError(f"window start {start} is after end {end}")
    return MonthlySeries(series.observations[i : j + 1])


def merge_series(a: MonthlySeries, b: MonthlySeries) -> MonthlySeries:
    """Union of two overlapping or adjacent series.

    Overlapping months must agree exactly; the result must still be gap-free.
    """
    seen: dict[tuple[int, int], MonthlyObservation] = {}
    for ob in a.observations + b.observations:
        key = (ob.year, ob.month)
        if key in seen and seen[key] != ob:
            raise ValidationError(f"conflicting values for {key[0]}-{key[1]:02d}")
        seen[key] = ob
    return MonthlySeries(tuple(seen[k] for k in sorted(seen)))


# ---------------------------------------------------------------------------
# input files, CSV files and flat key = value files

def _open_input(path) -> io.StringIO:
    """Decode an input file as UTF-8 into a stream read as `open(path, newline="")` would."""
    # OSError (missing file, permissions) is left to the caller's I/O handling
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline="")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{lineno}: not UTF-8 ({exc.reason})") from None


def _read_csv(path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Stripped header cells and (line, fields) data rows of a CSV; blank rows are skipped."""
    reader = csv.reader(_open_input(path))
    try:
        rows = [(reader.line_num, row) for row in reader if any(c.strip() for c in row)]
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: empty file")
    (_, header), *data = rows
    for lineno, row in data:
        if len(row) != len(header):
            raise ParseError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
    if not data:
        raise ParseError(f"{path}: no data rows")
    return [h.strip() for h in header], data


def _write_csv(path, rows) -> None:
    """Write rows as CSV; floats at 10 significant digits, other values with str."""
    text = [[f"{v:.10g}" if isinstance(v, float) else str(v) for v in row] for row in rows]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(text)


def parse_kv_file(path) -> dict[str, str]:
    """Read a flat `key = value` file, ignoring blanks and # comments."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(_open_input(path), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        key, eq, val = (part.strip() for part in text.partition("="))
        if not (key and eq and val):
            raise ValidationError(f"{path}:{lineno}: expected key = value")
        if key in out:
            raise ValidationError(f"{path}:{lineno}: duplicate key {key}")
        out[key] = val
    return out


def write_kv_file(path, pairs) -> None:
    """Write ordered (key, value) pairs as `key = value` lines.

    str and int values are written as they are; any other value is written
    as a float with 12 significant digits, and one that is not finite is a
    ValidationError, as it is when read.
    """

    def text(key, value) -> str:
        if isinstance(value, (str, int)):
            return str(value)
        if not math.isfinite(value):
            raise ValidationError(f"{path}: key {key} is not finite")
        return f"{value:.12g}"

    lines = [f"{k} = {text(k, v)}" for k, v in pairs]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _pop_float(kv: dict, key: str, path) -> float:
    if key not in kv:
        raise ValidationError(f"{path}: missing key {key}")
    try:
        x = float(kv.pop(key))
    except ValueError:
        raise ValidationError(f"{path}: key {key} is not numeric") from None
    if not math.isfinite(x):
        raise ValidationError(f"{path}: key {key} is not finite")
    return x


def _integer(value, name: str, least: int | None = None) -> int:
    """`value` as a plain int (numpy integers too); a float, string or None is a
    ValidationError naming the argument, and so is a number below `least`."""
    if least is not None and isinstance(value, numbers.Real) and value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValidationError(f"{name} must be {bound} ({name} >= {least}), not {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, not {value!r}") from None


def _pop_int(kv: dict, key: str, path) -> int:
    if key not in kv:
        raise ValidationError(f"{path}: missing key {key}")
    try:
        return int(kv.pop(key))
    except ValueError:
        raise ValidationError(f"{path}: key {key} is not an integer") from None


def _pop_start(kv: dict, path) -> tuple[int, int]:
    """Pop a model file's first forecast month, `start_year` and `start_month`."""
    year, month = _pop_int(kv, "start_year", path), _pop_int(kv, "start_month", path)
    if not 1 <= month <= 12:
        raise ValidationError(f"{path}: key start_month {month} outside 1..12")
    return year, month


def _pop_indexed(kv: dict, prefix: str, path) -> list[float]:
    """Pop the floats stored under `prefix`1..`prefix`n, in index order."""
    try:
        idx = sorted(int(k[len(prefix) :]) for k in list(kv) if k.startswith(prefix))
    except ValueError:
        raise ValidationError(f"{path}: malformed {prefix}* key") from None
    if idx != list(range(1, len(idx) + 1)):
        raise ValidationError(f"{path}: {prefix}* indices must run 1..n")
    return [_pop_float(kv, f"{prefix}{i}", path) for i in idx]
