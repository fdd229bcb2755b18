"""Return-series ingestion and file output.

CSV loading, price-to-return conversion and windows, plus the CSV and JSON
writers that every output file of the engine goes through.

All downstream analytics consume :class:`ReturnSeries` (univariate) or
:class:`MultiSeries` (one date index, several named columns). Both are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .errors import DataError

KIND_RETURN = "return"
KIND_PRICE = "price"


def _frozen_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    arr.flags.writeable = False
    return arr


def _check_finite_increasing(dates, values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise DataError("non-finite value in series")
    for a, b in zip(dates, dates[1:]):
        if a == b:
            raise DataError(f"duplicate date {b}")
        if a > b:
            raise DataError(f"dates not strictly increasing at {b}")


@dataclass(frozen=True)
class ReturnSeries:
    """Dated univariate observations, either returns or raw prices.

    Dates must be strictly increasing and values finite; violations raise
    :class:`DataError` at construction time.
    """

    dates: tuple[date, ...]
    returns: np.ndarray
    label: str = ""
    kind: str = KIND_RETURN

    def __post_init__(self):
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "returns", _frozen_array(self.returns))
        if len(self.dates) != len(self.returns):
            raise DataError(
                f"{len(self.dates)} dates vs {len(self.returns)} values"
            )
        _check_finite_increasing(self.dates, self.returns)
        if self.kind not in (KIND_RETURN, KIND_PRICE):
            raise DataError(f"unknown series kind {self.kind!r}")

    def __len__(self) -> int:
        return len(self.returns)


@dataclass(frozen=True)
class MultiSeries:
    """Several named series sharing one date index (columns of a [T, N] array)."""

    dates: tuple[date, ...]
    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "values", _frozen_array(self.values))
        if self.values.ndim != 2:
            raise DataError("values must be a 2-D array [T, N]")
        if self.values.shape != (len(self.dates), len(self.names)):
            raise DataError(
                f"shape {self.values.shape} does not match "
                f"{len(self.dates)} dates x {len(self.names)} names"
            )
        _check_finite_increasing(self.dates, self.values)

    def __len__(self) -> int:
        return len(self.dates)


def _parse_date(text: str, row_no: int) -> date:
    try:
        return date.fromisoformat(text.strip())
    except ValueError:
        raise DataError(f"row {row_no}: unparseable date {text!r}") from None


def _parse_value(text: str, row_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"row {row_no}: unparseable number {text!r}") from None
    if not math.isfinite(value):
        raise DataError(f"row {row_no}: non-finite value {text!r}")
    return value


def _read_columns(path, date_column: str, value_columns):
    """Read a dated CSV into (value column names, dates, [T, k] values).

    ``value_columns`` names the columns to parse; None means every column but
    the date. Other columns are only counted. Rows come back sorted by date;
    the series constructors reject duplicate dates.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such file: {path}")
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise DataError(
                    f"{path}: empty file, header row required") from None
            for col in [date_column, *(value_columns or ())]:
                if col not in header:
                    raise DataError(f"{path}: missing column {col!r}")
            d_idx = header.index(date_column)
            if value_columns is None:
                v_idx = [i for i in range(len(header)) if i != d_idx]
                if not v_idx:
                    raise DataError(f"{path}: no value columns")
            else:
                v_idx = [header.index(col) for col in value_columns]
            rows = []
            for row_no, row in enumerate(reader, start=2):
                if not "".join(row).strip():  # blank or whitespace-only row
                    continue
                if len(row) != len(header):
                    raise DataError(
                        f"row {row_no}: expected {len(header)} fields")
                when = _parse_date(row[d_idx], row_no)
                rows.append(
                    (when, [_parse_value(row[i], row_no) for i in v_idx]))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: unreadable CSV: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no observations")
    rows.sort(key=lambda item: item[0])
    dates = tuple(r[0] for r in rows)
    names = tuple(header[i] for i in v_idx)
    return names, dates, np.array([r[1] for r in rows], dtype=float)


def load_csv(path, date_column: str = "date", value_column: str = "return",
             kind: str = KIND_RETURN) -> ReturnSeries:
    """Load one dated value column from a CSV file.

    Rows are sorted by date on load; duplicate dates are rejected. When
    ``kind`` is ``"price"`` the values are kept as-is and the kind is
    recorded for a later :func:`to_log_returns` conversion.
    """
    _, dates, values = _read_columns(path, date_column, [value_column])
    return ReturnSeries(dates=dates, returns=values[:, 0], label=value_column,
                        kind=kind)


def load_multi_csv(path, date_column: str = "date") -> MultiSeries:
    """Load every non-date column of a CSV file as one named series."""
    names, dates, values = _read_columns(path, date_column, None)
    return MultiSeries(dates=dates, names=names, values=values)


def write_rows(path, header, rows) -> None:
    """Write a header and rows as UTF-8 CSV with LF line ends.

    Floats are written with ``repr``, so a load recovers them exactly;
    convert arrays with ``.tolist()``.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload) -> None:
    """Write a JSON document with sorted keys, two-space indent, final newline."""
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(series: ReturnSeries, path) -> None:
    """Write a series back out in the same two-column layout `load_csv` reads."""
    write_rows(path, ["date", series.label or "return"],
               zip((d.isoformat() for d in series.dates),
                   series.returns.tolist()))


def to_log_returns(prices: ReturnSeries) -> ReturnSeries:
    """Convert a price series to log returns ln(P[t]/P[t-1]).

    The output is one observation shorter and stamped with the later date of
    each pair. Multi-day aggregation elsewhere assumes this log convention
    (sums of log returns are exact cumulative returns).
    """
    if prices.kind != KIND_PRICE:
        raise DataError(f"expected a price series, got kind={prices.kind!r}")
    if len(prices) < 2:
        raise DataError("need at least two prices to form a return")
    values = prices.returns
    if np.any(values <= 0.0):
        bad = prices.dates[int(np.argmax(values <= 0.0))]
        raise DataError(f"nonpositive price at {bad.isoformat()}")
    rets = np.diff(np.log(values))
    return ReturnSeries(
        dates=prices.dates[1:],
        returns=rets,
        label=prices.label,
        kind=KIND_RETURN,
    )


def window(series: ReturnSeries, t: int, m: int) -> np.ndarray:
    """The m observations strictly before index t (indices t-m .. t-1)."""
    if m < 1:
        raise DataError(f"window length must be positive, got {m}")
    if t < m:
        raise DataError(f"index {t} has no length-{m} history")
    if t > len(series):
        raise DataError(f"index {t} beyond series of length {len(series)}")
    return series.returns[t - m:t].copy()
