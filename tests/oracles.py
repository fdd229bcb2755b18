"""Reference implementations the tests compare the engine against.

Each is the straightforward form of what the engine now computes faster,
kept here unchanged so that a test can require the same results.
"""

import csv
import math
from datetime import date
from pathlib import Path

import numpy as np

from riskengine.errors import DataError


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


def read_columns(path, date_column: str, value_columns):
    """Read a dated CSV into (value column names, dates, [T, k] values).

    The row-by-row reader ``riskengine.data._read_columns`` replaced.
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


def check_finite_increasing(dates, values: np.ndarray) -> None:
    """The pairwise loop ``riskengine.data._check_finite_increasing`` replaced."""
    if not np.all(np.isfinite(values)):
        raise DataError("non-finite value in series")
    for a, b in zip(dates, dates[1:]):
        if a == b:
            raise DataError(f"duplicate date {b}")
        if a > b:
            raise DataError(f"dates not strictly increasing at {b}")
