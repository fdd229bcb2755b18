"""Return-series ingestion and file output.

CSV loading and price-to-return conversion, plus the two writers that every
output file of the engine goes through: ``write_columns`` for CSV, column by
column, and ``write_json``.

The loader tokenises with :mod:`csv` and parses a block of rows at a time,
column by column: one ``date.fromisoformat`` or ``float`` pass per column.
A block with a blank, ragged, unparseable or non-finite row is parsed again
row by row, which skips the blank rows and reports the first fault in file
order. Only one block of raw fields is held at a time.

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
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import DataError

KIND_RETURN = "return"
KIND_PRICE = "price"
# records parsed per block. A block's strings are what the load holds beyond
# its result: at 256 rows a 3,000 x 20 panel loads within a smaller peak RSS
# than a row-by-row parse, at 1,024 rows within a larger one
_BLOCK_ROWS = 256
# rows formatted per write: one chunk's text is what a write holds beyond
# its columns. write_csv of 10,000 rows takes the same 13-14 ms at 256 to
# 16,384 rows per chunk and in one piece (medians of 25, 2-vCPU Xeon)
_WRITE_ROWS = 4096
# what makes csv's QUOTE_MINIMAL quote a cell (with a CR, see write_columns)
_SPECIAL = ',"\r\n'


def _frozen_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    arr.flags.writeable = False
    return arr


def _ordinals(dates) -> np.ndarray:
    return np.fromiter(map(date.toordinal, dates), np.int64, len(dates))


def _check_finite_increasing(dates, values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise DataError("non-finite value in series")
    steps = np.diff(_ordinals(dates))
    if np.any(steps <= 0):
        at = int(np.argmax(steps <= 0))
        if steps[at] == 0:
            raise DataError(f"duplicate date {dates[at + 1]}")
        raise DataError(f"dates not strictly increasing at {dates[at + 1]}")


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


def _parse_rows(rows, first_row: int, width: int, d_idx: int, v_idx):
    """Parse records one at a time, numbering them from ``first_row``.

    Blank and whitespace-only records are skipped; the first fault raises
    with its row number.
    """
    dates, values = [], []
    for row_no, row in enumerate(rows, start=first_row):
        if not "".join(row).strip():  # blank or whitespace-only row
            continue
        if len(row) != width:
            raise DataError(f"row {row_no}: expected {width} fields")
        dates.append(_parse_date(row[d_idx], row_no))
        values.append([_parse_value(row[i], row_no) for i in v_idx])
    return dates, np.array(values, dtype=float).reshape(len(dates), len(v_idx))


def _parse_block(rows, first_row: int, width: int, d_idx: int, v_idx):
    """Parse a block of records column by column into (dates, [n, k] values).

    The column-wise parse makes the same ``date.fromisoformat`` and ``float``
    calls as :func:`_parse_rows`. A block it cannot take whole (a blank or
    ragged record, an unparseable or non-finite field) goes to
    :func:`_parse_rows`, which skips the blanks or raises the block's first
    fault.
    """
    if set(map(len, rows)) == {width}:
        columns = tuple(zip(*rows))
        try:
            dates = list(map(date.fromisoformat,
                             map(str.strip, columns[d_idx])))
            values = np.column_stack([
                np.fromiter(map(float, columns[i]), float, len(rows))
                for i in v_idx])
        except ValueError:
            pass
        else:
            if np.isfinite(values).all():
                return dates, values
    return _parse_rows(rows, first_row, width, d_idx, v_idx)


def _blocks(reader):
    """Successive lists of up to ``_BLOCK_ROWS`` records from ``reader``.

    On a read error (undecodable bytes, a field over the csv limit) the
    records read before it come out as a last list and the error is raised
    after it, so that a fault in one of those records is still reported
    first.
    """
    while True:
        block = []
        try:
            for row in islice(reader, _BLOCK_ROWS):
                block.append(row)
        except (UnicodeDecodeError, csv.Error):
            yield block
            raise
        if block:
            yield block
        if len(block) < _BLOCK_ROWS:
            return


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
            dates, values, row_no = [], [], 2
            for block in _blocks(reader):
                block_dates, block_values = _parse_block(
                    block, row_no, len(header), d_idx, v_idx)
                dates += block_dates
                values.append(block_values)
                row_no += len(block)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: unreadable CSV: {exc}") from None
    if not dates:
        raise DataError(f"{path}: no observations")
    values = np.concatenate(values)
    ordinals = _ordinals(dates)
    if np.any(ordinals[1:] < ordinals[:-1]):
        # stable, like sorting the rows by date: duplicates keep file order
        order = np.argsort(ordinals, kind="stable")
        dates = [dates[i] for i in order.tolist()]
        values = values[order]
    names = tuple(header[i] for i in v_idx)
    return names, tuple(dates), values


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


def _quoted(cells: list, alone: bool) -> list:
    """``cells`` as csv's QUOTE_MINIMAL writes them, quoted only if needed.

    A cell holding a comma, a quote, CR or LF is put in quotes, its quotes
    doubled; so is an empty cell of a one-column table, which would read
    back as a blank row. A list with no such cell comes back as it is.
    """
    text = "".join(cells)
    if not (any(c in text for c in _SPECIAL) or alone and "" in cells):
        return cells
    return ['"' + cell.replace('"', '""') + '"'
            if any(c in cell for c in _SPECIAL) or alone and not cell else cell
            for cell in cells]


def write_columns(path, header, columns) -> None:
    """Write a header and equal-length columns as UTF-8 CSV with LF line ends.

    Each cell is written as its ``str``, which for a float is the ``repr``
    that a load recovers exactly; pass arrays as ``.tolist()``. Quoting is
    csv's QUOTE_MINIMAL, except that a CR is quoted like a LF (Python 3.11's
    ``csv.writer`` leaves it bare, and ``csv.reader`` then splits the row).
    Rows are formatted and written ``_WRITE_ROWS`` at a time.
    """
    alone = len(header) == 1
    cells = [map(str, column) for column in columns]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_quoted(list(map(str, header)), alone)) + "\n")
        while True:
            chunk = [_quoted(list(islice(col, _WRITE_ROWS)), alone)
                     for col in cells]
            lines = list(map(",".join, zip(*chunk, strict=True)))
            if not lines:
                return
            lines.append("")  # the last line's end
            fh.write("\n".join(lines))


def write_json(path, payload) -> None:
    """Write a JSON document with sorted keys, two-space indent, final newline."""
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(series: ReturnSeries, path) -> None:
    """Write a series back out in the same two-column layout `load_csv` reads."""
    write_columns(path, ["date", series.label or "return"],
                  [map(date.isoformat, series.dates), series.returns.tolist()])


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
