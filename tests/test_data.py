import csv
import math
import tempfile
import tracemalloc
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import window
from riskengine import data
from riskengine.data import (
    MultiSeries,
    ReturnSeries,
    load_csv,
    load_multi_csv,
    to_log_returns,
    write_csv,
    write_rows,
)
from riskengine.errors import DataError


def _write(tmp_path, text, name="input.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _series(values, start=1, label="r", kind="return"):
    dates = [date.fromordinal(738000 + start + i) for i in range(len(values))]
    return ReturnSeries(dates=dates, returns=np.asarray(values, float),
                        label=label, kind=kind)


class TestLoadCsv:
    def test_basic_rows(self, tmp_path):
        path = _write(tmp_path, "date,return\n2005-11-01,0.002992\n2005-11-02,0.010403\n")
        series = load_csv(path)
        assert len(series) == 2
        assert series.dates == (date(2005, 11, 1), date(2005, 11, 2))
        assert series.returns.tolist() == [0.002992, 0.010403]

    def test_empty_data_section(self, tmp_path):
        path = _write(tmp_path, "date,return\n")
        with pytest.raises(DataError, match="no observations"):
            load_csv(path)

    def test_shuffled_rows_match_sorted_file(self, tmp_path):
        rng = np.random.default_rng(11)
        dates = [date.fromordinal(730000 + i) for i in range(50)]
        values = rng.normal(size=50)
        rows = [f"{d.isoformat()},{float(v)!r}" for d, v in zip(dates, values)]
        sorted_path = _write(tmp_path, "date,return\n" + "\n".join(rows) + "\n", "a.csv")
        shuffled = rows[:]
        rng.shuffle(shuffled)
        shuffled_path = _write(tmp_path, "date,return\n" + "\n".join(shuffled) + "\n", "b.csv")
        a = load_csv(sorted_path)
        b = load_csv(shuffled_path)
        assert a.dates == b.dates
        assert a.returns.tolist() == b.returns.tolist()

    def test_utf8_bom_loads_same_series(self, tmp_path):
        text = "date,return\n2005-11-01,0.002992\n2005-11-02,0.010403\n"
        plain = load_csv(_write(tmp_path, text, "plain.csv"))
        bom_path = tmp_path / "bom.csv"
        bom_path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        bom = load_csv(bom_path)
        assert bom.dates == plain.dates
        assert bom.returns.tolist() == plain.returns.tolist()

    def test_missing_column(self, tmp_path):
        path = _write(tmp_path, "date,value\n2020-01-01,1.0\n")
        with pytest.raises(DataError, match="missing column 'return'"):
            load_csv(path)

    def test_duplicate_date(self, tmp_path):
        path = _write(tmp_path, "date,return\n2020-01-01,1.0\n2020-01-01,2.0\n")
        with pytest.raises(DataError, match="duplicate date 2020-01-01"):
            load_csv(path)

    def test_unparseable_number_names_row(self, tmp_path):
        path = _write(tmp_path, "date,return\n2020-01-01,1.0\n2020-01-02,oops\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "absent.csv")

    def test_short_row_names_row(self, tmp_path):
        # every non-blank row must have the header's field count, even when
        # the columns load_csv parses are present
        path = _write(tmp_path, "date,return,note\n2020-01-01,1.0,a\n"
                                "2020-01-02,2.0\n")
        with pytest.raises(DataError, match="row 3: expected 3 fields"):
            load_csv(path)

    def test_blank_and_whitespace_rows_skipped(self, tmp_path):
        path = _write(tmp_path, "date,return\n2020-01-01,1.0\n\n , \n"
                                "2020-01-02,2.0\n")
        assert load_csv(path).returns.tolist() == [1.0, 2.0]

    def test_text_column_beside_return_loads(self, tmp_path):
        path = _write(tmp_path, "date,ticker,return\n2020-01-02,ABC,0.5\n"
                                "2020-01-01,ABC,0.25\n")
        series = load_csv(path)
        assert series.returns.tolist() == [0.25, 0.5]

    def test_field_over_csv_limit_is_data_error(self, tmp_path):
        path = _write(tmp_path, "date,return\n2020-01-01," + "1" * 140_000 + "\n")
        with pytest.raises(DataError, match="field larger than field limit"):
            load_csv(path)

    @pytest.mark.parametrize("fault", [b"1" * 140_000, b"\xff0.2"],
                             ids=["oversized-field", "bad-byte"])
    def test_row_fault_before_read_error_in_its_block_wins(self, tmp_path,
                                                          fault):
        # the reader raises at the oversized field, the decoder at the 8 KiB
        # chunk that holds the bad byte: both lie past row 3 but in its block
        rows = [f"{date.fromordinal(730000 + i).isoformat()},{i / 7!r},"
                + "x" * 20 for i in range(250)]
        rows[1] = "2000-01-01,oops,x"
        path = tmp_path / "late.csv"
        path.write_bytes(("date,return,note\n" + "\n".join(rows)).encode()
                         + b"\n2020-01-01," + fault + b",x\n")
        with pytest.raises(DataError,
                           match=r"^row 3: unparseable number 'oops'$"):
            load_csv(path)

    def test_undecodable_bytes_are_data_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"date,return\n2020-01-01,0.1\n2020-01-02,\xff0.2\n")
        with pytest.raises(DataError, match="can't decode"):
            load_csv(path)

    def test_price_kind_recorded(self, tmp_path):
        path = _write(tmp_path, "date,close\n2020-01-01,100.0\n2020-01-02,101.0\n")
        series = load_csv(path, value_column="close", kind="price")
        assert series.kind == "price"
        assert series.returns.tolist() == [100.0, 101.0]

    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(3)
        original = _series(rng.normal(scale=0.01, size=200))
        out = tmp_path / "out.csv"
        write_csv(original, out)
        reloaded = load_csv(out, value_column="r")
        assert reloaded.dates == original.dates
        assert reloaded.returns.tolist() == original.returns.tolist()


class TestLogReturns:
    def test_flat_prices(self):
        prices = _series([100.0, 100.0], kind="price")
        assert to_log_returns(prices).returns.tolist() == [0.0]

    def test_exact_exponential_step(self):
        prices = _series([100.0, 100.0 * math.exp(0.01)], kind="price")
        out = to_log_returns(prices)
        assert out.returns[0] == pytest.approx(0.01, abs=1e-15)
        assert out.dates == prices.dates[1:]

    def test_matches_ln_ratio_oracle(self):
        rng = np.random.default_rng(5)
        values = np.exp(rng.normal(size=300).cumsum() * 0.01) * 50.0
        prices = _series(values, kind="price")
        out = to_log_returns(prices)
        oracle = [math.log(values[i + 1] / values[i]) for i in range(len(values) - 1)]
        assert np.allclose(out.returns, oracle, rtol=0, atol=1e-15)

    def test_nonpositive_price(self):
        prices = _series([100.0, -1.0, 50.0], kind="price")
        with pytest.raises(DataError, match="nonpositive price"):
            to_log_returns(prices)

    def test_wrong_kind_rejected(self):
        with pytest.raises(DataError, match="kind"):
            to_log_returns(_series([0.01, 0.02]))


class TestWindow:
    def test_by_definition(self):
        series = _series([10.0, 11.0, 12.0, 13.0, 14.0])
        assert window(series, 3, 3).tolist() == [10.0, 11.0, 12.0]

    def test_boundary_t_equals_m(self):
        series = _series(list(range(5)))
        assert window(series, 3, 3).tolist() == [0.0, 1.0, 2.0]

    def test_matches_slice_oracle(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=400)
        series = _series(values)
        for _ in range(50):
            m = int(rng.integers(1, 100))
            t = int(rng.integers(m, 400))
            assert window(series, t, m).tolist() == values[t - m:t].tolist()

    def test_too_early(self):
        series = _series(list(range(10)))
        with pytest.raises(DataError):
            window(series, 2, 3)

    def test_never_contains_current_observation(self):
        values = np.zeros(50)
        sentinel = 123.456
        for t in range(5, 50):
            planted = values.copy()
            planted[t] = sentinel
            got = window(_series(planted), t, 5)
            assert sentinel not in got


class TestSeriesInvariants:
    def test_rejects_unsorted_dates(self):
        dates = [date(2020, 1, 2), date(2020, 1, 1)]
        with pytest.raises(DataError, match="strictly increasing"):
            ReturnSeries(dates=dates, returns=np.array([0.1, 0.2]))

    def test_rejects_duplicate_dates(self):
        dates = [date(2020, 1, 1), date(2020, 1, 2), date(2020, 1, 2)]
        with pytest.raises(DataError, match="^duplicate date 2020-01-02$"):
            ReturnSeries(dates=dates, returns=np.array([0.1, 0.2, 0.3]))
        with pytest.raises(DataError, match="^duplicate date 2020-01-02$"):
            MultiSeries(dates=dates, names=["a"], values=np.zeros((3, 1)))

    def test_rejects_nan(self):
        dates = [date(2020, 1, 1), date(2020, 1, 2)]
        with pytest.raises(DataError, match="non-finite"):
            ReturnSeries(dates=dates, returns=np.array([0.1, np.nan]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError):
            ReturnSeries(dates=[date(2020, 1, 1)], returns=np.array([0.1, 0.2]))

    def test_immutable_values(self):
        series = _series([0.1, 0.2])
        with pytest.raises(ValueError):
            series.returns[0] = 9.9


class TestMultiCsv:
    def test_loads_all_columns(self, tmp_path):
        path = _write(tmp_path, "date,a,b\n2020-01-02,0.1,0.2\n2020-01-01,0.3,0.4\n")
        multi = load_multi_csv(path)
        assert multi.names == ("a", "b")
        # sorted by date on load
        assert multi.values.tolist() == [[0.3, 0.4], [0.1, 0.2]]

    def test_utf8_bom_loads_same_panel(self, tmp_path):
        text = "date,a,b\n2020-01-02,0.1,0.2\n2020-01-01,0.3,0.4\n"
        plain = load_multi_csv(_write(tmp_path, text, "plain.csv"))
        bom_path = tmp_path / "bom.csv"
        bom_path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        bom = load_multi_csv(bom_path)
        assert bom.names == plain.names
        assert bom.values.tolist() == plain.values.tolist()

    def test_missing_date_column(self, tmp_path):
        path = _write(tmp_path, "when,a,b\n2020-01-01,0.1,0.2\n")
        with pytest.raises(DataError, match="missing column 'date'"):
            load_multi_csv(path)

    @pytest.mark.parametrize("row", ["2020-01-02,0.5", "2020-01-02,0.5,0.6,0.7"])
    def test_ragged_row_names_row(self, tmp_path, row):
        path = _write(tmp_path, f"date,a,b\n2020-01-01,0.1,0.2\n{row}\n")
        with pytest.raises(DataError, match="row 3: expected 3 fields"):
            load_multi_csv(path)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=50),
       st.integers(min_value=1, max_value=700_000))
def test_write_rows_round_trips_through_load_csv(tmp_path_factory, values, start):
    path = tmp_path_factory.mktemp("rows") / "r.csv"
    dates = [date.fromordinal(start + i) for i in range(len(values))]
    write_rows(path, ["date", "return"],
               zip((d.isoformat() for d in dates), values))
    series = load_csv(path)
    assert series.dates == tuple(dates)
    assert series.returns.tolist() == values


# values of a single field that stress the parse; the oracle decides which
# of them load
_ODD_DATES = ["2020-02-30", "n/a", "", " ", "2020/01/02", "20200102"]
_ODD_VALUES = ["1_000", " 1.5 ", '"0.25"', "+.5", "1e999", "infinity", "-inf",
               "nan", "NaN", "", " ", "1.2.3", "0x10", "n/a"]
_NOTES = ["x", '"a, b"', '"two\nlines"', '""']
_FAULTS = ["blank", "spaces", "commas", "space-fields", "short", "long",
           "date", "padded-date", "quoted-date", "swap",
           "big-field", "bad-byte"] + ["value", "duplicate"] * 3


@st.composite
def _reader_case(draw):
    """A CSV file over several parse blocks, with faults near block edges."""
    block = data._BLOCK_ROWS
    n = draw(st.one_of(st.integers(min_value=0, max_value=3 * block + 5),
                       st.integers(min_value=block + 1, max_value=3 * block + 5)))
    header = draw(st.permutations(["date", "a", "b"]))
    if draw(st.booleans()):
        header.insert(draw(st.integers(0, 3)), "note")
    width = len(header)
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    scale = 10.0 ** draw(st.integers(min_value=-300, max_value=300))
    records = []
    for i in range(n):
        fields = {"date": date.fromordinal(735000 + i).isoformat(),
                  "a": repr(float(rng.standard_normal() * scale)),
                  "b": repr(float(rng.standard_normal())),
                  "note": _NOTES[int(rng.integers(len(_NOTES)))]}
        records.append([fields[col] for col in header])
    if draw(st.integers(0, 4)) == 0:
        rng.shuffle(records)
    # a text column only loads when it is not parsed
    value_columns = draw(st.sampled_from(
        [["a"], ["b", "a"]] + ([] if "note" in header else [None])))
    parsed = value_columns or ["a", "b"]
    inserted = {"blank": [""], "spaces": ["  "], "commas": [""] * width,
                "space-fields": [" "] * width}
    edge = st.builds(lambda k, d: k * block + d,
                     st.integers(1, 3), st.integers(-2, 1))
    bad_byte_at = None
    for fault in draw(st.lists(st.sampled_from(_FAULTS), max_size=4)):
        at = min(draw(st.one_of(edge, st.integers(0, n))), len(records))
        if fault in inserted:
            records.insert(at, list(inserted[fault]))
            continue
        if fault == "bad-byte":
            bad_byte_at = at
            continue
        if not records:
            continue
        at = min(at, len(records) - 1)
        row, day = records[at], header.index("date")
        if fault == "short":
            row.pop()
        elif fault == "long":
            row.append("0.5")
        elif len(row) < width:
            continue
        elif fault == "date":
            row[day] = draw(st.sampled_from(_ODD_DATES))
        elif fault == "padded-date":
            row[day] = f" {row[day]} "
        elif fault == "quoted-date":
            row[day] = f'"{row[day]}"'
        elif fault == "value":
            row[header.index(draw(st.sampled_from(parsed)))] = draw(
                st.sampled_from(_ODD_VALUES))
        elif fault == "big-field":
            row[header.index(draw(st.sampled_from(parsed)))] = (
                "1" * (csv.field_size_limit() + 1))
        elif fault == "swap":
            other = draw(st.integers(0, len(records) - 1))
            records[at], records[other] = records[other], records[at]
        elif fault == "duplicate":  # same date, other values
            twin = list(row)
            for col in ("a", "b"):
                twin[header.index(col)] = repr(float(rng.standard_normal()))
            records.insert(draw(st.integers(0, len(records))), twin)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(header)] + [",".join(r) for r in records]
    encoded = [(line + eol).encode("utf-8") for line in lines]
    if bad_byte_at is not None:
        encoded[1 + bad_byte_at:1 + bad_byte_at] = [b"\xff"]
    raw = b"".join(encoded)
    if draw(st.booleans()):
        raw = b"\xef\xbb\xbf" + raw
    return raw, value_columns


def _read_or_error(reader, path, value_columns):
    try:
        names, dates, values = reader(path, "date", value_columns)
    except DataError as exc:
        return str(exc)
    return names, dates, values.shape, np.ascontiguousarray(values).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_reader_case())
def test_block_reader_matches_row_by_row_oracle(case):
    # same names, dates and value bytes, or the same first fault in file order
    raw, value_columns = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_bytes(raw)
        got = _read_or_error(data._read_columns, path, value_columns)
        assert got == _read_or_error(oracles.read_columns, path, value_columns)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 6), max_size=12),
       st.lists(st.sampled_from([0.5, -1.0, np.inf, np.nan]), max_size=12))
def test_date_and_value_check_matches_pairwise_oracle(days, values):
    dates = [date.fromordinal(738000 + d) for d in days]
    values = np.array(values[:len(dates)] + [0.0] * (len(dates) - len(values)))
    messages = []
    for check in (data._check_finite_increasing,
                  oracles.check_finite_increasing):
        try:
            check(dates, values)
            messages.append(None)
        except DataError as exc:
            messages.append(str(exc))
    assert messages[0] == messages[1]


def test_panel_load_peaks_no_higher_than_row_by_row_oracle(tmp_path):
    # a whole-file columnar parse holds every field as a string at once
    rng = np.random.default_rng(4)
    path = tmp_path / "panel.csv"
    write_rows(path, ["date"] + [f"s{j:02d}" for j in range(20)],
               ([date.fromordinal(730000 + i).isoformat()] + row
                for i, row in enumerate(rng.standard_normal((3000, 20)).tolist())))
    peaks = []
    for load in (load_multi_csv,
                 lambda p: oracles.read_columns(p, "date", None)):
        tracemalloc.start()
        try:
            load(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]
