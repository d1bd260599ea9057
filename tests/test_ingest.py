import csv
import io
from datetime import datetime
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amlprofiler import ingest
from amlprofiler.ingest import (
    TRANSACTION_FIELDS,
    ColumnMapping,
    ConfigError,
    FilterPolicy,
    FilterStats,
    RowError,
    TooManyRowErrors,
    TransactionChunk,
    TransactionReader,
    TransactionRecord,
    Window,
    filter_insignificant,
    format_amount,
    parse_amount_cents,
    parse_customers,
    _parse_row,
    write_transactions,
)

HEADER = "customer_id,account_id,timestamp,amount,direction,service_code,txn_type_code,counterparty_bank\n"
WINDOW = Window(datetime(2014, 1, 1), datetime(2014, 12, 31, 23, 59, 59))


def make_row(
    cid="c1",
    amount="10.00",
    ts="2014-03-05T10:00:00",
    direction="credit",
    service=1,
    ttype=1,
    counterparty="",
):
    return f"{cid},acc1,{ts},{amount},{direction},{service},{ttype},{counterparty}\n"


def read_all(text, register=frozenset({"c1"}), **kw):
    """All accepted rows as one chunk, and the reader."""
    reader = TransactionReader(io.StringIO(text), register=register, **kw)
    return concat(list(reader)), reader


def concat(chunks):
    return TransactionChunk.concat([TransactionChunk.from_records([]), *chunks])


def assert_chunks_equal(a, b):
    for name in ("customer_id", "timestamp", "month", "cents", "service_code",
                 "txn_type_code", "interbank"):
        assert getattr(a, name).tolist() == getattr(b, name).tolist(), name


class TestParseTransactions:
    def test_well_formed_row(self):
        chunk, reader = read_all(HEADER + make_row())
        assert len(chunk) == 1
        assert chunk.customer_id.tolist() == ["c1"]
        assert chunk.cents.tolist() == [1000]  # credits are positive
        assert chunk.timestamp.tolist() == [(datetime(2014, 3, 5, 10) - datetime(1970, 1, 1)).total_seconds()]
        assert chunk.month.tolist() == [(2014 - 1970) * 12 + 2]
        assert chunk.interbank.tolist() == [False]
        assert reader.accepted == 1 and reader.rejected == 0

    def test_zero_amount_is_row_error(self):
        chunk, reader = read_all(HEADER + make_row(amount="0.00"))
        assert len(chunk) == 0
        assert reader.rejected == 1
        assert "amount" in reader.errors[0].reason

    def test_negative_amount_is_row_error(self):
        _, reader = read_all(HEADER + make_row(amount="-3.17"))
        assert reader.rejected == 1

    def test_bad_timestamp_reported_with_line_number(self):
        text = HEADER + make_row() + make_row(ts="not-a-date") + make_row()
        chunk, reader = read_all(text)
        assert len(chunk) == 2
        assert reader.errors[0].line_no == 3

    def test_non_finite_amount_is_row_error(self):
        text = HEADER + make_row() + make_row(amount="Infinity") + make_row(amount="12.00")
        chunk, reader = read_all(text)
        assert chunk.cents.tolist() == [1000, 1200]
        assert [(e.line_no, e.reason) for e in reader.errors] == [
            (3, "unparseable amount 'Infinity'")
        ]

    def test_missing_header_column_is_config_error(self):
        bad = HEADER.replace("amount,", "amt,")
        with pytest.raises(ConfigError, match="amount"):
            read_all(bad + make_row())

    def test_error_cap_aborts(self):
        rows = "".join(make_row(amount="0.00") for _ in range(12))
        with pytest.raises(TooManyRowErrors):
            read_all(HEADER + rows, error_cap=10)

    def test_million_row_file_with_three_bad_rows(self):
        n_rows, bad_at = 1_000_000, {100, 250_000, 800_000}
        parts = [HEADER]
        for i in range(n_rows):
            if i in bad_at:
                parts.append(make_row(amount="bogus"))
            else:
                parts.append(make_row(cid=f"c{i % 50}", amount=f"{(i % 90) + 1}.25"))
        register = {f"c{i}" for i in range(50)}
        reader = TransactionReader(io.StringIO("".join(parts)), register=register, error_cap=10)
        count = sum(len(chunk) for chunk in reader)
        assert count == n_rows - 3 == 999_997
        assert reader.accepted == 999_997
        assert reader.rejected == 3
        assert sorted(e.line_no for e in reader.errors) == [i + 2 for i in sorted(bad_at)]

    def test_window_enforced(self):
        _, reader = read_all(
            HEADER + make_row(ts="2013-12-31T23:00:00"), window=WINDOW
        )
        assert reader.rejected == 1
        assert "window" in reader.errors[0].reason

    def test_custom_column_mapping(self):
        mapping = ColumnMapping(
            {
                "customer_id": "cust",
                "account_id": "acct",
                "timestamp": "when",
                "amount": "value",
                "direction": "dir",
                "service_code": "svc",
                "txn_type_code": "typ",
                "counterparty_bank": "bank",
            }
        )
        text = "cust,acct,when,value,dir,svc,typ,bank\n" + make_row()
        chunk, _ = read_all(text, mapping=mapping)
        assert chunk.customer_id.tolist() == ["c1"]


class TestAmountParsing:
    @pytest.mark.parametrize(
        "text,cents",
        [("10.00", 1000), ("0.01", 1), ("536852446.89", 53685244689), ("7", 700), ("3.5", 350)],
    )
    def test_exact(self, text, cents):
        assert parse_amount_cents(text) == cents

    def test_subcent_rejected(self):
        with pytest.raises(ValueError):
            parse_amount_cents("1.005")

    def test_garbage_rejected(self):
        for text in ("12,50", "NaN", "Infinity", "-inf", "sNaN", "1e400"):
            with pytest.raises(ValueError, match="unparseable amount"):
                parse_amount_cents(text)

    @given(st.integers(min_value=1, max_value=10**12))
    def test_format_roundtrip(self, cents):
        assert parse_amount_cents(format_amount(cents)) == cents


class TestRoundTrip:
    def test_serialize_reparse_identity(self):
        records = [
            TransactionRecord(f"c{i}", "a", datetime(2014, 1 + i % 12, 1 + i, i % 24, i, 59 - i),
                              (i + 1) * 100 + 30 + i % 10, ("credit", "debit")[i % 2], i % 5,
                              i % 3, "BANK_01" if i % 3 else None)
            for i in range(25)
        ]
        buf = io.StringIO()
        write_transactions(records, buf)
        rows = csv.reader(io.StringIO(buf.getvalue()))
        idx = ColumnMapping.identity().resolve(next(rows))
        assert [_parse_row(row, idx, None) for row in rows] == records
        chunk, reader = read_all(buf.getvalue(), register={r.customer_id for r in records})
        assert reader.rejected == 0
        assert_chunks_equal(chunk, TransactionChunk.from_records(records))


class TestFilter:
    def chunks(self, codes):
        """Two chunks holding rows with the given type codes."""
        records = [
            TransactionRecord(f"c{i}", "a", datetime(2014, 1, 2), 100, "credit", 1, code, None)
            for i, code in enumerate(codes)
        ]
        half = len(records) // 2
        return [TransactionChunk.from_records(records[:half]),
                TransactionChunk.from_records(records[half:])]

    def test_excludes_codes(self):
        out = list(filter_insignificant(self.chunks([1, 99, 2]), FilterPolicy(frozenset({99}))))
        assert concat(out).txn_type_code.tolist() == [1, 2]
        assert concat(out).customer_id.tolist() == ["c0", "c2"]

    def test_empty_policy_is_identity(self):
        chunks = self.chunks([1, 2, 3])
        assert list(filter_insignificant(chunks, FilterPolicy())) == chunks

    def test_all_filtered_warns(self, caplog):
        stats = FilterStats()
        with caplog.at_level("WARNING"):
            out = list(
                filter_insignificant(self.chunks([9, 9]), FilterPolicy(frozenset({9})), stats)
            )
        assert len(concat(out)) == 0
        assert stats.dropped == 2 and stats.kept == 0
        assert any("removed all" in m for m in caplog.messages)

    @given(st.lists(st.integers(min_value=0, max_value=9), max_size=30),
           st.sets(st.integers(min_value=0, max_value=9), max_size=5))
    @settings(max_examples=50)
    def test_idempotent(self, codes, excluded):
        policy = FilterPolicy(frozenset(excluded))
        once = list(filter_insignificant(self.chunks(codes), policy))
        twice = list(filter_insignificant(iter(once), policy))
        assert_chunks_equal(concat(twice), concat(once))


class TestWindow:
    def test_month_count(self):
        assert WINDOW.month_count() == 12
        assert Window(datetime(2014, 1, 15), datetime(2014, 4, 14)).month_count() == 4
        assert Window(datetime(2014, 2, 1), datetime(2014, 2, 28)).month_count() == 1

    def test_from_json_whole_day_end(self):
        w = Window.from_json({"start": "2014-01-01", "end": "2014-03-31"})
        assert w.contains(datetime(2014, 3, 31, 23, 59, 58))

    def test_reversed_window_rejected(self):
        with pytest.raises(ConfigError):
            Window(datetime(2014, 2, 1), datetime(2014, 1, 1))


class TestRegister:
    def test_parse(self):
        text = "customer_id,account_open_date\nc1,2010-05-01\nc2,2013-12-31\n"
        customers, errors = parse_customers(io.StringIO(text), window=WINDOW)
        assert set(customers) == {"c1", "c2"}
        assert customers["c1"].account_open_date.year == 2010
        assert errors == []

    def test_bad_date_collected(self):
        text = "customer_id,account_open_date\nc1,yesterday\n"
        customers, errors = parse_customers(io.StringIO(text), window=WINDOW)
        assert customers == {}
        assert errors[0].line_no == 2

    def test_row_too_short_for_customer_id_is_rejected(self):
        # customer_id comes after account_open_date, so a one-field row
        # holds a date but no id
        text = "account_open_date,customer_id\n2010-05-01,c1\n2011-01-01\n2012-02-02,c3\n"
        customers, errors = parse_customers(io.StringIO(text), window=WINDOW)
        assert set(customers) == {"c1", "c3"}
        assert [e.line_no for e in errors] == [3]
        assert "expected at least 2 columns" in errors[0].reason


    def test_account_opened_after_window_end_is_rejected(self):
        text = ("customer_id,account_open_date\n"
                "c1,2014-12-31\nc2,2015-01-01\nc2,2013-01-01\n")
        customers, errors = parse_customers(io.StringIO(text), window=WINDOW)
        # opened on the last day: age 0; the day after: rejected, and the
        # later row for the same id is then the first accepted one
        assert customers["c1"].account_open_date.isoformat() == "2014-12-31"
        assert customers["c2"].account_open_date.isoformat() == "2013-01-01"
        assert [(e.line_no, e.reason) for e in errors] == [
            (3, "account_open_date 2015-01-01 is after the window end 2014-12-31"),
        ]

    def test_post_window_rows_count_against_error_cap(self):
        text = "customer_id,account_open_date\n" + "".join(f"c{i},2016-01-01\n" for i in range(3))
        with pytest.raises(TooManyRowErrors) as exc:
            parse_customers(io.StringIO(text), window=WINDOW, error_cap=2)
        assert [e.line_no for e in exc.value.errors] == [2, 3, 4]


class TestRegisterDuplicates:
    def test_duplicate_customer_is_rejected_row_naming_first_line(self):
        text = ("customer_id,account_open_date\n"
                "c1,2010-05-01\nc2,2011-01-01\nc1,2012-02-02\nc1,2013-03-03\n")
        customers, errors = parse_customers(io.StringIO(text), window=WINDOW)
        assert customers["c1"].account_open_date.year == 2010
        assert set(customers) == {"c1", "c2"}
        assert [(e.line_no, e.reason) for e in errors] == [
            (4, "duplicate customer_id 'c1', first on line 2"),
            (5, "duplicate customer_id 'c1', first on line 2"),
        ]


# ---------------------------------------------------------------------------
# The columnar reader against the row-at-a-time parse it replaced

DIFF_WINDOW = Window(datetime(2014, 1, 1), datetime(2016, 12, 31, 23, 59, 59))
REGISTER_IDS = frozenset({"c1", "c2", "c3"})


def row_at_a_time(text, window, register, error_cap):
    """Accepted records and errors of a sequential parse with ``_parse_row``,
    or the errors and ``TooManyRowErrors`` when it aborts."""
    records, errors = [], []
    reader = csv.reader(io.StringIO(text))
    idx = ColumnMapping.identity().resolve(next(reader))
    n_cols = max(idx.values()) + 1
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) < n_cols:
            reason = f"expected at least {n_cols} columns, got {len(row)}"
        else:
            try:
                record = _parse_row(row, idx, window)
            except ValueError as exc:
                reason = str(exc)
            else:
                if record.customer_id in register:
                    records.append(record)
                    continue
                reason = f"customer {record.customer_id!r} not in register"
        errors.append(RowError(line_no, reason))
        if len(errors) > error_cap:
            return None, errors
    return records, errors


def row_tuples(chunk):
    columns = (chunk.customer_id, chunk.timestamp, chunk.month, chunk.cents,
               chunk.service_code, chunk.txn_type_code, chunk.interbank)
    return sorted(zip(*(c.tolist() for c in columns)))


FIELD_MUTATIONS = {
    "customer_id": ["c1 ", "C1", "GHOST", "", "c\x001"],
    "timestamp": [
        "2014-02-29T10:00:00", "2016-02-29T10:00:00", "2014-03-05T24:00:00",
        "2014-03-05T23:59:60", "2014-03-05T10:00:00.123456", "2014-03-05T10:00:00Z",
        "2014-03-05T10:00:00+02:00", "2014-03-05 10:00:00", "2014-03-05", " 2014-03-05T10:00:00",
        "2014-03-05T10:00", "٢٠١٤-03-05T10:00:00", "2014-13-05T10:00:00", "0000-01-01T00:00:00",
        "2013-12-31T23:59:59", "2017-01-01T00:00:00", "2014-03-05T10:00:00\x00", "",
    ],
    "amount": [
        "1.005", "12345678901234567890", "99999999999999999999.00", "92233720368547758.07",
        "92233720368547758.08", "7", "3.5", " 10.00", "10.00 ", "+10.00", "1_0.00", "١٠.00",
        "1².00", "１0.00", "-3.00", "0.00", "00.50", "1e3", "NaN", ".50", "10.", "10.0\x00", "",
        "123456789012345.001", "123456789012345.00x", "1234567890123456.00",
    ],
    "direction": ["Credit", "DEBIT", "credit ", " debit", "credits", "cred", ""],
    "service_code": ["+3", " 3", "3 ", "1_0", "٣", "²", "-4", "1234567890", "99999999999999999999", ""],
    "txn_type_code": ["+99", "99 ", "٩٩", "0099", ""],
    "counterparty_bank": [" ", "BANK,01", "BANK\n01", "\x00"],
}


@st.composite
def mutated_ledgers(draw):
    """A ledger text of canonical rows, some with a mutated field, some with
    an extra or a missing field, some quoted, some empty."""
    canonical = st.fixed_dictionaries({
        "customer_id": st.sampled_from(["c1", "c2", "c3"]),
        "account_id": st.just("a1"),
        "timestamp": st.datetimes(datetime(2013, 12, 31, 23), datetime(2017, 1, 1, 1)).map(
            lambda t: t.replace(microsecond=0).isoformat()),
        "amount": st.integers(1, 10**15).map(format_amount),
        "direction": st.sampled_from(["credit", "debit"]),
        "service_code": st.integers(0, 10**9).map(str),
        "txn_type_code": st.sampled_from(["1", "4", "99"]),
        "counterparty_bank": st.sampled_from(["", "BANK_01"]),
    })
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(TRANSACTION_FIELDS))
    for fields in draw(st.lists(canonical, max_size=40)):
        row = [fields[f] for f in TRANSACTION_FIELDS]
        for field in draw(st.lists(st.sampled_from(sorted(FIELD_MUTATIONS)), max_size=2)):
            row[TRANSACTION_FIELDS.index(field)] = draw(st.sampled_from(FIELD_MUTATIONS[field]))
        shape = draw(st.sampled_from(["plain"] * 6 + ["extra", "missing", "empty", "quoted"]))
        if shape == "extra":
            row.append("x")
        elif shape == "missing":
            row = row[: draw(st.integers(1, len(row) - 1))]
        elif shape == "empty":
            row = []
        if shape == "quoted":
            buf.write(",".join(f'"{v}"' for v in row) + "\n")
        else:
            writer.writerow(row)
    return buf.getvalue()


class TestColumnarReader:
    @given(
        mutated_ledgers(),
        st.sampled_from([REGISTER_IDS, REGISTER_IDS | set(FIELD_MUTATIONS["customer_id"])]),
        st.sampled_from([0, 2, 5, 1000]),
        st.sampled_from([3, 7, 2048]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_row_at_a_time_parse(self, text, register, error_cap, chunk_rows):
        expected, expected_errors = row_at_a_time(text, DIFF_WINDOW, register, error_cap)
        reader = TransactionReader(io.StringIO(text), window=DIFF_WINDOW, register=register,
                                   error_cap=error_cap)
        with mock.patch.object(ingest, "CHUNK_ROWS", chunk_rows):
            if expected is None:
                with pytest.raises(TooManyRowErrors) as exc:
                    list(reader)
                assert exc.value.errors == expected_errors
                return
            chunks = list(reader)
        assert reader.errors == expected_errors
        assert reader.rejected == len(expected_errors)
        assert reader.accepted == len(expected)
        assert row_tuples(concat(chunks)) == row_tuples(TransactionChunk.from_records(expected))

    def test_canonical_rows_take_the_array_path(self):
        text = HEADER + make_row() + make_row(direction="debit", counterparty="B")
        with mock.patch.object(ingest, "_parse_row", side_effect=AssertionError):
            chunk, reader = read_all(text, window=WINDOW, register={"c1"})
        assert chunk.cents.tolist() == [1000, -1000]
        assert chunk.interbank.tolist() == [False, True]
