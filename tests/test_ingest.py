import csv
import io
import itertools
import os
import re
import tempfile
from datetime import date, datetime
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amlprofiler import ingest
from amlprofiler.ingest import (
    CUSTOMER_FIELDS,
    TRANSACTION_FIELDS,
    ColumnMapping,
    ConfigError,
    FilterPolicy,
    FilterStats,
    LedgerRange,
    Register,
    RowError,
    TooManyRowErrors,
    TransactionChunk,
    TransactionReader,
    TransactionRecord,
    Window,
    filter_insignificant,
    format_amount,
    join_rejections,
    ledger_ranges,
    parse_amount_cents,
    parse_customers,
    _parse_row,
)

from testkit import chunk_of, write_transactions

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


def register_of(ids):
    """The register of ``ids``, every account opened on one day."""
    return Register.of(dict.fromkeys(ids, date(2010, 1, 1)))


def opened_on(register, cid):
    return register.opened[register.code[cid]]


def customer_ids(chunk, register):
    return [register.ids[c] for c in chunk.customer.tolist()]


def read_all(text, register=frozenset({"c1"}), **kw):
    """All accepted rows as one chunk, and the reader, whose register holds
    the ids ``register``."""
    reader = TransactionReader(io.BytesIO(text.encode("utf-8", "surrogateescape")),
                               register=register_of(register), **kw)
    return concat(list(reader)), reader


def concat(chunks):
    return TransactionChunk.concat([chunk_of([], register_of(())), *chunks])


def assert_chunks_equal(a, b):
    for name in ("customer", "timestamp", "month", "cents", "service_code",
                 "txn_type_code", "interbank"):
        assert getattr(a, name).tolist() == getattr(b, name).tolist(), name


class TestParseTransactions:
    def test_well_formed_row(self):
        chunk, reader = read_all(HEADER + make_row())
        assert len(chunk) == 1
        assert customer_ids(chunk, register_of({"c1"})) == ["c1"]
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
        register = register_of(f"c{i}" for i in range(50))
        reader = TransactionReader(io.BytesIO("".join(parts).encode()), register=register,
                                   error_cap=10)
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
        assert customer_ids(chunk, register_of({"c1"})) == ["c1"]


class TestIsoForms:
    """Timestamps and dates in the forms that ``fromisoformat`` reads on
    Python 3.10 are read; the forms it reads only from 3.11 on are rejected
    on every version, so the Python version does not change the profiles."""

    LATER_TIMESTAMPS = ["20140305T100000", "2014-W10-3T10:00:00", "2014-03-05T10:00:00Z",
                        "2014-03-05T1000", "2014-03-05T10:00:00,5"]
    TIMESTAMPS = ["2014-03-05", "2014-03-05T10", "2014-03-05T10:00", "2014-03-05 10:00:00.500",
                  "2014-03-05T10:00:00.250000"]

    def test_timestamp_forms(self):
        text = HEADER + "".join(make_row(ts=f'"{ts}"')  # quoted: one holds a comma
                                for ts in self.LATER_TIMESTAMPS + self.TIMESTAMPS)
        chunk, reader = read_all(text, window=WINDOW)
        assert [(e.line_no, e.reason) for e in reader.errors] == [
            (line, f"unparseable timestamp {ts!r}")
            for line, ts in enumerate(self.LATER_TIMESTAMPS, start=2)]
        assert reader.accepted == len(chunk) == len(self.TIMESTAMPS)

    def test_register_date_forms(self):
        text = "customer_id,account_open_date\nc1,20100501\nc2,2010-W18-6\nc3,2010-05-01\n"
        customers, errors = parse_customers(io.BytesIO(text.encode()), window=WINDOW)
        assert customers.ids == ("c3",)
        assert [(e.line_no, e.reason) for e in errors] == [
            (2, "unparseable account_open_date in ['c1', '20100501']"),
            (3, "unparseable account_open_date in ['c2', '2010-W18-6']"),
        ]


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
        ids = {r.customer_id for r in records}
        chunk, reader = read_all(buf.getvalue(), register=ids)
        assert reader.rejected == 0
        assert_chunks_equal(chunk, chunk_of(records, register_of(ids)))


class TestFilter:
    @staticmethod
    def register(codes):
        return register_of(f"c{i}" for i in range(len(codes)))

    def chunks(self, codes):
        """Two chunks holding rows with the given type codes, customer ``c{i}``
        at row ``i``."""
        records = [
            TransactionRecord(f"c{i}", "a", datetime(2014, 1, 2), 100, "credit", 1, code, None)
            for i, code in enumerate(codes)
        ]
        half, register = len(records) // 2, self.register(codes)
        return [chunk_of(records[:half], register), chunk_of(records[half:], register)]

    def test_excludes_codes(self):
        codes = [1, 99, 2]
        out = list(filter_insignificant(self.chunks(codes), FilterPolicy(frozenset({99}))))
        assert concat(out).txn_type_code.tolist() == [1, 2]
        assert customer_ids(concat(out), self.register(codes)) == ["c0", "c2"]

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
        w = Window.from_json({"start": "2014-01-01 06:00", "end": "2014-03-31T12:00"})
        assert (w.start, w.end) == (datetime(2014, 1, 1, 6), datetime(2014, 3, 31, 12))

    @pytest.mark.parametrize("bounds,reason", [
        ({"start": "20140101", "end": "2014-12-31"}, "start '20140101' is not"),
        ({"start": "2014-01-01", "end": "20141231"}, "end '20141231' is not"),
        ({"start": "2014-01-01", "end": "2014-W52-7"}, "end '2014-W52-7' is not"),
        ({"start": "2014-01-01T00:00+01:00", "end": "2014-12-31"}, "a bound has a UTC offset"),
    ])
    def test_from_json_reads_only_the_forms_of_every_version(self, bounds, reason):
        # From Python 3.11 on fromisoformat also reads the basic and week forms
        with pytest.raises(ConfigError, match=f"bad window spec .*: {reason}"):
            Window.from_json(bounds)

    def test_reversed_window_rejected(self):
        with pytest.raises(ConfigError):
            Window(datetime(2014, 2, 1), datetime(2014, 1, 1))


class TestRegister:
    def test_parse(self):
        text = "customer_id,account_open_date\nc1,2010-05-01\nc2,2013-12-31\n"
        customers, errors = parse_customers(io.BytesIO(text.encode()), window=WINDOW)
        assert customers.ids == ("c1", "c2")
        assert customers.code == {"c1": 0, "c2": 1}
        assert opened_on(customers, "c1").year == 2010
        assert errors == []

    def test_bad_date_collected(self):
        text = "customer_id,account_open_date\nc1,yesterday\n"
        customers, errors = parse_customers(io.BytesIO(text.encode()), window=WINDOW)
        assert customers == Register.of({})
        assert errors[0].line_no == 2

    def test_row_too_short_for_customer_id_is_rejected(self):
        # customer_id comes after account_open_date, so a one-field row
        # holds a date but no id
        text = "account_open_date,customer_id\n2010-05-01,c1\n2011-01-01\n2012-02-02,c3\n"
        customers, errors = parse_customers(io.BytesIO(text.encode()), window=WINDOW)
        assert customers.ids == ("c1", "c3")
        assert [e.line_no for e in errors] == [3]
        assert "expected at least 2 columns" in errors[0].reason


    def test_account_opened_after_window_end_is_rejected(self):
        text = ("customer_id,account_open_date\n"
                "c1,2014-12-31\nc2,2015-01-01\nc2,2013-01-01\n")
        customers, errors = parse_customers(io.BytesIO(text.encode()), window=WINDOW)
        # opened on the last day: age 0; the day after: rejected, and the
        # later row for the same id is then the first accepted one
        assert opened_on(customers, "c1").isoformat() == "2014-12-31"
        assert opened_on(customers, "c2").isoformat() == "2013-01-01"
        assert [(e.line_no, e.reason) for e in errors] == [
            (3, "account_open_date 2015-01-01 is after the window end 2014-12-31"),
        ]

    def test_post_window_rows_count_against_error_cap(self):
        text = "customer_id,account_open_date\n" + "".join(f"c{i},2016-01-01\n" for i in range(3))
        with pytest.raises(TooManyRowErrors) as exc:
            parse_customers(io.BytesIO(text.encode()), window=WINDOW, error_cap=2)
        assert [e.line_no for e in exc.value.errors] == [2, 3, 4]


class TestRegisterDuplicates:
    def test_duplicate_customer_is_rejected_row_naming_first_line(self):
        text = ("customer_id,account_open_date\n"
                "c1,2010-05-01\nc2,2011-01-01\nc1,2012-02-02\nc1,2013-03-03\n")
        customers, errors = parse_customers(io.BytesIO(text.encode()), window=WINDOW)
        assert opened_on(customers, "c1").year == 2010
        assert customers.ids == ("c1", "c2")
        assert [(e.line_no, e.reason) for e in errors] == [
            (4, "duplicate customer_id 'c1', first on line 2"),
            (5, "duplicate customer_id 'c1', first on line 2"),
        ]


# ---------------------------------------------------------------------------
# The columnar reader against the row-at-a-time parse it replaced

DIFF_WINDOW = Window(datetime(2014, 1, 1), datetime(2016, 12, 31, 23, 59, 59))
REGISTER_IDS = frozenset({"c1", "c2", "c3", "ç3"})
UNDECODABLE = re.compile("[\udc80-\udcff]")
# csv.reader before Python 3.11 rejects a line with NUL, which the reader
# reads as an ordinary byte: the oracles hand it this stand-in instead
NUL_STAND_IN = "\uf000"


def row_at_a_time(text, window, register, error_cap, delimiter=","):
    """Accepted records and errors of a sequential parse with ``csv.reader``
    and ``_parse_row``, or the errors and ``TooManyRowErrors`` when it
    aborts.  ``text`` holds bytes that are not UTF-8 as
    ``errors="surrogateescape"`` decodes them."""
    records, errors = [], []
    reader = csv.reader(io.StringIO(text.replace("\0", NUL_STAND_IN), newline=""),
                        delimiter=delimiter)
    idx = ColumnMapping.identity().resolve(next(reader))
    n_cols = max(idx.values()) + 1
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        row = [field.replace(NUL_STAND_IN, "\0") for field in row]
        if UNDECODABLE.search("".join(row)):
            reason = "line is not valid UTF-8"
        elif len(row) < n_cols:
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
    columns = (chunk.customer, chunk.timestamp, chunk.month, chunk.cents,
               chunk.service_code, chunk.txn_type_code, chunk.interbank)
    return sorted(zip(*(c.tolist() for c in columns)))


FIELD_MUTATIONS = {
    "customer_id": ["c1 ", "C1", "GHOST", "", "c\x001", "c1\x00", 'c"1'],
    "timestamp": [
        "2014-02-29T10:00:00", "2016-02-29T10:00:00", "2014-03-05T24:00:00",
        "2014-03-05T23:59:60", "2014-03-05T10:00:00.123456", "2014-03-05T10:00:00Z",
        "2014-03-05T10:00:00+02:00", "2014-03-05 10:00:00", "2014-03-05", " 2014-03-05T10:00:00",
        "2014-03-05T10:00", "٢٠١٤-03-05T10:00:00", "2014-13-05T10:00:00", "0000-01-01T00:00:00",
        "2013-12-31T23:59:59", "2017-01-01T00:00:00", "2014-03-05T10:00:00\x00", "",
        "2014-03-05_10:00:00", "2014-02-30 10:00:00",
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
    "counterparty_bank": [" ", "BANK,01", "BANK\n01", "\x00", "　", "  ", "Crédit"],
}
# Values for any field: NUL, non-ASCII text, a byte that is not UTF-8, and
# what csv.writer quotes: quotes, delimiters and line ends
ANY_FIELD = ["\x00", "é", "\udcff", 'x"y', '""', "a,b", "a;b", "a\nb", "a\r\nb", "\r"]
# Fields written as they are, with quotes that neither open a field at its
# start nor close one before a delimiter or a line end: in an unquoted
# field, before text after a closing quote, and a quote that none closes
IRREGULAR = ['a"b', 'a""b', '"ab"c', '""x', '"a"b"c', '"a']


@st.composite
def mutated_ledgers(draw):
    """A ledger text of canonical rows written by ``csv.writer``, and the
    delimiter it is written with.  The rows are quoted as one of
    QUOTE_MINIMAL, QUOTE_ALL and QUOTE_NONNUMERIC writes them, and end in
    newlines, CRLF or lone carriage returns, a few in another of them; the
    last one may have no line end.  Some have a mutated field, some a field
    from ANY_FIELD, some an extra or a missing field, and some are empty.
    Some ledgers have rows with a field from IRREGULAR, written as they are."""
    delimiter = draw(st.sampled_from([",", ";"]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL, csv.QUOTE_NONNUMERIC]))
    ends = [newline] * 9 + draw(st.sampled_from([[], ["\r"], ["\n"]]))
    shapes = ["plain"] * 6 + ["extra", "missing", "empty"] + draw(st.sampled_from([[], ["raw"]]))
    separator = draw(st.sampled_from("T "))
    canonical = st.fixed_dictionaries({
        "customer_id": st.sampled_from(["c1", "c2", "c3"] + draw(st.sampled_from([[], ["ç3"]]))),
        "account_id": st.just("a1"),
        "timestamp": st.datetimes(datetime(2013, 12, 31, 23), datetime(2017, 1, 1, 1)).map(
            lambda t: t.replace(microsecond=0).isoformat(separator)),
        "amount": st.integers(1, 10**15).map(format_amount),
        "direction": st.sampled_from(["credit", "debit"]),
        "service_code": st.integers(0, 10**9).map(str),
        "txn_type_code": st.sampled_from(["1", "4", "99"]),
        "counterparty_bank": st.sampled_from(["", "BANK_01"]),
    })
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator=newline, quoting=quoting)
    writer.writerow(list(TRANSACTION_FIELDS))
    end = newline
    for fields in draw(st.lists(canonical, max_size=40)):
        row = [fields[f] for f in TRANSACTION_FIELDS]
        for field in draw(st.lists(st.sampled_from(sorted(FIELD_MUTATIONS)), max_size=2)):
            row[TRANSACTION_FIELDS.index(field)] = draw(st.sampled_from(FIELD_MUTATIONS[field]))
        if draw(st.integers(0, 9)) == 0:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ANY_FIELD))
        shape = draw(st.sampled_from(shapes))
        if shape == "extra":
            row.append("x")
        elif shape == "missing":
            row = row[: draw(st.integers(1, len(row) - 1))]
        elif shape == "empty":
            row = []
        if shape == "raw":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(IRREGULAR))
            buf.write(delimiter.join(row) + newline)
        else:
            # QUOTE_NONNUMERIC leaves numbers unquoted
            writer.writerow([int(v) if v.isdecimal() and str(int(v)) == v else v for v in row])
        end = draw(st.sampled_from(ends))
        if end != newline:
            buf.seek(buf.tell() - len(newline))
            buf.truncate()
            buf.write(end)
    text = buf.getvalue()
    if draw(st.booleans()):
        text = text[: len(text) - len(end)]
    return text, delimiter


def ledger_bytes(text):
    return text.encode("utf-8", "surrogateescape")


class TestColumnarReader:
    @given(
        mutated_ledgers(),
        st.sampled_from([REGISTER_IDS, REGISTER_IDS | set(FIELD_MUTATIONS["customer_id"])]),
        st.sampled_from([0, 2, 5, 1000]),
        st.sampled_from([1, 16, 97, 1 << 18]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_row_at_a_time_parse(self, ledger, register, error_cap, block_chars):
        text, delimiter = ledger
        expected, expected_errors = row_at_a_time(text, DIFF_WINDOW, register, error_cap,
                                                  delimiter)
        reader = TransactionReader(io.BytesIO(ledger_bytes(text)), window=DIFF_WINDOW,
                                   register=register_of(register), error_cap=error_cap,
                                   delimiter=delimiter)
        with mock.patch.object(ingest, "BLOCK_CHARS", block_chars):
            if expected is None:
                with pytest.raises(TooManyRowErrors) as exc:
                    list(reader)
                assert exc.value.errors == expected_errors
                return
            chunks = list(reader)
        assert reader.errors == expected_errors
        assert reader.rejected == len(expected_errors)
        assert reader.accepted == len(expected)
        assert row_tuples(concat(chunks)) == row_tuples(chunk_of(expected, register_of(register)))

    def test_canonical_rows_take_the_array_path(self):
        text = (HEADER + make_row() + make_row(direction="debit", counterparty="B")
                + make_row(ts="2014-03-05 10:00:00"))
        with mock.patch.object(ingest, "_parse_row", side_effect=AssertionError):
            chunk, reader = read_all(text, window=WINDOW, register={"c1"})
        assert chunk.cents.tolist() == [1000, -1000, 1000]
        assert chunk.interbank.tolist() == [False, True, False]
        assert chunk.timestamp[0] == chunk.timestamp[2]

    @pytest.mark.parametrize("newline,quoting,account", [
        pytest.param("\n", csv.QUOTE_MINIMAL, "acc1", id="\n"),
        pytest.param("\r\n", csv.QUOTE_MINIMAL, "acc1", id="\r\n"),
        pytest.param("\r", csv.QUOTE_MINIMAL, "acc1", id="\r"),
        pytest.param("\n", csv.QUOTE_ALL, "acc1", id="all-quoted"),
        pytest.param("\r\n", csv.QUOTE_ALL, "cuenta-ñ", id="non-ascii-account"),
    ])
    def test_canonical_ledger_never_reaches_csv_reader(self, newline, quoting, account):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator=newline, quoting=quoting)
        writer.writerow(HEADER.strip().split(","))
        writer.writerows([f"c{i % 3 + 1}", account, "2014-03-05T10:00:00", f"{i + 1}.25",
                          ("credit", "debit")[i % 2], 1, 1, ""] for i in range(60))
        readers = []

        def spy(lines, *args, real=csv.reader, **kwargs):
            readers.append(real(lines, *args, **kwargs))
            return readers[-1]

        with mock.patch.object(ingest, "BLOCK_CHARS", 200), \
                mock.patch.object(ingest.csv, "reader", spy):
            chunk, reader = read_all(buf.getvalue(), window=WINDOW, register={"c1", "c2", "c3"})
        assert [r.line_num for r in readers] == [1]  # the header only
        assert reader.accepted == 60 and reader.rejected == 0
        ids = customer_ids(chunk, register_of({"c1", "c2", "c3"}))
        assert sorted(zip(ids, chunk.cents.tolist())) == sorted(
            (f"c{i % 3 + 1}", (i * 100 + 125) * (1, -1)[i % 2]) for i in range(60))

    def test_nul_is_an_ordinary_byte(self):
        # csv.reader before Python 3.11 raised "line contains NUL" instead
        text = HEADER + make_row(counterparty="\x00") + make_row(cid="c1\x00")
        chunk, reader = read_all(text, window=WINDOW)
        assert chunk.interbank.tolist() == [True]
        assert reader.errors == [RowError(3, "customer 'c1\\x00' not in register")]

    @pytest.mark.parametrize("nul_in", ["header", "record"])
    def test_nul_reaches_csv_reader_of_every_version(self, nul_in):
        """The header and a record over the field limit go to ``csv.reader``,
        which before Python 3.11 raised "line contains NUL"."""
        real = csv.reader

        def reader_before_311(lines, **kw):
            def checked():
                for line in lines:
                    if "\0" in line:
                        raise csv.Error("line contains NUL")
                    yield line
            return real(checked(), **kw)

        limit = csv.field_size_limit()
        header = HEADER.replace("\n", ",no\x00te\n") if nul_in == "header" else HEADER
        long = "B" * limit + ("\x00" if nul_in == "record" else "B")
        text = header + make_row(counterparty=long) + make_row()
        with mock.patch.object(ingest.csv, "reader", reader_before_311):
            chunk, reader = read_all(text, window=WINDOW)
        assert reader.errors == [RowError(2, f"field larger than field limit ({limit})")]
        assert reader.accepted == len(chunk) == 1

    @pytest.mark.parametrize("before", [
        "",  # every line on the array path
        '"c1",a1,2014-03-05T09:00:00,1.00,credit,1,1,\n',  # a quoted field
        "c1,açc,2014-03-05T09:00:00,1.00,credit,1,1,\n",  # a line that is not ASCII
    ])
    def test_field_over_the_csv_limit_is_a_rejected_row(self, before):
        limit = csv.field_size_limit()
        # the limit counts characters: "é" * limit is twice as many bytes
        text = (HEADER + before + make_row(counterparty="B" * (limit + 1))
                + make_row(counterparty="B" * limit) + make_row(counterparty=f'"{"é" * limit}"')
                + make_row(direction="debit"))
        chunk, reader = read_all(text, window=WINDOW)
        line = 2 + bool(before)
        assert reader.errors == [RowError(line, f"field larger than field limit ({limit})")]
        assert reader.accepted == 3 + bool(before)
        assert sorted(chunk.cents.tolist()) == sorted([-1000, 1000, 1000] + [100] * bool(before))
        assert chunk.interbank.tolist().count(True) == 2


# ---------------------------------------------------------------------------
# The register's records against csv.reader over its text

# The one date form a register row may use on every Python version
ISO_DATE = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")


def register_at_a_time(text, window, error_cap, delimiter):
    """Account-open dates by customer id and errors of a sequential parse of
    the register text with ``csv.reader``, which hands NUL as
    ``NUL_STAND_IN``, as ``row_at_a_time`` does, or None and the errors when
    it aborts."""
    reader = csv.reader(io.StringIO(text.replace("\0", NUL_STAND_IN), newline=""),
                        delimiter=delimiter)
    idx = ColumnMapping.identity(CUSTOMER_FIELDS).resolve(next(reader))
    n_cols = max(idx.values()) + 1
    customers, first_lines, errors = {}, {}, []
    for line_no in itertools.count(2):
        cid = ""
        try:
            row = next(reader)
        except StopIteration:
            return customers, errors
        except csv.Error as exc:
            reason = str(exc)
        else:
            if not row:
                continue
            row = [field.replace(NUL_STAND_IN, "\0") for field in row]
            cid = row[idx["customer_id"]] if len(row) > idx["customer_id"] else ""
            if UNDECODABLE.search("".join(row)):
                reason = "line is not valid UTF-8"
            elif len(row) < n_cols:
                reason = f"expected at least {n_cols} columns, got {len(row)}"
            else:
                try:
                    if not ISO_DATE.fullmatch(row[idx["account_open_date"]]):
                        raise ValueError
                    opened = date.fromisoformat(row[idx["account_open_date"]])
                except ValueError:
                    reason = f"unparseable account_open_date in {row!r}"
                else:
                    if opened > window.end.date():
                        reason = (f"account_open_date {opened.isoformat()} is after the window "
                                  f"end {window.end.date().isoformat()}")
                    elif cid in first_lines:
                        reason = f"duplicate customer_id {cid!r}, first on line {first_lines[cid]}"
                    else:
                        first_lines[cid] = line_no
                        customers[cid] = opened
                        continue
        errors.append(RowError(line_no, reason, "register", cid))
        if len(errors) > error_cap:
            return None, errors


# a field longer than the field limit that the register oracle may set
LONG_FIELD = "L" * 30


@st.composite
def mutated_registers(draw):
    """A register text written by ``csv.writer`` and its delimiter: the
    header in one of two column orders, perhaps with a third column, and
    rows of repeated ids with good, bad and late dates, quoted as
    QUOTE_MINIMAL or QUOTE_ALL writes them.  Rows end in newlines, CRLF or
    lone carriage returns, a few in another of them, and the last may have
    no line end.  Some rows have a field from ANY_FIELD or ``LONG_FIELD``,
    some are short, long or blank, and some have a field from IRREGULAR,
    written as they are."""
    delimiter = draw(st.sampled_from([",", ";"]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    ends = [newline] * 9 + draw(st.sampled_from([[], ["\r"], ["\n"]]))
    header = draw(st.sampled_from([list(CUSTOMER_FIELDS), list(CUSTOMER_FIELDS[::-1])]))
    header += draw(st.sampled_from([[], ["note"]]))
    value = {
        "customer_id": st.sampled_from(["c1", "c2", "c3", "ç3", " c1"]),
        "account_open_date": st.sampled_from([
            "2010-05-01", "2014-12-31", "2013-02-28",  # good
            "2014-02-29", "2010-13-01", "yesterday", "", " 2010-05-01", "2010-05-01T00:00",
            "20100501", "2010-W18-6", "2010-05-01\x00", "٢٠١٠-05-01",  # bad
            "2015-01-01", "9999-12-31",  # after the window end
        ]),
        "note": st.sampled_from(["", "x"]),
    }
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator=newline, quoting=quoting)
    writer.writerow(header)
    end = newline
    for _ in range(draw(st.integers(0, 30))):
        row = [draw(value[name]) for name in header]
        if draw(st.integers(0, 5)) == 0:
            row[draw(st.integers(0, len(row) - 1))] = draw(
                st.sampled_from(ANY_FIELD + [LONG_FIELD]))
        shape = draw(st.sampled_from(["plain"] * 6 + ["extra", "short", "blank", "raw"]))
        if shape == "extra":
            row.append("x")
        elif shape == "short":
            row = row[: draw(st.integers(1, len(row) - 1))]
        elif shape == "blank":
            row = []
        if shape == "raw":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(IRREGULAR))
            buf.write(delimiter.join(row) + newline)
        else:
            writer.writerow(row)
        end = draw(st.sampled_from(ends))
        if end != newline:
            buf.seek(buf.tell() - len(newline))
            buf.truncate()
            buf.write(end)
    text = buf.getvalue()
    if draw(st.booleans()):
        text = text[: len(text) - len(end)]
    return text, delimiter


class TestRegisterParity:
    @given(
        mutated_registers(),
        st.sampled_from([0, 2, 1000]),
        st.sampled_from([16, 97, 1 << 18]),
        st.sampled_from([None, 24]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_csv_reader_over_text(self, register, error_cap, block_chars, field_limit):
        """``parse_customers`` on the register's bytes gives the customers
        and rejections of ``csv.reader`` over its text, also where records
        cross block ends and where fields pass the field limit."""
        text, delimiter = register
        limit = csv.field_size_limit()
        try:
            if field_limit is not None:
                csv.field_size_limit(field_limit)
            expected, expected_errors = register_at_a_time(text, WINDOW, error_cap, delimiter)
            source = io.BytesIO(text.encode("utf-8", "surrogateescape"))
            with mock.patch.object(ingest, "BLOCK_CHARS", block_chars):
                if expected is None:
                    with pytest.raises(TooManyRowErrors) as exc:
                        parse_customers(source, window=WINDOW, error_cap=error_cap,
                                        delimiter=delimiter)
                    assert exc.value.errors == expected_errors
                    return
                customers, errors = parse_customers(source, window=WINDOW, error_cap=error_cap,
                                                    delimiter=delimiter)
        finally:
            csv.field_size_limit(limit)
        assert errors == expected_errors
        assert customers == Register.of(expected)


def record_starts(data, delimiter=","):
    """The byte offsets at which ``csv.reader`` starts each record of
    ``data``, the header first, and the offset of its end."""
    lines = data.splitlines(keepends=True)  # at \n, \r\n and lone \r, as csv.reader's lines
    offsets = list(itertools.accumulate(map(len, lines), initial=0))
    taken = 0

    def text():
        nonlocal taken
        for line in lines:
            taken += 1
            yield line.decode("utf-8", "surrogateescape").replace("\0", NUL_STAND_IN)

    reader = csv.reader(text(), delimiter=delimiter)
    starts = [0]
    while True:
        try:
            next(reader)
        except StopIteration:
            return starts
        except csv.Error:
            pass
        starts.append(offsets[taken])


class TestLedgerRanges:
    """Readers of consecutive byte ranges of a ledger, their rejections
    joined, split the records that one reader of the whole ledger splits."""

    @staticmethod
    def read(path, ranges, **kw):
        """Each range's chunks, its reader, and whether it was aborted."""
        out = []
        for span in ranges:
            with span.open(path) as fh:
                reader = TransactionReader(fh, **kw)
                try:
                    out.append((list(reader), reader, False))
                except TooManyRowErrors:
                    out.append(([], reader, True))
        return out

    @given(
        mutated_ledgers(),
        st.sampled_from([0, 2, 1000]),
        st.lists(st.integers(0, 10**9), max_size=4),
        st.lists(st.integers(0, 10**9), max_size=3),
        st.sampled_from([16, 97, 1 << 18]),
    )
    @settings(max_examples=300, deadline=None)
    def test_ranges_read_as_the_whole_ledger(self, ledger, error_cap, cut_picks, bad_picks,
                                             block_chars):
        text, delimiter = ledger
        data = ledger_bytes(text)
        header = record_starts(data, delimiter)[1]
        for pick in bad_picks if len(data) > header else []:
            # a byte that is not UTF-8, after the header
            at = header + pick % (len(data) - header + 1)
            data = data[:at] + b"\xff" + data[at:]
        # record starts, as ledger_ranges cuts, but for those at a \n, which
        # would end a header that ends in a lone \r as \r\n does
        starts = [i for i in record_starts(data, delimiter)[2:-1] if data[i] != ord("\n")]
        cuts = sorted({starts[p % len(starts)] for p in cut_picks} if starts else set())
        ranges = [LedgerRange(header, a, b)
                  for a, b in zip([header, *cuts], [*cuts, len(data)])]
        kw = dict(window=DIFF_WINDOW, register=register_of(REGISTER_IDS), error_cap=error_cap,
                  delimiter=delimiter)
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(ingest, "BLOCK_CHARS", block_chars):
            path = os.path.join(tmp, "ledger.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            with open(path, "rb") as fh:
                whole = TransactionReader(fh, **kw)
                try:
                    chunks, aborted = list(whole), None
                except TooManyRowErrors as exc:
                    chunks, aborted = [], exc
            parts = self.read(path, ranges, **kw)
            with mock.patch.object(ingest, "MIN_SPLIT_BYTES", 0):
                cut = ledger_ranges(path, 4, delimiter)
        assert {r.start for r in cut[1:]} <= set(starts)
        if aborted is not None:
            with pytest.raises(TooManyRowErrors) as exc:
                join_rejections([(r.errors, r.records) for _, r, _ in parts], error_cap)
            assert exc.value.errors == aborted.errors
            return
        assert not any(stopped for _, _, stopped in parts)
        errors = join_rejections([(r.errors, r.records) for _, r, _ in parts], error_cap)
        assert errors == whole.errors
        assert sum(r.records for _, r, _ in parts) == whole.records
        assert sum(r.accepted for _, r, _ in parts) == whole.accepted
        assert sum(r.rejected for _, r, _ in parts) == whole.rejected
        assert row_tuples(concat([c for chunks_, _, _ in parts for c in chunks_])) == row_tuples(
            concat(chunks))

    def test_ranges_end_after_newlines_and_cover_the_records(self, tmp_path):
        path = tmp_path / "ledger.csv"
        rows = [make_row(cid=f"c{i % 3 + 1}", amount=f"{i + 1}.00") for i in range(300)]
        path.write_text((HEADER + "".join(rows)).replace("\n", "\r\n"), newline="")
        data = path.read_bytes()
        with mock.patch.object(ingest, "MIN_SPLIT_BYTES", 0):
            ranges = ledger_ranges(path, 4)
        assert len(ranges) == 4
        assert {r.header for r in ranges} == {len(HEADER) + 1}
        assert [r.start for r in ranges] == [len(HEADER) + 1] + [r.end for r in ranges[:-1]]
        assert ranges[-1].end == len(data)
        assert all(data[r.end - 2 : r.end] == b"\r\n" for r in ranges)
        assert max(r.end - r.start for r in ranges) < len(data) / 3

    @pytest.mark.parametrize("header_end, row_end", [
        ("\r", "\n\n"),  # an empty record after each row
        ("\r", "\r"),
        ("\n", "\r\n\r\n"),
    ])
    def test_ranges_never_start_at_a_newline(self, tmp_path, header_end, row_end):
        path = tmp_path / "ledger.csv"
        rows = [make_row(cid=f"c{i % 3 + 1}", amount="0.00" if i % 50 == 7 else f"{i + 1}.00")
                for i in range(300)]
        data = (HEADER[:-1] + header_end + "".join(r[:-1] + row_end for r in rows)).encode()
        path.write_bytes(data)
        with mock.patch.object(ingest, "MIN_SPLIT_BYTES", 0), \
                mock.patch.object(ingest, "BLOCK_CHARS", 97):
            ranges = ledger_ranges(path, 4)
        assert len(ranges) == 4
        assert all(data[r.start] != ord("\n") for r in ranges)
        kw = dict(window=WINDOW, register=register_of({"c1", "c2", "c3"}))
        with open(path, "rb") as fh:
            whole = TransactionReader(fh, **kw)
            list(whole)
        parts = self.read(path, ranges, **kw)
        assert join_rejections([(r.errors, r.records) for _, r, _ in parts], 100) == whole.errors
        assert sum(r.records for _, r, _ in parts) == whole.records
        assert sum(r.accepted for _, r, _ in parts) == whole.accepted == 294

    @pytest.mark.parametrize("delimiter", [",", ";"])
    @pytest.mark.parametrize("account", [
        'a"\n{delimiter}\r\n{i}',  # quoted, with quotes, delimiters and line ends
        'a"b{i}',  # a quote in an unquoted field
        '"a{delimiter}"b{i}',  # text after a closing quote
    ])
    def test_quoted_ledger_is_cut_between_records(self, tmp_path, delimiter, account):
        path = tmp_path / "ledger.csv"
        with open(path, "w", newline="") as fh:
            fh.write(delimiter.join(TRANSACTION_FIELDS) + "\n")
            writer = csv.writer(fh, delimiter=delimiter, quoting=csv.QUOTE_ALL)
            for i in range(300):
                text = account.format(delimiter=delimiter, i=i)
                if "\n" in text:
                    writer.writerow([f"c{i % 3 + 1}", text, "2014-03-05T10:00:00", f"{i + 1}.00",
                                     "credit", 1, 1, "BANK\n01"])
                else:  # as it is, irregular quotes and all
                    fh.write(delimiter.join([f"c{i % 3 + 1}", text, "2014-03-05T10:00:00",
                                             f"{i + 1}.00", "credit", "1", "1", "B"]) + "\n")
        data = path.read_bytes()
        with mock.patch.object(ingest, "MIN_SPLIT_BYTES", 0):
            ranges = ledger_ranges(path, 4, delimiter=delimiter)
        assert len(ranges) == 4
        starts = record_starts(data, delimiter)
        assert ranges[0].header == starts[1]
        assert {r.start for r in ranges} < set(starts)
        kw = dict(window=WINDOW, register=register_of({"c1", "c2", "c3"}), delimiter=delimiter)
        parts = self.read(path, ranges, **kw)
        assert sum(r.accepted for _, r, _ in parts) == 300
        assert sum(r.records for _, r, _ in parts) == 300

    def test_unclosed_quote_leaves_no_cut_after_it(self, tmp_path):
        path = tmp_path / "ledger.csv"
        rows = [make_row(cid=f"c{i % 3 + 1}") for i in range(300)]
        rows[10] = '"' + rows[10]  # a quoted field that runs to the end of the ledger
        path.write_text(HEADER + "".join(rows))
        with mock.patch.object(ingest, "MIN_SPLIT_BYTES", 0), \
                mock.patch.object(ingest, "BLOCK_CHARS", 97):
            assert len(ledger_ranges(path, 4)) == 1

    def test_small_ledger_is_one_range(self, tmp_path):
        path = tmp_path / "ledger.csv"
        path.write_text(HEADER + make_row() * 300)
        size = path.stat().st_size
        assert ledger_ranges(path, 4) == [LedgerRange(0, 0, size)]  # under the floor
        with mock.patch.object(ingest, "MIN_SPLIT_BYTES", 0):
            assert len(ledger_ranges(path, 4)) == 4
            assert ledger_ranges(path, 1) == [LedgerRange(0, 0, size)]
