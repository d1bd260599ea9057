import io
from datetime import datetime
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amlprofiler.ingest import (
    ColumnMapping,
    ConfigError,
    FilterPolicy,
    FilterStats,
    TooManyRowErrors,
    TransactionRecord,
    Window,
    filter_insignificant,
    format_amount,
    parse_amount_cents,
    parse_customers,
    parse_transactions,
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


def read_all(text, **kw):
    reader = parse_transactions(io.StringIO(text), **kw)
    return list(reader), reader


class TestParseTransactions:
    def test_well_formed_row(self):
        records, reader = read_all(HEADER + make_row())
        assert len(records) == 1
        r = records[0]
        assert r.customer_id == "c1"
        assert r.amount == Decimal("10.00")
        assert r.amount_cents == 1000
        assert r.direction == "credit"
        assert r.counterparty_bank is None
        assert reader.accepted == 1 and reader.rejected == 0

    def test_zero_amount_is_row_error(self):
        records, reader = read_all(HEADER + make_row(amount="0.00"))
        assert records == []
        assert reader.rejected == 1
        assert "amount" in reader.errors[0].reason

    def test_negative_amount_is_row_error(self):
        _, reader = read_all(HEADER + make_row(amount="-3.17"))
        assert reader.rejected == 1

    def test_bad_timestamp_reported_with_line_number(self):
        text = HEADER + make_row() + make_row(ts="not-a-date") + make_row()
        records, reader = read_all(text)
        assert len(records) == 2
        assert reader.errors[0].line_no == 3

    def test_non_finite_amount_is_row_error(self):
        text = HEADER + make_row() + make_row(amount="Infinity") + make_row(amount="12.00")
        records, reader = read_all(text)
        assert [r.amount_cents for r in records] == [1000, 1200]
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
        reader = parse_transactions(io.StringIO("".join(parts)), error_cap=10)
        count = sum(1 for _ in reader)
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
        records, _ = read_all(text, mapping=mapping)
        assert records[0].customer_id == "c1"


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
        text = HEADER + "".join(
            make_row(cid=f"c{i}", amount=f"{i + 1}.3{i % 10}", service=i % 5,
                     ttype=i % 3, counterparty="BANK_01" if i % 2 else "")
            for i in range(25)
        )
        records, _ = read_all(text)
        buf = io.StringIO()
        write_transactions(records, buf)
        buf.seek(0)
        again, _ = read_all(buf.getvalue())
        assert again == records


class TestFilter:
    def records(self, codes):
        return [
            TransactionRecord(f"c{i}", "a", datetime(2014, 1, 2), 100, "credit", 1, code, None)
            for i, code in enumerate(codes)
        ]

    def test_excludes_codes(self):
        out = list(filter_insignificant(self.records([1, 99, 2]), FilterPolicy(frozenset({99}))))
        assert [r.txn_type_code for r in out] == [1, 2]

    def test_empty_policy_is_identity(self):
        records = self.records([1, 2, 3])
        assert list(filter_insignificant(records, FilterPolicy())) == records

    def test_all_filtered_warns(self, caplog):
        stats = FilterStats()
        with caplog.at_level("WARNING"):
            out = list(
                filter_insignificant(self.records([9, 9]), FilterPolicy(frozenset({9})), stats)
            )
        assert out == []
        assert stats.dropped == 2 and stats.kept == 0
        assert any("removed all" in m for m in caplog.messages)

    @given(st.lists(st.integers(min_value=0, max_value=9), max_size=30),
           st.sets(st.integers(min_value=0, max_value=9), max_size=5))
    @settings(max_examples=50)
    def test_idempotent(self, codes, excluded):
        policy = FilterPolicy(frozenset(excluded))
        once = list(filter_insignificant(self.records(codes), policy))
        twice = list(filter_insignificant(iter(once), policy))
        assert twice == once


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
        customers, errors = parse_customers(io.StringIO(text))
        assert set(customers) == {"c1", "c2"}
        assert customers["c1"].account_open_date.year == 2010
        assert errors == []

    def test_bad_date_collected(self):
        text = "customer_id,account_open_date\nc1,yesterday\n"
        customers, errors = parse_customers(io.StringIO(text))
        assert customers == {}
        assert errors[0].line_no == 2

    def test_row_too_short_for_customer_id_is_rejected(self):
        # customer_id comes after account_open_date, so a one-field row
        # holds a date but no id
        text = "account_open_date,customer_id\n2010-05-01,c1\n2011-01-01\n2012-02-02,c3\n"
        customers, errors = parse_customers(io.StringIO(text))
        assert set(customers) == {"c1", "c3"}
        assert [e.line_no for e in errors] == [3]
        assert "expected at least 2 columns" in errors[0].reason
