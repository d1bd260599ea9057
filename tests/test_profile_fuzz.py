"""Malformed input never crashes ``profile``: a mutated ledger and register
give exit 0 with every ledger record accounted for, or exit 2 with a
diagnostic, never exit 1."""

import csv
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from amlprofiler.cli import main

REGISTER = [
    ["customer_id", "account_open_date"],
    ["c1", "2010-05-01"],
    ["c2", "2013-12-31"],
    ["c3", "2014-06-30"],
]
LEDGER = [
    ["customer_id", "account_id", "timestamp", "amount", "direction", "service_code",
     "txn_type_code", "counterparty_bank"],
    ["c1", "a1", "2014-01-03T09:00:00", "120.00", "credit", "1", "1", ""],
    ["c1", "a1", "2014-01-05T10:30:00", "80.50", "debit", "2", "3", "BANKB"],
    ["c1", "a1", "2014-02-11T12:00:00", "5.00", "debit", "3", "99", ""],
    ["c2", "a2", "2014-03-01T00:00:00", "1000.00", "credit", "1", "1", ""],
    ["c2", "a2", "2014-03-01T00:00:00", "999.99", "debit", "4", "2", ""],
    ["c3", "a3", "2014-07-04T18:45:10", "42.42", "credit", "2", "1", "BANKC"],
    ["c3", "a3", "2014-12-31T23:59:59", "42.42", "debit", "2", "2", ""],
]
VALUES = [
    "", " ", '"', '""', 'a"b', '"c1"', "\x00", "c1\x00", ",", "GHOST", "c1", "c2",
    # huge values
    "9" * 25, "99999999999999999999.00", "92233720368547758.07", "1e400", "-1e400", "NaN",
    "Infinity", "-5.00", "0.00", "1.005", "9223372036854775808", "-9223372036854775809",
    # offset and out-of-range dates and timestamps
    "2014-03-01T00:00:00+02:00", "2014-03-01T00:00:00Z", "2014-03-01 00:00:00",
    "2013-12-31T23:59:59", "2015-01-01T00:00:00", "0001-01-01T00:00:00", "9999-12-31T23:59:59",
    "2014-02-29", "2014-12-31", "2015-01-01", "2016-06-30", "0001-01-01", "9999-12-31",
    "20150101", "2014-W10-1",
    # other spellings and non-ASCII digits
    "Credit ", "DEBIT", "credits", "+3", "1_0", "٣", "²", "１0.00",
]
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


@st.composite
def mutation(draw):
    target = draw(st.sampled_from(["ledger", "register"]))
    kind = draw(st.sampled_from(["drop", "swap", "set", "append", "duplicate", "blank"]))
    line = draw(st.integers(0, 40))
    field = draw(st.integers(0, 9))
    other = draw(st.integers(0, 9))
    value = draw(st.sampled_from(VALUES) | TEXT)
    return target, kind, line, field, other, value


def apply(rows, kind, line, field, other, value):
    row = rows[line % len(rows)]
    if kind == "duplicate":
        rows.insert(line % len(rows), list(row))
    elif kind == "blank":
        rows.insert(line % len(rows) + 1, [])
    elif kind == "append":
        row.append(value)
    elif row and kind == "drop":
        del row[field % len(row)]
    elif row and kind == "swap":
        i, j = field % len(row), other % len(row)
        row[i], row[j] = row[j], row[i]
    elif row:
        row[field % len(row)] = value


def write(path, rows):
    # joined without csv quoting, so quotes, commas and newlines in a value
    # reach the reader raw
    path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")


def run_profile(out, config):
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(config))
    try:
        return main(["--config", str(cfg_path), "--out-dir", str(out), "profile"])
    except SystemExit as exc:
        return exc.code


def ledger_records(path):
    """Non-empty records after the header, as ``csv.reader`` splits them."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        return sum(1 for row in reader if row)


@given(
    st.lists(mutation(), max_size=6),
    st.sampled_from([1, 2]),
    st.booleans(),
    st.sampled_from([0, 3, 100]),
)
@settings(max_examples=150, deadline=None)
def test_profile_exits_zero_or_two_and_counts_every_record(mutations, phase, discretize, cap):
    files = {"ledger": [list(r) for r in LEDGER], "register": [list(r) for r in REGISTER]}
    for target, *op in mutations:
        apply(files[target], *op)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write(out / "transactions.csv", files["ledger"])
        write(out / "register.csv", files["register"])
        code = run_profile(out, {
            "window": {"start": "2014-01-01", "end": "2014-12-31"},
            "filter_policy": {"excluded_txn_type_codes": [99]},
            "phase": phase,
            "discretize": discretize,
            "error_cap": cap,
        })
        assert code in (0, 2)
        if code != 0:
            return
        meta = json.loads((out / "profiles.schema.json").read_text())["meta"]
        records = ledger_records(out / "transactions.csv")
        assert meta["rows_accepted"] + meta["rows_rejected"] == records
        assert meta["rows_filtered_out"] <= meta["rows_accepted"]
        with open(out / "profiles.csv", encoding="utf-8", newline="") as fh:
            ages = [float(row["account_age_years"]) for row in csv.DictReader(fh)]
        assert all(age >= 0 for age in ages)
