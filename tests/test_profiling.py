import contextlib
import io
import math
import os
import random
import tempfile
import time
from collections import deque
from datetime import date, datetime, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amlprofiler import ingest, parallel
from amlprofiler.ingest import (
    MAX_AMOUNT_CENTS,
    Register,
    TransactionRecord,
    TransactionReader,
    Window,
    parse_customers,
)
from amlprofiler.profiling import (
    Attribute,
    AttributeCuts,
    AttributeSchema,
    DiscretizationSchema,
    Profiles,
    aggregate,
    apply_discretization,
    build_profiles_phase1,
    build_profiles_phase2,
    fifo_lag,
    fit_discretization,
    merge_totals,
    profile_labels,
    profile_matrix,
    profiles_of,
    read_profiles,
    write_profiles,
)

from testkit import chunk_of, write_transactions

Q1 = Window(datetime(2014, 1, 1), datetime(2014, 3, 31, 23, 59, 59))


def txn(cid, month, day, amount_cents, direction, svc=1, ttype=1, cp=None, hour=10):
    return TransactionRecord(
        cid, f"acc_{cid}", datetime(2014, month, day, hour), amount_cents, direction, svc, ttype, cp
    )


def chunked(txns, register):
    return [chunk_of(txns, register)]


def by_name(profiles, cid, name):
    """Attribute ``name`` of customer ``cid``'s profile."""
    return profiles.values[profiles.ids.index(cid), profiles.schema.names.index(name)]


def bin_index(value, cut_points):
    """Closed-left binning, one value at a time: a value equal to a cut point
    takes the lower bin, and values beyond the cuts clamp to the outer bins."""
    for i, cut in enumerate(cut_points):
        if value <= cut:
            return i
    return len(cut_points)


# Spans 1970-01-01 and, under New York's rule, the DST switches of
# 1969-11-02 and 1970-03-08; ``EDGE_TIMES`` sit next to each of them.
EPOCH_WINDOW = Window(datetime(1969, 10, 1), datetime(1970, 3, 31, 23, 59, 59))
EDGE_TIMES = (
    datetime(1969, 11, 1, 12),
    datetime(1969, 11, 2, 1, 30),
    datetime(1969, 11, 3, 12),
    datetime(1969, 12, 31, 23, 59, 59),
    datetime(1970, 1, 1),
    datetime(1970, 3, 8, 2, 30),
    datetime(1970, 3, 9, 12),
)


@contextlib.contextmanager
def host_zone(zone):
    old = os.environ.get("TZ")
    os.environ["TZ"] = zone
    time.tzset()
    try:
        yield
    finally:
        if old is None:
            del os.environ["TZ"]
        else:
            os.environ["TZ"] = old
        time.tzset()


@st.composite
def epoch_ledgers(draw):
    """A small ledger in ``EPOCH_WINDOW`` and a permutation of its rows.

    Rows share a few timestamps, the first row is dated before 1970, and a
    row may come with an opposite-direction twin of the same amount and
    timestamp.
    """
    pre_1970 = st.sampled_from(EDGE_TIMES[:4]) | st.datetimes(
        EPOCH_WINDOW.start, datetime(1969, 12, 31, 23, 59, 59)
    )
    any_time = st.sampled_from(EDGE_TIMES) | st.datetimes(EPOCH_WINDOW.start, EPOCH_WINDOW.end)
    times = [draw(pre_1970)] + draw(st.lists(any_time, min_size=1, max_size=4))

    def rows(ts):
        return st.tuples(st.sampled_from("AB"), ts, st.integers(1, 50_000),
                         st.sampled_from(("credit", "debit")), st.booleans())

    txns = []
    for cid, ts, cents, direction, twin in [draw(rows(st.just(times[0])))] + draw(
        st.lists(rows(st.sampled_from(times)), max_size=14)
    ):
        directions = ("credit", "debit") if twin else (direction,)
        txns += [TransactionRecord(cid, f"acc_{cid}", ts, cents, d, 1, 1, None) for d in directions]
    return txns, draw(st.permutations(txns))


def fifo_walk(timestamp, cents):
    """The queue walk the vectorised ``fifo_lag`` replaced: each debit takes
    the oldest outstanding credits first, piece by piece."""
    queue = deque()
    weighted, matched = 0.0, 0
    for ts, c in zip(timestamp.tolist(), cents.tolist()):
        if c > 0:
            queue.append([c, ts])
            continue
        remaining = -c
        while remaining > 0 and queue:
            entry = queue[0]
            take = entry[0] if entry[0] <= remaining else remaining
            weighted += take * (ts - entry[1])
            matched += take
            remaining -= take
            entry[0] -= take
            if entry[0] == 0:
                queue.popleft()
    return weighted, matched


@st.composite
def event_logs(draw):
    """One customer's events in FIFO order, with repeated timestamps and
    amounts; sometimes amounts near the int64 limit."""
    big = draw(st.booleans())
    amounts = (st.integers(MAX_AMOUNT_CENTS - 10**6, MAX_AMOUNT_CENTS) if big
               else st.sampled_from([1, 7, 100, 250, 1000]) | st.integers(1, 10**6))
    times = st.sampled_from([0.0, 60.0, 86400.0, 86401.0]) | st.integers(0, 10**8).map(float)
    events = draw(st.lists(st.tuples(times, amounts, st.booleans()), max_size=40))
    ts = np.array([t for t, _, _ in events], dtype=np.float64)
    cents = np.array([c if credit else -c for _, c, credit in events], dtype=np.int64)
    fifo = np.lexsort((np.abs(cents), cents < 0, ts))
    return ts[fifo], cents[fifo]


class TestPhase1:
    def ledger(self):
        txns = []
        # A: two credits per month (services 1 and 2), amount 100.00 each
        for month in (1, 2, 3):
            txns.append(txn("A", month, 5, 10000, "credit", svc=1))
            txns.append(txn("A", month, 20, 10000, "credit", svc=2))
        # B: burst in January, one credit in February, silent March
        txns.append(txn("B", 1, 3, 5000, "credit", svc=5))
        txns.append(txn("B", 1, 10, 3000, "debit", svc=5))
        txns.append(txn("B", 1, 20, 1000, "debit", svc=5))
        txns.append(txn("B", 2, 2, 2000, "credit", svc=5))
        # C: a single transaction
        txns.append(txn("C", 2, 14, 700, "debit", svc=3))
        register = Register.of({
            "A": date(2010, 1, 1),
            "B": date(2012, 7, 1),
            "C": date(2014, 1, 2),
        })
        return txns, register

    def test_monthly_average_forced(self):
        txns, register = self.ledger()
        profiles = build_profiles_phase1(chunked(txns, register), register, Q1)
        assert by_name(profiles, "A", "monthly_txns_avg") == 2.0
        assert by_name(profiles, "A", "monthly_credits_avg") == 2.0
        assert by_name(profiles, "A", "monthly_debits_avg") == 0.0
        assert by_name(profiles, "A", "monthly_services_avg") == 2.0

    def test_zero_variance_customer(self):
        txns, register = self.ledger()
        profiles = build_profiles_phase1(chunked(txns, register), register, Q1)
        for name in profiles.schema.names:
            if name.endswith("_std"):
                assert by_name(profiles, "A", name) == 0.0

    def test_constructed_ledger_exact_table(self):
        # expectations hand-aggregated from the ledger definition
        txns, register = self.ledger()
        profiles = build_profiles_phase1(chunked(txns, register), register, Q1)
        assert by_name(profiles, "B", "monthly_txns_avg") == pytest.approx(4 / 3)
        assert by_name(profiles, "B", "monthly_txns_std") == pytest.approx(math.sqrt(14) / 3)
        assert by_name(profiles, "B", "monthly_debits_avg") == pytest.approx(2 / 3)
        assert by_name(profiles, "B", "monthly_debits_std") == pytest.approx(math.sqrt(8) / 3)
        assert by_name(profiles, "B", "monthly_credits_avg") == pytest.approx(2 / 3)
        assert by_name(profiles, "B", "monthly_credits_std") == pytest.approx(math.sqrt(2) / 3)
        assert by_name(profiles, "B", "monthly_services_avg") == pytest.approx(2 / 3)
        assert by_name(profiles, "B", "amount_avg") == pytest.approx(27.5)
        # amounts 50, 30, 10, 20: population variance 218.75
        assert by_name(profiles, "B", "amount_std") == pytest.approx(math.sqrt(218.75))
        assert by_name(profiles, "B", "services_distinct_total") == 1.0
        expected_age = (date(2014, 3, 31) - date(2012, 7, 1)).days / 365.25
        assert by_name(profiles, "B", "account_age_years") == pytest.approx(expected_age)

    def test_profile_count_equals_distinct_customers(self):
        txns, register = self.ledger()
        profiles = build_profiles_phase1(chunked(txns, register), register, Q1)
        assert sorted(profiles.ids) == ["A", "B", "C"]

    def test_unknown_customer_rejected(self):
        txns, register = self.ledger()
        txns.append(txn("GHOST", 1, 5, 100, "credit"))
        ledger = io.StringIO()
        write_transactions(txns, ledger)
        reader = TransactionReader(io.BytesIO(ledger.getvalue().encode()), window=Q1, register=register)
        profiles = build_profiles_phase1(reader, register, Q1)
        # the header is line 1, so the last of len(txns) rows is on line len(txns) + 1
        assert [(e.line_no, e.reason) for e in reader.errors] == [
            (len(txns) + 1, "customer 'GHOST' not in register")
        ]
        assert sorted(profiles.ids) == ["A", "B", "C"]


class TestPhase2:
    def register(self, *cids):
        return Register.of({c: date(2013, 1, 1) for c in cids})

    def test_same_day_passthrough_lag_zero(self):
        txns = [
            txn("P", 1, 5, 100000, "credit"),
            txn("P", 1, 5, 100000, "debit", cp="BANK_02"),
        ]
        register = self.register("P")
        profiles = build_profiles_phase2(chunked(txns, register), register, Q1)
        assert by_name(profiles, "P", "in_out_lag_days") == 0.0

    def test_all_interbank_debits_ratio_one(self):
        txns = [
            txn("P", 1, 5, 5000, "credit"),
            txn("P", 1, 8, 3000, "debit", cp="BANK_01"),
            txn("P", 2, 9, 2000, "debit", cp="BANK_07"),
        ]
        register = self.register("P")
        profiles = build_profiles_phase2(chunked(txns, register), register, Q1)
        assert by_name(profiles, "P", "interbank_outflow_ratio") == 1.0
        assert by_name(profiles, "P", "intrabank_transfer_ratio") == 0.0

    def test_fifo_matching_oracle(self):
        # credits on day 1 and day 10 of 100.00 each, one 200.00 debit on day 11:
        # matched value-days = 100 * 10 + 100 * 1, over 200 matched -> 5.5 days
        txns = [
            txn("F", 1, 1, 10000, "credit"),
            txn("F", 1, 10, 10000, "credit"),
            txn("F", 1, 11, 20000, "debit"),
        ]
        register = self.register("F")
        profiles = build_profiles_phase2(chunked(txns, register), register, Q1)
        assert by_name(profiles, "F", "in_out_lag_days") == pytest.approx(5.5)

    def test_zero_debit_sentinel_is_window_length(self):
        txns = [txn("S", 1, 5, 1000, "credit")]
        register = self.register("S")
        profiles = build_profiles_phase2(chunked(txns, register), register, Q1)
        assert by_name(profiles, "S", "in_out_lag_days") == pytest.approx(Q1.days)

    def test_totals_and_share(self):
        txns = [
            txn("T", 1, 2, 30000, "credit"),
            txn("T", 1, 20, 10000, "debit"),
            txn("T", 2, 3, 10000, "debit", cp="BANK_01"),
        ]
        register = self.register("T")
        profiles = build_profiles_phase2(chunked(txns, register), register, Q1)
        assert by_name(profiles, "T", "total_credited") == 300.0
        assert by_name(profiles, "T", "total_debited") == 200.0
        assert by_name(profiles, "T", "outflow_share") == pytest.approx(0.4)
        assert by_name(profiles, "T", "interbank_outflow_ratio") == pytest.approx(0.5)
        assert by_name(profiles, "T", "intrabank_transfer_ratio") == pytest.approx(0.5)

    def ledger_many(self, rng):
        txns = []
        for i in range(40):
            cid = f"c{i % 7}"
            month = rng.randint(1, 3)
            day = rng.randint(1, 28)
            txns.append(
                txn(
                    cid,
                    month,
                    day,
                    rng.randint(1, 50000),
                    "credit" if rng.random() < 0.6 else "debit",
                    svc=rng.randint(1, 4),
                    cp="BANK_01" if rng.random() < 0.3 else None,
                    hour=rng.randint(0, 23),
                )
            )
        return txns, self.register(*{t.customer_id for t in txns})

    @given(epoch_ledgers())
    @settings(max_examples=150, deadline=None)
    def test_permutation_invariance(self, ledger):
        txns, shuffled = ledger
        register = self.register("A", "B")
        ledger_csv = io.StringIO()
        write_transactions(shuffled, ledger_csv)
        with host_zone("UTC"):
            base = build_profiles_phase2(chunked(txns, register), register, EPOCH_WINDOW)
        for zone in ("UTC", "EST5EDT,M3.2.0,M11.1.0"):
            with host_zone(zone):
                reader = TransactionReader(io.BytesIO(ledger_csv.getvalue().encode()), window=EPOCH_WINDOW,
                                           register=register)
                again = build_profiles_phase2(reader, register, EPOCH_WINDOW)
            assert reader.rejected == 0
            assert again.ids == base.ids
            assert again.values.tolist() == base.values.tolist()

    def test_credit_matches_before_debit_at_equal_timestamps(self):
        credit, debit = txn("T", 2, 5, 100, "credit"), txn("T", 2, 5, 100, "debit")
        register = self.register("T")
        credit_first = build_profiles_phase2(chunked([credit, debit], register), register, Q1)
        debit_first = build_profiles_phase2(chunked([debit, credit], register), register, Q1)
        assert debit_first.values.tolist() == credit_first.values.tolist()
        assert by_name(debit_first, "T", "in_out_lag_days") == 0.0

    def test_pre_1970_ledger(self):
        window = Window(datetime(1965, 1, 1), datetime(1965, 3, 31, 23, 59, 59))
        txns = [
            TransactionRecord("P", "acc_P", datetime(1965, 1, 5, 10), 100, "credit", 1, 1, None),
            TransactionRecord("P", "acc_P", datetime(1965, 1, 7, 10), 100, "debit", 1, 1, None),
        ]
        register = Register.of({"P": date(1960, 1, 1)})
        profiles = build_profiles_phase2(chunked(txns, register), register, window)
        assert by_name(profiles, "P", "in_out_lag_days") == 2.0

    def test_host_time_zone_does_not_change_lag(self):
        # A credit and a debit straddling the 2014 US daylight-saving switch.
        # The POSIX rule string is New York's and needs no zone database.
        txns = [txn("T", 3, 8, 100, "credit", hour=12), txn("T", 3, 10, 100, "debit", hour=12)]
        lags = []
        for zone in ("UTC", "EST5EDT,M3.2.0,M11.1.0"):
            with host_zone(zone):
                register = self.register("T")
                profiles = build_profiles_phase2(chunked(txns, register), register, Q1)
            lags.append(by_name(profiles, "T", "in_out_lag_days"))
        assert lags == [2.0, 2.0]

    @given(event_logs())
    @settings(max_examples=300, deadline=None)
    def test_vectorised_fifo_equals_queue_walk(self, log):
        ts, cents = log
        weighted, matched = fifo_lag(ts, cents)
        assert (weighted, matched) == fifo_walk(ts, cents)
        assert type(weighted) is float and type(matched) is int

    def test_amounts_near_int64_limit_keep_exact_std(self):
        # the cents squared sum far beyond int64: amount_std must come from
        # the exact integers
        amounts = [MAX_AMOUNT_CENTS, MAX_AMOUNT_CENTS - 1, MAX_AMOUNT_CENTS // 3, 12345]
        txns = [txn("T", 1, 1 + i, c, ("credit", "debit")[i % 2]) for i, c in enumerate(amounts)]
        register = self.register("T")
        profiles = build_profiles_phase2(chunked(txns, register), register, Q1)
        n, total, sqsum = len(amounts), sum(amounts), sum(c * c for c in amounts)
        assert sqsum > 2**63
        assert by_name(profiles, "T", "amount_avg") == total / (n * 100)
        assert by_name(profiles, "T", "amount_std") == math.sqrt(n * sqsum - total * total) / (n * 100)
        assert by_name(profiles, "T", "total_credited") == (amounts[0] + amounts[2]) / 100
        assert by_name(profiles, "T", "total_debited") == (amounts[1] + amounts[3]) / 100

    def test_invariant_ranges(self):
        rng = random.Random(11)
        txns, register = self.ledger_many(rng)
        profiles = build_profiles_phase2(chunked(txns, register), register, Q1)
        for cid in profiles.ids:
            for name in ("interbank_outflow_ratio", "intrabank_transfer_ratio", "outflow_share"):
                assert 0.0 <= by_name(profiles, cid, name) <= 1.0
            assert 0.0 <= by_name(profiles, cid, "in_out_lag_days") <= Q1.days
            for name in profiles.schema.names:
                if name.endswith("_std"):
                    assert by_name(profiles, cid, name) >= 0.0


class TestRangesAndShards:
    """A ledger cut into consecutive streams whose totals are merged, and
    the FIFO match cut into customer shards, give the one-stream profiles."""

    def ledger(self, seed, customers=9):
        rng = random.Random(seed)
        txns = [txn(f"c{rng.randrange(customers)}", rng.randint(1, 3), rng.randint(1, 28),
                    rng.choice([rng.randint(1, 50000), 5000]),
                    "credit" if rng.random() < 0.55 else "debit", svc=rng.randint(1, 6),
                    cp="BANK_01" if rng.random() < 0.3 else None, hour=rng.choice([0, 10, 23]))
                for _ in range(rng.randint(0, 120))]
        # customers 0..customers-1 and two more that have no rows
        register = Register.of({f"c{i}": date(2013, 1, 1) for i in range(customers + 2)})
        return txns, register

    @pytest.mark.parametrize("fork", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_sharded_lags_equal_the_serial_loop(self, monkeypatch, fork, seed):
        monkeypatch.setattr(parallel, "fork_allowed", fork)
        txns, register = self.ledger(seed)
        chunks = [chunk_of(txns[i : i + 17], register) for i in range(0, len(txns), 17)]
        totals = aggregate(chunks, register, Q1, flows=True)
        serial = totals.lags(1)
        for shards in range(2, 8):
            weighted, matched = totals.lags(shards)
            assert [w.hex() for w in weighted] == [w.hex() for w in serial[0]]
            assert matched == serial[1]

    @pytest.mark.parametrize("flows", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_merged_streams_give_the_one_stream_profiles(self, flows, seed):
        txns, register = self.ledger(seed)
        build = build_profiles_phase2 if flows else build_profiles_phase1
        whole = build(chunked(txns, register), register, Q1)
        rng = random.Random(seed)
        cuts = sorted(rng.randint(0, len(txns)) for _ in range(rng.randint(1, 4)))
        streams = [txns[a:b] for a, b in zip([0, *cuts], [*cuts, len(txns)])]
        spills = [tempfile.TemporaryFile() for _ in streams]
        try:
            parts = []
            for stream, spill in zip(streams, spills):
                part = aggregate(chunked(stream, register), register, Q1, flows=flows)
                part.spill(spill)
                parts.append(part)
            totals = merge_totals(parts, spills)
        finally:
            for spill in spills:
                spill.close()
        merged = profiles_of(totals, register, Q1, len(streams))
        assert merged.schema == whole.schema
        assert merged.ids == whole.ids
        assert merged.values.tolist() == whole.values.tolist()


def numeric_profiles(values_per_attr, labels=None):
    n = len(next(iter(values_per_attr.values())))
    schema = AttributeSchema(tuple(Attribute(name) for name in values_per_attr))
    values = np.array(list(values_per_attr.values()), dtype=np.float64).T.reshape(n, len(schema))
    return Profiles(schema, tuple(f"c{i}" for i in range(n)), values,
                    None if labels is None else np.array(labels, dtype=np.int64))


def roundtrip(profiles):
    """The CSV of ``profiles`` and the table read back from it."""
    buf = io.StringIO()
    write_profiles(buf, profiles)
    return buf.getvalue(), read_profiles(io.StringIO(buf.getvalue()), profiles.schema)


def cuts_of(*cut_points):
    levels = ("low", "high") if len(cut_points) == 1 else ("low", "mid", "high")
    return DiscretizationSchema((AttributeCuts("x", cut_points, levels),))


def nominal_bins(profiles, dschema, column=0):
    return apply_discretization(profiles, dschema).values[:, column].tolist()


class TestRegisterPositions:
    """Ledger rows reach the totals as register positions, whichever way
    the reader reads them."""

    REGISTER = ('customer_id,account_open_date\nc1,2010-01-01\nc2,2011-02-03\n'
                '"c""5",2012-03-04\nc3,2013-04-05\nc9,2014-13-01\n')
    # (the id as written, the id)
    CUSTOMERS = [("c1", "c1"), ('"c2"', "c2"), ("c3", "c3"), ('"c""5"', 'c"5'), ("c9", "c9")]
    # "Credit " and an id with a quote in it take _parse_row, and so do the
    # rows of c9, whose register row is rejected
    DIRECTIONS = ["credit", "debit", "Credit ", "debit"]

    def test_mixed_block_in_posting_order(self):
        register, reg_errors = parse_customers(io.BytesIO(self.REGISTER.encode()), window=Q1)
        assert register.ids == ('c"5', "c1", "c2", "c3")
        rejected = {e.customer_id for e in reg_errors} - register.code.keys()
        assert rejected == {"c9"}
        rows, expected, slow = [], {}, 0
        for i in range(60):
            written, cid = self.CUSTOMERS[i % len(self.CUSTOMERS)]
            direction = self.DIRECTIONS[i % len(self.DIRECTIONS)]
            ts = (datetime(2014, 1, 1) + timedelta(hours=30 * i)).isoformat()
            rows.append((cid, f"{written},a,{ts},{i + 1}.{i:02d},{direction},{i % 3},1,\n"))
            if cid != "c9":
                cents = (i + 1) * 100 + i
                expected[cents if direction.strip().lower() == "credit" else -cents] = register.code[cid]
            slow += direction != direction.strip() or cid in ('c"5', "c9")
        header = ",".join(ingest.TRANSACTION_FIELDS) + "\n"

        def read(lines):
            return TransactionReader(io.BytesIO((header + "".join(lines)).encode()), window=Q1,
                                     register=register, rejected_customers=rejected)

        posted = read([line for _, line in rows])
        with mock.patch.object(ingest, "_parse_row", wraps=ingest._parse_row) as parse_row:
            chunks = list(posted)
        assert len(chunks) == 1  # one block
        assert parse_row.call_count == slow
        assert posted.errors == [] and posted.dropped == 12
        assert dict(zip(chunks[0].cents.tolist(), chunks[0].customer.tolist())) == expected
        grouped = [line for _, line in sorted(rows, key=lambda row: row[0])]
        for build in (build_profiles_phase1, build_profiles_phase2):
            want = build(read(grouped), register, Q1)
            got = build(chunks, register, Q1)
            assert got.ids == want.ids == register.ids
            assert got.values.tolist() == want.values.tolist()


class TestPersistence:
    def test_profiles_csv_roundtrip(self):
        profiles = numeric_profiles({"x": [0.1, 2.5, 3.75], "y": [1e9, 0.01, 536852446.89]},
                                    labels=[0, 4, 1])
        text, again = roundtrip(profiles)
        assert again.ids == profiles.ids
        assert again.values.tolist() == profiles.values.tolist()
        assert again.labels.tolist() == [0, 4, 1] and again.labels.dtype == np.int64
        assert text.splitlines()[:2] == ["customer_id,x,y,label", "c0,0.1,1000000000.0,0"]
        assert roundtrip(again)[0] == text

    @pytest.mark.parametrize("values", [{"x": [0.1, -2.5, 1e-300], "y": [3.0, 0.0, 7.25]},
                                        {"x": [], "y": []}])
    def test_unlabeled_and_empty_tables_roundtrip(self, values):
        profiles = numeric_profiles(values)
        text, again = roundtrip(profiles)
        assert again.labels is None
        assert again.values.shape == (len(values["x"]), 2)
        assert again.values.tolist() == profiles.values.tolist()
        assert roundtrip(again)[0] == text
        assert len(text.splitlines()) == len(values["x"]) + 1

    def test_an_empty_label_cell_leaves_the_table_unlabeled(self):
        schema = numeric_profiles({"x": [0.0]}).schema
        again = read_profiles(io.StringIO("customer_id,x,label\nc0,1.0,3\nc1,2.0,\n"), schema)
        assert again.labels is None and again.ids == ("c0", "c1")
        with pytest.raises(ValueError, match="not labeled"):
            profile_labels(again)

    @pytest.mark.parametrize("bad_row", ["c1,0.5", "c1,0.5,2.0,3,9"])
    def test_profiles_csv_row_width_checked(self, bad_row):
        schema = numeric_profiles({"x": [0.0], "y": [0.0]}).schema
        text = f"customer_id,x,y,label\nc0,1.0,2.0,3\n{bad_row}\n"
        with pytest.raises(ValueError, match="line 3"):
            read_profiles(io.StringIO(text), schema)

    @pytest.mark.parametrize("text, message", [
        ("customer_id,x,y\nc0,1.0,2.0\nc1,abc,2.0\n", "line 3: could not convert string to float: 'abc'"),
        ("customer_id,x,y,label\nc0,1.0,2.0,1.5\n", "line 2: invalid literal for int"),
        ("customer_id,y,x\nc0,1.0,2.0\n", "line 1: profile header"),
        ("", "line 1: profile header"),
    ])
    def test_malformed_profile_csv_names_its_line(self, text, message):
        schema = numeric_profiles({"x": [0.0], "y": [0.0]}).schema
        with pytest.raises(ValueError, match=message):
            read_profiles(io.StringIO(text), schema)

    def test_matrix_and_labels_are_the_table_columns(self):
        profiles = numeric_profiles({"x": [1.0, 2.0]}, labels=[1, 0])
        assert profile_matrix(profiles) is profiles.values
        assert profile_labels(profiles) is profiles.labels


class TestDiscretization:
    def test_uniform_1_to_9(self):
        profiles = numeric_profiles({"x": [float(v) for v in range(1, 10)]})
        d = fit_discretization(profiles)
        cuts = d.for_attribute("x")
        assert cuts.cut_points == (3.0, 6.0)
        assert cuts.levels == ("low", "mid", "high")
        assert nominal_bins(profiles, d) == [0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_concentration_fallback_two_levels(self):
        values = [0.0] * 12 + [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        profiles = numeric_profiles({"x": values})
        d = fit_discretization(profiles)
        cuts = d.for_attribute("x")
        assert cuts.levels == ("low", "high")
        assert cuts.cut_points == (0.0,)
        bins = nominal_bins(profiles, d)
        assert bins[:12] == [0] * 12 and set(bins[12:]) == {1}

    def test_constant_attribute_skipped(self):
        profiles = numeric_profiles({"x": [5.0] * 10, "y": [float(i) for i in range(10)]},
                                    labels=list(range(10)))
        d = fit_discretization(profiles)
        assert d.skipped == ("x",)
        nominal = apply_discretization(profiles, d)
        assert nominal.schema.names == ("y",)
        assert nominal.ids == profiles.ids and nominal.labels is profiles.labels

    def test_lognormal_matches_sort_oracle(self):
        rng = np.random.default_rng(3)
        values = rng.lognormal(0, 1, size=10_000).tolist()
        d = fit_discretization(numeric_profiles({"x": values}))
        # independent oracle: index the sorted sample at ceil(n/3), ceil(2n/3)
        s = sorted(values)
        n = len(s)
        expected = (s[math.ceil(n / 3) - 1], s[math.ceil(2 * n / 3) - 1])
        assert d.for_attribute("x").cut_points == expected

    def test_bin_populations_balanced(self):
        rng = np.random.default_rng(8)
        values = rng.normal(0, 1, size=902).tolist()  # all distinct w.p. 1
        profiles = numeric_profiles({"x": values})
        bins = nominal_bins(profiles, fit_discretization(profiles))
        counts = np.bincount(np.array(bins, dtype=np.int64), minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_cut_point_assigns_lower_bin(self):
        assert bin_index(3.0, (3.0, 6.0)) == 0
        assert bin_index(6.0, (3.0, 6.0)) == 1
        assert nominal_bins(numeric_profiles({"x": [3.0, 6.0]}), cuts_of(3.0, 6.0)) == [0, 1]

    def test_clamping(self):
        assert bin_index(-100.0, (3.0, 6.0)) == 0
        assert bin_index(1e9, (3.0, 6.0)) == 2
        assert nominal_bins(numeric_profiles({"x": [-100.0, 1e9]}), cuts_of(3.0, 6.0)) == [0, 2]

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=4, max_size=200))
    @settings(max_examples=60)
    def test_total_mapping(self, values):
        if len(set(values)) < 2:
            return
        d = fit_discretization(numeric_profiles({"x": values}))
        cuts = d.for_attribute("x")
        if cuts is None:
            return
        for v in values + [min(values) - 1, max(values) + 1]:
            assert 0 <= bin_index(v, cuts.cut_points) < len(cuts.levels)

    @given(st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=60),
           st.lists(st.floats(allow_nan=False), max_size=20))
    @settings(max_examples=200)
    def test_binning_equals_the_one_value_oracle(self, sample, probes):
        """Fitted on ``sample``, then applied to the sample, its cut points,
        values next to them, the probes and values beyond the range."""
        fitted = numeric_profiles({"x": sample, "y": [1.0] * len(sample)})
        d = fit_discretization(fitted)
        cuts = d.for_attribute("x")
        if cuts is None:
            assert d.skipped[0] == "x"
            return
        edges = [np.nextafter(c, side) for c in cuts.cut_points for side in (-np.inf, np.inf)]
        values = [*sample, *cuts.cut_points, *edges, *probes, -np.inf, np.inf]
        table = numeric_profiles({"x": values, "y": [0.0] * len(values)})
        nominal = apply_discretization(table, d)
        assert nominal.schema.names == ("x",) and d.skipped == ("y",)
        assert nominal.values[:, 0].tolist() == [float(bin_index(v, cuts.cut_points))
                                                 for v in values]
