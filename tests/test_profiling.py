import contextlib
import io
import math
import os
import random
import time
from collections import deque
from datetime import date, datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amlprofiler.ingest import (
    MAX_AMOUNT_CENTS,
    CustomerRecord,
    TransactionChunk,
    TransactionRecord,
    TransactionReader,
    Window,
    write_transactions,
)
from amlprofiler.profiling import (
    Attribute,
    AttributeSchema,
    CustomerProfile,
    apply_discretization,
    bin_index,
    build_profiles_phase1,
    build_profiles_phase2,
    fifo_lag,
    fit_discretization,
)

Q1 = Window(datetime(2014, 1, 1), datetime(2014, 3, 31, 23, 59, 59))


def txn(cid, month, day, amount_cents, direction, svc=1, ttype=1, cp=None, hour=10):
    return TransactionRecord(
        cid, f"acc_{cid}", datetime(2014, month, day, hour), amount_cents, direction, svc, ttype, cp
    )


def chunked(txns):
    return [TransactionChunk.from_records(txns)]


def by_name(schema, profile, name):
    return profile.values[schema.index(name)]


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
        register = {
            "A": CustomerRecord("A", date(2010, 1, 1)),
            "B": CustomerRecord("B", date(2012, 7, 1)),
            "C": CustomerRecord("C", date(2014, 1, 2)),
        }
        return txns, register

    def test_monthly_average_forced(self):
        txns, register = self.ledger()
        schema, profiles = build_profiles_phase1(chunked(txns), register, Q1)
        a = next(p for p in profiles if p.customer_id == "A")
        assert by_name(schema, a, "monthly_txns_avg") == 2.0
        assert by_name(schema, a, "monthly_credits_avg") == 2.0
        assert by_name(schema, a, "monthly_debits_avg") == 0.0
        assert by_name(schema, a, "monthly_services_avg") == 2.0

    def test_zero_variance_customer(self):
        txns, register = self.ledger()
        schema, profiles = build_profiles_phase1(chunked(txns), register, Q1)
        a = next(p for p in profiles if p.customer_id == "A")
        for name in schema.names:
            if name.endswith("_std"):
                assert by_name(schema, a, name) == 0.0

    def test_constructed_ledger_exact_table(self):
        # expectations hand-aggregated from the ledger definition
        txns, register = self.ledger()
        schema, profiles = build_profiles_phase1(chunked(txns), register, Q1)
        b = next(p for p in profiles if p.customer_id == "B")
        assert by_name(schema, b, "monthly_txns_avg") == pytest.approx(4 / 3)
        assert by_name(schema, b, "monthly_txns_std") == pytest.approx(math.sqrt(14) / 3)
        assert by_name(schema, b, "monthly_debits_avg") == pytest.approx(2 / 3)
        assert by_name(schema, b, "monthly_debits_std") == pytest.approx(math.sqrt(8) / 3)
        assert by_name(schema, b, "monthly_credits_avg") == pytest.approx(2 / 3)
        assert by_name(schema, b, "monthly_credits_std") == pytest.approx(math.sqrt(2) / 3)
        assert by_name(schema, b, "monthly_services_avg") == pytest.approx(2 / 3)
        assert by_name(schema, b, "amount_avg") == pytest.approx(27.5)
        # amounts 50, 30, 10, 20: population variance 218.75
        assert by_name(schema, b, "amount_std") == pytest.approx(math.sqrt(218.75))
        assert by_name(schema, b, "services_distinct_total") == 1.0
        expected_age = (date(2014, 3, 31) - date(2012, 7, 1)).days / 365.25
        assert by_name(schema, b, "account_age_years") == pytest.approx(expected_age)

    def test_profile_count_equals_distinct_customers(self):
        txns, register = self.ledger()
        _, profiles = build_profiles_phase1(chunked(txns), register, Q1)
        assert sorted(p.customer_id for p in profiles) == ["A", "B", "C"]

    def test_unknown_customer_rejected(self):
        txns, register = self.ledger()
        txns.append(txn("GHOST", 1, 5, 100, "credit"))
        ledger = io.StringIO()
        write_transactions(txns, ledger)
        reader = TransactionReader(io.StringIO(ledger.getvalue()), window=Q1, register=register)
        _, profiles = build_profiles_phase1(reader, register, Q1)
        # the header is line 1, so the last of len(txns) rows is on line len(txns) + 1
        assert [(e.line_no, e.reason) for e in reader.errors] == [
            (len(txns) + 1, "customer 'GHOST' not in register")
        ]
        assert sorted(p.customer_id for p in profiles) == ["A", "B", "C"]
        with pytest.raises(ValueError, match="GHOST"):
            build_profiles_phase1(chunked(txns), register, Q1)


class TestPhase2:
    def register(self, *cids):
        return {c: CustomerRecord(c, date(2013, 1, 1)) for c in cids}

    def test_same_day_passthrough_lag_zero(self):
        txns = [
            txn("P", 1, 5, 100000, "credit"),
            txn("P", 1, 5, 100000, "debit", cp="BANK_02"),
        ]
        schema, profiles = build_profiles_phase2(chunked(txns), self.register("P"), Q1)
        assert by_name(schema, profiles[0], "in_out_lag_days") == 0.0

    def test_all_interbank_debits_ratio_one(self):
        txns = [
            txn("P", 1, 5, 5000, "credit"),
            txn("P", 1, 8, 3000, "debit", cp="BANK_01"),
            txn("P", 2, 9, 2000, "debit", cp="BANK_07"),
        ]
        schema, profiles = build_profiles_phase2(chunked(txns), self.register("P"), Q1)
        assert by_name(schema, profiles[0], "interbank_outflow_ratio") == 1.0
        assert by_name(schema, profiles[0], "intrabank_transfer_ratio") == 0.0

    def test_fifo_matching_oracle(self):
        # credits on day 1 and day 10 of 100.00 each, one 200.00 debit on day 11:
        # matched value-days = 100 * 10 + 100 * 1, over 200 matched -> 5.5 days
        txns = [
            txn("F", 1, 1, 10000, "credit"),
            txn("F", 1, 10, 10000, "credit"),
            txn("F", 1, 11, 20000, "debit"),
        ]
        schema, profiles = build_profiles_phase2(chunked(txns), self.register("F"), Q1)
        assert by_name(schema, profiles[0], "in_out_lag_days") == pytest.approx(5.5)

    def test_zero_debit_sentinel_is_window_length(self):
        txns = [txn("S", 1, 5, 1000, "credit")]
        schema, profiles = build_profiles_phase2(chunked(txns), self.register("S"), Q1)
        assert by_name(schema, profiles[0], "in_out_lag_days") == pytest.approx(Q1.days)

    def test_totals_and_share(self):
        txns = [
            txn("T", 1, 2, 30000, "credit"),
            txn("T", 1, 20, 10000, "debit"),
            txn("T", 2, 3, 10000, "debit", cp="BANK_01"),
        ]
        schema, profiles = build_profiles_phase2(chunked(txns), self.register("T"), Q1)
        p = profiles[0]
        assert by_name(schema, p, "total_credited") == 300.0
        assert by_name(schema, p, "total_debited") == 200.0
        assert by_name(schema, p, "outflow_share") == pytest.approx(0.4)
        assert by_name(schema, p, "interbank_outflow_ratio") == pytest.approx(0.5)
        assert by_name(schema, p, "intrabank_transfer_ratio") == pytest.approx(0.5)

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
            _, base = build_profiles_phase2(chunked(txns), register, EPOCH_WINDOW)
        for zone in ("UTC", "EST5EDT,M3.2.0,M11.1.0"):
            with host_zone(zone):
                reader = TransactionReader(io.StringIO(ledger_csv.getvalue()), window=EPOCH_WINDOW,
                                           register=register)
                _, again = build_profiles_phase2(reader, register, EPOCH_WINDOW)
            assert reader.rejected == 0
            assert [p.values for p in again] == [p.values for p in base]

    def test_credit_matches_before_debit_at_equal_timestamps(self):
        credit, debit = txn("T", 2, 5, 100, "credit"), txn("T", 2, 5, 100, "debit")
        schema, credit_first = build_profiles_phase2(chunked([credit, debit]), self.register("T"), Q1)
        _, debit_first = build_profiles_phase2(chunked([debit, credit]), self.register("T"), Q1)
        assert debit_first[0].values == credit_first[0].values
        assert by_name(schema, debit_first[0], "in_out_lag_days") == 0.0

    def test_pre_1970_ledger(self):
        window = Window(datetime(1965, 1, 1), datetime(1965, 3, 31, 23, 59, 59))
        txns = [
            TransactionRecord("P", "acc_P", datetime(1965, 1, 5, 10), 100, "credit", 1, 1, None),
            TransactionRecord("P", "acc_P", datetime(1965, 1, 7, 10), 100, "debit", 1, 1, None),
        ]
        register = {"P": CustomerRecord("P", date(1960, 1, 1))}
        schema, profiles = build_profiles_phase2(chunked(txns), register, window)
        assert by_name(schema, profiles[0], "in_out_lag_days") == 2.0

    def test_host_time_zone_does_not_change_lag(self):
        # A credit and a debit straddling the 2014 US daylight-saving switch.
        # The POSIX rule string is New York's and needs no zone database.
        txns = [txn("T", 3, 8, 100, "credit", hour=12), txn("T", 3, 10, 100, "debit", hour=12)]
        lags = []
        for zone in ("UTC", "EST5EDT,M3.2.0,M11.1.0"):
            with host_zone(zone):
                schema, profiles = build_profiles_phase2(chunked(txns), self.register("T"), Q1)
            lags.append(by_name(schema, profiles[0], "in_out_lag_days"))
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
        schema, profiles = build_profiles_phase2(chunked(txns), self.register("T"), Q1)
        n, total, sqsum = len(amounts), sum(amounts), sum(c * c for c in amounts)
        assert sqsum > 2**63
        p = profiles[0]
        assert by_name(schema, p, "amount_avg") == total / (n * 100)
        assert by_name(schema, p, "amount_std") == math.sqrt(n * sqsum - total * total) / (n * 100)
        assert by_name(schema, p, "total_credited") == (amounts[0] + amounts[2]) / 100
        assert by_name(schema, p, "total_debited") == (amounts[1] + amounts[3]) / 100

    def test_invariant_ranges(self):
        rng = random.Random(11)
        txns, register = self.ledger_many(rng)
        schema, profiles = build_profiles_phase2(chunked(txns), register, Q1)
        for p in profiles:
            for name in ("interbank_outflow_ratio", "intrabank_transfer_ratio", "outflow_share"):
                assert 0.0 <= by_name(schema, p, name) <= 1.0
            assert 0.0 <= by_name(schema, p, "in_out_lag_days") <= Q1.days
            for name in schema.names:
                if name.endswith("_std"):
                    assert by_name(schema, p, name) >= 0.0


def numeric_profiles(values_per_attr):
    n = len(next(iter(values_per_attr.values())))
    schema = AttributeSchema(tuple(Attribute(name) for name in values_per_attr))
    profiles = [
        CustomerProfile(f"c{i}", tuple(values_per_attr[a][i] for a in values_per_attr))
        for i in range(n)
    ]
    return schema, profiles


class TestPersistence:
    def test_profiles_csv_roundtrip(self):
        import io

        from amlprofiler.profiling import read_profiles, write_profiles

        schema, profiles = numeric_profiles(
            {"x": [0.1, 2.5, 3.75], "y": [1e9, 0.01, 536852446.89]}
        )
        profiles[1].label = 4
        profiles[0].label = 0
        profiles[2].label = 1
        buf = io.StringIO()
        write_profiles(buf, schema, profiles)
        buf.seek(0)
        again = read_profiles(buf, schema)
        assert [(p.customer_id, p.values, p.label) for p in again] == [
            (p.customer_id, p.values, p.label) for p in profiles
        ]

    @pytest.mark.parametrize("bad_row", ["c1,0.5", "c1,0.5,2.0,3,9"])
    def test_profiles_csv_row_width_checked(self, bad_row):
        import io

        from amlprofiler.profiling import read_profiles

        schema, _ = numeric_profiles({"x": [0.0], "y": [0.0]})
        text = f"customer_id,x,y,label\nc0,1.0,2.0,3\n{bad_row}\n"
        with pytest.raises(ValueError, match="line 3"):
            read_profiles(io.StringIO(text), schema)


class TestDiscretization:
    def test_uniform_1_to_9(self):
        schema, profiles = numeric_profiles({"x": [float(v) for v in range(1, 10)]})
        d = fit_discretization(profiles, schema)
        cuts = d.for_attribute("x")
        assert cuts.cut_points == (3.0, 6.0)
        assert cuts.levels == ("low", "mid", "high")
        _, nominal = apply_discretization(profiles, schema, d)
        bins = [p.values[0] for p in nominal]
        assert bins == [0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_concentration_fallback_two_levels(self):
        values = [0.0] * 12 + [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        schema, profiles = numeric_profiles({"x": values})
        d = fit_discretization(profiles, schema)
        cuts = d.for_attribute("x")
        assert cuts.levels == ("low", "high")
        assert cuts.cut_points == (0.0,)
        _, nominal = apply_discretization(profiles, schema, d)
        bins = [p.values[0] for p in nominal]
        assert bins[:12] == [0] * 12 and set(bins[12:]) == {1}

    def test_constant_attribute_skipped(self):
        schema, profiles = numeric_profiles({"x": [5.0] * 10, "y": [float(i) for i in range(10)]})
        d = fit_discretization(profiles, schema)
        assert d.skipped == ("x",)
        nominal_schema, nominal = apply_discretization(profiles, schema, d)
        assert nominal_schema.names == ("y",)

    def test_lognormal_matches_sort_oracle(self):
        rng = np.random.default_rng(3)
        values = rng.lognormal(0, 1, size=10_000).tolist()
        schema, profiles = numeric_profiles({"x": values})
        d = fit_discretization(profiles, schema)
        # independent oracle: index the sorted sample at ceil(n/3), ceil(2n/3)
        s = sorted(values)
        n = len(s)
        expected = (s[math.ceil(n / 3) - 1], s[math.ceil(2 * n / 3) - 1])
        assert d.for_attribute("x").cut_points == expected

    def test_bin_populations_balanced(self):
        rng = np.random.default_rng(8)
        values = rng.normal(0, 1, size=902).tolist()  # all distinct w.p. 1
        schema, profiles = numeric_profiles({"x": values})
        d = fit_discretization(profiles, schema)
        _, nominal = apply_discretization(profiles, schema, d)
        counts = np.bincount([int(p.values[0]) for p in nominal], minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_cut_point_assigns_lower_bin(self):
        assert bin_index(3.0, (3.0, 6.0)) == 0
        assert bin_index(6.0, (3.0, 6.0)) == 1

    def test_clamping(self):
        assert bin_index(-100.0, (3.0, 6.0)) == 0
        assert bin_index(1e9, (3.0, 6.0)) == 2

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=4, max_size=200))
    @settings(max_examples=60)
    def test_total_mapping(self, values):
        if len(set(values)) < 2:
            return
        schema, profiles = numeric_profiles({"x": values})
        d = fit_discretization(profiles, schema)
        cuts = d.for_attribute("x")
        if cuts is None:
            return
        for v in values + [min(values) - 1, max(values) + 1]:
            assert 0 <= bin_index(v, cuts.cut_points) < len(cuts.levels)
