"""Aggregate filtered transactions into per-customer behavioral profiles.

Two attribute rosters are produced.  The general roster captures monthly
activity averages with their dispersions plus account age.  The flow roster
extends it with money-movement attributes: totals in and out, the share of
outflow leaving for other institutions, and the average number of days
credited funds sit in the account before being moved out (FIFO-matched).

``build_profiles_phase1/2`` consume the ``TransactionChunk`` columns that
``ingest`` yields and aggregate each chunk with array operations; only the
final per-customer arithmetic runs per customer.  All monetary aggregation
happens on integer cents, summed exactly, so a profile is a pure function of
the transaction multiset: shuffling the input stream cannot change a single
bit of the output.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from array import array
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import IO, Iterable, Mapping, Optional, Sequence

import numpy as np

from .ingest import CustomerRecord, TransactionChunk, Window
from .manifest import write_json

log = logging.getLogger(__name__)

NUMERIC = "numeric"
NOMINAL = "nominal"


@dataclass(frozen=True)
class Attribute:
    name: str
    kind: str = NUMERIC
    levels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in (NUMERIC, NOMINAL):
            raise ValueError(f"bad attribute kind {self.kind!r}")
        if self.kind == NOMINAL and (self.levels is None or len(self.levels) < 2):
            raise ValueError(f"nominal attribute {self.name!r} needs >= 2 levels")


@dataclass(frozen=True)
class AttributeSchema:
    attributes: tuple[Attribute, ...]

    def __post_init__(self) -> None:
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ValueError("attribute names must be unique")

    def __len__(self) -> int:
        return len(self.attributes)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def numeric_mask(self) -> np.ndarray:
        return np.array([a.kind == NUMERIC for a in self.attributes], dtype=bool)

    def to_json(self) -> dict:
        return {
            "attributes": [
                {"name": a.name, "kind": a.kind, "levels": list(a.levels) if a.levels else None}
                for a in self.attributes
            ]
        }

    @staticmethod
    def from_json(obj: dict) -> "AttributeSchema":
        return AttributeSchema(
            tuple(
                Attribute(d["name"], d["kind"], tuple(d["levels"]) if d.get("levels") else None)
                for d in obj["attributes"]
            )
        )


@dataclass
class CustomerProfile:
    customer_id: str
    values: tuple[float, ...]
    label: Optional[int] = None


PHASE1_NAMES = (
    "monthly_services_avg",
    "monthly_services_std",
    "monthly_txns_avg",
    "monthly_txns_std",
    "monthly_debits_avg",
    "monthly_debits_std",
    "monthly_credits_avg",
    "monthly_credits_std",
    "amount_avg",
    "amount_std",
    "account_age_years",
    "services_distinct_total",
)

PHASE2_EXTRA_NAMES = (
    "total_credited",
    "total_debited",
    "interbank_outflow_ratio",
    "intrabank_transfer_ratio",
    "in_out_lag_days",
    "outflow_share",
)


def phase1_schema() -> AttributeSchema:
    return AttributeSchema(tuple(Attribute(n) for n in PHASE1_NAMES))

def phase2_schema() -> AttributeSchema:
    return AttributeSchema(tuple(Attribute(n) for n in PHASE1_NAMES + PHASE2_EXTRA_NAMES))


def _mean_std(n: int, total: int, sqsum: int, scale: int = 1) -> tuple[float, float]:
    """Population mean and std of n integers from their sum and sum of squares.

    ``scale`` divides the result (100 turns cents into currency units).
    n*Q - S^2 is a nonnegative integer, so the std can never come out as a
    small negative float.
    """
    mean = total / (n * scale)
    std = math.sqrt(n * sqsum - total * total) / (n * scale)
    return mean, std


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the entries that start a run of equal values."""
    starts = np.ones(len(values), dtype=bool)
    starts[1:] = values[1:] != values[:-1]
    return starts


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values.  Plain ``np.unique`` takes a hash-table path
    in numpy 2 when it returns no inverse or counts; on these int64 keys it
    is several times slower than one sort, and it raised the peak RSS of
    profiling a 400k-row ledger by about 3 MB."""
    values = np.sort(values)
    return values[_run_starts(values)]


def fifo_lag(timestamp: np.ndarray, cents: np.ndarray) -> tuple[float, int]:
    """Cents-weighted seconds and cents matched when each debit takes the
    oldest outstanding credits first.

    The events are one customer's, in FIFO order, with signed cents (credits
    positive).  A debit matches min(its cents, the credit left over); the
    rest of it stays unmatched.  So the cents matched through event j are
    M_j = min(M_{j-1} + debit_j, credited_j), that is debited_j plus the
    running minimum of min(0, credited - debited).  Cutting the cumulative
    axis at every credit boundary and every M_j gives the matched pieces in
    the order a queue walk meets them, and their weighted lags are summed in
    that order with one sequential cumsum, so the float total is the one the
    walk adds up.  Totals beyond int64 are summed as Python integers.
    """
    if float(np.abs(cents).sum(dtype=np.float64)) >= 2.0**62:
        cents = cents.astype(object)
    is_credit = cents > 0
    credited = np.cumsum(np.where(is_credit, cents, 0))
    debited = np.cumsum(np.where(is_credit, 0, -cents))
    matched = debited + np.minimum(np.minimum.accumulate(credited - debited), 0)
    total = int(matched[-1]) if len(matched) else 0
    if total == 0:
        return 0.0, 0
    credit_ends = credited[is_credit]
    debit_ends = matched[~is_credit]
    cuts = _distinct(np.concatenate((credit_ends[credit_ends < total], debit_ends)))
    cuts = cuts[cuts > 0]
    starts = np.concatenate(([0], cuts[:-1]))
    take = cuts - starts
    lag = (timestamp[~is_credit][np.searchsorted(debit_ends, starts, side="right")]
           - timestamp[is_credit][np.searchsorted(credit_ends, starts, side="right")])
    return float(np.cumsum(take.astype(np.float64) * lag)[-1]), total


class _Totals:
    """Per-customer aggregates of a chunk stream, customers coded by their
    position in the sorted register.

    Counts are int64 arrays over (customer, month slot) cells, the last slot
    of each customer taking rows from months outside the window.  Sums of
    cents are exact Python integers.  With ``flows`` each row's timestamp and
    signed cents are logged, grouped by customer within each chunk, with the
    customer and length of each such run, for FIFO matching after the
    stream.
    """

    def __init__(self, index: dict[str, int], window: Window, *, flows: bool):
        self.index = index
        self.months = window.month_count()
        self.slots = self.months + 1
        self.first_month = (window.start.year - 1970) * 12 + window.start.month - 1
        self.cells = len(index) * self.slots
        self.txns = np.zeros(self.cells, dtype=np.int64)
        self.debits = np.zeros(self.cells, dtype=np.int64)
        # amount, amount squared; with flows credited, debited, interbank debited
        self.sums = np.zeros((5 if flows else 2, len(index)), dtype=object)
        self.service_codes: dict[int, int] = {}
        # distinct (service, cell) keys, compacted once they pile up
        self.service_keys: list[np.ndarray] = []
        self.pending = 0
        self.flows = flows
        # growable buffers, read in place once the stream ends
        self.events = (array("d"), array("q"))
        self.runs = (array("i"), array("i"))

    def add(self, chunk: TransactionChunk) -> None:
        code = np.fromiter(map(self.index.get, chunk.customer_id, repeat(-1)), np.int64, len(chunk))
        if (code < 0).any():
            unknown = chunk.customer_id[np.flatnonzero(code < 0)[0]]
            raise ValueError(f"customer {unknown!r} not in register")
        slot = chunk.month - self.first_month
        cell = code * self.slots + np.where((slot >= 0) & (slot < self.months), slot, self.months)
        order = np.argsort(cell, kind="stable")
        cell = cell[order]
        cents = chunk.cents[order]
        head = np.flatnonzero(_run_starts(cell))
        self.txns[cell[head]] += np.diff(np.r_[head, len(cell)])
        self.debits[cell[head]] += np.add.reduceat((cents < 0).astype(np.int64), head)

        customer = cell[head] // self.slots
        first = _run_starts(customer)
        customer, start = customer[first], head[first]
        amount = np.abs(cents)
        if float(amount.max()) ** 2 * len(amount) >= 2.0**63:
            amount = amount.astype(object)
        columns = [amount, amount * amount]
        if self.flows:
            debit = cents < 0
            interbank = chunk.interbank[order] & debit
            columns += [np.where(debit, 0, amount), np.where(debit, amount, 0),
                        np.where(interbank, amount, 0)]
        self.sums[:, customer] += np.add.reduceat(np.stack(columns), start, axis=1).astype(object)

        levels, inverse = np.unique(chunk.service_code[order], return_inverse=True)
        codes = self.service_codes
        dense = np.fromiter((codes.setdefault(s, len(codes)) for s in levels.tolist()),
                            np.int64, len(levels))
        keys = _distinct(dense[inverse] * self.cells + cell)
        self.service_keys.append(keys)
        self.pending += len(keys)
        if self.pending > 2 * len(self.service_keys[0]) + (1 << 16):
            self.service_keys = [_distinct(np.concatenate(self.service_keys))]
            self.pending = len(self.service_keys[0])

        if self.flows:
            self.events[0].frombytes(chunk.timestamp[order].tobytes())
            self.events[1].frombytes(cents.tobytes())
            self.runs[0].frombytes(customer.astype(np.int32).tobytes())
            self.runs[1].frombytes(np.diff(np.r_[start, len(cell)]).astype(np.int32).tobytes())

    def services(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct services per cell, and per customer over all cells."""
        keys = _distinct(np.concatenate(self.service_keys or [np.zeros(0, np.int64)]))
        self.service_keys = []
        per_cell = np.bincount(keys % self.cells, minlength=self.cells)
        # key // slots is service * customers + customer, sorted like the keys
        pairs = keys // self.slots
        pairs = pairs[_run_starts(pairs)]
        return per_cell, np.bincount(pairs % len(self.index), minlength=len(self.index))

    def lags(self) -> tuple[list, list]:
        """FIFO-match every customer's events in (timestamp, credit before
        debit, amount) order.

        Events equal in all three keys are interchangeable in FIFO, so any
        row order of the ledger gives the same matches.
        """
        n = len(self.index)
        weighted, matched = [0.0] * n, [0] * n
        ts, cents = (np.frombuffer(log, dtype=log.typecode) for log in self.events)
        run_customer = np.frombuffer(self.runs[0], dtype=np.int32)
        run_length = np.frombuffer(self.runs[1], dtype=np.int32)
        run_start = np.cumsum(run_length, dtype=np.int64) - run_length
        by_customer = np.argsort(run_customer, kind="stable")
        counts = np.bincount(run_customer, minlength=n)
        ends = np.cumsum(counts)
        for c in np.flatnonzero(counts).tolist():
            runs = by_customer[ends[c] - counts[c] : ends[c]]
            length = run_length[runs]
            skip = run_start[runs] - (np.cumsum(length) - length)
            rows = np.repeat(skip, length) + np.arange(length.sum())
            t, v = ts[rows], cents[rows]
            fifo = np.lexsort((np.abs(v), v < 0, t))
            weighted[c], matched[c] = fifo_lag(t[fifo], v[fifo])
        return weighted, matched


def _aggregate(
    chunks: Iterable[TransactionChunk],
    register: Mapping[str, CustomerRecord],
    window: Window,
    *,
    flows: bool,
) -> tuple[AttributeSchema, list[CustomerProfile]]:
    if window.month_count() < 1:
        raise ValueError("analysis window must span at least one month")
    ids = sorted(register)
    totals = _Totals({cid: i for i, cid in enumerate(ids)}, window, flows=flows)
    for chunk in chunks:
        if len(chunk):
            totals.add(chunk)

    n, slots, months = len(ids), totals.slots, totals.months
    services_per_cell, services_total = totals.services()
    txns = totals.txns.reshape(n, slots)
    debits = totals.debits.reshape(n, slots)
    monthly = [services_per_cell.reshape(n, slots), txns, debits, txns - debits]
    # services, transactions, debits, credits per month: sum and sum of squares
    series = [(m[:, :months].sum(axis=1).tolist(), (m[:, :months] ** 2).sum(axis=1).tolist())
              for m in monthly]
    n_txns = txns.sum(axis=1).tolist()
    if flows:
        weighted, matched = totals.lags()

    profiles = []
    for c in np.flatnonzero(n_txns).tolist():
        values: list[float] = []
        for total, sqsum in series:
            values.extend(_mean_std(months, total[c], sqsum[c]))
        sums = totals.sums[:, c]
        values.extend(_mean_std(n_txns[c], sums[0], sums[1], 100))
        age_years = (window.end.date() - register[ids[c]].account_open_date).days / 365.25
        values.extend((age_years, float(services_total[c])))
        if flows:
            values.extend(_phase2_extras(sums[2], sums[3], sums[4], weighted[c], matched[c], window))
        profiles.append(CustomerProfile(ids[c], tuple(values)))
    return (phase2_schema() if flows else phase1_schema()), profiles


def _phase2_extras(
    credit_cents: int, debit_cents: int, interbank_debit_cents: int,
    lag_weighted: float, lag_matched: int, window: Window,
) -> list[float]:
    total_credited = credit_cents / 100
    total_debited = debit_cents / 100
    if debit_cents > 0:
        interbank = interbank_debit_cents / debit_cents
        intrabank = (debit_cents - interbank_debit_cents) / debit_cents
    else:
        interbank = 0.0
        intrabank = 0.0
    if lag_matched > 0:
        lag_days = lag_weighted / lag_matched / 86400.0
    else:
        # Money never left the account inside the window.
        lag_days = window.days
    flow = credit_cents + debit_cents
    outflow_share = debit_cents / flow if flow else 0.0
    return [total_credited, total_debited, interbank, intrabank, lag_days, outflow_share]


def build_profiles_phase1(
    chunks: Iterable[TransactionChunk],
    register: Mapping[str, CustomerRecord],
    window: Window,
) -> tuple[AttributeSchema, list[CustomerProfile]]:
    """General activity profiles: monthly usage averages, dispersions, account age."""
    return _aggregate(chunks, register, window, flows=False)


def build_profiles_phase2(
    chunks: Iterable[TransactionChunk],
    register: Mapping[str, CustomerRecord],
    window: Window,
) -> tuple[AttributeSchema, list[CustomerProfile]]:
    """Flow-oriented profiles: the general roster plus money-movement attributes.

    Each flow row's timestamp and signed cents are kept (16 bytes a row, plus
    8 bytes per run of one customer's rows within a chunk) and FIFO-matched
    once the stream ends, so any row order gives identical output.  At equal
    timestamps credits match before debits.
    """
    return _aggregate(chunks, register, window, flows=True)


# ---------------------------------------------------------------------------
# Equal-frequency discretization


@dataclass(frozen=True)
class AttributeCuts:
    name: str
    cut_points: tuple[float, ...]  # strictly increasing; bins are closed-left
    levels: tuple[str, ...]

    def __post_init__(self) -> None:
        if list(self.cut_points) != sorted(set(self.cut_points)):
            raise ValueError(f"cut points must be strictly increasing: {self.cut_points}")
        if len(self.levels) != len(self.cut_points) + 1 or len(self.levels) not in (2, 3):
            raise ValueError("level count must be cuts+1 and in {2,3}")


@dataclass(frozen=True)
class DiscretizationSchema:
    cuts: tuple[AttributeCuts, ...]
    skipped: tuple[str, ...] = ()

    def for_attribute(self, name: str) -> Optional[AttributeCuts]:
        for c in self.cuts:
            if c.name == name:
                return c
        return None

    def to_json(self) -> dict:
        return {
            "cuts": [
                {"name": c.name, "cut_points": list(c.cut_points), "levels": list(c.levels)}
                for c in self.cuts
            ],
            "skipped": list(self.skipped),
        }

    @staticmethod
    def from_json(obj: dict) -> "DiscretizationSchema":
        return DiscretizationSchema(
            tuple(
                AttributeCuts(d["name"], tuple(d["cut_points"]), tuple(d["levels"]))
                for d in obj["cuts"]
            ),
            tuple(obj.get("skipped", ())),
        )


THREE_LEVELS = ("low", "mid", "high")
TWO_LEVELS = ("low", "high")


def fit_discretization(
    profiles: Sequence[CustomerProfile],
    schema: AttributeSchema,
    concentration_threshold: float = 1.0 / 3.0,
) -> DiscretizationSchema:
    """Fit equal-frequency bins per numeric attribute.

    Three bins split at the 1/3 and 2/3 empirical quantiles. When one value
    concentrates more than ``concentration_threshold`` of the mass, three
    equal bins are impossible and the attribute falls back to a two-way
    split at that value.  Constant attributes cannot be discretized and are
    reported as skipped.
    """
    if not profiles:
        raise ValueError("cannot fit discretization on an empty profile set")
    if not 0.0 < concentration_threshold <= 1.0:
        raise ValueError("concentration_threshold must be in (0, 1]")
    matrix = np.asarray([p.values for p in profiles], dtype=float)
    cuts: list[AttributeCuts] = []
    skipped: list[str] = []
    for j, attr in enumerate(schema.attributes):
        if attr.kind != NUMERIC:
            continue
        values = np.sort(matrix[:, j])
        n = len(values)
        if values[0] == values[-1]:
            log.warning("attribute %s is constant; not discretizable", attr.name)
            skipped.append(attr.name)
            continue
        uniq, counts = np.unique(values, return_counts=True)
        modal_idx = int(np.argmax(counts))
        if counts[modal_idx] / n > concentration_threshold:
            cuts.append(AttributeCuts(attr.name, (_two_way_cut(uniq, modal_idx),), TWO_LEVELS))
            continue
        c1 = float(values[math.ceil(n / 3) - 1])
        c2 = float(values[math.ceil(2 * n / 3) - 1])
        if c1 == c2:
            # One value straddles both tertile boundaries (possible when the
            # threshold is above 1/3); a two-way split is the best we can do.
            uniq_idx = int(np.searchsorted(uniq, c1))
            cuts.append(AttributeCuts(attr.name, (_two_way_cut(uniq, uniq_idx),), TWO_LEVELS))
            continue
        cuts.append(AttributeCuts(attr.name, (c1, c2), THREE_LEVELS))
    return DiscretizationSchema(tuple(cuts), tuple(skipped))


def _two_way_cut(uniq: np.ndarray, idx: int) -> float:
    """Cut at the given distinct value, stepping down when it is the maximum
    so that both sides of the closed-left split are non-empty."""
    if idx == len(uniq) - 1:
        idx -= 1
    return float(uniq[idx])


def bin_index(value: float, cut_points: Sequence[float]) -> int:
    """Closed-left binning: a value equal to a cut point takes the lower bin.
    Values beyond the training range clamp to the outer bins."""
    for i, cut in enumerate(cut_points):
        if value <= cut:
            return i
    return len(cut_points)


def apply_discretization(
    profiles: Sequence[CustomerProfile],
    schema: AttributeSchema,
    dschema: DiscretizationSchema,
) -> tuple[AttributeSchema, list[CustomerProfile]]:
    """Map numeric profiles onto the fitted nominal schema.

    Skipped (constant) attributes are dropped; already-nominal attributes
    pass through unchanged.
    """
    out_attrs: list[Attribute] = []
    converters: list[tuple[int, Optional[tuple[float, ...]]]] = []
    for j, attr in enumerate(schema.attributes):
        if attr.kind == NOMINAL:
            out_attrs.append(attr)
            converters.append((j, None))
            continue
        cut = dschema.for_attribute(attr.name)
        if cut is None:
            continue
        out_attrs.append(Attribute(attr.name, NOMINAL, cut.levels))
        converters.append((j, cut.cut_points))
    nominal_schema = AttributeSchema(tuple(out_attrs))
    out_profiles = []
    for p in profiles:
        values = []
        for j, cut_points in converters:
            v = p.values[j]
            values.append(float(bin_index(v, cut_points)) if cut_points is not None else v)
        out_profiles.append(CustomerProfile(p.customer_id, tuple(values), p.label))
    return nominal_schema, out_profiles


# ---------------------------------------------------------------------------
# Persistence and matrix helpers


def profile_matrix(profiles: Sequence[CustomerProfile]) -> np.ndarray:
    return np.asarray([p.values for p in profiles], dtype=float)


def profile_labels(profiles: Sequence[CustomerProfile]) -> np.ndarray:
    if any(p.label is None for p in profiles):
        raise ValueError("profiles are not labeled")
    return np.asarray([p.label for p in profiles], dtype=np.int64)


def write_profiles(dest: IO[str], schema: AttributeSchema, profiles: Sequence[CustomerProfile]) -> None:
    writer = csv.writer(dest, lineterminator="\n")
    labeled = any(p.label is not None for p in profiles)
    header = ["customer_id", *schema.names]
    if labeled:
        header.append("label")
    writer.writerow(header)
    for p in profiles:
        row = [p.customer_id, *[repr(v) for v in p.values]]
        if labeled:
            row.append("" if p.label is None else str(p.label))
        writer.writerow(row)


def read_profiles(source: IO[str], schema: AttributeSchema) -> list[CustomerProfile]:
    reader = csv.reader(source)
    header = next(reader)
    expected = ["customer_id", *schema.names]
    has_label = header == expected + ["label"]
    if not has_label and header != expected:
        raise ValueError(f"profile header {header[:4]}... does not match schema")
    width = len(schema)
    profiles = []
    for row in reader:
        if len(row) != len(header):
            raise ValueError(
                f"profile CSV line {reader.line_num}: {len(row)} fields, expected {len(header)}"
            )
        values = tuple(float(v) for v in row[1 : 1 + width])
        label = int(row[1 + width]) if has_label and row[1 + width] != "" else None
        profiles.append(CustomerProfile(row[0], values, label))
    return profiles


def write_schema_sidecar(
    path: Path | str,
    schema: AttributeSchema,
    *,
    dschema: Optional[DiscretizationSchema] = None,
    meta: Optional[dict] = None,
) -> None:
    obj = {"schema": schema.to_json()}
    if dschema is not None:
        obj["discretization"] = dschema.to_json()
    if meta:
        obj["meta"] = meta
    write_json(path, obj)


def read_schema_sidecar(path: Path | str) -> tuple[AttributeSchema, Optional[DiscretizationSchema], dict]:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    schema = AttributeSchema.from_json(obj["schema"])
    dschema = (
        DiscretizationSchema.from_json(obj["discretization"]) if "discretization" in obj else None
    )
    return schema, dschema, obj.get("meta", {})
