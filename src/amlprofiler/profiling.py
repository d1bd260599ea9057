"""Aggregate filtered transactions into per-customer behavioral profiles.

Two attribute rosters are produced.  The general roster captures monthly
activity averages with their dispersions plus account age.  The flow roster
extends it with money-movement attributes: totals in and out, the share of
outflow leaving for other institutions, and the average number of days
credited funds sit in the account before being moved out (FIFO-matched).

All monetary aggregation happens on integer cents so a profile is a pure
function of the transaction multiset: shuffling the input stream cannot
change a single bit of the output.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from array import array
from collections import deque
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import IO, Iterable, Mapping, Optional, Sequence

import numpy as np

from .ingest import CREDIT, DEBIT, CustomerRecord, TransactionRecord, Window
from .manifest import write_json

log = logging.getLogger(__name__)

# Naive ledger timestamps are read as UTC, whatever the host time zone.
EPOCH = datetime(1970, 1, 1)

NUMERIC = "numeric"
NOMINAL = "nominal"


class UnknownCustomerError(ValueError):
    """A transaction references a customer id absent from the register."""

    def __init__(self, ids: Sequence[str]):
        shown = ", ".join(sorted(ids)[:10])
        more = "" if len(ids) <= 10 else f" (+{len(ids) - 10} more)"
        super().__init__(f"transactions reference unknown customers: {shown}{more}")
        self.customer_ids = tuple(sorted(ids))


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


class _Accumulator:
    __slots__ = (
        "months",
        "all_services",
        "amount_sum",
        "amount_sqsum",
        "n_txns",
        "credit_cents",
        "debit_cents",
        "interbank_debit_cents",
        "fifo",
        "lag_weighted",
        "lag_matched",
        "event_ts",
        "event_cents",
    )

    def __init__(self) -> None:
        self.months: dict[tuple[int, int], list] = {}
        self.all_services: set[int] = set()
        self.amount_sum = 0
        self.amount_sqsum = 0
        self.n_txns = 0
        self.credit_cents = 0
        self.debit_cents = 0
        self.interbank_debit_cents = 0
        self.fifo: deque = deque()
        self.lag_weighted = 0.0
        self.lag_matched = 0
        # Flow event log: epoch seconds and signed cents (credits positive).
        self.event_ts = array("d")
        self.event_cents = array("q")

    def add_common(self, r: TransactionRecord) -> None:
        key = (r.timestamp.year, r.timestamp.month)
        slot = self.months.get(key)
        if slot is None:
            slot = [0, 0, 0, set()]
            self.months[key] = slot
        slot[0] += 1
        if r.direction == DEBIT:
            slot[1] += 1
        else:
            slot[2] += 1
        slot[3].add(r.service_code)
        self.all_services.add(r.service_code)
        cents = r.amount_cents
        self.amount_sum += cents
        self.amount_sqsum += cents * cents
        self.n_txns += 1

    def match_event(self, ts: float, is_credit: bool, cents: int) -> None:
        """FIFO-match a flow event against outstanding credits (in event order)."""
        if is_credit:
            self.fifo.append([cents, ts])
            return
        queue = self.fifo
        remaining = cents
        while remaining > 0 and queue:
            entry = queue[0]
            take = entry[0] if entry[0] <= remaining else remaining
            self.lag_weighted += take * (ts - entry[1])
            self.lag_matched += take
            remaining -= take
            entry[0] -= take
            if entry[0] == 0:
                queue.popleft()

    def match_events(self) -> None:
        """FIFO-match the whole event log in (timestamp, credit-before-debit,
        amount) order, then free it.

        Events equal in all three keys are interchangeable in FIFO, so any
        row order of the ledger gives the same matches.
        """
        ts = np.frombuffer(self.event_ts, dtype=np.float64)
        cents = np.frombuffer(self.event_cents, dtype=np.int64)
        order = np.lexsort((np.abs(cents), cents < 0, ts))
        for t, c in zip(ts[order].tolist(), cents[order].tolist()):
            self.match_event(t, c > 0, abs(c))
        self.event_ts = self.event_cents = None


def _aggregate(
    txns: Iterable[TransactionRecord],
    register: Mapping[str, CustomerRecord],
    *,
    flows: bool,
) -> dict[str, _Accumulator]:
    accs: dict[str, _Accumulator] = {}
    unknown: set[str] = set()
    for r in txns:
        if r.customer_id not in register:
            unknown.add(r.customer_id)
            continue
        acc = accs.get(r.customer_id)
        if acc is None:
            acc = _Accumulator()
            accs[r.customer_id] = acc
        acc.add_common(r)
        if not flows:
            continue
        cents = r.amount_cents
        if r.direction == CREDIT:
            acc.credit_cents += cents
        else:
            acc.debit_cents += cents
            if r.counterparty_bank is not None:
                acc.interbank_debit_cents += cents
            cents = -cents
        acc.event_ts.append((r.timestamp - EPOCH).total_seconds())
        acc.event_cents.append(cents)
    if unknown:
        raise UnknownCustomerError(sorted(unknown))
    if flows:
        for acc in accs.values():
            acc.match_events()
    return accs


def _phase1_values(
    acc: _Accumulator, cust: CustomerRecord, window: Window, month_keys: list
) -> list[float]:
    slots = [acc.months.get(key) for key in month_keys]
    monthly = [(len(s[3]), s[0], s[1], s[2]) if s else (0, 0, 0, 0) for s in slots]
    values: list[float] = []
    # services, transactions, debits, credits per month: mean and std of each
    for series in zip(*monthly):
        values.extend(_mean_std(len(series), sum(series), sum(v * v for v in series)))
    values.extend(_mean_std(acc.n_txns, acc.amount_sum, acc.amount_sqsum, 100))
    age_years = (window.end.date() - cust.account_open_date).days / 365.25
    values.extend((age_years, float(len(acc.all_services))))
    return values


def _phase2_extras(acc: _Accumulator, window: Window) -> list[float]:
    total_credited = acc.credit_cents / 100
    total_debited = acc.debit_cents / 100
    if acc.debit_cents > 0:
        interbank = acc.interbank_debit_cents / acc.debit_cents
        intrabank = (acc.debit_cents - acc.interbank_debit_cents) / acc.debit_cents
    else:
        interbank = 0.0
        intrabank = 0.0
    if acc.lag_matched > 0:
        lag_days = acc.lag_weighted / acc.lag_matched / 86400.0
    else:
        # Money never left the account inside the window.
        lag_days = window.days
    flow = acc.credit_cents + acc.debit_cents
    outflow_share = acc.debit_cents / flow if flow else 0.0
    return [total_credited, total_debited, interbank, intrabank, lag_days, outflow_share]


def _build(txns, register, window, *, flows: bool) -> tuple[AttributeSchema, list[CustomerProfile]]:
    if isinstance(register, dict):
        reg = register
    else:
        reg = {c.customer_id: c for c in register}
    if window.month_count() < 1:
        raise ValueError("analysis window must span at least one month")
    month_keys = window.month_keys()
    accs = _aggregate(txns, reg, flows=flows)
    schema = phase2_schema() if flows else phase1_schema()
    profiles = []
    for cid in sorted(accs):
        acc = accs[cid]
        values = _phase1_values(acc, reg[cid], window, month_keys)
        if flows:
            values.extend(_phase2_extras(acc, window))
        profiles.append(CustomerProfile(cid, tuple(values)))
    return schema, profiles


def build_profiles_phase1(
    txns: Iterable[TransactionRecord],
    register: Mapping[str, CustomerRecord] | Iterable[CustomerRecord],
    window: Window,
) -> tuple[AttributeSchema, list[CustomerProfile]]:
    """General activity profiles: monthly usage averages, dispersions, account age."""
    return _build(txns, register, window, flows=False)


def build_profiles_phase2(
    txns: Iterable[TransactionRecord],
    register: Mapping[str, CustomerRecord] | Iterable[CustomerRecord],
    window: Window,
) -> tuple[AttributeSchema, list[CustomerProfile]]:
    """Flow-oriented profiles: the general roster plus money-movement attributes.

    Each customer's flow events are buffered (about 16 bytes per row) and
    FIFO-matched once the stream ends, so any row order gives identical
    output.  At equal timestamps credits match before debits.
    """
    return _build(txns, register, window, flows=True)


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
