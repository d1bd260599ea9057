"""Aggregate filtered transactions into per-customer behavioral profiles.

Two attribute rosters are produced.  The general roster captures monthly
activity averages with their dispersions plus account age.  The flow roster
extends it with money-movement attributes: totals in and out, the share of
outflow leaving for other institutions, and the average number of days
credited funds sit in the account before being moved out (FIFO-matched).

``build_profiles_phase1/2`` consume the ``TransactionChunk`` columns that
``ingest`` yields and aggregate each chunk with array operations; only the
final per-customer arithmetic runs per customer.  A chunk names each row's
customer by its position in the ``ingest.Register``, so the totals index
their arrays by that position, and the profiles take their ids and account
ages from the register in that order.  All monetary aggregation
happens on integer cents, summed exactly, so a profile is a pure function of
the transaction multiset: shuffling the input stream cannot change a single
bit of the output.  For the same reason a ledger may be cut into streams:
``aggregate`` totals each one, ``merge_totals`` adds the totals up, and
``profiles_of`` turns them into profiles, FIFO-matching shards of the
customers through ``parallel.pmap``; the build functions are the one-stream
case.

A profile set travels between the stages as one frozen ``Profiles`` table:
its schema, the customer ids, the n x attributes value matrix and, once
``cluster`` has run, the cluster labels.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from array import array
from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from . import parallel
from .ingest import Register, TransactionChunk, Window
from .manifest import from_json, write_json

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

    def numeric_mask(self) -> np.ndarray:
        return np.array([a.kind == NUMERIC for a in self.attributes], dtype=bool)


@dataclass(frozen=True, eq=False)
class Profiles:
    """One row per customer: ``values`` is float64 of n x ``len(schema)``,
    ``labels`` int64 of n, or None before ``cluster`` labels the rows."""

    schema: AttributeSchema
    ids: tuple[str, ...]
    values: np.ndarray
    labels: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.ids)


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
    """Per-customer aggregates of a chunk stream over ``customers``
    customers, each named by its position in the ``Register``.

    Counts are int64 arrays over (customer, month slot) cells, the last slot
    of each customer taking rows from months outside the window.  Sums of
    cents are exact Python integers.  With ``flows`` each row's timestamp and
    signed cents are logged, grouped by customer within each chunk, with the
    customer and length of each such run, for FIFO matching after the
    stream.
    """

    def __init__(self, customers: int, window: Window, *, flows: bool):
        self.customers = customers
        self.months = window.month_count()
        self.slots = self.months + 1
        self.first_month = (window.start.year - 1970) * 12 + window.start.month - 1
        self.cells = customers * self.slots
        self.txns = np.zeros(self.cells, dtype=np.int64)
        self.debits = np.zeros(self.cells, dtype=np.int64)
        # amount, amount squared; with flows credited, debited, interbank debited
        self.sums = np.zeros((5 if flows else 2, customers), dtype=object)
        self.service_codes: dict[int, int] = {}
        # distinct (service, cell) keys, compacted once they pile up
        self.service_keys: list[np.ndarray] = []
        self.pending = 0
        self.flows = flows
        # growable buffers, read in place once the stream ends
        self.events = (array("d"), array("q"))
        self.runs = (array("i"), array("i"))

    def add(self, chunk: TransactionChunk) -> None:
        slot = chunk.month - self.first_month
        cell = chunk.customer * self.slots + np.where((slot >= 0) & (slot < self.months), slot, self.months)
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
            self.pending = len(self.compact_services())

        if self.flows:
            self.events[0].frombytes(chunk.timestamp[order].tobytes())
            self.events[1].frombytes(cents.tobytes())
            self.runs[0].frombytes(customer.astype(np.int32).tobytes())
            self.runs[1].frombytes(np.diff(np.r_[start, len(cell)]).astype(np.int32).tobytes())

    def spill(self, dest: IO[bytes]) -> None:
        """Move the event logs to the file ``dest``, keeping their lengths,
        so that the totals of a worker go back to its parent small."""
        self.logged = [len(log) for log in self.events + self.runs]
        for log in self.events + self.runs:
            log.tofile(dest)
            del log[:]
        dest.flush()

    def compact_services(self) -> np.ndarray:
        """The distinct (service, cell) keys, which ``service_keys`` then
        holds as its one array.  One array is distinct already: a chunk's
        keys, or keys compacted before."""
        if len(self.service_keys) != 1:
            self.service_keys = [_distinct(np.concatenate(self.service_keys
                                                          or [np.zeros(0, np.int64)]))]
        return self.service_keys[0]

    def services(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct services per cell, and per customer over all cells."""
        keys = self.compact_services()
        self.service_keys = []
        per_cell = np.bincount(keys % self.cells, minlength=self.cells)
        # key // slots is service * customers + customer, sorted like the keys
        pairs = keys // self.slots
        pairs = pairs[_run_starts(pairs)]
        return per_cell, np.bincount(pairs % self.customers, minlength=self.customers)

    def lags(self, shards: int = 1) -> tuple[list, list]:
        """FIFO-match every customer's events in (timestamp, credit before
        debit, amount) order.

        Events equal in all three keys are interchangeable in FIFO, so any
        row order of the ledger gives the same matches.  The customers are
        cut into ``shards`` runs of about equal event counts, matched by
        ``parallel.pmap``; each customer's match is the same either way.
        """
        n = self.customers
        ts, cents = map(np.asarray, self.events)
        run_customer, run_length = map(np.asarray, self.runs)
        run_start = np.cumsum(run_length, dtype=np.int64) - run_length
        by_customer = np.argsort(run_customer, kind="stable")
        counts = np.bincount(run_customer, minlength=n)
        ends = np.cumsum(counts)
        customers = np.flatnonzero(counts)
        # contiguous shards of customers with about equal event counts
        events = np.cumsum(np.bincount(run_customer, run_length, minlength=n)[customers])
        total = events[-1] if len(events) else 0
        cuts = np.searchsorted(events, np.arange(1, shards) * total / shards)

        def match(shard: np.ndarray) -> list[tuple[float, int]]:
            matches = []
            for c in shard.tolist():
                runs = by_customer[ends[c] - counts[c] : ends[c]]
                length = run_length[runs]
                skip = run_start[runs] - (np.cumsum(length) - length)
                rows = np.repeat(skip, length) + np.arange(length.sum())
                t, v = ts[rows], cents[rows]
                fifo = np.lexsort((np.abs(v), v < 0, t))
                matches.append(fifo_lag(t[fifo], v[fifo]))
            return matches

        weighted, matched = [0.0] * n, [0] * n
        matches = chain.from_iterable(parallel.pmap(match, np.split(customers, cuts)))
        for c, (lag, cents_matched) in zip(customers.tolist(), matches):
            weighted[c], matched[c] = lag, cents_matched
        return weighted, matched


def merge_totals(parts: Sequence[_Totals], spills: Sequence[IO[bytes]]) -> _Totals:
    """The totals of consecutive streams over the same register and
    window, from their parts and the files they spilled their event logs
    to, in stream order; each log is read into one array of its full length,
    and each file is closed once read, so that only one part's logs are held
    twice at a time."""
    totals = parts[0]
    codes = totals.service_codes
    for part in parts[1:]:
        totals.txns += part.txns
        totals.debits += part.debits
        totals.sums += part.sums
        # the part's dense service codes, in order, as codes of the totals
        remap = np.fromiter((codes.setdefault(s, len(codes)) for s in part.service_codes),
                            np.int64, len(part.service_codes))
        totals.service_keys += (remap[keys // totals.cells] * totals.cells + keys % totals.cells
                                for keys in part.service_keys)
        part.service_keys = []
    totals.compact_services()  # here, so that its sort does not run beside the merged logs
    lengths = np.array([part.logged for part in parts], dtype=np.int64)
    ends = np.cumsum(lengths, axis=0)
    logs = [np.empty(n, log.typecode) for n, log in zip(ends[-1], totals.events + totals.runs)]
    for spill, end, length in zip(spills, ends, lengths):
        spill.seek(0)
        for log, stop, n in zip(logs, end, length):
            spill.readinto(log[stop - n : stop].view(np.uint8))
        spill.close()
    totals.events, totals.runs = tuple(logs[:2]), tuple(logs[2:])
    return totals


def aggregate(
    chunks: Iterable[TransactionChunk],
    register: Register,
    window: Window,
    *,
    flows: bool,
) -> _Totals:
    """The totals of one stream of chunks, such as one range of a ledger."""
    if window.month_count() < 1:
        raise ValueError("analysis window must span at least one month")
    totals = _Totals(len(register.ids), window, flows=flows)
    for chunk in chunks:
        if len(chunk):
            totals.add(chunk)
    return totals


def profiles_of(
    totals: _Totals,
    register: Register,
    window: Window,
    shards: int = 1,
) -> Profiles:
    """The profiles of the ``aggregate`` totals, in the register's order,
    FIFO-matched in ``shards`` shards."""
    flows = totals.flows
    n, slots, months = totals.customers, totals.slots, totals.months
    services_per_cell, services_total = totals.services()
    txns = totals.txns.reshape(n, slots)
    debits = totals.debits.reshape(n, slots)
    monthly = [services_per_cell.reshape(n, slots), txns, debits, txns - debits]
    # services, transactions, debits, credits per month: sum and sum of squares
    series = [(m[:, :months].sum(axis=1).tolist(), (m[:, :months] ** 2).sum(axis=1).tolist())
              for m in monthly]
    n_txns = txns.sum(axis=1).tolist()
    if flows:
        weighted, matched = totals.lags(shards)

    schema = phase2_schema() if flows else phase1_schema()
    rows = []
    customers = np.flatnonzero(n_txns).tolist()
    for c in customers:
        values: list[float] = []
        for total, sqsum in series:
            values.extend(_mean_std(months, total[c], sqsum[c]))
        sums = totals.sums[:, c]
        values.extend(_mean_std(n_txns[c], sums[0], sums[1], 100))
        age_years = (window.end.date() - register.opened[c]).days / 365.25
        values.extend((age_years, float(services_total[c])))
        if flows:
            values.extend(_phase2_extras(sums[2], sums[3], sums[4], weighted[c], matched[c], window))
        rows.append(values)
    return Profiles(schema, tuple(register.ids[c] for c in customers),
                    np.array(rows, dtype=np.float64).reshape(len(rows), len(schema)))


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
    register: Register,
    window: Window,
) -> Profiles:
    """General activity profiles: monthly usage averages, dispersions, account age."""
    return profiles_of(aggregate(chunks, register, window, flows=False), register, window)


def build_profiles_phase2(
    chunks: Iterable[TransactionChunk],
    register: Register,
    window: Window,
) -> Profiles:
    """Flow-oriented profiles: the general roster plus money-movement attributes.

    Each flow row's timestamp and signed cents are kept (16 bytes a row, plus
    8 bytes per run of one customer's rows within a chunk) and FIFO-matched
    once the stream ends, so any row order gives identical output.  At equal
    timestamps credits match before debits.
    """
    return profiles_of(aggregate(chunks, register, window, flows=True), register, window)


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


THREE_LEVELS = ("low", "mid", "high")
TWO_LEVELS = ("low", "high")


def fit_discretization(profiles: Profiles) -> DiscretizationSchema:
    """Fit equal-frequency bins per numeric attribute.

    Three bins split at the 1/3 and 2/3 empirical quantiles. When one value
    concentrates more than a third of the mass, three equal bins are
    impossible and the attribute falls back to a two-way split at that
    value.  Constant attributes cannot be discretized and are reported as
    skipped.
    """
    if not len(profiles):
        raise ValueError("cannot fit discretization on an empty profile set")
    cuts: list[AttributeCuts] = []
    skipped: list[str] = []
    for j, attr in enumerate(profiles.schema.attributes):
        if attr.kind != NUMERIC:
            continue
        values = np.sort(profiles.values[:, j])
        n = len(values)
        if values[0] == values[-1]:
            log.warning("attribute %s is constant; not discretizable", attr.name)
            skipped.append(attr.name)
            continue
        uniq, counts = np.unique(values, return_counts=True)
        modal_idx = int(np.argmax(counts))
        if 3 * counts[modal_idx] > n:
            cuts.append(AttributeCuts(attr.name, (_two_way_cut(uniq, modal_idx),), TWO_LEVELS))
            continue
        # c1 < c2: a value at both cuts fills places ceil(n/3)-1 through
        # ceil(2n/3)-1, more than n/3 of them, so the test above took it
        c1 = float(values[math.ceil(n / 3) - 1])
        c2 = float(values[math.ceil(2 * n / 3) - 1])
        cuts.append(AttributeCuts(attr.name, (c1, c2), THREE_LEVELS))
    return DiscretizationSchema(tuple(cuts), tuple(skipped))


def _two_way_cut(uniq: np.ndarray, idx: int) -> float:
    """Cut at the given distinct value, stepping down when it is the maximum
    so that both sides of the closed-left split are non-empty."""
    if idx == len(uniq) - 1:
        idx -= 1
    return float(uniq[idx])


def apply_discretization(profiles: Profiles, dschema: DiscretizationSchema) -> Profiles:
    """Map numeric profiles onto the fitted nominal schema.

    A numeric value takes the index of its closed-left bin: a value equal to
    a cut point takes the lower bin, and values beyond the fitted range clamp
    to the outer bins.  Skipped (constant) attributes are dropped;
    already-nominal attributes pass through unchanged.
    """
    attributes: list[Attribute] = []
    columns: list[np.ndarray] = []
    for attr, column in zip(profiles.schema.attributes, profiles.values.T):
        if attr.kind == NOMINAL:
            attributes.append(attr)
            columns.append(column)
            continue
        cut = dschema.for_attribute(attr.name)
        if cut is None:
            continue
        attributes.append(Attribute(attr.name, NOMINAL, cut.levels))
        columns.append(np.searchsorted(cut.cut_points, column, side="left").astype(np.float64))
    values = np.stack(columns, axis=1) if columns else np.empty((len(profiles), 0))
    return Profiles(AttributeSchema(tuple(attributes)), profiles.ids, values, profiles.labels)


# ---------------------------------------------------------------------------
# Persistence and matrix helpers


def profile_matrix(profiles: Profiles) -> np.ndarray:
    return profiles.values


def profile_labels(profiles: Profiles) -> np.ndarray:
    if profiles.labels is None:
        raise ValueError("profiles are not labeled")
    return profiles.labels


def write_profiles(dest: IO[str], profiles: Profiles) -> None:
    """One CSV row per customer, each value the ``repr`` of its float, and
    a ``label`` column when the profiles are labeled."""
    writer = csv.writer(dest, lineterminator="\n")
    labels = [] if profiles.labels is None else [profiles.labels.tolist()]
    writer.writerow(["customer_id", *profiles.schema.names, *(["label"] if labels else [])])
    rows = zip(profiles.ids, profiles.values.tolist(), *labels)
    writer.writerows([cid, *map(repr, values), *label] for cid, values, *label in rows)


def read_profiles(source: IO[str], schema: AttributeSchema) -> Profiles:
    """What ``write_profiles`` wrote; no labels when a label cell or the
    column is missing.  A malformed line raises ValueError naming it, and so
    does a value that the schema does not allow: one that is not finite, or
    a nominal one that is not the index of one of its levels."""
    reader = csv.reader(source)
    header = next(reader, [])
    expected = ["customer_id", *schema.names]
    has_label = header == expected + ["label"]
    if not has_label and header != expected:
        raise ValueError(f"line 1: profile header {header[:4]}... does not match schema")
    width = len(schema)
    ids, rows, labels, lines = [], [], [], []
    try:
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} fields, expected {len(header)}")
            rows.append([float(v) for v in row[1 : 1 + width]])
            if has_label:
                labels.append(int(row[-1]) if row[-1] else None)
                if labels[-1] is not None and not -2**63 <= labels[-1] < 2**63:
                    raise ValueError(f"label {labels[-1]} does not fit in 64 bits")
            ids.append(row[0])
            lines.append(reader.line_num)
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    values = np.array(rows, dtype=np.float64).reshape(len(ids), width)
    levels = np.array([len(a.levels or ()) for a in schema.attributes])
    level = (values == np.floor(values)) & (values >= 0) & (values < levels)
    bad = np.argwhere(~np.isfinite(values) | (~schema.numeric_mask() & ~level))
    if len(bad):
        i, j = bad[0]
        attribute = schema.attributes[j]
        allowed = ("a finite number" if attribute.kind == NUMERIC
                   else f"a level index 0 to {len(attribute.levels) - 1}")
        raise ValueError(f"line {lines[i]}: {attribute.name} is {float(values[i, j])}, "
                         f"not {allowed}")
    labeled = has_label and None not in labels
    return Profiles(schema, tuple(ids), values, np.array(labels, dtype=np.int64) if labeled else None)


def write_schema_sidecar(
    path: Path | str,
    schema: AttributeSchema,
    *,
    dschema: Optional[DiscretizationSchema] = None,
    meta: Optional[dict] = None,
) -> None:
    obj = {"schema": asdict(schema)}
    if dschema is not None:
        obj["discretization"] = asdict(dschema)
    if meta:
        obj["meta"] = meta
    write_json(path, obj)


def read_schema_sidecar(path: Path | str) -> tuple[AttributeSchema, Optional[DiscretizationSchema], dict]:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("the schema sidecar is not a JSON object")
    schema = from_json(AttributeSchema, obj.get("schema"), "schema")
    dschema = (
        from_json(DiscretizationSchema, obj["discretization"], "discretization")
        if "discretization" in obj else None
    )
    return schema, dschema, obj.get("meta", {})
