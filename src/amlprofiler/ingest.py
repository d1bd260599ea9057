"""Streaming CSV ingestion of bank ledger data.

Two inputs feed the pipeline: a transaction ledger and a customer register,
both CSV with a header row.  Parsing is single-pass; records are yielded in
file order and malformed rows are collected with their line numbers instead
of being silently dropped.  Amounts are kept exact (integer cents) so that
downstream aggregation is independent of row order.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from decimal import Decimal, InvalidOperation
from typing import IO, Iterable, Iterator, NamedTuple, Optional

log = logging.getLogger(__name__)

CREDIT = "credit"
DEBIT = "debit"

TRANSACTION_FIELDS = (
    "customer_id",
    "account_id",
    "timestamp",
    "amount",
    "direction",
    "service_code",
    "txn_type_code",
    "counterparty_bank",
)

CUSTOMER_FIELDS = ("customer_id", "account_open_date")
# Profiling logs each row's signed cents in a 64-bit integer array.
MAX_AMOUNT_CENTS = 2**63 - 1


class ConfigError(ValueError):
    """Raised when a column mapping or config file does not match the input."""


class TooManyRowErrors(RuntimeError):
    """Raised when the number of malformed rows exceeds the configured cap."""

    def __init__(self, errors: list["RowError"], cap: int):
        super().__init__(f"aborted after {len(errors)} malformed rows (cap {cap})")
        self.errors = errors
        self.cap = cap


class RowError(NamedTuple):
    line_no: int
    reason: str


class TransactionRecord(NamedTuple):
    customer_id: str
    account_id: str
    timestamp: datetime
    amount_cents: int
    direction: str
    service_code: int
    txn_type_code: int
    counterparty_bank: Optional[str]

    @property
    def amount(self) -> Decimal:
        return Decimal(self.amount_cents).scaleb(-2)


class CustomerRecord(NamedTuple):
    customer_id: str
    account_open_date: date


@dataclass(frozen=True)
class Window:
    """Inclusive analysis window. Timestamps outside it are invalid."""

    start: datetime
    end: datetime

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ConfigError(f"window end {self.end} precedes start {self.start}")

    def contains(self, ts: datetime) -> bool:
        return self.start <= ts <= self.end

    @property
    def days(self) -> float:
        return (self.end - self.start).total_seconds() / 86400.0

    def month_count(self) -> int:
        """Number of calendar months the window touches; partial months count full."""
        return (self.end.year - self.start.year) * 12 + (self.end.month - self.start.month) + 1

    def month_keys(self) -> list[tuple[int, int]]:
        keys = []
        y, m = self.start.year, self.start.month
        for _ in range(self.month_count()):
            keys.append((y, m))
            m += 1
            if m == 13:
                y, m = y + 1, 1
        return keys

    @staticmethod
    def from_json(obj: dict) -> "Window":
        try:
            start = datetime.fromisoformat(obj["start"])
            end = datetime.fromisoformat(obj["end"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad window spec {obj!r}: {exc}") from None
        if start.tzinfo is not None or end.tzinfo is not None:
            raise ConfigError(f"bad window spec {obj!r}: a bound has a UTC offset; "
                              "expected naive dates or datetimes")
        # A bare date for the end bound means "whole day".
        if len(obj["end"]) == 10:
            end = end + timedelta(days=1) - timedelta(seconds=1)
        return Window(start, end)


@dataclass(frozen=True)
class ColumnMapping:
    """Maps record fields to CSV column names."""

    columns: dict[str, str]
    fields: tuple[str, ...] = TRANSACTION_FIELDS

    def __post_init__(self) -> None:
        missing = [f for f in self.fields if f not in self.columns]
        if missing:
            raise ConfigError(f"column mapping misses fields: {missing}")

    @staticmethod
    def identity(fields: tuple[str, ...] = TRANSACTION_FIELDS) -> "ColumnMapping":
        return ColumnMapping({f: f for f in fields}, fields)

    def resolve(self, header: list[str]) -> dict[str, int]:
        """Resolve mapped column names to indices in the header row."""
        positions = {name: i for i, name in enumerate(header)}
        indices = {}
        for fld in self.fields:
            col = self.columns[fld]
            if col not in positions:
                raise ConfigError(f"header is missing column {col!r} (field {fld})")
            indices[fld] = positions[col]
        return indices


@dataclass(frozen=True)
class FilterPolicy:
    """Transaction types with no AML relevance, supplied by compliance analysts."""

    excluded_txn_type_codes: frozenset[int] = frozenset()

    @staticmethod
    def from_json(obj: dict) -> "FilterPolicy":
        codes = obj.get("excluded_txn_type_codes", [])
        return FilterPolicy(frozenset(int(c) for c in codes))

    def to_json(self) -> dict:
        return {"excluded_txn_type_codes": sorted(self.excluded_txn_type_codes)}


@dataclass
class FilterStats:
    kept: int = 0
    dropped: int = 0


def parse_amount_cents(text: str) -> int:
    """Parse a decimal amount with at most two fraction digits into cents.

    Exactness matters: profiles must not depend on the order float rounding
    happens in, so the currency value never becomes a float here.
    """
    whole, dot, frac = text.strip().partition(".")
    if dot and whole.lstrip("-").isdigit() and frac.isdigit() and len(frac) <= 2:
        sign = -1 if whole.startswith("-") else 1
        cents = abs(int(whole)) * 100 + int(frac.ljust(2, "0"))
        return sign * cents
    if not dot and whole.lstrip("-").isdigit():
        return int(whole) * 100
    try:
        dec = Decimal(text.strip())
        if not dec.is_finite():
            raise InvalidOperation
        # an exponent too large to write in cents also raises InvalidOperation
        quantized = dec.quantize(Decimal("0.01"))
    except InvalidOperation:
        raise ValueError(f"unparseable amount {text!r}") from None
    if quantized != dec:
        raise ValueError(f"amount {text!r} has sub-cent precision")
    return int(quantized.scaleb(2))


def _parse_row(
    row: list[str], idx: dict[str, int], window: Optional[Window]
) -> TransactionRecord:
    raw_ts = row[idx["timestamp"]]
    try:
        ts = datetime.fromisoformat(raw_ts)
    except ValueError:
        raise ValueError(f"unparseable timestamp {raw_ts!r}") from None
    if ts.tzinfo is not None:
        raise ValueError(f"timestamp {raw_ts!r} has a UTC offset; expected naive ledger time")
    if window is not None and not window.contains(ts):
        raise ValueError(f"timestamp {ts.isoformat()} outside analysis window")
    cents = parse_amount_cents(row[idx["amount"]])
    if cents <= 0:
        raise ValueError(f"amount must be > 0, got {row[idx['amount']]!r}")
    if cents > MAX_AMOUNT_CENTS:
        raise ValueError(f"amount out of range, got {row[idx['amount']]!r}")
    direction = row[idx["direction"]].strip().lower()
    if direction not in (CREDIT, DEBIT):
        raise ValueError(f"direction must be credit or debit, got {row[idx['direction']]!r}")
    try:
        service_code = int(row[idx["service_code"]])
        txn_type_code = int(row[idx["txn_type_code"]])
    except ValueError:
        raise ValueError("service_code and txn_type_code must be integers") from None
    counterparty = row[idx["counterparty_bank"]].strip() or None
    return TransactionRecord(
        customer_id=row[idx["customer_id"]],
        account_id=row[idx["account_id"]],
        timestamp=ts,
        amount_cents=cents,
        direction=direction,
        service_code=service_code,
        txn_type_code=txn_type_code,
        counterparty_bank=counterparty,
    )


class TransactionReader:
    """Iterable over TransactionRecords parsed from a CSV stream.

    Counts of accepted and rejected rows are available once the stream is
    exhausted; iteration aborts with TooManyRowErrors when the number of
    malformed rows exceeds ``error_cap``.
    """

    def __init__(
        self,
        source: IO[str],
        mapping: Optional[ColumnMapping] = None,
        *,
        window: Optional[Window] = None,
        error_cap: int = 100,
        delimiter: str = ",",
    ):
        self._source = source
        self._mapping = mapping or ColumnMapping.identity()
        self._window = window
        self._error_cap = error_cap
        self._delimiter = delimiter
        self.accepted = 0
        self.rejected = 0
        self.errors: list[RowError] = []

    def __iter__(self) -> Iterator[TransactionRecord]:
        reader = csv.reader(self._source, delimiter=self._delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError("empty input: no header row") from None
        idx = self._mapping.resolve(header)
        n_cols = max(idx.values()) + 1
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < n_cols:
                self._record_error(line_no, f"expected at least {n_cols} columns, got {len(row)}")
                continue
            try:
                record = _parse_row(row, idx, self._window)
            except ValueError as exc:
                self._record_error(line_no, str(exc))
                continue
            self.accepted += 1
            yield record

    def _record_error(self, line_no: int, reason: str) -> None:
        self.rejected += 1
        self.errors.append(RowError(line_no, reason))
        if self.rejected > self._error_cap:
            raise TooManyRowErrors(self.errors, self._error_cap)


def parse_transactions(
    source: IO[str],
    mapping: Optional[ColumnMapping] = None,
    *,
    window: Optional[Window] = None,
    error_cap: int = 100,
    delimiter: str = ",",
) -> TransactionReader:
    """Open a streaming reader over a transaction CSV."""
    return TransactionReader(
        source, mapping, window=window, error_cap=error_cap, delimiter=delimiter
    )


def parse_customers(
    source: IO[str],
    mapping: Optional[ColumnMapping] = None,
    *,
    error_cap: int = 100,
    delimiter: str = ",",
) -> tuple[dict[str, CustomerRecord], list[RowError]]:
    """Parse the customer register into a lookup keyed by customer id."""
    mapping = mapping or ColumnMapping.identity(CUSTOMER_FIELDS)
    reader = csv.reader(source, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError("empty register: no header row") from None
    idx = mapping.resolve(header)
    n_cols = max(idx.values()) + 1
    customers: dict[str, CustomerRecord] = {}
    errors: list[RowError] = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        message = None
        if len(row) < n_cols:
            message = f"expected at least {n_cols} columns, got {len(row)}"
        else:
            try:
                open_date = date.fromisoformat(row[idx["account_open_date"]])
            except ValueError:
                message = f"unparseable account_open_date in {row!r}"
        if message:
            errors.append(RowError(line_no, message))
            if len(errors) > error_cap:
                raise TooManyRowErrors(errors, error_cap)
            continue
        cid = row[idx["customer_id"]]
        customers[cid] = CustomerRecord(cid, open_date)
    return customers, errors


def filter_insignificant(
    txns: Iterable[TransactionRecord],
    policy: FilterPolicy,
    stats: Optional[FilterStats] = None,
) -> Iterator[TransactionRecord]:
    """Drop transactions whose type code is excluded by the policy.

    Order is preserved.  A warning is logged when the policy filtered the
    stream down to nothing, which usually means a misconfigured code list.
    """
    excluded = policy.excluded_txn_type_codes
    if stats is None:
        stats = FilterStats()
    for record in txns:
        if record.txn_type_code in excluded:
            stats.dropped += 1
        else:
            stats.kept += 1
            yield record
    if stats.dropped and not stats.kept:
        log.warning("filter policy removed all %d transactions", stats.dropped)


def format_amount(cents: int) -> str:
    sign = "-" if cents < 0 else ""
    cents = abs(cents)
    return f"{sign}{cents // 100}.{cents % 100:02d}"


def write_transactions(
    records: Iterable[TransactionRecord],
    dest: IO[str],
    mapping: Optional[ColumnMapping] = None,
    *,
    delimiter: str = ",",
) -> int:
    """Serialize records back to CSV; inverse of parse_transactions."""
    mapping = mapping or ColumnMapping.identity()
    writer = csv.writer(dest, delimiter=delimiter, lineterminator="\n")
    writer.writerow([mapping.columns[f] for f in mapping.fields])
    n = 0
    for r in records:
        writer.writerow(
            [
                r.customer_id,
                r.account_id,
                r.timestamp.isoformat(),
                format_amount(r.amount_cents),
                r.direction,
                r.service_code,
                r.txn_type_code,
                r.counterparty_bank or "",
            ]
        )
        n += 1
    return n


def write_rejections(errors: Iterable[RowError], dest: IO[str]) -> None:
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(["line_no", "reason"])
    for err in errors:
        writer.writerow([err.line_no, err.reason])


@dataclass(frozen=True)
class IngestConfig:
    """Ingestion section of the pipeline config file."""

    column_mapping: ColumnMapping
    register_mapping: ColumnMapping
    filter_policy: FilterPolicy
    delimiter: str = ","
    error_cap: int = 100

    @staticmethod
    def from_json(obj: dict) -> "IngestConfig":
        cm = obj.get("column_mapping")
        rm = obj.get("register_mapping")
        return IngestConfig(
            column_mapping=ColumnMapping(cm) if cm else ColumnMapping.identity(),
            register_mapping=(
                ColumnMapping(rm, CUSTOMER_FIELDS) if rm else ColumnMapping.identity(CUSTOMER_FIELDS)
            ),
            filter_policy=FilterPolicy.from_json(obj.get("filter_policy", {})),
            delimiter=obj.get("delimiter", ","),
            error_cap=int(obj.get("error_cap", 100)),
        )

