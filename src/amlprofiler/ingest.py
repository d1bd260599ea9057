"""Streaming CSV ingestion of bank ledger data.

Two inputs feed the pipeline: a transaction ledger and a customer register,
both CSV with a header row.  Parsing is single-pass: the ledger is read in
chunks of ``CHUNK_ROWS`` rows, each yielded as numpy columns
(``TransactionChunk``), and malformed rows are collected with their line
numbers instead of being silently dropped.  Rows in the canonical form that
``write_transactions`` produces are converted with array operations; every
other row is parsed on its own by ``_parse_row``, which decides whether it
is accepted and why not.  Amounts are kept exact (integer cents) so that
downstream aggregation is independent of row order.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, fields
from datetime import date, datetime, timedelta
from decimal import Decimal, InvalidOperation
from itertools import islice, repeat
from typing import IO, Collection, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

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
# A chunk holds each row's signed cents, and its codes, in 64-bit integers.
MAX_AMOUNT_CENTS = 2**63 - 1
# Rows per chunk.  Small chunks keep the csv row lists young, so the garbage
# collector does not rescan them while a chunk is being read.
CHUNK_ROWS = 2048
# Naive ledger timestamps are read as UTC, whatever the host time zone.
EPOCH = datetime(1970, 1, 1)


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
    if not (-MAX_AMOUNT_CENTS <= service_code <= MAX_AMOUNT_CENTS
            and -MAX_AMOUNT_CENTS <= txn_type_code <= MAX_AMOUNT_CENTS):
        raise ValueError("service_code and txn_type_code out of range")
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


@dataclass(frozen=True, eq=False)
class TransactionChunk:
    """Accepted ledger rows as numpy columns, one entry per row.

    ``timestamp`` holds epoch seconds of the naive ledger time read as UTC
    and ``month`` the calendar months since 1970-01.  ``cents`` is signed:
    credits positive, debits negative.  ``interbank`` marks rows that name a
    counterparty bank.  The account id is not kept: no profile reads it.
    """

    customer_id: np.ndarray  # object array of str
    timestamp: np.ndarray  # float64
    month: np.ndarray  # int64
    cents: np.ndarray  # int64
    service_code: np.ndarray  # int64
    txn_type_code: np.ndarray  # int64
    interbank: np.ndarray  # bool

    def __len__(self) -> int:
        return len(self.cents)

    def take(self, index) -> "TransactionChunk":
        return TransactionChunk(*(getattr(self, f.name)[index] for f in fields(self)))

    @staticmethod
    def concat(chunks: Sequence["TransactionChunk"]) -> "TransactionChunk":
        return TransactionChunk(
            *(np.concatenate([getattr(c, f.name) for c in chunks]) for f in fields(TransactionChunk))
        )

    @staticmethod
    def from_records(records: Sequence[TransactionRecord]) -> "TransactionChunk":
        return TransactionChunk(
            np.array([r.customer_id for r in records], dtype=object),
            np.array([(r.timestamp - EPOCH).total_seconds() for r in records], dtype=np.float64),
            np.array([(r.timestamp.year - 1970) * 12 + r.timestamp.month - 1 for r in records],
                     dtype=np.int64),
            np.array([r.amount_cents if r.direction == CREDIT else -r.amount_cents for r in records],
                     dtype=np.int64),
            np.array([r.service_code for r in records], dtype=np.int64),
            np.array([r.txn_type_code for r in records], dtype=np.int64),
            np.array([r.counterparty_bank is not None for r in records], dtype=bool),
        )


# Canonical fields, the only ones the array conversions accept:
# "YYYY-MM-DDTHH:MM:SS", amounts of 1 to 15 digits, a dot and two digits,
# codes of 1 to 9 digits, all ASCII, and a lower-case direction.
_SIGN = {CREDIT: 1, DEBIT: -1}
_TS_FIELDS = ((0, 4), (5, 7), (8, 10), (11, 13), (14, 16), (17, 19))
_TS_SEPARATORS = {4: "-", 7: "-", 10: "T", 13: ":", 16: ":"}
_AMOUNT_WIDTH = 18  # right-aligned with "0" fill, the dot at index 15
_AMOUNT_WEIGHTS = np.array([10**p for p in range(16, 1, -1)] + [0, 10, 1], dtype=np.int64)
_CODE_WIDTH = 9
_CODE_WEIGHTS = 10 ** np.arange(_CODE_WIDTH - 1, -1, -1, dtype=np.int64)


def _digit_matrix(texts: Sequence[str], width: int) -> np.ndarray:
    """The first ``width`` characters of each text as code points minus
    ord("0"), zero-padded: ASCII digits read 0..9, every other character
    falls outside that range."""
    chars = np.array(texts, dtype=f"U{width}").view(np.uint32).reshape(len(texts), width)
    return chars.astype(np.int64) - ord("0")


def _all_digits(digits: np.ndarray) -> np.ndarray:
    return ((digits >= 0) & (digits <= 9)).all(axis=1)


def _lengths(texts: Sequence[str]) -> np.ndarray:
    return np.fromiter(map(len, texts), np.int64, len(texts))


def _timestamps(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Epoch seconds, months since 1970-01, and which texts are canonical
    valid timestamps."""
    digits = _digit_matrix(texts, 19)
    ok = _lengths(texts) == 19
    for i, sep in _TS_SEPARATORS.items():
        ok &= digits[:, i] == ord(sep) - ord("0")
        digits[:, i] = 0
    ok &= _all_digits(digits)
    year, month, day, hour, minute, second = (
        digits[:, a:b] @ 10 ** np.arange(b - a - 1, -1, -1) for a, b in _TS_FIELDS
    )
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
    ok &= (hour <= 23) & (minute <= 59) & (second <= 59)
    months = np.where(ok, (year - 1970) * 12 + month - 1, 0)
    first_day = months.astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
    next_first = (months + 1).astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
    ok &= day <= next_first - first_day
    seconds = (first_day + day - 1) * 86400 + hour * 3600 + minute * 60 + second
    return seconds, months, ok


def _right_aligned(texts: Sequence[str], width: int) -> tuple[np.ndarray, np.ndarray]:
    """Lengths of the texts, and their digit matrix right-aligned in
    ``width`` characters with "0" fill."""
    padded = list(map(str.rjust, texts, repeat(width), repeat("0")))
    return _lengths(texts), _digit_matrix(padded, width)


def _amounts(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Cents of canonical amounts above zero, and which texts are such."""
    lengths, digits = _right_aligned(texts, _AMOUNT_WIDTH)
    ok = (lengths >= 4) & (lengths <= _AMOUNT_WIDTH) & (digits[:, 15] == ord(".") - ord("0"))
    digits[:, 15] = 0
    ok &= _all_digits(digits)
    cents = digits @ _AMOUNT_WEIGHTS
    return cents, ok & (cents > 0)


def _codes(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Values of canonical codes, and which texts are such."""
    lengths, digits = _right_aligned(texts, _CODE_WIDTH)
    ok = (lengths >= 1) & (lengths <= _CODE_WIDTH) & _all_digits(digits)
    return digits @ _CODE_WEIGHTS, ok


class TransactionReader:
    """Iterable over the ledger's accepted rows, one ``TransactionChunk`` per
    ``CHUNK_ROWS`` rows read.

    A row whose customer id is not in ``register`` is rejected, after the
    row's own field checks.  Counts of accepted and rejected rows
    are available once the stream is exhausted; iteration aborts with
    TooManyRowErrors when the number of malformed rows exceeds ``error_cap``.
    """

    def __init__(
        self,
        source: IO[str],
        mapping: Optional[ColumnMapping] = None,
        *,
        register: Collection[str],
        window: Optional[Window] = None,
        error_cap: int = 100,
        delimiter: str = ",",
    ):
        self._source = source
        self._mapping = mapping or ColumnMapping.identity()
        self._window = window
        self._register = register
        self._error_cap = error_cap
        self._delimiter = delimiter
        self.accepted = 0
        self.rejected = 0
        self.errors: list[RowError] = []

    def __iter__(self) -> Iterator[TransactionChunk]:
        reader = csv.reader(self._source, delimiter=self._delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError("empty input: no header row") from None
        idx = self._mapping.resolve(header)
        line_no = 2
        while rows := list(islice(reader, CHUNK_ROWS)):
            chunk = self._chunk(rows, line_no, idx)
            line_no += len(rows)
            if len(chunk):
                yield chunk

    def _chunk(self, rows: list[list[str]], first_line: int, idx: dict[str, int]) -> TransactionChunk:
        """Canonical rows through array conversions, the rest through
        ``_parse_row`` in line order."""
        n_cols = max(idx.values()) + 1
        if min(map(len, rows)) < n_cols:
            # a short row becomes a blank one here, which no check accepts
            blank = [""] * n_cols
            columns = list(zip(*(row if len(row) >= n_cols else blank for row in rows)))
        else:
            columns = list(zip(*rows))
        chunk, ok = self._canonical(columns, idx)
        self.accepted += int(ok.sum())
        if ok.all():
            return chunk
        records = []
        for i in np.flatnonzero(~ok).tolist():
            row, line_no = rows[i], first_line + i
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
            if record.customer_id not in self._register:
                self._record_error(line_no, f"customer {record.customer_id!r} not in register")
                continue
            records.append(record)
        self.accepted += len(records)
        slow = TransactionChunk.from_records(records)
        return slow if chunk is None else TransactionChunk.concat([chunk.take(ok), slow])

    def _canonical(
        self, columns: list[tuple[str, ...]], idx: dict[str, int]
    ) -> tuple[Optional[TransactionChunk], np.ndarray]:
        """The chunk converted by array operations, and which of its rows
        are canonical and accepted.  The conversions stop, with no chunk,
        once no row is left: a ledger written in another form costs little
        more than its ``_parse_row`` calls."""
        n = len(columns[0])
        seconds, months, ok = _timestamps(columns[idx["timestamp"]])
        if self._window is not None:
            # whole seconds inside the window: ceil(start) .. floor(end)
            lo = -((EPOCH - self._window.start) // timedelta(seconds=1))
            hi = (self._window.end - EPOCH) // timedelta(seconds=1)
            ok &= (seconds >= lo) & (seconds <= hi)
        if not ok.any():
            return None, ok
        cents, amount_ok = _amounts(columns[idx["amount"]])
        ok &= amount_ok
        if not ok.any():
            return None, ok
        sign = np.fromiter(map(_SIGN.get, columns[idx["direction"]], repeat(0)), np.int64, n)
        service, service_ok = _codes(columns[idx["service_code"]])
        txn_type, txn_type_ok = _codes(columns[idx["txn_type_code"]])
        ok &= (sign != 0) & service_ok & txn_type_ok
        customer_ids = columns[idx["customer_id"]]
        ok &= np.fromiter(map(self._register.__contains__, customer_ids), bool, n)
        interbank = np.fromiter(map(bool, map(str.strip, columns[idx["counterparty_bank"]])), bool, n)
        chunk = TransactionChunk(np.array(customer_ids, dtype=object), seconds.astype(np.float64),
                                 months, cents * sign, service, txn_type, interbank)
        return chunk, ok

    def _record_error(self, line_no: int, reason: str) -> None:
        self.rejected += 1
        self.errors.append(RowError(line_no, reason))
        if self.rejected > self._error_cap:
            raise TooManyRowErrors(self.errors, self._error_cap)


def parse_customers(
    source: IO[str],
    mapping: Optional[ColumnMapping] = None,
    *,
    window: Window,
    error_cap: int = 100,
    delimiter: str = ",",
) -> tuple[dict[str, CustomerRecord], list[RowError]]:
    """Parse the customer register into a lookup keyed by customer id.

    An account opened after the window end is a rejected row: its age at
    the window end would be negative.  A repeated customer id is a rejected
    row; the first row is kept.
    """
    mapping = mapping or ColumnMapping.identity(CUSTOMER_FIELDS)
    reader = csv.reader(source, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError("empty register: no header row") from None
    idx = mapping.resolve(header)
    n_cols = max(idx.values()) + 1
    customers: dict[str, CustomerRecord] = {}
    first_lines: dict[str, int] = {}
    errors: list[RowError] = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        message = None
        if len(row) < n_cols:
            message = f"expected at least {n_cols} columns, got {len(row)}"
        else:
            cid = row[idx["customer_id"]]
            try:
                open_date = date.fromisoformat(row[idx["account_open_date"]])
            except ValueError:
                message = f"unparseable account_open_date in {row!r}"
            else:
                if open_date > window.end.date():
                    message = (f"account_open_date {open_date.isoformat()} is after the window "
                               f"end {window.end.date().isoformat()}")
                elif cid in first_lines:
                    message = f"duplicate customer_id {cid!r}, first on line {first_lines[cid]}"
        if message:
            errors.append(RowError(line_no, message))
            if len(errors) > error_cap:
                raise TooManyRowErrors(errors, error_cap)
            continue
        first_lines[cid] = line_no
        customers[cid] = CustomerRecord(cid, open_date)
    return customers, errors


def filter_insignificant(
    chunks: Iterable[TransactionChunk],
    policy: FilterPolicy,
    stats: Optional[FilterStats] = None,
) -> Iterator[TransactionChunk]:
    """Drop transactions whose type code is excluded by the policy.

    Order is preserved.  A warning is logged when the policy filtered the
    stream down to nothing, which usually means a misconfigured code list.
    """
    excluded = np.array(sorted(policy.excluded_txn_type_codes))
    if stats is None:
        stats = FilterStats()
    for chunk in chunks:
        drop = np.isin(chunk.txn_type_code, excluded)
        dropped = int(drop.sum())
        stats.dropped += dropped
        stats.kept += len(chunk) - dropped
        yield chunk.take(~drop) if dropped else chunk
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
    """Serialize records back to CSV; ``TransactionReader`` reads them."""
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

