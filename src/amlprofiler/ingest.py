"""Streaming CSV ingestion of bank ledger data.

Two inputs feed the pipeline: a transaction ledger and a customer register,
both CSV with a header row.  Parsing is single-pass: the ledger is yielded
in chunks of numpy columns (``TransactionChunk``), and malformed rows are
collected with their line numbers instead of being silently dropped.

Both inputs have one tokenizer, which splits their bytes into the records
and fields that ``csv.reader`` splits from their text.  It reads blocks of
about ``BLOCK_CHARS`` bytes that end on a line end (``\\n``, ``\\r\\n`` or a
lone ``\\r``) and finds each block's structure with numpy: from the runs
of adjacent quotes it tells which bytes lie inside quoted fields, as
``csv.reader``'s states do, and the line ends and delimiters outside them
end the records and fields.  Ledger rows in the canonical form, the one
that ``synth`` writes, quoted or not, are converted by one set of
array conversions, which take a byte matrix per field; every other ledger
row, and every register row, is cut into fields at the same ends (a quoted
field loses its quotes, and ``""`` in it becomes ``"``) and judged on its
own, a ledger row by ``_parse_row``.  A check of the canonical rows runs
only on a block that holds the bytes it looks for, which one scan of the
block tells: the quoted-field checks on a block with a quote, the id
quote/NUL check on one with a quote or NUL, the UTF-8 check on one with a
byte of 0x80 or more, and the count of blanks in the counterparty field on
one with a quote or a byte up to 0x20 other than a line end.  ``csv.reader``
reads the header, and any record longer than ``csv.field_size_limit()``
bytes or than its block: it rejects a field over that many characters, and
where it resumes then is its own.  Amounts are kept exact (integer cents) so
that downstream aggregation is independent of row order.  A timestamp or
date is read only in a form that ``fromisoformat`` reads on every supported
Python version (``_TIMESTAMP_FORM``, ``_DATE_FORM``).

The register becomes one frozen ``Register`` table: the customer ids in
sorted order and their account-open dates.  An id's position there is how
every later step names a customer.  The table also holds the ids' bytes in
byte order, and the reader finds the customer ids of a block's rows there
with one ``np.searchsorted``, once per run of one id, and hands on their
positions (``TransactionChunk.customer``), which the profile totals index
by.

A ledger may also be read in byte ranges (``ledger_ranges``), each by its
own reader, which reads the header and then seeks to its range
(``TransactionReader``'s ``span``).  Every range starts where the reader's
own index starts a record, so the readers of the ranges split the records
that one reader of the whole ledger splits; ``join_rejections`` numbers
their rejections as that reader does.  A record with bytes that are not
UTF-8 is the same rejected row in whichever range it lies.
"""

from __future__ import annotations

import csv
import logging
import os
import re
import sys
from dataclasses import dataclass, field, fields
from datetime import date, datetime, timedelta
from decimal import Decimal, InvalidOperation
from typing import (IO, Callable, Collection, Generator, Iterable, Iterator, Mapping, NamedTuple,
                    Optional, Sequence, Union)

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
# Naive ledger timestamps are read as UTC, whatever the host time zone.
EPOCH = datetime(1970, 1, 1)
# The characters that errors="surrogateescape" decodes the bytes of invalid
# UTF-8 to; no valid UTF-8 text holds one.
_UNDECODABLE = re.compile("[\udc80-\udcff]")
NOT_UTF8 = "line is not valid UTF-8"
# Decoding with surrogateescape gives \udc80-\udcff only, so no text holds this
_NUL_STAND_IN = "\udc00"
# The forms that datetime.fromisoformat and date.fromisoformat read on Python
# 3.10, where "*" is any one character:
# YYYY-MM-DD[*HH[:MM[:SS[.fff[fff]]]][+HH:MM[:SS[.ffffff]]]] and YYYY-MM-DD.
# From 3.11 on they read more of ISO 8601, such as 20140305T100000 and
# 2014-W10-3, so a row in any other form is rejected on every version.
_TIMESTAMP_FORM = re.compile(r"\d{4}-\d{2}-\d{2}"
                             r"(?:.\d{2}(?::\d{2}(?::\d{2}(?:\.\d{3}(?:\d{3})?)?)?)?"
                             r"(?:[+-]\d{2}:\d{2}(?::\d{2}(?:\.\d{6})?)?)?)?", re.ASCII | re.DOTALL)
_DATE_FORM = re.compile(r"\d{4}-\d{2}-\d{2}", re.ASCII)


class ConfigError(ValueError):
    """Raised when a column mapping or config file does not match the input."""


class TooManyRowErrors(RuntimeError):
    """Raised when the number of malformed rows exceeds the configured cap."""

    def __init__(self, errors: list["RowError"], cap: int):
        super().__init__(f"aborted after {len(errors)} malformed rows (cap {cap})")
        self.errors = errors


class RowError(NamedTuple):
    line_no: int
    reason: str
    source: str = "ledger"  # the file that line_no counts in: "ledger" or "register"
    customer_id: str = ""  # of a rejected register row that has the column


class TransactionRecord(NamedTuple):
    customer_id: str
    account_id: str
    timestamp: datetime
    amount_cents: int
    direction: str
    service_code: int
    txn_type_code: int
    counterparty_bank: Optional[str]


# The byte after an id's UTF-8 bytes in its lookup key.  numpy's ``S`` strings
# ignore trailing NULs, and a key never ends in one, so two keys are equal
# as ``S`` strings only when their bytes are: "c9\x00" is not "c9".
_KEY_END = b"\x01"


def _key(cid: str) -> bytes:
    return cid.encode("utf-8", "surrogatepass") + _KEY_END


@dataclass(frozen=True)
class Register:
    """The accepted customers of a register: ``ids`` in sorted order and
    their account-open dates ``opened``.  An id's position in ``ids`` is how
    every later step names its customer; ``lookup`` and ``positions`` find
    it by one sorted search of ``keys``."""

    ids: tuple[str, ...]
    opened: tuple[date, ...]
    # every id's key (``_key``) in byte order, which need not be the order
    # of ``ids``, and last a key above them all; and the position in ``ids``
    # of each, -1 for that last one
    keys: np.ndarray = field(init=False, repr=False, compare=False)
    rank: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        keys = [_key(c) for c in self.ids]
        width = max(map(len, keys), default=1)
        table = np.array(keys, f"S{width}")
        order = np.argsort(table, kind="stable")
        # UTF-8 never holds \xff, so no key reaches this one
        object.__setattr__(self, "keys", np.append(table[order], np.array(b"\xff" * width)))
        object.__setattr__(self, "rank", np.append(order, -1))

    @staticmethod
    def of(opened: Mapping[str, date]) -> "Register":
        ids = tuple(sorted(opened))
        return Register(ids, tuple(opened[c] for c in ids))

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """The position of the id of each of ``keys``, an ``S`` array no
        wider than ``self.keys``, or -1 where the register has no such id."""
        at = np.searchsorted(self.keys, keys)
        return np.where(self.keys[at] == keys, self.rank[at], -1)

    def positions(self, ids: Iterable[str]) -> np.ndarray:
        """The position of each of ``ids``, or -1 where it is not in ``ids``."""
        width = self.keys.dtype.itemsize
        keys = (_key(c) for c in ids)
        # a key wider than every id's is none of them
        return self.lookup(np.array([k if len(k) <= width else b"" for k in keys], f"S{width}"))

    def __contains__(self, cid: str) -> bool:
        return bool(self.positions([cid])[0] >= 0)


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
        """The window of two bounds in ``_TIMESTAMP_FORM``; an end in
        ``_DATE_FORM`` means that whole day."""
        try:
            for bound in ("start", "end"):
                if not _TIMESTAMP_FORM.fullmatch(obj[bound]):
                    raise ValueError(f"{bound} {obj[bound]!r} is not YYYY-MM-DD[THH[:MM[:SS]]]")
            start = datetime.fromisoformat(obj["start"])
            end = datetime.fromisoformat(obj["end"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad window spec {obj!r}: {exc}") from None
        if start.tzinfo is not None or end.tzinfo is not None:
            raise ConfigError(f"bad window spec {obj!r}: a bound has a UTC offset; "
                              "expected naive dates or datetimes")
        if _DATE_FORM.fullmatch(obj["end"]):
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

    def to_json(self) -> dict:
        return {"excluded_txn_type_codes": sorted(self.excluded_txn_type_codes)}

    def apply(self, chunk: TransactionChunk, stats: FilterStats) -> TransactionChunk:
        """``chunk`` without its rows of excluded types, counted in ``stats``.
        Order is preserved."""
        drop = np.isin(chunk.txn_type_code, sorted(self.excluded_txn_type_codes))
        dropped = int(drop.sum())
        stats.dropped += dropped
        stats.kept += len(chunk) - dropped
        return chunk.take(~drop) if dropped else chunk


@dataclass
class FilterStats:
    kept: int = 0
    dropped: int = 0

    def warn_if_all_dropped(self) -> None:
        """A warning when the policy filtered the stream down to nothing,
        which usually means a misconfigured code list."""
        if self.dropped and not self.kept:
            log.warning("filter policy removed all %d transactions", self.dropped)


def parse_amount_cents(text: str) -> int:
    """Parse a decimal amount with at most two fraction digits into cents.

    Exactness matters: profiles must not depend on the order float rounding
    happens in, so the currency value never becomes a float here.  Every
    malformed amount is ``unparseable``.
    """
    whole, dot, frac = text.strip().partition(".")
    digits = whole.removeprefix("-")
    if digits.isdecimal() and (not dot or frac.isdecimal() and len(frac) <= 2):
        try:  # int() reads any Unicode decimal digits, up to sys.get_int_max_str_digits()
            cents = int(digits) * 100 + int(frac.ljust(2, "0"))
        except ValueError:
            raise ValueError(f"unparseable amount {text!r}") from None
        return -cents if whole.startswith("-") else cents
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
        if not _TIMESTAMP_FORM.fullmatch(raw_ts):
            raise ValueError
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

    ``customer`` holds the customer's position in the ``Register``,
    ``timestamp`` epoch seconds of the naive ledger time read as UTC and
    ``month`` the calendar months since 1970-01.  ``cents`` is signed:
    credits positive, debits negative.  ``interbank`` marks rows that name a
    counterparty bank.  The account id is not kept: no profile reads it.
    """

    customer: np.ndarray  # int64
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
    def _of(records: Sequence[TransactionRecord], customer: Sequence[int]) -> "TransactionChunk":
        return TransactionChunk(
            np.array(customer, dtype=np.int64),
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
# "YYYY-MM-DDTHH:MM:SS" (or with a space for the "T"), amounts of 1 to 15
# digits, a dot and two digits, codes of 1 to 9 digits, all ASCII, and a
# lower-case direction.  Each conversion takes a field as a byte matrix and
# the fields' lengths: one row of bytes per field, ``width`` wide.  A
# left-aligned matrix holds a field's first bytes and anything after them;
# a right-aligned one holds its last bytes after "0" fill.
_ZERO = ord("0")
_TS_WIDTH = 19
_TS_SEPARATORS = {4: "-", 7: "-", 10: "T ", 13: ":", 16: ":"}
_TS_DIGITS = [i for i in range(_TS_WIDTH) if i not in _TS_SEPARATORS]
# Place values of year, month, day, hour, minute and second, one column
# each.  These and the code weights are float64, which multiplies faster and
# is exact here: every weighted sum of character codes stays below 2**53.
_TS_WEIGHTS = np.array([[10.0 ** (b - 1 - i) if a <= i < b else 0.0
                         for a, b in ((0, 4), (5, 7), (8, 10), (11, 13), (14, 16), (17, 19))]
                        for i in range(_TS_WIDTH)])
_AMOUNT_WIDTH = 18  # right-aligned, the dot at index 15
_AMOUNT_DIGITS = [i for i in range(_AMOUNT_WIDTH) if i != 15]
_AMOUNT_WEIGHTS = np.array([10**p for p in range(16, 1, -1)] + [0, 10, 1], dtype=np.int64)
_CODE_WIDTH = 9
_CODE_WEIGHTS = 10.0 ** np.arange(_CODE_WIDTH - 1, -1, -1)
# A direction is read as one little-endian word of its first 8 bytes
_WORD = 8
_CREDIT, _DEBIT = (int.from_bytes(word.encode(), "little") for word in (CREDIT, DEBIT))
# Customer ids whose key (``_key``) is at most this long take the array path.
_KEY_WIDTH = 64
# NUL bytes on either side of a block, so that the bytes gathered for a
# field, at most this many, lie inside
_PAD = _KEY_WIDTH
# The ASCII whitespace that str.strip removes; a quoted field may hold line ends
_BLANK = np.array([chr(c).isspace() for c in range(33)])
_QUOTE, _LF, _CR = b'"\n\r'
# Bytes per block of the ledger, which ends at the last line end of those
# bytes.  Each block's index arrays stay at a few MB.
BLOCK_CHARS = 1 << 18


def _is_digit(chars: np.ndarray) -> np.ndarray:
    return (chars >= _ZERO) & (chars <= _ZERO + 9)


def _number(chars: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The value of each row's digit characters under the place values ``weights``."""
    return (chars @ weights).astype(np.int64) - _ZERO * weights.sum(axis=0).astype(np.int64)


def _timestamps(chars: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Epoch seconds, months since 1970-01, and which texts are canonical
    valid timestamps; ``chars`` is left-aligned."""
    ok = (lengths == _TS_WIDTH) & _is_digit(chars)[:, _TS_DIGITS].all(axis=1)
    for i, seps in _TS_SEPARATORS.items():
        ok &= (chars[:, i] == ord(seps[0])) | (chars[:, i] == ord(seps[-1]))
    year, month, day, hour, minute, second = _number(chars, _TS_WEIGHTS).T
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
    ok &= (hour <= 23) & (minute <= 59) & (second <= 59)
    months = np.where(ok, (year - 1970) * 12 + month - 1, 0)
    first_day = months.astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
    next_first = (months + 1).astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
    ok &= day <= next_first - first_day
    seconds = (first_day + day - 1) * 86400 + hour * 3600 + minute * 60 + second
    return seconds, months, ok


def _amounts(chars: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cents of canonical amounts above zero, and which texts are such;
    ``chars`` is right-aligned."""
    ok = (lengths >= 4) & (lengths <= _AMOUNT_WIDTH) & (chars[:, 15] == ord("."))
    ok &= _is_digit(chars)[:, _AMOUNT_DIGITS].all(axis=1)
    cents = _number(chars, _AMOUNT_WEIGHTS)
    return cents, ok & (cents > 0)


def _codes(chars: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of canonical codes, and which texts are such; ``chars`` is
    right-aligned."""
    ok = (lengths >= 1) & (lengths <= _CODE_WIDTH) & _is_digit(chars).all(axis=1)
    return _number(chars, _CODE_WEIGHTS), ok


def _signs(chars: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """1 for "credit", -1 for "debit", 0 for any other text; ``chars`` is
    left-aligned and ``_WORD`` wide."""
    word = chars.view("<u8").ravel()

    def equal(text: str, value: int) -> np.ndarray:
        return (lengths == len(text)) & ((word & ((1 << 8 * len(text)) - 1)) == value)

    return equal(CREDIT, _CREDIT).astype(np.int64) - equal(DEBIT, _DEBIT)


def _byte_matrix(padded: np.ndarray, start: np.ndarray, end: np.ndarray, width: int,
                 right: bool) -> tuple[np.ndarray, np.ndarray]:
    """The byte matrix of the fields ``start:end`` of a block, and their
    lengths; ``padded`` holds the block's bytes between ``_PAD`` NULs on
    either side."""
    lengths = end - start
    # each row is one record of ``width`` bytes, so the gather copies records
    windows = np.ndarray((len(padded) - width + 1,), f"V{width}", padded, strides=(1,))
    first = (end - width if right else start) + _PAD
    chars = windows[first].view(np.uint8).reshape(len(first), width)
    if right:
        # a mask built column by column, which numpy does much faster than
        # row by row for short rows
        keep = np.ascontiguousarray((np.arange(width)[:, None] >= width - lengths).T)
        chars = chars * keep + np.uint8(_ZERO) * ~keep
    return chars, lengths


def _holds(buf: np.ndarray, byte: int) -> bool:
    """Whether ``buf`` holds ``byte``: one scan, which spares a block without
    it the checks that only that byte can fail."""
    return bool((buf == byte).any())


def _count(positions: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """How many of the sorted ``positions`` lie in each ``start:end``."""
    return np.searchsorted(positions, end) - np.searchsorted(positions, start)


# A line and its end, which is "\n", "\r\n" or a lone "\r", as in a text
# stream opened with newline="", or the last line without one
_LINE = re.compile(rb"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


class _Ledger:
    """The unread bytes of a binary CSV stream, taken in blocks that end on
    a line end, or line by line for ``csv.reader``."""

    def __init__(self, source: IO[bytes], start: int = 0, end: int = sys.maxsize):
        # ``source`` is at byte ``start``, and its bytes from ``end`` on are not read
        self._source = source
        self._data = b""
        self._pos = 0  # of the next unread byte in _data
        self.offset = start  # of that byte in the stream
        self._left = end - start  # bytes to read after _data
        self.eof = False

    def take(self, size: int) -> None:
        self._pos += size
        self.offset += size

    def block(self, size: int) -> memoryview:
        """The unread bytes up to the last line end among the next ``size``
        or more, or all of them once the stream ends; empty at its end.  Not
        a binary ``readline``, which ends lines at ``\\n`` only and would
        read a lone-CR ledger whole."""
        while True:
            if len(self._data) - self._pos < size and not self.eof:
                more = self._source.read(min(max(size, BLOCK_CHARS) - len(self._data) + self._pos,
                                             self._left))
                self._left -= len(more)
                self._data, self._pos, self.eof = self._data[self._pos:] + more, 0, not more
            data, pos = self._data, self._pos
            # a \r at the end may be the first half of a \r\n
            end = len(data) if self.eof else max(data.rfind(b"\n", pos),
                                                 data.rfind(b"\r", pos, len(data) - 1)) + 1
            if end or self.eof:
                return memoryview(data)[pos:end]
            size = len(data) - pos + BLOCK_CHARS

    def rows(self, delimiter: str) -> Iterator[list[str]]:
        """``csv.reader`` over the unread lines, decoded with
        ``errors="surrogateescape"``.  Each line is taken as the reader asks
        for it, so what it has not read stays unread.  ``csv.reader`` before
        Python 3.11 raises on NUL, so a NUL reaches it as ``_NUL_STAND_IN``
        and is a NUL again in the fields it returns."""

        def lines() -> Iterator[str]:
            while block := self.block(1):
                for line in _LINE.finditer(block):
                    self.take(len(line[0]))
                    yield str(line[0], "utf-8", "surrogateescape").replace("\0", _NUL_STAND_IN)

        return ([f.replace(_NUL_STAND_IN, "\0") for f in row]
                for row in csv.reader(lines(), delimiter=delimiter))

    def header(self, delimiter: str, name: str) -> list[str]:
        """The header's fields; a ``ConfigError`` that names the ``name``
        file if there is none, ``csv.reader`` rejects it or it is not UTF-8."""
        try:
            header = next(self.rows(delimiter))
        except StopIteration:
            raise ConfigError(f"empty {name}: no header row") from None
        except csv.Error as exc:
            raise ConfigError(f"unreadable {name} header row: {exc}") from None
        if _UNDECODABLE.search("".join(header)):
            raise ConfigError(f"{name} header is not valid UTF-8")
        return header


def _split_block(ledger: _Ledger, block: memoryview, delimiter: str) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray, Optional[Union[list[str], str]]]:
    """The records of ``block``, the next unread bytes of ``ledger``, which
    starts a record, taken from ``ledger`` but for a last one that a quoted
    field carries past the block's end: ``padded``, the block and a final
    line end if it has none, between ``_PAD`` NULs; the ``start`` and
    ``end`` in the block of each record without its line end, and their
    delimiters; and the fields that ``csv.reader`` read for the record after
    them, or the reason it raised ``csv.Error``, if it read one.

    A byte lies inside a quoted field as ``csv.reader`` reads it by the
    runs of adjacent quotes before it, each of which opens or closes a
    field, escapes quotes in it, or is text: at a field start a run of odd
    length turns inside into outside and back, elsewhere it leaves outside
    (as text, or closing the field).  Runs of even length change nothing.
    A record longer than ``csv.field_size_limit()``, or one that a quoted
    field carries past the end of a block that holds nothing else, is
    ``csv.reader``'s, and the block ends after it."""
    size = len(block)
    padded = np.frombuffer(b"".join((bytes(_PAD), block, b"\n" * (block[-1] not in b"\r\n"),
                                     bytes(_PAD))), np.uint8)
    buf = padded[_PAD:-_PAD]
    sep = np.frombuffer(delimiter.encode(), np.uint8)
    delims = np.flatnonzero(buf == sep[0])
    for i in range(1, len(sep)):
        delims = delims[padded[_PAD + delims + i] == sep[i]]
    breaks = np.flatnonzero(buf <= _CR)
    breaks = breaks[(buf[breaks] == _LF) | (buf[breaks] == _CR)]
    # the last byte of each line end, of which \r\n is one
    ends = breaks[(buf[breaks] == _LF) | (padded[_PAD + breaks + 1] != _LF)]
    quotes = np.flatnonzero(buf == _QUOTE)
    left_open = False
    if len(quotes):
        run = np.flatnonzero(np.diff(quotes, prepend=-2) != 1)
        odd = np.diff(run, append=len(quotes)) % 2 == 1
        run = quotes[run]
        field_start = np.zeros(len(buf) + 1, bool)
        field_start[[0]] = field_start[breaks + 1] = field_start[delims + len(sep)] = True
        turns = odd & field_start[run]
        # the last run that leaves outside, and the turns since
        last_out = np.maximum.accumulate(np.where(odd & ~turns, np.arange(len(run)), -1))
        count = np.cumsum(turns)
        inside = (count - np.where(last_out < 0, 0, count[last_out])) % 2 == 1
        inside = np.append(inside, False)  # before the first run, at index -1

        def outside(at: np.ndarray) -> np.ndarray:
            return ~inside[np.searchsorted(run, at) - 1]

        ends, delims, left_open = ends[outside(ends)], delims[outside(delims)], bool(inside[-2])
    start = np.append(0, ends + 1)
    end = ends - ((buf[ends] == _LF) & (padded[_PAD + ends - 1] == _CR))
    if left_open and ledger.eof:  # the field runs to the end of the ledger
        start, end = np.append(start, size), np.append(end, size)
    n = len(end)
    long = np.flatnonzero(end - start[:n] > csv.field_size_limit())[:1]
    parsed = None
    if len(long) or n == 0:
        n = int(long[0]) if len(long) else 0
        ledger.take(int(start[n]))
        try:
            parsed = next(ledger.rows(delimiter))
        except csv.Error as exc:
            parsed = str(exc)
    else:
        ledger.take(min(int(start[n]), size))
    return padded, start[:n], end[:n], delims[: np.searchsorted(delims, start[n])], parsed


# A quoted field: the text up to its closing quote, if it has one, and the
# text after that, which csv.reader reads on as it is
_QUOTED = re.compile(rb'"((?:[^"]|"")*)"?(.*)', re.S)


def _fields(data: bytes, start: int, end: int, delims: list[int], width: int) -> list[str]:
    """The fields of the record ``data[start:end]`` as ``csv.reader`` gives
    them, cut at ``delims``, each ``width`` bytes long: a quoted field
    without its quotes and with each ``""`` in it as one quote."""
    if start == end:
        return []
    cuts = [start - width, *delims, end]
    fields = (data[a + width:b] for a, b in zip(cuts, cuts[1:]))
    return [(_unquote(f) if f[:1] == b'"' else f).decode("utf-8", "surrogateescape")
            for f in fields]


def _unquote(field: bytes) -> bytes:
    inner, rest = _QUOTED.fullmatch(field).groups()
    return inner.replace(b'""', b'"') + rest


def _records(ledger: _Ledger, delimiter: str) -> Iterator[Union[list[str], str]]:
    """The fields of each record from ``ledger``'s next unread byte on, or
    the reason ``csv.reader`` rejected it."""
    width = len(delimiter.encode())
    while block := ledger.block(BLOCK_CHARS):
        _, start, end, delims, parsed = _split_block(ledger, block, delimiter)
        data, cuts = bytes(block), np.searchsorted(delims, [start, end]).T.tolist()
        delims = delims.tolist()
        for a, b, (i, j) in zip(start.tolist(), end.tolist(), cuts):
            yield _fields(data, a, b, delims[i:j], width)
        if parsed is not None:
            yield parsed


def _row_fault(row: Union[list[str], str], n_cols: int) -> Optional[str]:
    """Why a record is rejected before its fields are read: the reason
    ``csv.reader`` gave, bytes that are not UTF-8, or fewer than ``n_cols``
    fields; None if it is none of these."""
    if isinstance(row, str):
        return row
    if _UNDECODABLE.search("".join(row)):
        return NOT_UTF8
    if len(row) < n_cols:
        return f"expected at least {n_cols} columns, got {len(row)}"
    return None


class TransactionReader:
    """Iterable over the ledger's accepted rows as ``TransactionChunk``s,
    split by the tokenizer of the module docstring.

    ``source`` is a binary stream.  Given a ``span`` ``(start, end)``, a
    range of ``ledger_ranges``, the reader reads the header from the start
    of the stream and then seeks to ``start``: its records are those at
    bytes ``start:end``.  A record holding bytes that are not UTF-8 becomes
    a rejected row (``NOT_UTF8``); in the header they are a
    ``ConfigError``.  A rejected row's ``line_no`` counts records as
    ``csv.reader`` splits them, the header being record 1.  A record with a
    field longer than ``csv.field_size_limit()`` characters is rejected.

    A row whose customer id is not in ``register`` is rejected, after the
    row's own field checks, unless the id is in ``rejected_customers``, whose
    register rows were rejected: such a row is only counted in ``dropped``,
    so that one bad register row is one rejection.  Counts of accepted,
    rejected and dropped rows, and of the ``records`` after the header, are
    available once the stream is exhausted; iteration aborts with
    TooManyRowErrors when the number of malformed rows exceeds ``error_cap``.
    """

    def __init__(
        self,
        source: IO[bytes],
        mapping: Optional[ColumnMapping] = None,
        *,
        register: Register,
        rejected_customers: Collection[str] = (),
        window: Optional[Window] = None,
        error_cap: int = 100,
        delimiter: str = ",",
        span: Optional[tuple[int, int]] = None,
    ):
        self._source = source
        self._span = span
        self._mapping = mapping or ColumnMapping.identity()
        self._window = window
        self._register = register
        self._rejected_customers = rejected_customers
        self._error_cap = error_cap
        self._delimiter = delimiter
        self.accepted = 0
        self.rejected = 0
        self.dropped = 0
        self.records = 0
        self.errors: list[RowError] = []

    def __iter__(self) -> Iterator[TransactionChunk]:
        self.records = (yield from self._body()) - 2

    def _body(self) -> Generator[TransactionChunk, None, int]:
        """The chunks of the ledger; returns the line number after its last record."""
        ledger = _Ledger(self._source)
        header = ledger.header(self._delimiter, "ledger")
        idx = self._mapping.resolve(header)
        if self._span is not None:
            self._source.seek(self._span[0])
            ledger = _Ledger(self._source, *self._span)
        line_no = 2
        while block := ledger.block(BLOCK_CHARS):
            chunk, records = self._array_chunk(ledger, block, line_no, idx, len(header))
            line_no += records
            if len(chunk):
                yield chunk
        return line_no

    def _array_chunk(self, ledger: _Ledger, block: memoryview, first_line: int,
                     idx: dict[str, int], n_fields: int) -> tuple[TransactionChunk, int]:
        """The chunk of the records of ``block`` (``_split_block``), and
        their number.  A record with another count of fields than the
        header, or that is not canonical, goes through ``_parse_row``, and so
        does one that ``csv.reader`` read."""
        padded, line_start, line_end, delims, parsed = _split_block(ledger, block, self._delimiter)
        buf = padded[_PAD:-_PAD]
        width = len(self._delimiter.encode())
        n, k = len(line_end), n_fields - 1
        if k and len(delims) == k * n and (delims[::k] >= line_start).all() and (
                delims[k - 1::k] < line_end).all():
            # each record holds the header's count of delimiters
            lines, inner = np.arange(n), delims.reshape(n, k)
        else:
            first = np.searchsorted(delims, line_start)
            lines = np.flatnonzero(np.searchsorted(delims, line_end) - first == k)
            inner = delims[first[lines, None] + np.arange(k)]
        # field j of line lines[i] is buf[bounds[i, j] + width : bounds[i, j + 1]]
        bounds = np.empty((len(lines), n_fields + 1), np.int64)
        bounds[:, 0] = line_start[lines] - width
        bounds[:, 1:-1] = inner
        bounds[:, -1] = line_end[lines]
        # each check below runs only on a block that holds the bytes it looks for
        quoted = _holds(buf, _QUOTE)
        opened = buf[bounds[:, :-1] + width] == _QUOTE if quoted else None

        def field(name: str) -> tuple[np.ndarray, np.ndarray]:
            """The bytes of a field, inside its quotes if it is quoted."""
            lo, hi = bounds[:, idx[name]] + width, bounds[:, idx[name] + 1]
            return (lo, hi) if opened is None else (lo + opened[:, idx[name]],
                                                    hi - opened[:, idx[name]])

        values, ok = self._canonical(
            lambda name, width, right: _byte_matrix(padded, *field(name), width, right))
        chunk = None
        if values is not None:
            if quoted:
                # a quoted field that is read is its inner bytes when it ends
                # in its closing quote
                read = np.array([i for name, i in idx.items() if name != "account_id"])
                hi = bounds[:, read + 1]
                ok &= ~(opened[:, read] & ((buf[hi - 1] != _QUOTE)
                                           | (hi - bounds[:, read] - width < 2))).any(axis=1)
            high = None
            if buf.max() >= 0x80:
                high = np.flatnonzero(buf >= 0x80)
                try:
                    str(block, "utf-8")
                except UnicodeDecodeError:  # _merge finds the rows that are not UTF-8
                    ok &= _count(high, line_start[lines], line_end[lines]) == 0
            customer = self._customers(padded, *field("customer_id"), ok, quoted or _holds(buf, 0))
            ok &= customer >= 0
            start, end = field("counterparty_bank")
            # the bytes of the field that str.strip may keep
            kept = end - start
            low = np.flatnonzero(buf <= 32)
            if quoted or ((buf[low] != _LF) & (buf[low] != _CR)).any():
                kept = kept - _count(low[_BLANK[buf[low]]], start, end)
            if high is not None:
                # a field of blanks and other bytes is blank to str.strip
                # when those are Unicode whitespace, which only _parse_row tells
                highs = _count(high, start, end)
                kept = kept - highs
                ok &= (kept > 0) | (highs == 0)
            chunk = TransactionChunk(customer, *values, kept > 0)
        canonical = np.zeros(n, bool)
        canonical[lines[ok]] = True
        data = bytes(block)
        slow = np.flatnonzero(~canonical)
        cuts = np.searchsorted(delims, [line_start[slow], line_end[slow]]).T.tolist()
        rows = [(first_line + i, _fields(data, line_start[i], line_end[i],
                                         delims[a:b].tolist(), width))
                for i, (a, b) in zip(slow.tolist(), cuts)]
        if parsed is not None:
            rows.append((first_line + n, parsed))
        return self._merge(chunk, ok, rows, idx), n + (parsed is not None)

    def _customers(self, padded: np.ndarray, start: np.ndarray, end: np.ndarray, ok: np.ndarray,
                   unusual: bool) -> np.ndarray:
        """The position in the register of each row's customer id
        ``padded[start:end]``, or -1 where the row is not ``ok``, the
        register has no such id, or the id holds a quote or a NUL, which only
        a block with such ``unusual`` bytes checks."""
        lengths = end - start
        ok = ok & (lengths < min(_KEY_WIDTH, self._register.keys.dtype.itemsize))
        key_width = int(lengths[ok].max(initial=0)) + 1
        chars, _ = _byte_matrix(padded, start, end, key_width, False)
        column = np.arange(key_width)[:, None]
        in_id = np.ascontiguousarray((column < lengths).T)
        if unusual:
            # "" in a quoted id stands for one quote, and a NUL is no key's end
            ok &= ~(((chars == _QUOTE) | (chars == 0)) & in_id).any(axis=1)
        keys = (chars * in_id + np.ascontiguousarray((column == lengths).T)).view(f"S{key_width}")
        keys = keys.ravel()
        # a ledger grouped by customer repeats each id in runs
        head = np.r_[True, keys[1:] != keys[:-1]]
        return np.where(ok, self._register.lookup(keys[head])[np.cumsum(head) - 1], -1)

    def _canonical(
        self, matrix: Callable[[str, int, bool], tuple[np.ndarray, np.ndarray]]
    ) -> tuple[Optional[tuple[np.ndarray, ...]], np.ndarray]:
        """The timestamp, month, signed cents, service and type code columns
        of the rows, and which rows are canonical and in the window;
        ``matrix(field, width, right)`` gives a field's byte matrix and
        lengths.  The conversions stop, with no columns, once no row is left:
        a ledger written in another form costs little more than its
        ``_parse_row`` calls."""
        seconds, months, ok = _timestamps(*matrix("timestamp", _TS_WIDTH, False))
        if self._window is not None:
            # whole seconds inside the window: ceil(start) .. floor(end)
            lo = -((EPOCH - self._window.start) // timedelta(seconds=1))
            hi = (self._window.end - EPOCH) // timedelta(seconds=1)
            ok &= (seconds >= lo) & (seconds <= hi)
        if not ok.any():
            return None, ok
        cents, amount_ok = _amounts(*matrix("amount", _AMOUNT_WIDTH, True))
        ok &= amount_ok
        if not ok.any():
            return None, ok
        sign = _signs(*matrix("direction", _WORD, False))
        service, service_ok = _codes(*matrix("service_code", _CODE_WIDTH, True))
        txn_type, txn_type_ok = _codes(*matrix("txn_type_code", _CODE_WIDTH, True))
        ok &= (sign != 0) & service_ok & txn_type_ok
        return (seconds.astype(np.float64), months, cents * sign, service, txn_type), ok

    def _merge(self, chunk: Optional[TransactionChunk], ok: np.ndarray,
               rows: list[tuple[int, Union[list[str], str]]],
               idx: dict[str, int]) -> TransactionChunk:
        """The canonical rows of ``chunk`` that ``ok`` marks and the accepted
        ``(line_no, fields)`` pairs of ``rows``, which are judged one by one
        in line order; a reason in place of the fields rejects its line."""
        self.accepted += int(ok.sum())
        if not rows:
            return chunk
        n_cols = max(idx.values()) + 1
        judged: list[tuple[int, Union[TransactionRecord, str]]] = []
        for line_no, row in rows:
            if not row:
                continue
            reason = _row_fault(row, n_cols)
            if reason is None:
                try:
                    judged.append((line_no, _parse_row(row, idx, self._window)))
                    continue
                except ValueError as exc:
                    reason = str(exc)
            judged.append((line_no, reason))
        positions = iter(self._register.positions(
            r.customer_id for _, r in judged if not isinstance(r, str)).tolist())
        records, customer = [], []
        for line_no, record in judged:
            if isinstance(record, str):
                reason = record
            elif (position := next(positions)) >= 0:
                records.append(record)
                customer.append(position)
                continue
            elif record.customer_id in self._rejected_customers:
                self.dropped += 1
                continue
            else:
                reason = f"customer {record.customer_id!r} not in register"
            self._record_error(line_no, reason)
        self.accepted += len(records)
        slow = TransactionChunk._of(records, customer)
        return slow if chunk is None else TransactionChunk.concat([chunk.take(ok), slow])

    def _record_error(self, line_no: int, reason: str) -> None:
        self.rejected += 1
        self.errors.append(RowError(line_no, reason))
        if self.rejected > self._error_cap:
            raise TooManyRowErrors(self.errors, self._error_cap)


# A ledger below this many bytes (4 MiB) is read as one range.  On 2 CPUs,
# profiles of synthetic ledgers took as long forked as in one process at
# 2-4 MiB, longer below, and less from 5 MiB on.
MIN_SPLIT_BYTES = 16 * BLOCK_CHARS


def ledger_ranges(path, parts: int, delimiter: str = ",") -> list[tuple[int, int]]:
    """Up to ``parts`` consecutive ``(start, end)`` byte ranges that hold the
    ledger's records: the first starts after the header, and each other at
    the first record start of the reader's own index (``_split_block``) past
    an even share of the bytes.  A ``TransactionReader`` given a range as
    its ``span`` reads the header and then seeks to the range, so the
    readers of the ranges together split the records that one reader of the
    ledger splits.  A ledger under ``MIN_SPLIT_BYTES`` is one range."""
    size = os.path.getsize(path)
    if size < MIN_SPLIT_BYTES:
        parts = 1
    with open(path, "rb") as fh:
        ledger = _Ledger(fh)
        ledger.header(delimiter, "ledger")
        cuts = [ledger.offset]
        targets = [cuts[0] + (size - cuts[0]) * i // parts for i in range(1, parts)]
        while targets and (block := ledger.block(BLOCK_CHARS)):
            at = ledger.offset
            if at + len(block) <= targets[0] and not _holds(np.frombuffer(block, np.uint8),
                                                            _QUOTE):
                # no cut here, and every line end of a block without quotes
                # ends a record, so its index, most of the cost on a plain
                # ledger, is not needed
                ledger.take(len(block))
                continue
            start = at + _split_block(ledger, block, delimiter)[1]
            while targets and len(start) and targets[0] <= start[-1]:
                cut = int(start[np.searchsorted(start, targets.pop(0))])
                if cuts[-1] < cut:
                    cuts.append(cut)
    return list(zip(cuts, cuts[1:] + [size]))


def join_rejections(parts: Sequence[tuple[list[RowError], int]], cap: int) -> list[RowError]:
    """The rejections of consecutive ledger ranges, given with each range's
    count of records, as one reader of the ledger records them: each line
    number shifted by the records of the ranges before it.  Raises
    ``TooManyRowErrors`` with the first ``cap + 1`` when there are more than
    ``cap``, so a range that was aborted holds enough of them."""
    joined: list[RowError] = []
    offset = 0
    for errors, records in parts:
        joined += (e._replace(line_no=e.line_no + offset) for e in errors)
        if len(joined) > cap:
            raise TooManyRowErrors(joined[: cap + 1], cap)
        offset += records
    return joined


def parse_customers(
    source: IO[bytes],
    mapping: Optional[ColumnMapping] = None,
    *,
    window: Window,
    error_cap: int = 100,
    delimiter: str = ",",
) -> tuple[Register, list[RowError]]:
    """Parse the customer register, a binary stream, into a ``Register``.

    Its header, records and the faults that reject a record are those of the
    ledger (``_Ledger.header``, ``_records``, ``_row_fault``).  An account
    opened after the window end is a rejected row: its age at the window end
    would be negative.  A repeated customer id is a rejected row; the first
    row is kept.  A rejected row names its customer id, if it has that column.
    """
    mapping = mapping or ColumnMapping.identity(CUSTOMER_FIELDS)
    stream = _Ledger(source)
    idx = mapping.resolve(stream.header(delimiter, "register"))
    n_cols = max(idx.values()) + 1
    opened: dict[str, date] = {}
    first_lines: dict[str, int] = {}
    errors: list[RowError] = []
    for line_no, row in enumerate(_records(stream, delimiter), start=2):
        if not row:
            continue
        cid = (row[idx["customer_id"]]
               if isinstance(row, list) and len(row) > idx["customer_id"] else "")
        message = _row_fault(row, n_cols)
        if message is None:
            raw_date = row[idx["account_open_date"]]
            try:
                if not _DATE_FORM.fullmatch(raw_date):
                    raise ValueError
                open_date = date.fromisoformat(raw_date)
            except ValueError:
                message = f"unparseable account_open_date in {row!r}"
            else:
                if open_date > window.end.date():
                    message = (f"account_open_date {open_date.isoformat()} is after the window "
                               f"end {window.end.date().isoformat()}")
                elif cid in first_lines:
                    message = f"duplicate customer_id {cid!r}, first on line {first_lines[cid]}"
        if message:
            errors.append(RowError(line_no, message, "register", cid))
            if len(errors) > error_cap:
                raise TooManyRowErrors(errors, error_cap)
            continue
        first_lines[cid] = line_no
        opened[cid] = open_date
    return Register.of(opened), errors


def filter_insignificant(
    chunks: Iterable[TransactionChunk],
    policy: FilterPolicy,
    stats: Optional[FilterStats] = None,
) -> Iterator[TransactionChunk]:
    """Drop transactions whose type code is excluded by the policy
    (``FilterPolicy.apply``), and warn at the end of the stream if none is
    left (``FilterStats.warn_if_all_dropped``)."""
    if stats is None:
        stats = FilterStats()
    for chunk in chunks:
        yield policy.apply(chunk, stats)
    stats.warn_if_all_dropped()


def format_amount(cents: int) -> str:
    sign = "-" if cents < 0 else ""
    cents = abs(cents)
    return f"{sign}{cents // 100}.{cents % 100:02d}"


def write_rejections(errors: Iterable[RowError], dest: IO[str]) -> None:
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(["source", "line_no", "reason"])
    for err in errors:
        writer.writerow([err.source, err.line_no, err.reason])
