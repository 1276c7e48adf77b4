"""Columnar MDT record batches — the packed data plane.

A :class:`RecordBatch` holds the paper's six Table-2 fields as parallel
columns instead of per-record objects:

* ``ts`` / ``lon`` / ``lat`` / ``speed`` — ``array('d')`` (8 bytes/field),
* ``state`` — ``array('b')`` integer codes (see
  :data:`repro.states.states.STATES_BY_CODE`),
* ``taxi`` — ``array('i')`` indices into an interned id table, so a
  million records of one taxi store its id string once.

That is ~33 bytes per record plus the id table, against a few hundred
bytes for a frozen ``MdtRecord`` dataclass, and — because the columns
are contiguous buffers — a batch pickles as six raw buffers rather than
O(records) Python objects.

Rows are built back into :class:`~repro.trace.record.MdtRecord`
objects only where a consumer reads one row at a time (the streaming
replay, as it feeds each row; snapshot publication; history segments);
pickup events hold column tuples, and everything upstream works on
columns.  CSV ingest parses blocks of lines into
whole columns — by array operations when every line of a block has the
canonical shape, line by line otherwise — and cleaning, PEA and the
job counts run as whole-day array kernels over zero-copy NumPy views
of the columns (:func:`column_view`).  ``array('d')`` stores exact
IEEE doubles, so a round-trip through a batch is bit-for-bit lossless
and the columnar pipeline's outputs are byte-identical to the row
path's.
"""

from __future__ import annotations

import io
import re
from array import array
from math import isfinite
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.states.states import STATES_BY_CODE, STATE_CODES, parse_state
from repro.trace.record import (
    MdtRecord,
    format_timestamp,
    parse_timestamp_cached,
)

#: Column typecodes, in field order (ts, lon, lat, speed, state, taxi).
_FLOAT_TYPECODE = "d"
_STATE_TYPECODE = "b"
_TAXI_TYPECODE = "i"


class RecordBatch:
    """Parallel columns of MDT records with interned taxi ids."""

    __slots__ = (
        "ts",
        "lon",
        "lat",
        "speed",
        "state",
        "taxi",
        "taxi_table",
        "_taxi_index",
        "skipped_lines",
        "__weakref__",
    )

    def __init__(self) -> None:
        self.ts = array(_FLOAT_TYPECODE)
        self.lon = array(_FLOAT_TYPECODE)
        self.lat = array(_FLOAT_TYPECODE)
        self.speed = array(_FLOAT_TYPECODE)
        self.state = array(_STATE_TYPECODE)
        self.taxi = array(_TAXI_TYPECODE)
        #: Interned taxi ids in first-appearance order; ``taxi[i]``
        #: indexes into this table.
        self.taxi_table: List[str] = []
        self._taxi_index: Optional[Dict[str, int]] = None
        self.skipped_lines = 0
        """Malformed lines dropped by lenient CSV ingestion."""

    # -- building -----------------------------------------------------------

    def _intern(self, taxi_id: str) -> int:
        index = self._taxi_index
        if index is None or len(index) != len(self.taxi_table):
            index = {tid: i for i, tid in enumerate(self.taxi_table)}
            self._taxi_index = index
        code = index.get(taxi_id)
        if code is None:
            code = len(self.taxi_table)
            self.taxi_table.append(taxi_id)
            index[taxi_id] = code
        return code

    def append_fields(
        self,
        ts: float,
        taxi_id: str,
        lon: float,
        lat: float,
        speed: float,
        state_code: int,
    ) -> None:
        """Append one row from already-validated scalar fields."""
        self.ts.append(ts)
        self.lon.append(lon)
        self.lat.append(lat)
        self.speed.append(speed)
        self.state.append(state_code)
        self.taxi.append(self._intern(taxi_id))

    def append_row(self, record: MdtRecord) -> None:
        """Append one :class:`MdtRecord` (the row -> column adapter)."""
        self.append_fields(
            record.ts,
            record.taxi_id,
            record.lon,
            record.lat,
            record.speed,
            STATE_CODES[record.state],
        )

    @classmethod
    def from_rows(cls, records: Iterable[MdtRecord]) -> "RecordBatch":
        """Pack an iterable of records into columns."""
        batch = cls()
        for record in records:
            batch.append_row(record)
        return batch

    @classmethod
    def concat(cls, batches: Sequence["RecordBatch"]) -> "RecordBatch":
        """Concatenate batches row-wise into a new batch."""
        out = cls()
        for batch in batches:
            out.extend_batch(batch)
        return out

    def extend_batch(self, other: "RecordBatch") -> None:
        """Append every row of ``other`` (re-interning its taxi ids)."""
        if not other.taxi_table:
            return
        remap = array(
            _TAXI_TYPECODE,
            (self._intern(tid) for tid in other.taxi_table),
        )
        self.ts.extend(other.ts)
        self.lon.extend(other.lon)
        self.lat.extend(other.lat)
        self.speed.extend(other.speed)
        self.state.extend(other.state)
        self.taxi.extend(remap[code] for code in other.taxi)

    # -- reads --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ts)

    @property
    def taxi_count(self) -> int:
        """Number of distinct taxis in the batch."""
        return len(self.taxi_table)

    @property
    def nbytes(self) -> int:
        """Raw column payload in bytes (excluding the id table)."""
        return (
            self.ts.itemsize * len(self.ts)
            + self.lon.itemsize * len(self.lon)
            + self.lat.itemsize * len(self.lat)
            + self.speed.itemsize * len(self.speed)
            + self.state.itemsize * len(self.state)
            + self.taxi.itemsize * len(self.taxi)
        )

    @property
    def time_span(self) -> Tuple[float, float]:
        """``(min_ts, max_ts)`` over all rows.

        Raises:
            ValueError: when the batch is empty.
        """
        if not self.ts:
            raise ValueError("batch is empty")
        return column_extent(self.ts)

    def taxi_id_at(self, i: int) -> str:
        """The taxi id of row ``i``."""
        return self.taxi_table[self.taxi[i]]

    def row(self, i: int) -> MdtRecord:
        """Materialize row ``i`` as an :class:`MdtRecord`."""
        return MdtRecord(
            ts=self.ts[i],
            taxi_id=self.taxi_table[self.taxi[i]],
            lon=self.lon[i],
            lat=self.lat[i],
            speed=self.speed[i],
            state=STATES_BY_CODE[self.state[i]],
        )

    def iter_rows(
        self, start: int = 0, stop: Optional[int] = None
    ) -> Iterator[MdtRecord]:
        """Yield rows ``[start, stop)`` one at a time (the store's row
        reads)."""
        table = self.taxi_table
        states = STATES_BY_CODE
        for i in range(start, len(self.ts) if stop is None else stop):
            yield MdtRecord(
                ts=self.ts[i],
                taxi_id=table[self.taxi[i]],
                lon=self.lon[i],
                lat=self.lat[i],
                speed=self.speed[i],
                state=states[self.state[i]],
            )

    def to_rows(self) -> List[MdtRecord]:
        """Materialize every row (the column -> row adapter)."""
        return list(self.iter_rows())

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecordBatch):
            return NotImplemented
        if len(self) != len(other):
            return False
        if not (
            self.ts == other.ts
            and self.lon == other.lon
            and self.lat == other.lat
            and self.speed == other.speed
            and self.state == other.state
        ):
            return False
        if self.taxi_table == other.taxi_table and self.taxi == other.taxi:
            return True
        return all(
            self.taxi_id_at(i) == other.taxi_id_at(i)
            for i in range(len(self))
        )

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"RecordBatch({len(self)} records, {self.taxi_count} taxis, "
            f"{self.nbytes} column bytes)"
        )

    # -- primitives ---------------------------------------------------------

    def take(self, indices: Sequence[int]) -> "RecordBatch":
        """A new batch holding ``rows[i] for i in indices`` in order.

        Each column is gathered straight into its new ``array``, one
        column at a time.  The new ``taxi_table`` lists the taxis of
        the taken rows in first-appearance order.
        """
        rows = np.asarray(indices, dtype=np.intp)
        out = RecordBatch()
        for name in ("ts", "lon", "lat", "speed", "state"):
            setattr(out, name, _take(getattr(self, name), rows))
        codes = np.take(column_view(self.taxi), rows)
        # A taxi first appears at the start of one of its runs.
        starts = np.flatnonzero(codes[1:] != codes[:-1]) + 1
        present, first = np.unique(
            codes[np.append(0, starts)] if len(codes) else codes,
            return_index=True,
        )
        appearance = present[np.argsort(first, kind="stable")]
        remap = np.zeros(len(self.taxi_table), dtype=np.intc)
        remap[appearance] = np.arange(len(appearance), dtype=np.intc)
        out.taxi = _take(remap, codes)
        out.taxi_table = [self.taxi_table[c] for c in appearance.tolist()]
        return out

    def filter_mask(self, mask: Sequence[bool]) -> "RecordBatch":
        """Rows where ``mask`` is true, in order."""
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != len(self):
            raise ValueError("mask length must match batch length")
        return self.take(np.flatnonzero(mask))

    def argsort_ts(self) -> np.ndarray:
        """Stable row order by timestamp (ties keep input order): the
        permutation ``sorted(range(n), key=ts)`` gives, as a new int
        array the caller owns.  Timestamps are finite, so NumPy's
        stable sort and Python's agree on every tie."""
        return np.argsort(column_view(self.ts), kind="stable")

    # -- CSV ingest ---------------------------------------------------------

    @classmethod
    def from_csv(cls, path, on_error: str = "raise") -> "RecordBatch":
        """Parse a log CSV straight into columns (no record objects).

        The file is read in blocks of whole lines, about
        :data:`BLOCK_CHARS` characters each.  A block whose every line
        has the canonical shape (see :func:`_canonical_block`) is parsed
        by array operations; any other block goes whole to the line
        parser :func:`_parse_csv_lines`, the reference the block parser
        is checked against.  Both give the same floats, so rows, row
        order, ``taxi_table`` order and :attr:`skipped_lines` do not
        depend on which parser a block took.

        Field validation matches :meth:`MdtRecord.from_csv_row` exactly
        — arity, empty taxi id, non-numeric or non-finite values, bad
        timestamps (including finite-parse/non-finite-POSIX ones) and
        unknown states are all malformed — and so is a line that is not
        valid UTF-8.  This is the one CSV reader:
        :meth:`MdtLogStore.from_csv` builds its store from this batch.

        Args:
            path: the CSV file.
            on_error: ``"raise"`` (default) fails on the first malformed
                line; ``"skip"`` drops malformed lines and records the
                count in :attr:`skipped_lines`.

        Raises:
            ValueError: on a bad header, on a malformed line in raise
                mode, or for an unknown ``on_error`` value.
        """
        if on_error not in ("raise", "skip"):
            raise ValueError("on_error must be 'raise' or 'skip'")
        batch = cls()
        midnights: Dict[str, float] = {}
        with open_csv(path) as fh:
            for block in _blocks(fh):
                columns = _canonical_block(block, midnights)
                if columns is not None:
                    batch._extend_columns(*columns)
                else:
                    # The block's lines as the file yields them.
                    lines = io.StringIO(block, newline="\n")
                    batch._extend_rows(
                        _parse_csv_lines(lines, on_error, midnights)
                    )
        return batch

    def _extend_rows(
        self, rows: Iterable[Optional[Tuple[float, str, float, float, float, int]]]
    ) -> None:
        """Append ``append_fields`` tuples, counting each None as a
        skipped line.  The lookups ``append_fields`` makes per row are
        made once here, which pays for the rejected block parse before
        a fallback."""
        ts, lon, lat = self.ts.append, self.lon.append, self.lat.append
        speed, state, taxi = self.speed.append, self.state.append, self.taxi.append
        codes: Dict[str, int] = {}
        for row in rows:
            if row is None:
                self.skipped_lines += 1
                continue
            ts(row[0])
            code = codes.get(row[1])
            if code is None:
                code = codes[row[1]] = self._intern(row[1])
            taxi(code)
            lon(row[2])
            lat(row[3])
            speed(row[4])
            state(row[5])

    def _extend_columns(self, ts, lon, lat, speed, state, ids, which) -> None:
        """Append a parsed block: float64/int8 column arrays, its taxi
        ids in first-appearance order, and each row's index into them."""
        codes = np.array([self._intern(tid) for tid in ids], dtype=np.intc)
        self.ts.frombytes(ts.tobytes())
        self.lon.frombytes(lon.tobytes())
        self.lat.frombytes(lat.tobytes())
        self.speed.frombytes(speed.tobytes())
        self.state.frombytes(state.tobytes())
        self.taxi.frombytes(codes[which].tobytes())

    def to_csv(self, path) -> None:
        """Write the batch as a log CSV in the paper's field order, one
        row at a time, each formatted like ``MdtRecord.to_csv_row``."""
        table = self.taxi_table
        with Path(path).open("w", encoding="utf-8") as fh:
            fh.write(MdtRecord.CSV_HEADER + "\n")
            for i in range(len(self)):
                fh.write(
                    f"{format_timestamp(self.ts[i])},{table[self.taxi[i]]},"
                    f"{self.lon[i]:.6f},{self.lat[i]:.6f},{self.speed[i]:.1f},"
                    f"{STATES_BY_CODE[self.state[i]].value}\n"
                )


def column_view(column: array) -> np.ndarray:
    """A zero-copy NumPy view of an ``array`` column (same dtype).

    While a view is alive its column cannot grow: ``array.append``
    raises ``BufferError``.  So no view may outlive the call that made
    it; keep views in locals and never return or store one.
    """
    return np.frombuffer(column, dtype=column.typecode)


def column_extent(column: array) -> Tuple[float, float]:
    """``(min, max)`` of a non-empty column: the first minimal and the
    first maximal element, as Python's ``min`` and ``max`` pick them."""
    values = column_view(column)
    return column[int(values.argmin())], column[int(values.argmax())]


def _take(column, rows: np.ndarray) -> array:
    """``column[rows]`` (an ``array`` column or an ndarray) as a new
    ``array``, written into it in place."""
    values = column_view(column) if isinstance(column, array) else column
    out = array(values.dtype.char, [0]) * len(rows)
    np.take(values, rows, out=column_view(out))
    return out


#: Characters per ingest block: ~4.5k lines of a canonical log, for
#: which the block parser's working arrays take about 1 MB.
BLOCK_CHARS = 1 << 18


def _blocks(fh) -> Iterator[str]:
    """The rest of ``fh`` in blocks of whole lines (the last one may
    lack its newline)."""
    carry = ""
    while True:
        chunk = fh.read(BLOCK_CHARS)
        if not chunk:
            if carry:
                yield carry
            return
        head, newline, tail = chunk.rpartition("\n")
        if newline:
            yield carry + head + newline
            carry = tail
        else:
            carry += chunk


#: A character that only ``surrogateescape`` produces: an input byte
#: that is not UTF-8.
_UNDECODED = re.compile("[\udc80-\udcff]")


def open_csv(path):
    """Open a log CSV for reading, positioned after its header.

    Lines are split as text mode splits them (``\\n``, ``\\r\\n`` or
    ``\\r``).  Bytes that are not UTF-8 decode to lone surrogates
    (``errors="surrogateescape"``), so the parsers can reject the one
    line that holds them instead of stopping the read.

    Raises:
        ValueError: when the first line is not the log header.
    """
    fh = Path(path).open("r", encoding="utf-8", errors="surrogateescape")
    header = fh.readline()
    if header.strip() != MdtRecord.CSV_HEADER:
        fh.close()
        raise ValueError(f"unexpected CSV header: {header!r}")
    return fh


def _parse_csv_lines(
    lines: Iterable[str],
    on_error: str,
    midnights: Optional[Dict[str, float]] = None,
) -> Iterator[Optional[Tuple[float, str, float, float, float, int]]]:
    """Parse CSV lines into ``append_fields`` tuples, None per skip.

    The line-at-a-time parser: every line shape the block parser does
    not take comes here, and it is the reference that parser is checked
    against.  ``midnights`` is the per-date timestamp cache to share.
    """
    if midnights is None:
        midnights = {}
    state_cache: Dict[str, int] = {}
    for line in lines:
        if not line.strip():
            continue
        try:
            if not line.isascii() and _UNDECODED.search(line):
                raw = line.encode("utf-8", "surrogateescape")
                raise ValueError(f"line is not valid UTF-8: {raw!r}")
            parts = line.rstrip("\n").split(",")
            if len(parts) != 6:
                raise ValueError(
                    f"expected 6 fields, got {len(parts)}: {line!r}"
                )
            ts_text, taxi_id, lon_text, lat_text, speed_text, state = parts
            lon = float(lon_text)
            lat = float(lat_text)
            speed = float(speed_text)
            if not (isfinite(lon) and isfinite(lat) and isfinite(speed)):
                raise ValueError(f"non-finite coordinate or speed: {line!r}")
            if not taxi_id:
                raise ValueError(f"empty taxi id: {line!r}")
            ts = parse_timestamp_cached(ts_text, midnights)
            code = state_cache.get(state)
            if code is None:
                code = STATE_CODES[parse_state(state)]
                state_cache[state] = code
        except ValueError:
            if on_error == "raise":
                raise
            yield None
            continue
        yield (ts, taxi_id, lon, lat, speed, code)


# -- the block parser -----------------------------------------------------------

_NEWLINE, _COMMA, _ZERO, _POINT, _MINUS = b"\n,0.-"
#: Widest plain decimal the block parser takes: its digits then form an
#: integer below 2**53, exact in a double.
_MAX_DECIMAL_WIDTH = 15
_POW10 = 10 ** np.arange(_MAX_DECIMAL_WIDTH, dtype=np.int64)
_COLS = np.arange(_MAX_DECIMAL_WIDTH)
#: The canonical timestamp ``dd/mm/yyyy HH:MM:SS``: its separators, and
#: its digits as the pairs dd, mm, yy, yy, HH, MM, SS.
_STAMP_WIDTH = 19
_STAMP_SEPARATOR_COLS = np.array([2, 5, 10, 13, 16])
_STAMP_SEPARATORS = np.frombuffer(b"// ::", dtype=np.uint8)[:, None]
_STAMP_DIGIT_COLS = np.array([0, 1, 3, 4, 6, 7, 8, 9, 11, 12, 14, 15, 17, 18])
_STATE_WIDTH = 8


def _state_keys():
    """The state texts as 8-byte little-endian keys, zero padded: the
    sorted keys, and the width and code of each."""
    keys, widths, codes = zip(*sorted(
        (
            int.from_bytes(
                state.value.encode("ascii").ljust(_STATE_WIDTH, b"\0"), "little"
            ),
            len(state.value),
            code,
        )
        for code, state in enumerate(STATES_BY_CODE)
    ))
    return (
        np.array(keys, dtype=np.uint64),
        np.array(widths),
        np.array(codes, dtype=np.int8),
    )


_STATE_KEYS, _STATE_KEY_WIDTHS, _STATE_KEY_CODES = _state_keys()


def _canonical_block(text: str, midnights: Dict[str, float]):
    """Parse a block of lines by array operations, or return None when
    any line is off the canonical shape.

    A line has the canonical shape when it has six fields; a canonical
    ``dd/mm/yyyy HH:MM:SS`` timestamp (ASCII digits, a valid date, hour
    < 24, minute and second < 60); lon, lat and speed as plain decimals
    (``-?D+(.D*)?``, at most :data:`_MAX_DECIMAL_WIDTH` characters); a
    taxi id that is not empty; and a state text as
    :class:`~repro.states.states.TaxiState` spells it.  Such a line is
    never malformed, and this parse gives the floats the line parser
    gives.  A block that is not valid UTF-8 (its text holds lone
    surrogates) is not canonical either.

    Returns:
        ``(ts, lon, lat, speed, state, ids, which)``: float64 and int8
        column arrays, the block's taxi ids in first-appearance order,
        and each row's index into ``ids``.
    """
    try:
        raw = text.encode("utf-8")
    except UnicodeEncodeError:
        return None
    if not raw.endswith(b"\n"):
        raw += b"\n"
    # The padding lets a fixed-width read of the last state run past
    # the end; zeros are neither newlines nor commas.
    buf = np.frombuffer(raw + bytes(_STATE_WIDTH), dtype=np.uint8)
    ends = np.flatnonzero(buf == _NEWLINE)
    commas = np.flatnonzero(buf == _COMMA)
    n = len(ends)
    if len(commas) != 5 * n:
        return None
    commas = commas.reshape(n, 5).T
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    # Every line holds its own five commas, the first one right after
    # its timestamp.
    if not (
        np.array_equal(commas[0], starts + _STAMP_WIDTH)
        and (commas[4] < ends).all()
    ):
        return None
    ts = _stamps(buf, starts, midnights)
    if ts is None:
        return None
    state = _states(buf, commas[4] + 1, ends)
    if state is None:
        return None
    numbers = []
    for field in (1, 2, 3):  # lon, lat, speed
        values = _decimals(buf, commas[field] + 1, commas[field + 1])
        if values is None:
            return None
        numbers.append(values)
    taxis = _taxi_ids(raw, buf, commas[0] + 1, commas[1])
    if taxis is None:
        return None
    return (ts, *numbers, state) + taxis


def _windows(buf, width: int):
    """Every ``width``-byte window of ``buf`` (a view): indexing it with
    start positions copies those fields without an index matrix."""
    return np.lib.stride_tricks.sliding_window_view(buf, width)


def _stamps(buf, starts, midnights):
    """POSIX seconds of the canonical timestamps at ``starts``.

    Each date's midnight comes from ``midnights``, the cache that
    :func:`~repro.trace.record.parse_timestamp_cached` fills, so a
    timestamp is the float the line parser gives; a date not cached yet
    is parsed (and validated) once by that function.
    """
    stamp = _windows(buf, _STAMP_WIDTH)[starts].T
    if not (stamp[_STAMP_SEPARATOR_COLS] == _STAMP_SEPARATORS).all():
        return None
    digits = stamp[_STAMP_DIGIT_COLS] - _ZERO
    if (digits > 9).any():
        return None
    day, month, y_hi, y_lo, hour, minute, second = (
        digits[0::2] * 10 + digits[1::2]
    ).astype(np.int64)
    if ((hour >= 24) | (minute >= 60) | (second >= 60)).any():
        return None
    date = ((day * 100 + month) * 100 + y_hi) * 100 + y_lo
    dates, first, which = np.unique(
        date, return_index=True, return_inverse=True
    )
    midnight = np.empty(len(dates))
    for k, row in enumerate(first):
        text = buf[starts[row]:starts[row] + _STAMP_WIDTH].tobytes().decode()
        if text[:10] not in midnights:
            try:
                parse_timestamp_cached(text, midnights)
            except ValueError:
                return None
        midnight[k] = midnights[text[:10]]
    return midnight[which.ravel()] + (hour * 3600 + minute * 60 + second)


def _states(buf, lo, hi):
    """State codes of the state texts in ``[lo, hi)``."""
    width = hi - lo
    if width.max() > _STATE_WIDTH:
        return None
    chars = _windows(buf, _STATE_WIDTH)[lo]
    chars[_COLS[:_STATE_WIDTH] >= width[:, None]] = 0
    key = chars.view("<u8").ravel()
    at = np.minimum(np.searchsorted(_STATE_KEYS, key), len(_STATE_KEYS) - 1)
    if not ((_STATE_KEYS[at] == key) & (_STATE_KEY_WIDTHS[at] == width)).all():
        return None
    return _STATE_KEY_CODES[at]


def _decimals(buf, lo, hi):
    """Values of the plain decimals in ``[lo, hi)``.

    The digits of a plain decimal of at most :data:`_MAX_DECIMAL_WIDTH`
    characters form an integer below 2**53, and 10**k is exact for the
    k digits after its point; the one IEEE division of the two is the
    correctly rounded value, which is what ``float()`` returns.
    """
    width = hi - lo
    w = int(width.max())
    if width.min() < 1 or w > _MAX_DECIMAL_WIDTH:
        return None
    cols = _COLS[:w, None]
    # One row per character column, right-aligned; the columns before a
    # field read as leading zeros, which leave its value alone.
    chars = np.take(buf, hi - w + cols)
    chars[cols < w - width] = _ZERO
    flat = chars.reshape(-1)
    lead = (w - width) * len(lo) + np.arange(len(lo))
    minus = flat[lead] == _MINUS
    flat[lead[minus]] = _ZERO
    is_point = chars == _POINT
    point = is_point.view(np.uint8)
    points = point.sum(axis=0, dtype=np.uint8)
    frac = (point * (w - 1 - cols).astype(np.uint8)).sum(axis=0, dtype=np.uint8)
    chars[is_point] = _ZERO
    digits = chars - _ZERO
    # Digits only, at most one point, and a digit before it.
    if (digits > 9).any() or (
        (points > 1) | (width - minus - points - frac < 1)
    ).any():
        return None
    whole = (_POW10[w - 1::-1].astype(np.float64) @ digits).astype(np.int64)
    scale = _POW10[frac]
    # The point's column reads 0: close it up.
    mantissa = np.where(points, whole // (scale * 10) * scale + whole % scale, whole)
    value = mantissa / scale
    return np.where(minus, -value, value)


def _taxi_ids(raw: bytes, buf, lo, hi):
    """``(ids, which)``: the taxi ids in ``[lo, hi)`` in first-appearance
    order, and each row's index into them; None if one is empty."""
    width = hi - lo
    if width.min() < 1:
        return None
    w = int(width.max())
    # UTF-8 never holds the byte 0xFF, so padding with it keeps ids of
    # different widths apart.
    cols = np.arange(w)
    chars = np.take(buf, lo[:, None] + cols, mode="clip")
    chars[cols >= width[:, None]] = 0xFF
    _, first, which = np.unique(
        chars.view(f"V{w}").ravel(), return_index=True, return_inverse=True
    )
    appearance = np.argsort(first)
    rank = np.empty_like(appearance)
    rank[appearance] = np.arange(len(appearance))
    ids = [raw[lo[row]:hi[row]].decode() for row in first[appearance]]
    return ids, rank[which.ravel()]
