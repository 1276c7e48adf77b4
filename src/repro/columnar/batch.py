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

Rows are materialized back into :class:`~repro.trace.record.MdtRecord`
objects only at true object boundaries (pickup-event sub-trajectories,
snapshot publication, history segments); everything upstream of those
boundaries — CSV ingest, cleaning, per-taxi partitioning, the PEA scan
— walks the columns with a cursor.  ``array('d')`` stores exact IEEE
doubles, so a round-trip through a batch is bit-for-bit lossless and
the columnar pipeline's outputs are byte-identical to the row path's.
"""

from __future__ import annotations

from array import array
from math import isfinite
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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
        return min(self.ts), max(self.ts)

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
        """Yield rows ``[start, stop)`` one at a time (the object
        boundary: streaming replay, pickup-event segments)."""
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
        """A new batch holding ``rows[i] for i in indices`` in order."""
        out = RecordBatch()
        ts, lon, lat = self.ts, self.lon, self.lat
        speed, state, taxi = self.speed, self.state, self.taxi
        table = self.taxi_table
        for i in indices:
            out.ts.append(ts[i])
            out.lon.append(lon[i])
            out.lat.append(lat[i])
            out.speed.append(speed[i])
            out.state.append(state[i])
            out.taxi.append(out._intern(table[taxi[i]]))
        return out

    def slice(self, start: int, stop: int) -> "RecordBatch":
        """Rows ``[start, stop)`` as a new batch (buffer-level copy)."""
        out = RecordBatch()
        out.ts = self.ts[start:stop]
        out.lon = self.lon[start:stop]
        out.lat = self.lat[start:stop]
        out.speed = self.speed[start:stop]
        out.state = self.state[start:stop]
        taxi = self.taxi[start:stop]
        # Re-intern so the slice's table holds only its own taxis.
        remap: Dict[int, int] = {}
        for old in taxi:
            if old not in remap:
                remap[old] = len(remap)
                out.taxi_table.append(self.taxi_table[old])
        out.taxi = array(_TAXI_TYPECODE, (remap[code] for code in taxi))
        return out

    def filter_mask(self, mask: Sequence[bool]) -> "RecordBatch":
        """Rows where ``mask`` is true, in order."""
        if len(mask) != len(self):
            raise ValueError("mask length must match batch length")
        return self.take([i for i, keep in enumerate(mask) if keep])

    def argsort_ts(self) -> List[int]:
        """Stable row order by timestamp (ties keep input order)."""
        ts = self.ts
        return sorted(range(len(ts)), key=ts.__getitem__)

    def sorted_by_ts(self) -> "RecordBatch":
        """A new batch in stable timestamp order."""
        return self.take(self.argsort_ts())

    # -- CSV ingest ---------------------------------------------------------

    @classmethod
    def from_csv(cls, path, on_error: str = "raise") -> "RecordBatch":
        """Parse a log CSV straight into columns (no record objects).

        Field validation matches :meth:`MdtRecord.from_csv_row` exactly
        — arity, empty taxi id, non-numeric or non-finite values, bad
        timestamps (including finite-parse/non-finite-POSIX ones) and
        unknown states are all malformed — so the malformed-line
        accounting is identical to the row path's.  Timestamps go
        through :func:`~repro.trace.record.parse_timestamp_cached`, so
        ``strptime`` runs about once per distinct date, and state texts
        hit a small memo cache.  This is the one CSV parser:
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
        path = Path(path)
        with path.open("r", encoding="utf-8") as fh:
            header = fh.readline()
            if header.strip() != MdtRecord.CSV_HEADER:
                raise ValueError(f"unexpected CSV header: {header!r}")
            for fields in _parse_csv_lines(fh, on_error):
                if fields is None:
                    batch.skipped_lines += 1
                else:
                    batch.append_fields(*fields)
        return batch

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


def _parse_csv_lines(
    lines: Iterable[str], on_error: str
) -> Iterator[Optional[Tuple[float, str, float, float, float, int]]]:
    """Parse CSV lines into ``append_fields`` tuples, None per skip."""
    midnights: Dict[str, float] = {}
    state_cache: Dict[str, int] = {}
    for line in lines:
        if not line.strip():
            continue
        try:
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
