"""An embedded store for MDT logs with per-taxi indexing.

The paper's deployed system keeps MDT logs in PostgreSQL and retrieves them
over JDBC (section 7.1).  This offline reproduction replaces that with an
embedded store that supports what the analytics engine actually needs:

* append-oriented ingestion of event-driven records,
* ordered per-taxi scans (trajectory extraction, Definition 1),
* time-range and bbox filtering,
* CSV and NumPy ``.npz`` persistence,
* basic dataset statistics (records/day, records/taxi — section 6.1.1).
"""

from __future__ import annotations

import io
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.geo.bbox import BBox
from repro.states.states import STATE_CODES, STATES_BY_CODE, TaxiState
from repro.trace.record import MdtRecord, format_timestamp, parse_timestamp

#: Stable encoding of states for the binary (.npz) format — the shared
#: state-code table (enum declaration order), so ``.npz`` archives and
#: :class:`~repro.columnar.RecordBatch` columns agree on the coding.
_STATE_CODES: Dict[TaxiState, int] = dict(STATE_CODES)
_CODE_STATES: Dict[int, TaxiState] = dict(enumerate(STATES_BY_CODE))


class MdtLogStore:
    """In-memory MDT log store, indexed by taxi and kept time-ordered.

    Records are buffered per taxi and sorted lazily on first read, so bulk
    ingestion is O(n) and ordered scans pay one sort per taxi.
    """

    def __init__(self, records: Optional[Iterable[MdtRecord]] = None):
        self._by_taxi: Dict[str, List[MdtRecord]] = defaultdict(list)
        self._sorted = True
        self._count = 0
        self.skipped_lines = 0
        """Malformed lines dropped by lenient CSV ingestion."""
        if records is not None:
            self.extend(records)

    # -- ingestion ---------------------------------------------------------

    def append(self, record: MdtRecord) -> None:
        """Add one record; ordering is restored lazily on read."""
        bucket = self._by_taxi[record.taxi_id]
        if bucket and bucket[-1].ts > record.ts:
            self._sorted = False
        bucket.append(record)
        self._count += 1

    def extend(self, records: Iterable[MdtRecord]) -> None:
        """Add many records."""
        for record in records:
            self.append(record)

    def _ensure_sorted(self) -> None:
        if self._sorted:
            return
        for bucket in self._by_taxi.values():
            bucket.sort(key=lambda r: r.ts)
        self._sorted = True

    # -- reads -------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def taxi_ids(self) -> List[str]:
        """All taxi identifiers present, sorted."""
        return sorted(self._by_taxi)

    @property
    def taxi_count(self) -> int:
        """Number of distinct taxis in the store."""
        return len(self._by_taxi)

    def records_of(self, taxi_id: str) -> List[MdtRecord]:
        """Time-ordered records of one taxi (empty list if unknown)."""
        self._ensure_sorted()
        return list(self._by_taxi.get(taxi_id, ()))

    def trajectory(self, taxi_id: str):
        """The taxi's :class:`~repro.trace.trajectory.Trajectory`."""
        from repro.trace.trajectory import Trajectory

        self._ensure_sorted()
        return Trajectory(taxi_id, self._by_taxi.get(taxi_id, ()))

    def iter_trajectories(self) -> Iterator:
        """Yield every taxi's trajectory in taxi-id order."""
        for taxi_id in self.taxi_ids:
            yield self.trajectory(taxi_id)

    def iter_records(self) -> Iterator[MdtRecord]:
        """Yield all records, grouped by taxi and time-ordered within."""
        self._ensure_sorted()
        for taxi_id in self.taxi_ids:
            yield from self._by_taxi[taxi_id]

    @property
    def time_span(self) -> Tuple[float, float]:
        """``(min_ts, max_ts)`` over all records.

        Raises:
            ValueError: when the store is empty.
        """
        if self._count == 0:
            raise ValueError("store is empty")
        self._ensure_sorted()
        lo = min(bucket[0].ts for bucket in self._by_taxi.values() if bucket)
        hi = max(bucket[-1].ts for bucket in self._by_taxi.values() if bucket)
        return lo, hi

    # -- filtering ---------------------------------------------------------

    def filter_time(self, start_ts: float, end_ts: float) -> "MdtLogStore":
        """New store holding records with ``start_ts <= ts < end_ts``."""
        out = MdtLogStore()
        for record in self.iter_records():
            if start_ts <= record.ts < end_ts:
                out.append(record)
        return out

    def filter_bbox(self, bbox: BBox) -> "MdtLogStore":
        """New store holding records whose GPS point lies inside ``bbox``."""
        out = MdtLogStore()
        for record in self.iter_records():
            if bbox.contains(record.lon, record.lat):
                out.append(record)
        return out

    def filter_taxis(self, taxi_ids: Iterable[str]) -> "MdtLogStore":
        """New store restricted to the given taxis."""
        wanted = set(taxi_ids)
        out = MdtLogStore()
        for taxi_id in wanted & set(self._by_taxi):
            out.extend(self._by_taxi[taxi_id])
        return out

    # -- statistics (section 6.1.1) -----------------------------------------

    def stats(self) -> Dict[str, float]:
        """Dataset statistics mirroring the paper's section 6.1.1 numbers."""
        if self._count == 0:
            return {
                "records": 0,
                "taxis": 0,
                "records_per_taxi": 0.0,
                "span_hours": 0.0,
            }
        lo, hi = self.time_span
        return {
            "records": float(self._count),
            "taxis": float(self.taxi_count),
            "records_per_taxi": self._count / self.taxi_count,
            "span_hours": (hi - lo) / 3600.0,
        }

    # -- persistence ---------------------------------------------------------

    def to_csv(self, path) -> None:
        """Write the store to a CSV file in the paper's field order."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(MdtRecord.CSV_HEADER + "\n")
            for record in self.iter_records():
                fh.write(record.to_csv_row() + "\n")

    @classmethod
    def from_csv(cls, path, on_error: str = "raise") -> "MdtLogStore":
        """Load a store from a CSV file written by :meth:`to_csv`.

        Parsing is :meth:`RecordBatch.from_csv
        <repro.columnar.RecordBatch.from_csv>`, the one CSV parser; the
        store is built from that batch.

        Args:
            path: the CSV file.
            on_error: ``"raise"`` (default) fails on the first malformed
                line; ``"skip"`` drops malformed lines and records the
                count in :attr:`skipped_lines` — real operator feeds
                contain truncated and garbled lines.

        Raises:
            ValueError: on a bad header, on a malformed line in raise
                mode, or for an unknown ``on_error`` value.
        """
        from repro.columnar import RecordBatch

        return cls.from_batch(RecordBatch.from_csv(path, on_error=on_error))

    def to_jsonl(self, path) -> None:
        """Write the store as JSON Lines (one record object per line).

        The streaming-friendly sibling of the CSV format: each line is a
        self-contained JSON object, so a consumer can tail the file.
        """
        import json

        path = Path(path)
        with path.open("w", encoding="utf-8") as fh:
            for record in self.iter_records():
                fh.write(
                    json.dumps(
                        {
                            "ts": record.ts,
                            "taxi_id": record.taxi_id,
                            "lon": record.lon,
                            "lat": record.lat,
                            "speed": record.speed,
                            "state": record.state.value,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )

    @classmethod
    def from_jsonl(cls, path) -> "MdtLogStore":
        """Load a store from a JSON Lines file written by :meth:`to_jsonl`.

        Raises:
            ValueError: on malformed JSON or missing fields.
        """
        import json

        store = cls()
        path = Path(path)
        with path.open("r", encoding="utf-8") as fh:
            for i, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                    store.append(
                        MdtRecord(
                            ts=float(obj["ts"]),
                            taxi_id=str(obj["taxi_id"]),
                            lon=float(obj["lon"]),
                            lat=float(obj["lat"]),
                            speed=float(obj["speed"]),
                            state=TaxiState(obj["state"]),
                        )
                    )
                except (KeyError, ValueError, TypeError) as exc:
                    raise ValueError(f"bad JSONL record at line {i}: {exc}")
        return store

    def to_batch(self):
        """Columnar view: this store as a
        :class:`~repro.columnar.RecordBatch` in canonical grouped order
        (taxis sorted by id, time-ordered within each taxi).
        """
        from repro.columnar import RecordBatch

        return RecordBatch.from_store(self)

    @classmethod
    def from_batch(cls, batch) -> "MdtLogStore":
        """Build a store from a :class:`~repro.columnar.RecordBatch`
        (its :attr:`skipped_lines` count carries over)."""
        store = cls()
        store.extend(batch.iter_rows())
        store.skipped_lines = batch.skipped_lines
        return store

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Columnar view: ts, lon, lat, speed (float64), state codes (int8),
        and taxi ids (unicode array), all aligned.
        """
        n = self._count
        ts = np.empty(n, dtype=np.float64)
        lon = np.empty(n, dtype=np.float64)
        lat = np.empty(n, dtype=np.float64)
        speed = np.empty(n, dtype=np.float64)
        state = np.empty(n, dtype=np.int8)
        taxi: List[str] = []
        for i, record in enumerate(self.iter_records()):
            ts[i] = record.ts
            lon[i] = record.lon
            lat[i] = record.lat
            speed[i] = record.speed
            state[i] = _STATE_CODES[record.state]
            taxi.append(record.taxi_id)
        return {
            "ts": ts,
            "lon": lon,
            "lat": lat,
            "speed": speed,
            "state": state,
            "taxi_id": np.asarray(taxi, dtype=np.str_),
        }

    def to_npz(self, path) -> None:
        """Persist to a compressed NumPy archive (compact binary format)."""
        np.savez_compressed(Path(path), **self.to_arrays())

    @classmethod
    def from_npz(cls, path) -> "MdtLogStore":
        """Load a store from a ``.npz`` archive written by :meth:`to_npz`."""
        data = np.load(Path(path), allow_pickle=False)
        store = cls()
        ts = data["ts"]
        lon = data["lon"]
        lat = data["lat"]
        speed = data["speed"]
        state = data["state"]
        taxi = data["taxi_id"]
        for i in range(len(ts)):
            store.append(
                MdtRecord(
                    ts=float(ts[i]),
                    taxi_id=str(taxi[i]),
                    lon=float(lon[i]),
                    lat=float(lat[i]),
                    speed=float(speed[i]),
                    state=_CODE_STATES[int(state[i])],
                )
            )
        return store

    def to_csv_text(self) -> str:
        """The CSV serialization as a string (handy for tests)."""
        buf = io.StringIO()
        buf.write(MdtRecord.CSV_HEADER + "\n")
        for record in self.iter_records():
            buf.write(record.to_csv_row() + "\n")
        return buf.getvalue()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        if self._count == 0:
            return "MdtLogStore(empty)"
        lo, hi = self.time_span
        return (
            f"MdtLogStore({self._count} records, {self.taxi_count} taxis, "
            f"{format_timestamp(lo)} .. {format_timestamp(hi)})"
        )


def merge_stores(stores: Iterable[MdtLogStore]) -> MdtLogStore:
    """Union several stores into one (e.g. multiple simulated days)."""
    out = MdtLogStore()
    for store in stores:
        for record in store.iter_records():
            out.append(record)
    return out


__all__ = ["MdtLogStore", "merge_stores", "parse_timestamp"]
