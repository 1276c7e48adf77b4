"""The MDT log store: a read-only row view over one canonical batch.

The paper's deployed system keeps MDT logs in PostgreSQL and retrieves
each taxi's time-ordered records over JDBC (section 7.1).  This offline
reproduction keeps one or more days as a single
:class:`~repro.columnar.RecordBatch` in canonical order — taxis by
sorted id, stable by timestamp within each taxi, as implemented once in
:mod:`repro.trace.partition` — plus a taxi-id -> ``(start, stop)`` run
index.  A store is built once and never changes; it builds
:class:`MdtRecord` rows only when a caller reads them.  It serves:

* ordered per-taxi scans (trajectory extraction, Definition 1),
* time-range filtering,
* CSV persistence,
* basic dataset statistics (records/taxi — section 6.1.1).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.trace.partition import canonical_order
from repro.trace.record import MdtRecord, format_timestamp, parse_timestamp
from repro.trace.trajectory import Trajectory


class MdtLogStore:
    """MDT records grouped by taxi (sorted ids), time-ordered within.

    The only data is one canonical batch and its per-taxi run index;
    every read builds its rows from the columns.
    """

    def __init__(self, records: Optional[Iterable[MdtRecord]] = None):
        from repro.columnar import RecordBatch

        self._wrap(RecordBatch.from_rows(() if records is None else records))

    @classmethod
    def from_batch(cls, batch) -> "MdtLogStore":
        """A store over a :class:`~repro.columnar.RecordBatch`.

        A batch already in canonical order becomes the store's own
        batch after one linear check, without a copy (a batch never
        changes).  Any other order is sorted once into a new batch.
        :attr:`skipped_lines` comes from the batch.
        """
        store = cls.__new__(cls)
        store._wrap(batch)
        return store

    def _wrap(self, batch) -> None:
        self._skipped_lines = batch.skipped_lines
        order = canonical_order(batch)
        if order is not None:
            batch = batch.take(order)
        self._batch = batch
        # Canonical order keeps each taxi in one run: its bounds are
        # where the taxi code changes.
        taxi = batch.taxi
        bounds = np.flatnonzero(np.diff(taxi, prepend=-1, append=-1))
        codes = taxi[bounds[:-1]].tolist()
        bounds = bounds.tolist()
        self._runs: Dict[str, Tuple[int, int]] = {
            batch.taxi_table[code]: (start, stop)
            for code, start, stop in zip(codes, bounds, bounds[1:])
        }

    # -- reads -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._batch)

    @property
    def skipped_lines(self) -> int:
        """Malformed lines dropped by lenient CSV ingestion."""
        return self._skipped_lines

    @property
    def taxi_ids(self) -> List[str]:
        """All taxi identifiers present, sorted."""
        return list(self._runs)

    @property
    def taxi_count(self) -> int:
        """Number of distinct taxis in the store."""
        return len(self._runs)

    def records_of(self, taxi_id: str) -> List[MdtRecord]:
        """Time-ordered records of one taxi (empty list if unknown)."""
        start, stop = self._runs.get(taxi_id, (0, 0))
        return list(self._batch.iter_rows(slice(start, stop)))

    def trajectory(self, taxi_id: str) -> Trajectory:
        """The taxi's :class:`~repro.trace.trajectory.Trajectory`."""
        return Trajectory(taxi_id, self.records_of(taxi_id))

    def iter_trajectories(self) -> Iterator[Trajectory]:
        """Yield every taxi's trajectory in taxi-id order."""
        for taxi_id in self._runs:
            yield self.trajectory(taxi_id)

    def iter_records(self) -> Iterator[MdtRecord]:
        """Yield all records, grouped by taxi and time-ordered within."""
        return self._batch.iter_rows()

    @property
    def time_span(self) -> Tuple[float, float]:
        """``(min_ts, max_ts)`` over all records.

        Raises:
            ValueError: when the store is empty.
        """
        if not self._runs:
            raise ValueError("store is empty")
        starts, stops = np.array(list(self._runs.values())).T
        ts = self._batch.ts
        return min(ts[starts].tolist()), max(ts[stops - 1].tolist())

    def filter_time(self, start_ts: float, end_ts: float) -> "MdtLogStore":
        """New store holding records with ``start_ts <= ts < end_ts``."""
        ts = self._batch.ts
        return MdtLogStore.from_batch(
            self._batch.filter_mask((start_ts <= ts) & (ts < end_ts))
        )

    # -- statistics (section 6.1.1) -----------------------------------------

    def stats(self) -> Dict[str, float]:
        """Dataset statistics mirroring the paper's section 6.1.1 numbers."""
        if not self._runs:
            return {
                "records": 0,
                "taxis": 0,
                "records_per_taxi": 0.0,
                "span_hours": 0.0,
            }
        lo, hi = self.time_span
        return {
            "records": float(len(self)),
            "taxis": float(self.taxi_count),
            "records_per_taxi": len(self) / self.taxi_count,
            "span_hours": (hi - lo) / 3600.0,
        }

    # -- columns and persistence ---------------------------------------------

    def to_batch(self):
        """The store's own :class:`~repro.columnar.RecordBatch`, in
        canonical order (not a copy; a batch never changes)."""
        return self._batch

    def to_csv(self, path) -> None:
        """Write the store to a CSV file in the paper's field order."""
        self._batch.to_csv(path)

    @classmethod
    def from_csv(cls, path, on_error: str = "raise") -> "MdtLogStore":
        """Load a store from a CSV file written by :meth:`to_csv`.

        Parsing is :meth:`RecordBatch.from_csv
        <repro.columnar.RecordBatch.from_csv>`, the one CSV reader; the
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

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        if not self._runs:
            return "MdtLogStore(empty)"
        lo, hi = self.time_span
        return (
            f"MdtLogStore({len(self)} records, {self.taxi_count} taxis, "
            f"{format_timestamp(lo)} .. {format_timestamp(hi)})"
        )


def merge_stores(stores: Iterable[MdtLogStore]) -> MdtLogStore:
    """Union several stores into one (e.g. multiple simulated days)."""
    from repro.columnar import RecordBatch

    return MdtLogStore.from_batch(
        RecordBatch.concat([store.to_batch() for store in stores])
    )


__all__ = ["MdtLogStore", "merge_stores", "parse_timestamp"]
