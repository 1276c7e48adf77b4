"""MDT log preprocessing (paper section 6.1.1).

The paper identifies three error classes in raw MDT logs, jointly ~2.8% of
all records, and removes them before analysis:

1. *Improper/missing taxi states* — state sequences that violate the
   transition diagram of Fig. 3 (e.g. a spurious FREE between two PAYMENT
   records, caused by a clock-synchronisation bug; or skipped intermediate
   states such as ARRIVED/STC that drivers never pressed).
2. *Record duplication* — GPRS re-transmissions between the MDT and the
   backend produce byte-identical records.
3. *GPS coordinate errors* — points outside the city or inside inaccessible
   zones (urban-canyon multipath).

:func:`clean_taxi_batch` applies the three filters to one taxi's ordered
rows; :func:`clean_batch` runs it day-wide and returns both the cleaned
batch and a :class:`CleaningReport` with per-class counts.  Cleaning is
not idempotent (see :func:`clean_taxi_batch`), so a day is cleaned once:
the engine's tier 1 cleans its raw input, and tier 2 and the ``serve``
replay reuse tier 1's cleaned rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from repro.geo.bbox import BBox
from repro.states.machine import TRANSITION_CODE_MATRIX

if TYPE_CHECKING:  # cycle-free: columnar.batch imports trace.record
    from repro.columnar import RecordBatch


@dataclass
class CleaningReport:
    """Counts of removed records per section-6.1.1 error class."""

    total_in: int = 0
    improper_state: int = 0
    duplicate: int = 0
    gps_error: int = 0
    malformed_line: int = 0
    """Raw CSV lines that never became records (truncated, non-numeric
    or non-finite fields, unknown state codes).  Counted separately from
    ``total_in``, which only sees parsed records."""

    @property
    def total_removed(self) -> int:
        """Records removed across all three error classes."""
        return self.improper_state + self.duplicate + self.gps_error

    @property
    def removed_fraction(self) -> float:
        """Fraction of input records removed (the paper reports ~2.8%)."""
        if self.total_in == 0:
            return 0.0
        return self.total_removed / self.total_in

    def merge(self, other: "CleaningReport") -> None:
        """Accumulate another report into this one."""
        self.total_in += other.total_in
        self.improper_state += other.improper_state
        self.duplicate += other.duplicate
        self.gps_error += other.gps_error
        self.malformed_line += other.malformed_line


def clean_taxi_batch(
    batch: RecordBatch,
    city_bbox: Optional[BBox] = None,
    inaccessible: Iterable[BBox] = (),
    report: Optional[CleaningReport] = None,
) -> RecordBatch:
    """Clean one taxi's time-ordered rows.

    The filters run in the order duplicates -> state validity -> GPS,
    as a cursor over the batch's columns building a keep mask, with no
    record objects.

    State validity is checked against the *state chain*, not the kept
    records: a record removed for a GPS error still carries a genuine
    state, so it advances the chain.  Only records removed as improper
    states leave the chain untouched.  Without this, one GPS outlier on a
    state-change record (say the BREAK of a power-up sequence) would make
    every subsequent record look mis-ordered and cascade-delete the rest
    of the taxi's day.  The same rule makes cleaning not idempotent: a
    second pass no longer sees the removed record, so the records it
    bridged look mis-ordered again.

    Args:
        batch: one taxi's rows, time-ordered.
        city_bbox: if given, rows outside it are GPS errors.
        inaccessible: bboxes (e.g. water bodies) whose interior points are
            GPS errors.
        report: optional report to accumulate counts into.

    Returns:
        The surviving rows, still time-ordered (``batch`` itself when
        nothing is removed).
    """
    if report is None:
        report = CleaningReport()
    report.total_in += len(batch)
    inaccessible = list(inaccessible)

    ts, lon, lat = batch.ts, batch.lon, batch.lat
    speed, state = batch.speed, batch.state
    kept: List[int] = []
    prev = -1  # row index of the last non-duplicate record
    chain = -1  # state code of the chain, -1 = none
    for i in range(len(batch)):
        if (
            prev >= 0
            and ts[i] == ts[prev]
            and state[i] == state[prev]
            and lon[i] == lon[prev]
            and lat[i] == lat[prev]
            and speed[i] == speed[prev]
        ):
            report.duplicate += 1
            continue
        prev = i

        if chain >= 0 and not TRANSITION_CODE_MATRIX[chain][state[i]]:
            report.improper_state += 1
            continue
        chain = state[i]

        if city_bbox is not None and not city_bbox.contains(lon[i], lat[i]):
            report.gps_error += 1
            continue
        if any(zone.contains(lon[i], lat[i]) for zone in inaccessible):
            report.gps_error += 1
            continue
        kept.append(i)
    if len(kept) == len(batch):
        return batch
    return batch.take(kept)


def clean_batch(
    batch: RecordBatch,
    city_bbox: Optional[BBox] = None,
    inaccessible: Iterable[BBox] = (),
) -> Tuple[RecordBatch, CleaningReport]:
    """Clean a whole batch (one day, any row order).

    Rows are partitioned per taxi (stable argsort, or a linear pass for
    already-grouped batches), each taxi's columns are mask-cleaned, and
    the survivors are re-packed grouped by taxi in sorted-id order —
    the canonical order ``MdtLogStore.iter_records`` scans.

    Returns:
        ``(cleaned_batch, report)`` with counts aggregated over all
        taxis.
    """
    from repro.columnar import RecordBatch
    from repro.trace.partition import partition_batch_by_taxi

    report = CleaningReport()
    inaccessible = list(inaccessible)
    parts: List[RecordBatch] = []
    for _, sub in partition_batch_by_taxi(batch):
        parts.append(
            clean_taxi_batch(
                sub,
                city_bbox=city_bbox,
                inaccessible=inaccessible,
                report=report,
            )
        )
    return RecordBatch.concat(parts), report
