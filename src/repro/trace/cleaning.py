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

:func:`clean_batch` applies the three filters to a whole day, in any
row order, as array passes over its columns, and returns both the
cleaned batch and a :class:`CleaningReport` with per-class counts.
Cleaning is not idempotent (see :func:`clean_batch`), so a day is
cleaned once: the engine's tier 1 cleans its raw input, and tier 2 and
the ``serve`` replay reuse tier 1's cleaned rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Tuple

import numpy as np

from repro.geo.bbox import BBox
from repro.states.machine import TRANSITION_CODE_MATRIX
from repro.trace.partition import canonical_order, ordered_column

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


#: ``TRANSITION_CODE_MATRIX`` as a boolean ndarray, for gathers.
_VALID = np.array([list(row) for row in TRANSITION_CODE_MATRIX], dtype=bool)


def clean_batch(
    batch: RecordBatch,
    city_bbox: Optional[BBox] = None,
    inaccessible: Iterable[BBox] = (),
) -> Tuple[RecordBatch, CleaningReport]:
    """Clean a whole day (any row order) in one pass over its columns.

    Each taxi's rows are judged in canonical order (time-ordered within
    the taxi), by three filters in the order duplicates -> state
    validity -> GPS:

    * a row is a *duplicate* when it equals the previous row of the
      same taxi on ts, state, lon, lat and speed (``==``, so ``-0.0``
      equals ``0.0``);
    * a non-duplicate row is an *improper state* when the transition
      from the taxi's *state chain* to it is not in Fig. 3.  The chain
      is the state of the last non-duplicate row that was not itself
      improper: a row removed for a GPS error still carries a genuine
      state, so it advances the chain.  Without this, one GPS outlier on
      a state-change record (say the BREAK of a power-up sequence) would
      make every later record look mis-ordered and cascade-delete the
      rest of the taxi's day.  The same rule makes cleaning not
      idempotent: a second pass no longer sees the removed record, so
      the records it bridged look mis-ordered again;
    * a row that passed the chain check is a *GPS error* when it lies
      outside ``city_bbox`` or inside one of ``inaccessible`` (edges
      inclusive, as :meth:`BBox.contains`).

    The chain check gathers ``TRANSITION_CODE_MATRIX[previous, state]``
    over consecutive non-duplicate rows, which is exact wherever the
    previous row was accepted; Python walks only from each flagged row
    to the next accepted row of its taxi.

    Returns:
        ``(cleaned_batch, report)``: the surviving rows in canonical
        order (taxis by sorted id, the table holding only taxis that
        keep a row) and the day's counts.
    """
    report = CleaningReport(total_in=len(batch))
    order = canonical_order(batch)

    # Duplicates: equal to the previous row of the same taxi.
    taxi = ordered_column(batch.taxi, order)
    first = np.ones(len(taxi), dtype=bool)  # a taxi's first row
    first[1:] = taxi[1:] != taxi[:-1]
    del taxi
    duplicate = ~first
    for column in (batch.ts, batch.state, batch.lon, batch.lat, batch.speed):
        values = ordered_column(column, order)
        duplicate[1:] &= values[1:] == values[:-1]
        del values
    report.duplicate = int(np.count_nonzero(duplicate))

    # State chain over the non-duplicate rows.  A taxi's first row is
    # never a duplicate, so it starts the taxi's chain here too.
    rows = np.flatnonzero(~duplicate)
    del duplicate
    restart = first[rows]
    state = ordered_column(batch.state, order)[rows]
    improper = ~restart
    improper[1:] &= ~_VALID[state[:-1], state[1:]]
    walked = 0  # rows before this index were walked already
    for k in np.flatnonzero(improper).tolist():
        if k < walked:
            continue
        # The previous row was accepted, so it is the chain.
        chain = TRANSITION_CODE_MATRIX[state[k - 1]]
        j = k + 1
        while j < len(state) and not restart[j] and not chain[state[j]]:
            j += 1
        improper[k:j] = True
        if j < len(state):
            improper[j] = False
        walked = j + 1
    report.improper_state = int(np.count_nonzero(improper))
    rows = rows[~improper]

    # GPS errors among the rows that passed the chain check.
    boxes = list(inaccessible)
    if city_bbox is not None or boxes:
        source = rows if order is None else order[rows]
        lon = batch.lon[source]
        lat = batch.lat[source]
        del source

        def inside(box: BBox) -> np.ndarray:
            return (
                (box.west <= lon) & (lon <= box.east)
                & (box.south <= lat) & (lat <= box.north)
            )

        error = np.zeros(len(rows), dtype=bool)
        if city_bbox is not None:
            error |= ~inside(city_bbox)
        for box in boxes:
            error |= inside(box)
        del lon, lat
        report.gps_error = int(np.count_nonzero(error))
        rows = rows[~error]
    if order is not None:
        rows = order[rows]
    return batch.take(rows), report
