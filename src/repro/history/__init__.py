"""Durable multi-day queue history: segment store, writer, queries.

The package turns the streaming monitor's transient slot finalizations
into a durable, queryable record:

* :mod:`repro.history.format` — the binary day-segment codec (packed
  records, JSON header, SHA-256 footer, atomic writes);
* :mod:`repro.history.segments` — :class:`SegmentStore`, one directory
  of ``day-*.seg`` files;
* :mod:`repro.history.writer` — :class:`HistoryWriter`, subscribed to
  slot finalization and checkpointed for exactly-once capture;
* :mod:`repro.history.query` — :class:`HistoryQueryEngine`, the
  time-range / citywide / pattern queries behind ``/v1/history/*``;
  the pattern queries fold the cached day segments.
"""

from repro.history.format import (
    SegmentFormatError,
    SlotRecord,
    day_of_week_of,
    decode_segment,
    encode_segment,
    write_bytes_atomic,
)
from repro.history.query import (
    HistoryQueryEngine,
    QueryError,
    empty_aggregate,
    fold_segment,
)
from repro.history.segments import DaySegment, SegmentStore
from repro.history.writer import HistoryWriter

__all__ = [
    "DaySegment",
    "HistoryQueryEngine",
    "HistoryWriter",
    "QueryError",
    "SegmentFormatError",
    "SegmentStore",
    "SlotRecord",
    "day_of_week_of",
    "decode_segment",
    "empty_aggregate",
    "encode_segment",
    "fold_segment",
    "write_bytes_atomic",
]
