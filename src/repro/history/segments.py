"""The durable day-segment store.

A :class:`SegmentStore` owns one directory of ``day-<epochday>.seg``
files (see :mod:`repro.history.format` for the binary layout); any
other file in it is ignored.  All writes are atomic, all reads verify
the embedded SHA-256 footer, and a corrupt segment is *skipped with
accounting* (``history.corrupt_segments`` counter plus the
:attr:`corrupt_days` listing) rather than raised through a query path —
the same degrade-don't-die posture as the checkpoint manager.

The store keeps an in-process **version** that increments on every
segment write; the HTTP layer uses it as the history ETag.  Each write
also stamps that version on the day it wrote (:meth:`day_version`),
which the query engine uses as the key of its per-day read cache.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.types import QueueSpot
from repro.history.format import (
    SegmentFormatError,
    SlotRecord,
    decode_segment,
    encode_segment,
    write_bytes_atomic,
)
from repro.service.metrics import MetricsRegistry

_SEGMENT_RE = re.compile(r"^day-(\d+)\.seg$")


@dataclass
class DaySegment:
    """One day of history: its spot table plus finalized slot records."""

    day: int
    """Unix epoch-day number (``ts // 86400``)."""
    day_of_week: int
    """0=Mon..6=Sun (declared by the writer, not re-derived)."""
    slot_seconds: float
    spots: List[QueueSpot] = field(default_factory=list)
    records: List[SlotRecord] = field(default_factory=list)

    @property
    def day_start_ts(self) -> float:
        return self.day * 86400.0


class SegmentStore:
    """Durable multi-day history in one directory.

    Args:
        directory: where segments live (created if missing).
        metrics: optional registry; the store maintains the
            ``history.segments_written`` / ``history.records_written`` /
            ``history.corrupt_segments`` counters and the
            ``history.segment_bytes`` gauge (total intact segment
            bytes on disk).
    """

    def __init__(
        self,
        directory,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._metrics = metrics
        self._lock = threading.Lock()
        self._version = 0
        self._day_versions: Dict[int, int] = {}
        self.corrupt_days: Dict[int, str] = {}
        """Day -> reason of every segment this store last read as
        corrupt (dropped once the day is rewritten or reads intact)."""

    # -- identity ----------------------------------------------------------------

    @property
    def version(self) -> int:
        """Bumped on every in-process segment write (history ETag)."""
        with self._lock:
            return self._version

    def day_version(self, day: int) -> int:
        """The :attr:`version` of this store's last write of ``day``
        (0 when this store never wrote it)."""
        with self._lock:
            return self._day_versions.get(day, 0)

    def path_of(self, day: int) -> Path:
        return self.directory / f"day-{int(day)}.seg"

    def days(self) -> List[int]:
        """Every day with a segment file on disk, ascending."""
        out = []
        for path in self.directory.iterdir():
            match = _SEGMENT_RE.match(path.name)
            if match:
                out.append(int(match.group(1)))
        return sorted(out)

    # -- segments ----------------------------------------------------------------

    def write_day(self, segment: DaySegment) -> Path:
        """Persist one day segment atomically; bumps the version and
        stamps it on the day."""
        data = encode_segment(
            day=segment.day,
            day_of_week=segment.day_of_week,
            slot_seconds=segment.slot_seconds,
            spots=segment.spots,
            records=segment.records,
        )
        path = write_bytes_atomic(self.path_of(segment.day), data)
        with self._lock:
            self._version += 1
            self._day_versions[segment.day] = self._version
            self.corrupt_days.pop(segment.day, None)
        if self._metrics is not None:
            self._metrics.counter("history.segments_written").inc()
            self._metrics.counter("history.records_written").inc(
                len(segment.records)
            )
            self._metrics.gauge("history.segment_bytes").set(
                self.total_bytes()
            )
        return path

    def read_day(self, day: int) -> Optional[DaySegment]:
        """Load one day, or None when missing or corrupt (accounted)."""
        path = self.path_of(day)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            header, spots, records = decode_segment(raw)
        except SegmentFormatError as exc:
            self._account_corrupt(day, str(exc))
            return None
        with self._lock:
            self.corrupt_days.pop(day, None)
        return DaySegment(
            day=header["day"],
            day_of_week=header["day_of_week"],
            slot_seconds=header["slot_seconds"],
            spots=spots,
            records=records,
        )

    def read_all(self) -> List[DaySegment]:
        """Every intact day segment, ascending by day."""
        out = []
        for day in self.days():
            segment = self.read_day(day)
            if segment is not None:
                out.append(segment)
        return out

    def total_bytes(self) -> int:
        """Total on-disk bytes of all segment files."""
        total = 0
        for day in self.days():
            try:
                total += self.path_of(day).stat().st_size
            except OSError:  # pragma: no cover - racing unlink
                pass
        return total

    def digests(self) -> Dict[str, str]:
        """SHA-256 of every segment file on disk, keyed by file name.

        Whole-file digests (not the embedded footer, which covers only
        the payload): two stores are byte-identical exactly when their
        digest maps are equal.  The conformance harness compares these
        across straight and kill-restarted runs.
        """
        import hashlib

        out: Dict[str, str] = {}
        for day in self.days():
            path = self.path_of(day)
            try:
                out[path.name] = hashlib.sha256(
                    path.read_bytes()
                ).hexdigest()
            except OSError:  # pragma: no cover - racing unlink
                pass
        return out

    def _account_corrupt(self, day: int, reason: str) -> None:
        with self._lock:
            fresh = day not in self.corrupt_days
            self.corrupt_days[day] = reason
        if fresh and self._metrics is not None:
            self._metrics.counter("history.corrupt_segments").inc()
