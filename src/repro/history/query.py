"""Online queries over the durable history.

:class:`HistoryQueryEngine` answers the three serving-layer questions
from the segment store:

* ``spot_history`` — one spot's finalized slot records across a day
  range, with pagination and slot downsampling
  (``GET /v1/spots/{id}/history``);
* ``citywide`` — per-day citywide summaries: spot/zone counts and
  queue-type proportions (``GET /v1/history/citywide``);
* ``patterns`` — the week-level section-6 numbers: per-zone spot
  counts and C1–C4 mixes per day of week, plus per-spot day-of-week ×
  slot profiles (``GET /v1/history/patterns``).

**Pattern queries.**  ``patterns`` and ``spot_profile`` fold every
intact day segment into integer counts (:func:`fold_segment`), reading
each day through the engine's segment cache.  A cache entry is keyed on
the day's write version (:meth:`SegmentStore.day_version`), so a
rewrite of one day re-reads that day alone.

Payload values derived from floats are rounded to 6 decimals, matching
the live ``/v1/citywide`` endpoint.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

from repro.history.format import SlotRecord
from repro.history.segments import DaySegment, SegmentStore
from repro.service.metrics import MetricsRegistry

#: Mon..Sun, index 0..6 (kept local so the history package does not
#: depend on the simulator).
DOW_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")

#: Pagination bounds of the spot-history endpoint.
DEFAULT_PER_PAGE = 200
MAX_PER_PAGE = 1000


class QueryError(ValueError):
    """A query carried invalid parameters (HTTP 400)."""


def _slot_time_label(slot: int, slot_seconds: float) -> str:
    """``HH:MM-HH:MM`` of a slot within its day."""
    def fmt(seconds: float) -> str:
        total = int(seconds) % 86400
        return f"{total // 3600:02d}:{(total % 3600) // 60:02d}"

    lo = slot * slot_seconds
    return f"{fmt(lo)}-{fmt(lo + slot_seconds)}"


def _round6(value: float) -> float:
    return round(value, 6)


def empty_aggregate() -> dict:
    """A zero-day pattern aggregate (keys are strings, as in the JSON
    payloads built from it)."""
    return {
        "days": [],
        "dow_days": {},          # dow -> number of days folded
        "zone_spots": {},        # zone -> dow -> summed spot count
        "type_counts": {},       # dow -> label value -> slot-record count
        "spot_profiles": {},     # spot -> dow -> slot -> label -> count
        "spot_meta": {},         # spot -> {day, zone, lon, lat}
    }


def fold_segment(aggregate: dict, segment: DaySegment) -> dict:
    """Fold one day into the aggregate (in place; returns it).

    Every quantity is an integer count, so the counts depend only on
    the set of days folded.  Folding the same day twice would
    double-count: callers fold each day at most once.
    """
    dow = str(segment.day_of_week)
    aggregate["days"].append(segment.day)
    aggregate["dow_days"][dow] = aggregate["dow_days"].get(dow, 0) + 1
    zone_spots = aggregate["zone_spots"]
    meta = aggregate["spot_meta"]
    for spot in segment.spots:
        per_dow = zone_spots.setdefault(spot.zone, {})
        per_dow[dow] = per_dow.get(dow, 0) + 1
        # Newest day wins, whatever the fold order.
        known = meta.get(spot.spot_id)
        if known is None or segment.day >= known["day"]:
            meta[spot.spot_id] = {
                "day": segment.day,
                "zone": spot.zone,
                "lon": spot.lon,
                "lat": spot.lat,
            }
    type_counts = aggregate["type_counts"].setdefault(dow, {})
    profiles = aggregate["spot_profiles"]
    for record in segment.records:
        label = record.label.value
        type_counts[label] = type_counts.get(label, 0) + 1
        slot_counts = (
            profiles.setdefault(record.spot_id, {})
            .setdefault(dow, {})
            .setdefault(str(record.slot), {})
        )
        slot_counts[label] = slot_counts.get(label, 0) + 1
    return aggregate


class HistoryQueryEngine:
    """Query facade over a :class:`SegmentStore`.

    Args:
        store: the segment store (shared with the live writer).
        metrics: optional registry (``history.query_seconds``
            latency histogram, ``history.queries`` counter).
        tracer: optional tracer; each query runs under a
            ``history.query`` span.
    """

    def __init__(
        self,
        store: SegmentStore,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
    ):
        if tracer is None:
            from repro.obs.tracer import NULL_TRACER as tracer
        self.store = store
        self.tracer = tracer
        self._metrics = metrics
        self._lock = threading.Lock()
        self._segment_cache: Dict[int, Tuple[int, DaySegment]] = {}

    # -- shared plumbing ---------------------------------------------------------

    @property
    def version(self) -> int:
        """The store's write version (history ETag component)."""
        return self.store.version

    def _observe(self, kind: str):
        if self._metrics is not None:
            self._metrics.counter("history.queries").inc()
            timer = self._metrics.time("history.query_seconds")
        else:
            timer = nullcontext()
        return timer

    def _segment(self, day: int) -> Optional[DaySegment]:
        """Read-through segment cache; an entry is used only while its
        day's write version is current.

        The version is read before the file, so a write racing the read
        can only leave an entry tagged older than its bytes, which the
        next call re-reads.  Corrupt days are not cached.
        """
        version = self.store.day_version(day)
        with self._lock:
            cached = self._segment_cache.get(day)
        if cached is not None and cached[0] == version:
            return cached[1]
        segment = self.store.read_day(day)
        if segment is not None:
            with self._lock:
                self._segment_cache[day] = (version, segment)
        return segment

    def _segments_in(
        self, start_day: Optional[int], end_day: Optional[int]
    ) -> List[DaySegment]:
        out = []
        for day in self.store.days():
            if start_day is not None and day < start_day:
                continue
            if end_day is not None and day > end_day:
                continue
            segment = self._segment(day)
            if segment is not None:
                out.append(segment)
        return out

    # -- spot history ------------------------------------------------------------

    def spot_history(
        self,
        spot_id: str,
        start_day: Optional[int] = None,
        end_day: Optional[int] = None,
        page: int = 1,
        per_page: int = DEFAULT_PER_PAGE,
        downsample: int = 1,
    ) -> Optional[dict]:
        """One spot's slot records over a day range, paginated.

        ``downsample=k`` folds each run of ``k`` consecutive slots
        (within one day) into a single item carrying the majority label
        (earliest-slot wins ties) and the plain mean of each feature
        over the run (``mean_wait_s`` over the slots that have a wait).

        Returns None for a spot id the history has never seen (404).

        Raises:
            QueryError: for invalid pagination/downsampling parameters.
        """
        if page < 1:
            raise QueryError("page must be >= 1")
        if not 1 <= per_page <= MAX_PER_PAGE:
            raise QueryError(f"per_page must be in 1..{MAX_PER_PAGE}")
        if downsample < 1:
            raise QueryError("downsample must be >= 1")
        with self.tracer.span(
            "history.query", endpoint="spot_history", spot=spot_id
        ), self._observe("spot_history"):
            items: List[dict] = []
            meta: Optional[dict] = None
            for segment in self._segments_in(start_day, end_day):
                for spot in segment.spots:
                    if spot.spot_id == spot_id:
                        meta = {
                            "zone": spot.zone,
                            "lon": spot.lon,
                            "lat": spot.lat,
                        }
                records = [
                    r for r in segment.records if r.spot_id == spot_id
                ]
                if not records:
                    continue
                records.sort(key=lambda r: r.slot)
                if downsample == 1:
                    items.extend(
                        self._record_item(segment, record)
                        for record in records
                    )
                else:
                    items.extend(
                        self._downsampled_items(
                            segment, records, downsample
                        )
                    )
            if meta is None and not items:
                return None
            total = len(items)
            lo = (page - 1) * per_page
            return {
                "spot_id": spot_id,
                "spot": meta,
                "total_items": total,
                "page": page,
                "per_page": per_page,
                "downsample": downsample,
                "items": items[lo: lo + per_page],
            }

    @staticmethod
    def _record_item(segment: DaySegment, record: SlotRecord) -> dict:
        return {
            "day": segment.day,
            "day_of_week": DOW_NAMES[segment.day_of_week],
            "slot": record.slot,
            "time": _slot_time_label(record.slot, segment.slot_seconds),
            "queue_type": record.label.value,
            "routine": record.routine,
            "mean_wait_s": (
                None
                if record.mean_wait_s is None
                else _round6(record.mean_wait_s)
            ),
            "n_arrivals": _round6(record.n_arrivals),
            "queue_length": _round6(record.queue_length),
            "mean_departure_interval_s": _round6(
                record.mean_departure_interval_s
            ),
            "n_departures": _round6(record.n_departures),
        }

    @staticmethod
    def _downsampled_items(
        segment: DaySegment, records: List[SlotRecord], k: int
    ) -> List[dict]:
        items = []
        for start in range(0, len(records), k):
            group = records[start: start + k]
            label_counts: Dict[str, int] = {}
            for record in group:
                value = record.label.value
                label_counts[value] = label_counts.get(value, 0) + 1
            best = max(
                label_counts.items(),
                key=lambda kv: (kv[1], -_first_slot(group, kv[0])),
            )[0]
            waits = [
                r.mean_wait_s for r in group if r.mean_wait_s is not None
            ]
            n = len(group)
            items.append(
                {
                    "day": segment.day,
                    "day_of_week": DOW_NAMES[segment.day_of_week],
                    "slot": group[0].slot,
                    "slots": n,
                    "time": "-".join(
                        (
                            _slot_time_label(
                                group[0].slot, segment.slot_seconds
                            ).split("-")[0],
                            _slot_time_label(
                                group[-1].slot, segment.slot_seconds
                            ).split("-")[1],
                        )
                    ),
                    "queue_type": best,
                    "mean_wait_s": (
                        _round6(sum(waits) / len(waits)) if waits else None
                    ),
                    "n_arrivals": _round6(
                        sum(r.n_arrivals for r in group) / n
                    ),
                    "queue_length": _round6(
                        sum(r.queue_length for r in group) / n
                    ),
                    "mean_departure_interval_s": _round6(
                        sum(r.mean_departure_interval_s for r in group) / n
                    ),
                    "n_departures": _round6(
                        sum(r.n_departures for r in group) / n
                    ),
                }
            )
        return items

    # -- citywide ----------------------------------------------------------------

    def citywide(
        self,
        start_day: Optional[int] = None,
        end_day: Optional[int] = None,
    ) -> dict:
        """Per-day citywide summary over a day range."""
        with self.tracer.span(
            "history.query", endpoint="citywide"
        ), self._observe("citywide"):
            days = []
            for segment in self._segments_in(start_day, end_day):
                zone_counts: Dict[str, int] = {}
                for spot in segment.spots:
                    zone_counts[spot.zone] = (
                        zone_counts.get(spot.zone, 0) + 1
                    )
                label_counts: Dict[str, int] = {}
                for record in segment.records:
                    value = record.label.value
                    label_counts[value] = label_counts.get(value, 0) + 1
                total = sum(label_counts.values())
                days.append(
                    {
                        "day": segment.day,
                        "day_of_week": DOW_NAMES[segment.day_of_week],
                        "spots": len(segment.spots),
                        "zone_counts": zone_counts,
                        "finalized_slot_results": total,
                        "proportions": {
                            label: _round6(count / total)
                            for label, count in sorted(
                                label_counts.items()
                            )
                        }
                        if total
                        else {},
                    }
                )
            return {
                "days": days,
                "count": len(days),
                "corrupt_days": sorted(self.store.corrupt_days),
            }

    # -- patterns ----------------------------------------------------------------

    def _aggregate(self) -> dict:
        """Every intact day on disk folded, ascending by day."""
        aggregate = empty_aggregate()
        for day in self.store.days():
            segment = self._segment(day)
            if segment is not None:
                fold_segment(aggregate, segment)
        return aggregate

    def patterns(self) -> dict:
        """The section-6 pattern numbers over all recorded days."""
        with self.tracer.span(
            "history.query", endpoint="patterns"
        ), self._observe("patterns"):
            aggregate = self._aggregate()
            dow_days: Dict[str, int] = aggregate["dow_days"]

            zone_spots = {}
            for zone, per_dow in sorted(aggregate["zone_spots"].items()):
                zone_spots[zone] = {
                    DOW_NAMES[int(dow)]: {
                        "days": dow_days.get(dow, 0),
                        "total_spots": count,
                        "mean_spots": _round6(
                            count / dow_days[dow]
                        )
                        if dow_days.get(dow)
                        else 0.0,
                    }
                    for dow, count in sorted(per_dow.items())
                }

            type_mix = {}
            for dow, counts in sorted(aggregate["type_counts"].items()):
                total = sum(counts.values())
                type_mix[DOW_NAMES[int(dow)]] = {
                    "finalized_slot_results": total,
                    "proportions": {
                        label: _round6(count / total)
                        for label, count in sorted(counts.items())
                    }
                    if total
                    else {},
                }

            return {
                "days": sorted(aggregate["days"]),
                "day_count": len(aggregate["days"]),
                "spot_count": len(aggregate["spot_meta"]),
                "zone_spots": zone_spots,
                "queue_type_mix": type_mix,
                "corrupt_days": sorted(self.store.corrupt_days),
            }

    def spot_profile(self, spot_id: str) -> Optional[dict]:
        """One spot's day-of-week × slot label profile, or None for an
        unknown spot (the ``view=profile`` mode of the spot-history
        endpoint and of ``taxiqueue history query --spot``)."""
        with self.tracer.span(
            "history.query", endpoint="spot_profile", spot=spot_id
        ), self._observe("spot_profile"):
            aggregate = self._aggregate()
            profile = aggregate["spot_profiles"].get(spot_id)
            meta = aggregate["spot_meta"].get(spot_id)
            if profile is None and meta is None:
                return None
            by_dow = {}
            for dow, slots in sorted((profile or {}).items()):
                by_dow[DOW_NAMES[int(dow)]] = {
                    slot: {
                        "counts": dict(sorted(counts.items())),
                        "majority": max(
                            sorted(counts.items()),
                            key=lambda kv: kv[1],
                        )[0],
                    }
                    for slot, counts in sorted(
                        slots.items(), key=lambda kv: int(kv[0])
                    )
                }
            return {
                "spot_id": spot_id,
                "spot": (
                    {k: v for k, v in meta.items() if k != "day"}
                    if meta
                    else None
                ),
                "profile": by_dow,
            }


def _first_slot(group: List[SlotRecord], label_value: str) -> int:
    """The earliest slot carrying ``label_value`` (tie-break helper)."""
    for record in group:
        if record.label.value == label_value:
            return record.slot
    return -1  # pragma: no cover - label always present in group
