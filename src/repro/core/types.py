"""Shared value types of the queue analytics engine.

Defines the four queue contexts of paper Table 3, the detected queue spot,
the per-slot 5-tuple feature vector of section 5.2, and the time-slot grid
(section 5.2 divides the day into 48 fixed 30-minute slots).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple


class QueueType(enum.Enum):
    """The four queue contexts of paper Table 3, plus Unidentified."""

    C1 = "C1"
    """Taxi queue and passenger queue concurrently (supply and demand high)."""

    C2 = "C2"
    """Passenger queue only (demand exceeds supply)."""

    C3 = "C3"
    """Taxi queue only (supply exceeds demand)."""

    C4 = "C4"
    """Neither taxi queue nor passenger queue."""

    UNIDENTIFIED = "Unidentified"
    """Features too insignificant for the QCD algorithm to decide."""

    @property
    def has_taxi_queue(self) -> bool:
        """True for contexts with a standing taxi queue (C1, C3)."""
        return self in (QueueType.C1, QueueType.C3)

    @property
    def has_passenger_queue(self) -> bool:
        """True for contexts with a standing passenger queue (C1, C2)."""
        return self in (QueueType.C1, QueueType.C2)

    @classmethod
    def from_flags(cls, taxi_queue: bool, passenger_queue: bool) -> "QueueType":
        """Map the two Table 3 booleans to a context label."""
        if taxi_queue and passenger_queue:
            return cls.C1
        if passenger_queue:
            return cls.C2
        if taxi_queue:
            return cls.C3
        return cls.C4


@dataclass(frozen=True)
class QueueSpot:
    """A detected queue spot: a DBSCAN cluster centroid (section 4.3).

    Attributes:
        spot_id: stable identifier within one detection run.
        lon, lat: centroid coordinates in degrees.
        zone: the Fig. 5 zone the centroid falls in.
        pickup_count: number of pickup-event centroids in the cluster.
        radius_m: RMS spread of the cluster members, metres.
    """

    spot_id: str
    lon: float
    lat: float
    zone: str
    pickup_count: int
    radius_m: float


@dataclass(frozen=True)
class SlotFeatures:
    """The 5-tuple phi(r)^j of section 5.2 for one spot and time slot.

    Attributes:
        slot: index j of the time slot within the grid.
        mean_wait_s: t_wait mean over *street-job* waits started in the
            slot, seconds (NaN-free: None when no street wait started).
        n_arrivals: N_arr — FREE-taxi arrivals (street wait starts),
            amplified by the coverage factor.
        queue_length: L = mean_wait * arrival_rate (Little's law),
            amplified.
        mean_departure_interval_s: t_dep mean over consecutive departure
            intervals within the slot (slot length when fewer than two
            departures), scaled down by the coverage factor.
        n_departures: N_dep — all departures (street + booking) in the
            slot, amplified.
    """

    slot: int
    mean_wait_s: Optional[float]
    n_arrivals: float
    queue_length: float
    mean_departure_interval_s: float
    n_departures: float


@dataclass(frozen=True)
class SlotLabel:
    """A QCD-labelled time slot with the routine that decided it."""

    slot: int
    label: QueueType
    routine: int
    """1 or 2 for QCD Routine 1/2; 0 when unidentified."""


@dataclass(frozen=True)
class TimeSlotGrid:
    """Fixed-size partition of a time domain (section 5.2).

    The paper uses 48 half-hour slots over a day; the grid generalizes to
    any start/end and slot length.
    """

    start_ts: float
    end_ts: float
    slot_seconds: float = 1800.0

    def __post_init__(self) -> None:
        if self.end_ts <= self.start_ts:
            raise ValueError("grid end must be after start")
        if self.slot_seconds <= 0:
            raise ValueError("slot length must be positive")

    @property
    def n_slots(self) -> int:
        """Number of slots L covering the domain (last may be partial)."""
        span = self.end_ts - self.start_ts
        return int(-(-span // self.slot_seconds))

    def slot_of(self, ts: float) -> Optional[int]:
        """Slot index containing ``ts``, or None outside the domain."""
        if not self.start_ts <= ts < self.end_ts:
            return None
        return int((ts - self.start_ts) // self.slot_seconds)

    def bounds(self, slot: int) -> Tuple[float, float]:
        """``(start, end)`` timestamps of slot ``slot``.

        Raises:
            IndexError: for an out-of-range slot index.
        """
        if not 0 <= slot < self.n_slots:
            raise IndexError(f"slot {slot} out of range 0..{self.n_slots - 1}")
        lo = self.start_ts + slot * self.slot_seconds
        return lo, min(lo + self.slot_seconds, self.end_ts)

    def label_of(self, slot: int) -> str:
        """Human-readable ``HH:MM-HH:MM`` label of a slot within its day."""
        lo, hi = self.bounds(slot)
        def fmt(ts: float) -> str:
            seconds = int(ts - self.start_ts + (self.start_ts % 86400.0)) % 86400
            return f"{seconds // 3600:02d}:{(seconds % 3600) // 60:02d}"
        return f"{fmt(lo)}-{fmt(hi)}"

    def all_slots(self) -> List[int]:
        """All slot indices, in order."""
        return list(range(self.n_slots))

    @classmethod
    def for_day(cls, day_start_ts: float, slot_seconds: float = 1800.0) -> "TimeSlotGrid":
        """The paper's daily grid: 48 half-hour slots from midnight."""
        return cls(day_start_ts, day_start_ts + 86400.0, slot_seconds)

    @classmethod
    def covering(
        cls, lo: float, hi: float, slot_seconds: float = 1800.0
    ) -> "TimeSlotGrid":
        """The grid tier 2 labels a day on: from the midnight before
        ``lo`` through ``hi``, and at least 24 hours long.

        ``lo``/``hi`` are the first and last timestamps of the day's
        records; a day that runs past midnight gets extra slots.
        """
        day_start = lo - (lo % 86400.0)
        return cls(day_start, max(hi, day_start + 86400.0), slot_seconds)
