"""Ground truth captured by the simulator for accuracy evaluation.

The paper validates against external data sources (landmarks, a vehicle
monitor, failed bookings) because it has no ground truth.  The simulator
does: it records, per queue spot, the exact step functions of taxi-queue
and passenger-queue length over the day.  Per 30-minute slot these yield
time-averaged queue lengths and therefore *true* C1..C4 labels, against
which the engine's output is scored.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.types import QueueType, TimeSlotGrid
from repro.sim.landmarks import Landmark


class StepFunction:
    """A piecewise-constant integer function of time (queue length)."""

    def __init__(self, t0: float, value: int = 0):
        self._times: List[float] = [t0]
        self._values: List[int] = [value]

    def set(self, ts: float, value: int) -> None:
        """Record a new value from time ``ts`` onward.

        Raises:
            ValueError: when ``ts`` precedes the last change point.
        """
        if ts < self._times[-1]:
            raise ValueError("step function updates must be time-ordered")
        if value == self._values[-1]:
            return
        if ts == self._times[-1]:
            self._values[-1] = value
            return
        self._times.append(ts)
        self._values.append(value)

    def add(self, ts: float, delta: int) -> int:
        """Increment the current value by ``delta`` at ``ts``.

        Tolerates sub-second reordering from simultaneous simulator events
        by clamping ``ts`` forward to the last change point.
        """
        if self._times[-1] - 2.0 <= ts < self._times[-1]:
            ts = self._times[-1]
        new_value = self._values[-1] + delta
        if new_value < 0:
            raise ValueError("queue length cannot go negative")
        self.set(ts, new_value)
        return new_value

    @property
    def current(self) -> int:
        """The latest value."""
        return self._values[-1]

    def value_at(self, ts: float) -> int:
        """The value in effect at time ``ts``."""
        i = bisect.bisect_right(self._times, ts) - 1
        return self._values[max(0, i)]

    def mean_over(self, start: float, end: float) -> float:
        """Time-average of the function over ``[start, end)``.

        Raises:
            ValueError: for an empty interval.
        """
        if end <= start:
            raise ValueError("interval must have positive length")
        area = 0.0
        i = bisect.bisect_right(self._times, start) - 1
        i = max(0, i)
        t = start
        while t < end:
            seg_end = self._times[i + 1] if i + 1 < len(self._times) else end
            seg_end = min(seg_end, end)
            area += self._values[i] * (seg_end - t)
            t = seg_end
            i += 1
            if i >= len(self._times):
                break
        return area / (end - start)


@dataclass(frozen=True)
class TrueSlot:
    """Ground truth for one spot and one time slot."""

    slot: int
    mean_taxi_queue: float
    mean_pax_queue: float
    label: QueueType


@dataclass
class SpotTruth:
    """Everything the simulator knows about one ground-truth queue spot."""

    spot_id: str
    landmark: Landmark
    taxi_queue: StepFunction
    pax_queue: StepFunction
    pickups: int = 0
    """Completed pickups at the spot over the simulated day."""

    slots: List[TrueSlot] = field(default_factory=list)
    """Filled by :meth:`finalize`."""

    @property
    def lon(self) -> float:
        return self.landmark.lon

    @property
    def lat(self) -> float:
        return self.landmark.lat

    def finalize(
        self,
        grid: TimeSlotGrid,
        taxi_threshold: float,
        pax_threshold: float,
    ) -> None:
        """Compute per-slot averages and true labels."""
        self.slots = []
        for j in grid.all_slots():
            lo, hi = grid.bounds(j)
            taxi_avg = self.taxi_queue.mean_over(lo, hi)
            pax_avg = self.pax_queue.mean_over(lo, hi)
            label = QueueType.from_flags(
                taxi_queue=taxi_avg >= taxi_threshold,
                passenger_queue=pax_avg >= pax_threshold,
            )
            self.slots.append(TrueSlot(j, taxi_avg, pax_avg, label))


@dataclass
class GroundTruth:
    """Simulator ground truth for a whole day."""

    grid: TimeSlotGrid
    spots: Dict[str, SpotTruth]

    def label_of(self, spot_id: str, slot: int) -> QueueType:
        """True label of one spot-slot.

        Raises:
            KeyError / IndexError: for unknown spot or slot.
        """
        return self.spots[spot_id].slots[slot].label

    def label_counts(self) -> Dict[QueueType, int]:
        """How many spot-slots carry each true label."""
        counts: Dict[QueueType, int] = {label: 0 for label in QueueType}
        for spot in self.spots.values():
            for slot in spot.slots:
                counts[slot.label] += 1
        return counts
