"""Per-time-slot pickup-event features — the 5-tuple of section 5.2.

The day is divided into L fixed time slots (48 x 30 min in the paper).
The wait events Y(r) of a spot are partitioned by *wait start time* and
each slot j yields the 5-tuple

    phi(r)^j = < t_wait_mean, N_arr, L_mean, t_dep_mean, N_dep >

where

* ``t_wait_mean`` averages only *street-job* waits (booking waits depend
  on the booked passenger's arrival, section 5.2);
* ``N_arr`` counts FREE-taxi arrivals (street wait starts);
* ``L_mean = t_wait_mean * lambda_mean`` is the FREE-taxi queue length by
  Little's law, with ``lambda_mean = N_arr / slot_length``;
* ``t_dep_mean`` averages consecutive departure intervals (street and
  booking departures both); with fewer than two departures in the slot
  it is taken as the slot length (no meaningful departure cadence);
* ``N_dep`` counts all departures in the slot.

Because the analyst only observes a fraction of the fleet (60% in the
paper), counts are multiplied by the amplification factor (1.667 in the
paper) and the departure interval by its inverse (0.6) — exactly the
correction of section 6.2.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.core.types import SlotFeatures, TimeSlotGrid
from repro.core.wte import WaitEvent
from repro.queueing.littles_law import little_queue_length


@dataclass(frozen=True)
class AmplificationPolicy:
    """Scales observed features up to full-fleet estimates (section 6.2.1).

    ``factor`` is 1/coverage; counts and queue lengths are multiplied by
    it, mean departure intervals divided by it.  ``factor=1`` disables the
    correction (full-fleet data).
    """

    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError("amplification factor must be >= 1")

    @classmethod
    def for_coverage(cls, observed_fraction: float) -> "AmplificationPolicy":
        """Policy for a given observed fleet fraction (0 < f <= 1)."""
        if not 0.0 < observed_fraction <= 1.0:
            raise ValueError("observed fraction must be in (0, 1]")
        return cls(factor=1.0 / observed_fraction)


def compute_slot_features(
    events: Iterable[WaitEvent],
    grid: TimeSlotGrid,
    amplification: AmplificationPolicy = AmplificationPolicy(),
) -> List[SlotFeatures]:
    """Compute the 5-tuple feature set Omega(r) for one spot.

    Args:
        events: the spot's wait events (any order).
        grid: the time-slot grid (start/end/slot length).
        amplification: observed-fraction correction.

    Returns:
        One :class:`~repro.core.types.SlotFeatures` per slot, in slot
        order; slots without any wait event have ``mean_wait_s=None``,
        zero counts, and the slot length as departure interval.
    """
    per_slot: Dict[int, List[WaitEvent]] = {}
    for event in events:
        slot = grid.slot_of(event.start_ts)
        if slot is not None:
            per_slot.setdefault(slot, []).append(event)

    factor = amplification.factor
    features: List[SlotFeatures] = []
    for slot in grid.all_slots():
        lo, hi = grid.bounds(slot)
        slot_len = hi - lo
        bucket = sorted(per_slot.get(slot, []), key=lambda e: e.start_ts)

        street_waits = [e.wait_s for e in bucket if e.is_street]
        mean_wait: Optional[float] = (
            sum(street_waits) / len(street_waits) if street_waits else None
        )
        n_arr = len(street_waits) * factor
        if mean_wait is None or slot_len <= 0:
            queue_len = 0.0
        else:
            queue_len = little_queue_length(n_arr / slot_len, mean_wait)

        departures = sorted(e.end_ts for e in bucket)
        n_dep = len(departures) * factor
        if len(departures) >= 2:
            gaps = [
                b - a for a, b in zip(departures, departures[1:])
            ]
            mean_dep = (sum(gaps) / len(gaps)) / factor
        else:
            mean_dep = slot_len
        features.append(
            SlotFeatures(
                slot=slot,
                mean_wait_s=mean_wait,
                n_arrivals=n_arr,
                queue_length=queue_len,
                mean_departure_interval_s=mean_dep,
                n_departures=n_dep,
            )
        )
    return features
