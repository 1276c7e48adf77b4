"""Live queue-context monitoring over a record stream.

:class:`StreamingQueueMonitor` wires the streaming PEA into the batch
tier-2 algorithms: given a known spot set (from a batch tier-1 run over
historical days, as the deployed system does, section 7.1) and per-spot
QCD thresholds, it consumes a *time-ordered* record stream and emits one
:class:`SlotResult` per spot each time a 30-minute slot closes.

A grace period delays slot finalization: a pickup whose wait *started*
inside slot j may complete (POB) early in slot j+1, so slot j is only
labelled once the stream clock passes ``slot_end + grace``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.features import AmplificationPolicy, compute_slot_features
from repro.core.pea import PickupEvent
from repro.core.qcd import label_slot
from repro.core.spots import nearest_spots, spots_to_xy
from repro.core.thresholds import QcdThresholds
from repro.core.types import QueueSpot, SlotFeatures, SlotLabel, TimeSlotGrid
from repro.core.wte import WaitEvent, extract_wait_event
from repro.geo.point import LocalProjection
from repro.stream.pea_stream import StreamingPea
from repro.trace.record import MdtRecord


@dataclass(frozen=True)
class SlotResult:
    """One finalized spot-slot with its features and label."""

    spot_id: str
    slot: int
    features: SlotFeatures
    label: SlotLabel


class StreamingQueueMonitor:
    """Online tier 2 over a fixed spot set.

    Args:
        spots: the detected queue spots (batch tier 1 output).
        thresholds: per-spot QCD thresholds (from historical data).
        grid: the slot grid of the streaming day.
        projection: lon/lat -> metre projection.
        amplification: observed-fraction correction.
        assign_radius_m: pickup-to-spot assignment radius.
        grace_s: how long after a slot ends before it is finalized.
    """

    def __init__(
        self,
        spots: Sequence[QueueSpot],
        thresholds: Dict[str, QcdThresholds],
        grid: TimeSlotGrid,
        projection: LocalProjection,
        amplification: AmplificationPolicy = AmplificationPolicy(),
        assign_radius_m: float = 30.0,
        grace_s: float = 900.0,
    ):
        self.spots = list(spots)
        self.thresholds = dict(thresholds)
        self.grid = grid
        self.projection = projection
        self.amplification = amplification
        self.assign_radius_m = assign_radius_m
        self.grace_s = grace_s
        self._pea = StreamingPea()
        self._events: Dict[str, Dict[int, List[WaitEvent]]] = {
            spot.spot_id: {} for spot in self.spots
        }
        self._finalized_through = -1
        self._subscribers: List[Callable[[List[SlotResult]], None]] = []
        self._spot_xy = spots_to_xy(self.spots, projection)

    # -- subscriptions -----------------------------------------------------------

    def subscribe(
        self, callback: Callable[[List[SlotResult]], None]
    ) -> None:
        """Register a callback fired whenever slots are finalized.

        Callbacks receive the same non-empty result batches that
        :meth:`feed` and :meth:`finish` return, in stream order, from the
        thread driving the monitor.  A live consumer (e.g. the serving
        layer's snapshot store) subscribes instead of polling return
        values.
        """
        self._subscribers.append(callback)

    def _publish(self, results: List[SlotResult]) -> None:
        if results:
            for callback in self._subscribers:
                callback(results)

    # -- ingestion ---------------------------------------------------------------

    def feed(self, record: MdtRecord) -> List[SlotResult]:
        """Process one record; returns any slots finalized by its clock."""
        pickup = self._pea.feed(record)
        if pickup is not None:
            self._absorb(pickup)
        results = self._advance_clock(record.ts)
        self._publish(results)
        return results

    def finish(self) -> List[SlotResult]:
        """End of stream: flush open pickups and finalize every slot."""
        for pickup in self._pea.flush():
            self._absorb(pickup)
        results: List[SlotResult] = []
        for slot in range(self._finalized_through + 1, self.grid.n_slots):
            results.extend(self._finalize_slot(slot))
        self._finalized_through = self.grid.n_slots - 1
        self._publish(results)
        return results

    # -- checkpointing -----------------------------------------------------------

    def export_state(self) -> dict:
        """Picklable monitor state (PEA scan state, bucketed wait
        events, finalization progress) for checkpoint/restore.

        Subscribers, spots, thresholds and the grid are *configuration*
        — they are rebuilt from the bootstrap on restart — so only the
        accumulated stream state is exported.
        """
        return {
            "pea": self._pea.export_state(),
            "events": {
                spot_id: {slot: list(waits) for slot, waits in buckets.items()}
                for spot_id, buckets in self._events.items()
            },
            "finalized_through": self._finalized_through,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a state exported by :meth:`export_state`.

        The monitor must be configured with the same spots, thresholds,
        grid and grace period as the exporting one; events of spots
        unknown to this monitor are dropped (a changed spot set cannot
        be resumed into).
        """
        self._pea.restore_state(state["pea"])
        self._events = {spot.spot_id: {} for spot in self.spots}
        for spot_id, buckets in state["events"].items():
            if spot_id in self._events:
                self._events[spot_id] = {
                    slot: list(waits) for slot, waits in buckets.items()
                }
        self._finalized_through = state["finalized_through"]

    # -- internals ----------------------------------------------------------------

    def _absorb(self, pickup: PickupEvent) -> None:
        spot_id = self._assign(pickup)
        if spot_id is None:
            return
        wait = extract_wait_event(pickup)
        if wait is None:
            return
        slot = self.grid.slot_of(wait.start_ts)
        if slot is None:
            return
        self._events[spot_id].setdefault(slot, []).append(wait)

    def _assign(self, pickup: PickupEvent) -> Optional[str]:
        """The batch W(r) rule (:func:`~repro.core.spots.nearest_spots`)
        on one event."""
        lon, lat = pickup.centroid()
        event_xy = self.projection.to_xy_array([lon], [lat])
        j = nearest_spots(event_xy, self._spot_xy, self.assign_radius_m)[0]
        return None if j < 0 else self.spots[j].spot_id

    def _advance_clock(self, ts: float) -> List[SlotResult]:
        results: List[SlotResult] = []
        while self._finalized_through + 1 < self.grid.n_slots:
            candidate = self._finalized_through + 1
            _, end = self.grid.bounds(candidate)
            if ts < end + self.grace_s:
                break
            results.extend(self._finalize_slot(candidate))
            self._finalized_through = candidate
        return results

    def _finalize_slot(self, slot: int) -> List[SlotResult]:
        results: List[SlotResult] = []
        lo, hi = self.grid.bounds(slot)
        one_slot_grid = TimeSlotGrid(lo, hi, hi - lo)
        for spot in self.spots:
            bucket = self._events[spot.spot_id].pop(slot, [])
            features = compute_slot_features(
                bucket, one_slot_grid, self.amplification
            )[0]
            # Re-index the single-slot feature to the day grid.
            features = SlotFeatures(
                slot=slot,
                mean_wait_s=features.mean_wait_s,
                n_arrivals=features.n_arrivals,
                queue_length=features.queue_length,
                mean_departure_interval_s=features.mean_departure_interval_s,
                n_departures=features.n_departures,
            )
            thresholds = self.thresholds.get(spot.spot_id)
            if thresholds is None:
                from repro.core.types import QueueType

                label = SlotLabel(slot=slot, label=QueueType.UNIDENTIFIED, routine=0)
            else:
                label = label_slot(features, thresholds)
            results.append(
                SlotResult(
                    spot_id=spot.spot_id,
                    slot=slot,
                    features=features,
                    label=label,
                )
            )
        return results
