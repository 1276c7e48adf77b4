"""Live queue-context monitoring over a record stream.

:class:`StreamingQueueMonitor` wires the streaming PEA into the batch
tier-2 algorithms: given a known spot set (from a batch tier-1 run over
historical days, as the deployed system does, section 7.1) and per-spot
QCD thresholds, it consumes a *time-ordered* record stream and emits one
:class:`SlotResult` per spot each time a 30-minute slot closes.

A grace period delays slot finalization: a pickup whose wait *started*
inside slot j may complete (POB) early in slot j+1, so slot j is only
labelled once the stream clock passes ``slot_end + grace``.

Completed pickup events wait in a pending list and are absorbed
together — one W(r) assignment, one centroid pass and one WTE kernel
call over all of them — just before a slot is finalized, at the end of
the stream and before the state is exported.  Nothing reads the
per-slot buckets in between, so results and checkpoints are those of
absorbing each event as it completes, in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.features import AmplificationPolicy, compute_slot_features
from repro.core.pea import PickupEvent
from repro.core.qcd import label_slot
from repro.core.spots import nearest_spots, pickup_centroids, spots_to_xy
from repro.core.thresholds import QcdThresholds
from repro.core.types import QueueSpot, SlotFeatures, SlotLabel, TimeSlotGrid
from repro.core.wte import WaitEvent, extract_wait_events
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
        self._pending: List[PickupEvent] = []
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
            self._pending.append(pickup)
        results = self._advance_clock(record.ts)
        self._publish(results)
        return results

    def finish(self) -> List[SlotResult]:
        """End of stream: flush open pickups and finalize every slot."""
        self._pending.extend(self._pea.flush())
        self._absorb_pending()
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
        accumulated stream state is exported.  Pending events are
        absorbed first, so the buckets hold every completed wait.
        """
        self._absorb_pending()
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
        self._pending = []
        self._events = {spot.spot_id: {} for spot in self.spots}
        for spot_id, buckets in state["events"].items():
            if spot_id in self._events:
                self._events[spot_id] = {
                    slot: list(waits) for slot, waits in buckets.items()
                }
        self._finalized_through = state["finalized_through"]

    # -- internals ----------------------------------------------------------------

    def _absorb_pending(self) -> None:
        """Absorb the pending events in completion order: WTE on the
        ones W(r) assigns, and each wait into its spot's bucket of the
        slot it started in."""
        pending, self._pending = self._pending, []
        if not pending:
            return
        assigned = [
            (spot_id, event)
            for spot_id, event in zip(self._assign(pending), pending)
            if spot_id is not None
        ]
        waits = extract_wait_events([event for _, event in assigned])
        for (spot_id, _), wait in zip(assigned, waits):
            if wait is None:
                continue
            slot = self.grid.slot_of(wait.start_ts)
            if slot is None:
                continue
            self._events[spot_id].setdefault(slot, []).append(wait)

    def _assign(self, events: Sequence[PickupEvent]) -> List[Optional[str]]:
        """The batch W(r) rule (:func:`~repro.core.spots.nearest_spots`)
        on the events' centroids: each event's spot id, or None."""
        lonlat = pickup_centroids(events)
        nearest = nearest_spots(
            self.projection.to_xy_array(lonlat[:, 0], lonlat[:, 1]),
            self._spot_xy,
            self.assign_radius_m,
        )
        return [
            None if j < 0 else self.spots[j].spot_id for j in nearest.tolist()
        ]

    def _advance_clock(self, ts: float) -> List[SlotResult]:
        results: List[SlotResult] = []
        while self._finalized_through + 1 < self.grid.n_slots:
            candidate = self._finalized_through + 1
            _, end = self.grid.bounds(candidate)
            if ts < end + self.grace_s:
                break
            self._absorb_pending()
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
