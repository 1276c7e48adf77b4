"""Live queue-context monitoring over a record stream.

:class:`StreamingQueueMonitor` runs the batch tier-2 algorithms over a
live feed: given a known spot set (from a batch tier-1 run over
historical days, as the deployed system does, section 7.1) and per-spot
QCD thresholds, it consumes a *time-ordered* record stream and emits one
:class:`SlotResult` per spot each time a 30-minute slot closes.

A grace period delays slot finalization: a pickup whose wait *started*
inside slot j may complete (POB) early in slot j+1, so slot j is only
labelled once the stream clock passes ``slot_end + grace``.

Fed rows go to a column buffer.  They are absorbed together — one
Algorithm 1 scan (:func:`~repro.core.pea.pea_scan`, the batch kernel's),
one W(r) assignment, one centroid pass and one WTE kernel call — just
before a slot is finalized, at the end of the stream and before the
state is exported.  The scan reads the buffered rows grouped by taxi,
each taxi's in arrival order, behind the runs held at the last absorb:
a run that reaches its taxi's last buffered row is held, because the
next row decides how it ends, and those rows are all the scan state the
monitor carries.  Events are absorbed in the order of the rows that
completed them, so results and checkpoints do not depend on when the
absorbs happen.  Nothing reads the per-slot buckets in between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.columnar import BatchBuilder, RecordBatch
from repro.core.features import AmplificationPolicy, compute_slot_features
from repro.core.pea import PickupEvent, pea_scan
from repro.core.qcd import label_slot
from repro.core.spots import nearest_spots, pickup_centroids, spots_to_xy
from repro.core.thresholds import QcdThresholds
from repro.core.types import (
    QueueSpot,
    QueueType,
    SlotFeatures,
    SlotLabel,
    TimeSlotGrid,
)
from repro.core.wte import WaitEvent, extract_wait_events
from repro.geo.point import LocalProjection
from repro.trace.partition import grouped_order
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
        self._rows = BatchBuilder()
        self._held = RecordBatch()
        self._events: Dict[str, Dict[int, List[WaitEvent]]] = {
            spot.spot_id: {} for spot in self.spots
        }
        self._finalized_through = -1
        self._deadline = self._next_deadline()
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
        self._rows.append_record(record)
        if record.ts < self._deadline:
            return []
        self._absorb()
        results: List[SlotResult] = []
        while record.ts >= self._deadline and self._deadline < math.inf:
            slot = self._finalized_through + 1
            results.extend(self._finalize_slot(slot))
            self._finalized_through = slot
            self._deadline = self._next_deadline()
        self._publish(results)
        return results

    def finish(self) -> List[SlotResult]:
        """End of stream: judge the held runs and finalize every slot."""
        self._absorb()
        self._absorb(final=True)
        results: List[SlotResult] = []
        for slot in range(self._finalized_through + 1, self.grid.n_slots):
            results.extend(self._finalize_slot(slot))
        self._finalized_through = self.grid.n_slots - 1
        self._deadline = math.inf
        self._publish(results)
        return results

    # -- checkpointing -----------------------------------------------------------

    def export_state(self) -> dict:
        """Picklable monitor state (held scan tails, bucketed wait
        events, finalization progress) for checkpoint/restore.

        Subscribers, spots, thresholds and the grid are *configuration*
        — they are rebuilt from the bootstrap on restart — so only the
        accumulated stream state is exported.  The buffered rows are
        absorbed first, so the state is the same whenever the absorbs
        before it happened: the held runs' rows as one batch, taxis by
        sorted id, and the buckets holding every completed wait.
        """
        self._absorb()
        return {
            "tails": self._held,
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
        self._rows = BatchBuilder()
        self._held = state["tails"]
        self._events = {spot.spot_id: {} for spot in self.spots}
        for spot_id, buckets in state["events"].items():
            if spot_id in self._events:
                self._events[spot_id] = {
                    slot: list(waits) for slot, waits in buckets.items()
                }
        self._finalized_through = state["finalized_through"]
        self._deadline = self._next_deadline()

    # -- internals ----------------------------------------------------------------

    def _next_deadline(self) -> float:
        """When the next slot is finalized: its end plus the grace
        period, or never once the last slot is."""
        slot = self._finalized_through + 1
        if slot >= self.grid.n_slots:
            return math.inf
        return self.grid.bounds(slot)[1] + self.grace_s

    def _absorb(self, final: bool = False) -> None:
        """Absorb the pickup events :meth:`_scan` completes: WTE on the
        ones W(r) assigns, and each wait into its spot's bucket of the
        slot it started in."""
        events = self._scan(final)
        if not events:
            return
        assigned = [
            (spot_id, event)
            for spot_id, event in zip(self._assign(events), events)
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

    def _scan(self, final: bool = False) -> List[PickupEvent]:
        """Algorithm 1 over the held runs and the buffered rows: the
        kept events, in the order of the rows that completed them.  The
        runs that reach their taxi's last row are held.

        With ``final``, called once the rows are absorbed, the held runs
        are judged as runs that end the stream, in taxi-id order, and
        nothing is held.
        """
        arrived = RecordBatch.concat([self._held, self._rows.build()])
        order = grouped_order(arrived)
        day = arrived.take(order)
        start, end, _, held = pea_scan(
            day.taxi, day.speed, day.state, hold_open=not final
        )
        if final:
            self._held = RecordBatch()
        else:
            self._held = day.filter_mask(held)
            # Each event was completed by the row after it.
            completed = np.argsort(order[end + 1])
            start, end = start[completed], end[completed]
        table = day.taxi_table
        return [
            PickupEvent(table[taxi], day, lo, hi)
            for taxi, lo, hi in zip(
                day.taxi[start].tolist(), start.tolist(), (end + 1).tolist()
            )
        ]

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
