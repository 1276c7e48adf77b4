"""Incremental PEA: Algorithm 1 as a streaming operator.

:class:`StreamingPea` keeps the two PEA flags and the open candidate per
taxi and is fed records one at a time (per taxi, in time order).  A
completed candidate that passes the section-4.2 state constraints is
returned as a :class:`~repro.core.pea.PickupEvent`.

Only the scan is incremental: the constraints are
:func:`~repro.core.pea.candidate_rejection`, and property tests stream
random record sequences through this scan, the batch kernel
(:func:`~repro.core.pea.extract_pickup_events_batch`) and an
independent row reference.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.pea import (
    DEFAULT_SPEED_THRESHOLD_KMH,
    PickupEvent,
    candidate_rejection,
)
from repro.states.states import NON_OPERATIONAL_STATES, STATE_CODES
from repro.trace.record import MdtRecord


class _TaxiScanState:
    __slots__ = ("phi1", "candidate", "prev")

    def __init__(self) -> None:
        self.phi1 = False
        self.candidate: Optional[List[MdtRecord]] = None
        self.prev: Optional[MdtRecord] = None


class StreamingPea:
    """Feed MDT records, collect completed pickup events."""

    def __init__(self) -> None:
        self._taxis: Dict[str, _TaxiScanState] = {}

    def feed(self, record: MdtRecord) -> Optional[PickupEvent]:
        """Process one record; returns a completed event, if any.

        Records must arrive per taxi in time order (cross-taxi
        interleaving is fine).
        """
        state = self._taxis.setdefault(record.taxi_id, _TaxiScanState())
        event: Optional[PickupEvent] = None

        if record.state in NON_OPERATIONAL_STATES:
            state.phi1 = False
            state.candidate = None
            state.prev = record
            return None

        low = record.speed <= DEFAULT_SPEED_THRESHOLD_KMH
        if low:
            if state.candidate is not None:
                state.candidate.append(record)
            elif state.phi1:
                # Second consecutive low-speed record opens the candidate
                # with its predecessor, exactly as the batch PEA does.
                state.candidate = [state.prev, record]
            else:
                state.phi1 = True
        else:
            if state.candidate is not None:
                event = _finalize(record.taxi_id, state.candidate)
            state.phi1 = False
            state.candidate = None
        state.prev = record
        return event

    def flush(self) -> List[PickupEvent]:
        """Finalize all still-open candidates (end of stream/day)."""
        events: List[PickupEvent] = []
        for taxi_id, state in self._taxis.items():
            if state.candidate is not None:
                event = _finalize(taxi_id, state.candidate)
                if event is not None:
                    events.append(event)
            state.phi1 = False
            state.candidate = None
        return events

    def export_state(self) -> dict:
        """Picklable per-taxi scan state for checkpoint/restore."""
        return {
            taxi_id: (
                state.phi1,
                None if state.candidate is None else list(state.candidate),
                state.prev,
            )
            for taxi_id, state in self._taxis.items()
        }

    def restore_state(self, state: dict) -> None:
        """Restore a state exported by :meth:`export_state`."""
        self._taxis = {}
        for taxi_id, (phi1, candidate, prev) in state.items():
            scan = _TaxiScanState()
            scan.phi1 = phi1
            scan.candidate = None if candidate is None else list(candidate)
            scan.prev = prev
            self._taxis[taxi_id] = scan


def _finalize(taxi_id: str, records: List[MdtRecord]) -> Optional[PickupEvent]:
    """The candidate as an event, or None when a constraint rejects it."""
    codes = [STATE_CODES[r.state] for r in records]
    if candidate_rejection(codes) is not None:
        return None
    return PickupEvent.from_records(taxi_id, records)
