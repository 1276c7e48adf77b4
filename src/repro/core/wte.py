"""Algorithm 2 — the Wait Time Extraction (WTE) algorithm.

For every pickup event of a queue spot, WTE derives the taxi wait
interval:

* the wait *start* is the timestamp of the first FREE, ONCALL or ARRIVED
  record;
* if a PAYMENT record appears afterwards, the start is reset (the taxi was
  still finishing the previous job; the wait restarts at the subsequent
  FREE record);
* the wait *end* is the timestamp of the first POB record after a start.

Events without both endpoints produce no wait event (e.g. the BUSY
cherry-picking pickups of section 7.2, or NOSHOW bookings).

Beyond the paper's wait-time set Y(r), each event also carries the state
that opened the wait, because section 5.2 needs to distinguish *street*
waits (opened by FREE — used for the mean wait and arrival count) from
*booking* waits (opened by ONCALL/ARRIVED — used only for departures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.core.pea import PickupEvent
from repro.states.states import TaxiState

_START_STATES = (TaxiState.FREE, TaxiState.ONCALL, TaxiState.ARRIVED)


@dataclass(frozen=True)
class WaitEvent:
    """One taxi's wait at a queue spot, extracted from a pickup event.

    Attributes:
        start_ts: wait start (first FREE/ONCALL/ARRIVED, PAYMENT-reset).
        end_ts: wait end (first POB after the start).
        start_state: the state that opened the wait; FREE marks a street
            job, ONCALL/ARRIVED a booking job.
        taxi_id: the waiting taxi.
    """

    start_ts: float
    end_ts: float
    start_state: TaxiState
    taxi_id: str

    @property
    def wait_s(self) -> float:
        """The wait duration t_end - t_start in seconds."""
        return self.end_ts - self.start_ts

    @property
    def is_street(self) -> bool:
        """True when the wait belongs to a street job (opened by FREE)."""
        return self.start_state is TaxiState.FREE


def extract_wait_event(sub: PickupEvent) -> Optional[WaitEvent]:
    """Run the WTE inner loop on one pickup event (its ``ts`` and
    ``state`` tuples).

    Returns:
        The wait event, or None when no complete wait interval exists.
    """
    t_start: Optional[float] = None
    t_end: Optional[float] = None
    start_state: Optional[TaxiState] = None
    for ts, state in zip(sub.ts, sub.state):
        if state in _START_STATES and t_start is None:
            t_start = ts
            start_state = state
        elif state is TaxiState.PAYMENT and t_start is not None:
            t_start = None
            t_end = None
            start_state = None
        elif state is TaxiState.POB and t_start is not None and t_end is None:
            t_end = ts
    if t_start is None or t_end is None:
        return None
    return WaitEvent(
        start_ts=t_start,
        end_ts=t_end,
        start_state=start_state,
        taxi_id=sub.taxi_id,
    )


def extract_wait_times(subs: Iterable[PickupEvent]) -> List[WaitEvent]:
    """Run WTE over a spot's pickup-event set W(r).

    Returns:
        The wait-event set (the paper's Y(r), enriched with endpoints and
        job kind), ordered by wait start time.
    """
    events = [extract_wait_event(sub) for sub in subs]
    kept = [event for event in events if event is not None]
    kept.sort(key=lambda event: event.start_ts)
    return kept
