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

Read backwards, the rules fix the wait by three searches over an
event's rows: its last PAYMENT (after it the scan is reset, and none
follows), then the first FREE/ONCALL/ARRIVED after that PAYMENT (or
from the event's first row when there is none), then the first POB
after that start.  :func:`extract_wait_events` runs the three
searches as one array kernel over the row ranges of all the events it
is given, and :func:`extract_wait_times` and :func:`extract_wait_event`
are built on it; the record-at-a-time loop of Algorithm 2 is kept as
its reference in ``tests/_row_wte.py``.

Beyond the paper's wait-time set Y(r), each event also carries the state
that opened the wait, because section 5.2 needs to distinguish *street*
waits (opened by FREE — used for the mean wait and arrival count) from
*booking* waits (opened by ONCALL/ARRIVED — used only for departures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.core.pea import PickupEvent, event_columns
from repro.states.states import STATE_CODES, STATES_BY_CODE, TaxiState

#: What WTE reads of each state code: a wait start, a POB, a PAYMENT
#: or nothing (0).
_START, _POB, _PAYMENT = 1, 2, 3
_KIND = np.zeros(len(STATES_BY_CODE), dtype=np.int8)
for _state in (TaxiState.FREE, TaxiState.ONCALL, TaxiState.ARRIVED):
    _KIND[STATE_CODES[_state]] = _START
_KIND[STATE_CODES[TaxiState.POB]] = _POB
_KIND[STATE_CODES[TaxiState.PAYMENT]] = _PAYMENT


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
    """Run WTE on one pickup event (:func:`extract_wait_events` over
    one range).

    Returns:
        The wait event, or None when no complete wait interval exists.
    """
    return extract_wait_events([sub])[0]


def extract_wait_times(subs: Iterable[PickupEvent]) -> List[WaitEvent]:
    """Run WTE over a spot's pickup-event set W(r).

    Returns:
        The wait-event set (the paper's Y(r), enriched with endpoints and
        job kind), ordered by wait start time.
    """
    kept = [
        event for event in extract_wait_events(list(subs)) if event is not None
    ]
    kept.sort(key=lambda event: event.start_ts)
    return kept


def extract_wait_events(
    subs: Sequence[PickupEvent],
) -> List[Optional[WaitEvent]]:
    """Run WTE on every event at once: the kernel.

    The three searches of the module docstring run over the events'
    rows laid end to end (:func:`~repro.core.pea.event_columns`).

    Returns:
        Each event's wait event, or None where no complete wait
        interval exists, in the order of ``subs``.
    """
    if not subs:
        return []
    (state, ts), bounds = event_columns(subs, ("state", "ts"))
    lo, hi = bounds[:-1], bounds[1:]
    kind = _KIND[state]

    def first_at(wanted: int, at: np.ndarray) -> np.ndarray:
        """The first row of ``wanted`` kind at or after each of ``at``
        (the row count when there is none)."""
        rows = np.flatnonzero(kind == wanted)
        return np.append(rows, len(kind))[np.searchsorted(rows, at)]

    # The last PAYMENT before each event's end, or -1; one before the
    # event's first row does not count.
    paid = np.flatnonzero(kind == _PAYMENT)
    paid = np.append(-1, paid)[np.searchsorted(paid, hi)]
    start = first_at(_START, np.maximum(paid, lo - 1) + 1)
    # A start row is no POB, so this POB lies after the start; one
    # inside the range puts the start inside it too.
    end = first_at(_POB, start)
    complete = np.flatnonzero(end < hi)
    start, end = start[complete], end[complete]
    waits: List[Optional[WaitEvent]] = [None] * len(subs)
    for k, t_start, t_end, code in zip(
        complete.tolist(),
        ts[start].tolist(),
        ts[end].tolist(),
        state[start].tolist(),
    ):
        waits[k] = WaitEvent(
            start_ts=t_start,
            end_ts=t_end,
            start_state=STATES_BY_CODE[code],
            taxi_id=subs[k].taxi_id,
        )
    return waits
