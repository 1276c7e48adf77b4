"""Algorithm 2 (WTE) one record at a time: the reference for
:func:`repro.core.wte.extract_wait_event`.

The loop as it stood when a pickup event was a tuple of
:class:`~repro.trace.record.MdtRecord`: it reads each record's ``state``
and ``ts``.  The engine now walks the event's ``ts`` and ``state``
column tuples instead; ``tests/test_object_boundary.py`` pins the two
to the same wait event.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.wte import WaitEvent
from repro.states.states import TaxiState
from repro.trace.record import MdtRecord

_START_STATES = (TaxiState.FREE, TaxiState.ONCALL, TaxiState.ARRIVED)


def row_wait_event(
    taxi_id: str, records: Sequence[MdtRecord]
) -> Optional[WaitEvent]:
    """The wait event of one pickup event's records, or None."""
    t_start: Optional[float] = None
    t_end: Optional[float] = None
    start_state: Optional[TaxiState] = None
    for record in records:
        if record.state in _START_STATES and t_start is None:
            t_start = record.ts
            start_state = record.state
        elif record.state is TaxiState.PAYMENT and t_start is not None:
            t_start = None
            t_end = None
            start_state = None
        elif (
            record.state is TaxiState.POB
            and t_start is not None
            and t_end is None
        ):
            t_end = record.ts
    if t_start is None or t_end is None:
        return None
    return WaitEvent(
        start_ts=t_start,
        end_ts=t_end,
        start_state=start_state,
        taxi_id=taxi_id,
    )
