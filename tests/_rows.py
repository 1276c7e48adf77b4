"""Rows built from columns, for tests that compare record by record.

A :class:`~repro.core.pea.PickupEvent` is a row range of a batch and
builds no rows, and a built :class:`~repro.columnar.RecordBatch` has
no row accessor; the tests that want :class:`MdtRecord` rows build them
here from the column views.
"""

from __future__ import annotations

from typing import List

from repro.states.states import STATES_BY_CODE
from repro.trace.record import MdtRecord


def event_rows(event) -> List[MdtRecord]:
    """A pickup event's records, in time order."""
    return [
        MdtRecord(ts, event.taxi_id, lon, lat, speed, STATES_BY_CODE[code])
        for ts, lon, lat, speed, code in zip(
            event.ts.tolist(),
            event.lon.tolist(),
            event.lat.tolist(),
            event.speed.tolist(),
            event.state.tolist(),
        )
    ]


def event_states(event) -> list:
    """A pickup event's states, as :class:`TaxiState` members."""
    return [STATES_BY_CODE[code] for code in event.state.tolist()]
