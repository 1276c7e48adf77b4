"""Canonical, comparable forms of every execution path's output.

The **streaming class** — ordered replay, kill/restart replay and
buffered disordered replay — converges to one serving state, reduced by
:func:`streaming_state` and compared for exact equality (see
``docs/conformance.md``).  The batch class is the serial engine alone,
checked against the brute-force oracles instead.

Batch and streaming outputs are *not* cross-compared: the streaming
monitor finalizes each slot with a one-slot grid and a grace period, so
its features agree with batch only approximately (``test_stream.py``
pins ``rel=0.05``), never exactly.

:class:`DayBootstrap` is the frozen tier-1 context a streaming run is
configured from (spot set, thresholds, grid, projection); it lives with
``serve`` in :mod:`repro.service.app` and is re-exported here.  It
serializes to JSON so a shrunk minimal day can be re-run against the
*original* day's spots — re-deriving them from a 30-record CSV would
find nothing and the repro would be vacuous.
"""

from __future__ import annotations

from typing import Dict

from repro.core.types import TimeSlotGrid
from repro.service.app import DayBootstrap, make_bootstrap  # noqa: F401
from repro.service.snapshot import SnapshotStore


def streaming_state(snapshot: SnapshotStore) -> Dict:
    """Reduce a snapshot store to its full serving state.

    Covers the version (resumed runs must converge to the same snapshot
    id, not just the same labels) and every payload the HTTP layer
    serves from the finalized slot results.
    """
    return {
        "version": snapshot.version,
        "citywide": snapshot.citywide_payload(),
        "spots": {
            spot_id: snapshot.spot_slots_payload(spot_id)
            for spot_id in sorted(snapshot.spot_ids)
        },
    }


def day_grid(lo: float, hi: float, slot_seconds: float) -> TimeSlotGrid:
    """The day-spanning slot grid used by every path of a case: the
    engine's and ``QueueService.from_day``'s :meth:`TimeSlotGrid.covering`.
    """
    return TimeSlotGrid.covering(lo, hi, slot_seconds)
