"""The live monitor's Algorithm 1 scan, observed from the tests.

The monitor runs the batch kernel's scan (:func:`repro.core.pea.pea_scan`)
over its buffered rows at each absorb point.  :func:`record_scans`
makes a monitor's scans also append every event they return to a list,
in the order the monitor absorbs them; :func:`recording_monitor` does
so for a monitor without spots, and :func:`stream_events` feeds it rows
and absorbs with ``export_state()`` every ``absorb_every`` rows.
"""

from __future__ import annotations

from repro.core.types import TimeSlotGrid
from repro.geo.point import LocalProjection
from repro.stream import StreamingQueueMonitor


def record_scans(monitor):
    """The list ``monitor``'s scans append their events to, from now on."""
    events = []
    scan = monitor._scan

    def recorded(final=False):
        found = scan(final)
        events.extend(found)
        return found

    monitor._scan = recorded
    return events


def recording_monitor():
    """``(monitor, events)``: a spotless monitor over one day from ts 0,
    and the list its scans' events are appended to."""
    monitor = StreamingQueueMonitor(
        spots=[],
        thresholds={},
        grid=TimeSlotGrid(0.0, 86400.0, 1800.0),
        projection=LocalProjection(103.8, 1.33),
    )
    return monitor, record_scans(monitor)


def stream_events(records, absorb_every=1):
    """The pickup events a monitor absorbs from ``records``, in order,
    with an absorb after every ``absorb_every`` rows and at ``finish()``."""
    monitor, events = recording_monitor()
    for i, record in enumerate(records, 1):
        monitor.feed(record)
        if i % absorb_every == 0:
            monitor.export_state()
    monitor.finish()
    return events
