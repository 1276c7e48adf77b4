"""Streaming queue analytics: the paper's real-time future work.

Section 1 motivates "real time queuing events information" for driver and
commuter recommendations; the batch engine of :mod:`repro.core` processes
daily files.  This package provides the online counterpart,
:mod:`repro.stream.monitor`: a live per-spot queue-context monitor that,
given a known spot set and thresholds (from the batch tier), consumes a
time-ordered record stream and emits a QCD label whenever a time slot
closes.

Only the orchestration is incremental.  The monitor buffers the fed rows
and runs the batch engine's own rules over them: the Algorithm 1 scan
with its section-4.2 constraints (:func:`~repro.core.pea.pea_scan`,
holding the runs a taxi's next row could still extend or cut), the
pickup-event type (:class:`~repro.core.pea.PickupEvent`), W(r)
assignment (:func:`~repro.core.spots.nearest_spots`), WTE, the 5-tuple
features and QCD.  It still differs from batch by design: each slot is
finalized with a one-slot grid after a grace period (see
``tests/test_stream.py``).
"""

from repro.stream.monitor import SlotResult, StreamingQueueMonitor

__all__ = [
    "SlotResult",
    "StreamingQueueMonitor",
]
