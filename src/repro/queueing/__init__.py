"""Queueing-theory substrate.

The engine's queue-length feature rests on Little's law
(:mod:`repro.queueing.littles_law`, paper section 5.2): the slot
features and the conformance invariants derive the average FREE-taxi
queue length from the same function.
"""

from repro.queueing.littles_law import little_queue_length

__all__ = ["little_queue_length"]
