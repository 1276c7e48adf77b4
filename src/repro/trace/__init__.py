"""MDT trace substrate: records, trajectories, log storage and cleaning.

This package models section 2.3 of the paper — the event-driven MDT log
with its six selected fields (timestamp, taxi ID, longitude, latitude,
speed, taxi state) — and section 6.1.1's preprocessing of the three error
classes found in real logs.
"""

from repro.trace.record import (
    MdtRecord,
    TIMESTAMP_FORMAT,
    format_timestamp,
    parse_timestamp,
)
from repro.trace.trajectory import Trajectory
from repro.trace.log_store import MdtLogStore
from repro.trace.cleaning import CleaningReport, clean_batch

__all__ = [
    "MdtRecord",
    "TIMESTAMP_FORMAT",
    "format_timestamp",
    "parse_timestamp",
    "Trajectory",
    "MdtLogStore",
    "CleaningReport",
    "clean_batch",
]
