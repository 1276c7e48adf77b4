"""Street-job / booking-job segmentation of a taxi's state stream.

Section 2.2 distinguishes two job categories: *street jobs* (passenger
hails a FREE taxi) and *booking jobs* (passenger books; the taxi goes
ONCALL -> ARRIVED -> POB).  Section 6.2.1 uses the taxi state transition
knowledge "to derive and separate booking jobs and street jobs from the
MDT logs": the daily street-to-total job ratio provides the QCD threshold
tau_ratio.  This module implements that derivation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.states.states import TaxiState


class JobKind(enum.Enum):
    """Category of a completed taxi job."""

    STREET = "street"
    BOOKING = "booking"


@dataclass(frozen=True)
class Job:
    """A single completed passenger trip extracted from the state stream.

    Attributes:
        kind: street or booking job.
        pickup_ts: timestamp of the first POB record of the trip.
        dropoff_ts: timestamp when the taxi left the occupied set again
            (first FREE/ONCALL/non-operational record after the trip).
        pickup_index: index of the first POB record within the input
            sequence.
    """

    kind: JobKind
    pickup_ts: float
    dropoff_ts: float
    pickup_index: int


def segment_jobs(timeline: Sequence[Tuple[float, TaxiState]]) -> List[Job]:
    """Split one taxi's ``(timestamp, state)`` stream into completed jobs.

    A job begins at a transition into POB.  It is a *booking* job when the
    preceding unoccupied stretch contains ONCALL or ARRIVED (the taxi was
    dispatched), otherwise a *street* job.  The job completes when the taxi
    state leaves the occupied set {POB, STC, PAYMENT}; trips still occupied
    at the end of the stream are dropped as incomplete.

    Args:
        timeline: temporally ordered ``(timestamp, state)`` pairs.

    Returns:
        Completed jobs in temporal order.
    """
    jobs: List[Job] = []
    dispatched = False  # saw ONCALL/ARRIVED since the last trip ended
    in_trip = False
    pickup_ts = 0.0
    pickup_index = -1
    kind = JobKind.STREET

    occupied = {TaxiState.POB, TaxiState.STC, TaxiState.PAYMENT}

    for i, (ts, state) in enumerate(timeline):
        if in_trip:
            if state not in occupied:
                jobs.append(Job(kind, pickup_ts, ts, pickup_index))
                in_trip = False
                dispatched = state in (TaxiState.ONCALL, TaxiState.ARRIVED)
            continue
        if state is TaxiState.POB:
            in_trip = True
            pickup_ts = ts
            pickup_index = i
            kind = JobKind.BOOKING if dispatched else JobKind.STREET
            dispatched = False
        elif state in (TaxiState.ONCALL, TaxiState.ARRIVED):
            dispatched = True
        elif state in (TaxiState.FREE, TaxiState.NOSHOW):
            # NOSHOW cancels the dispatch; FREE after NOSHOW starts afresh.
            if state is TaxiState.NOSHOW:
                dispatched = False
        elif state in (TaxiState.BREAK, TaxiState.OFFLINE, TaxiState.POWEROFF):
            dispatched = False
    return jobs


def job_counts(
    timeline: Sequence[Tuple[float, TaxiState]],
) -> Tuple[int, int]:
    """Return ``(street_jobs, total_jobs)`` for one taxi's stream."""
    jobs = segment_jobs(timeline)
    street = sum(1 for job in jobs if job.kind is JobKind.STREET)
    return street, len(jobs)
