"""Taxi state model: the 11 MDT states, state sets and the transition diagram.

This package encodes section 2 of the paper: the taxi states reported by the
mobile data terminal (Table 1), the three state sets used by the analytics
(Definitions 5.1-5.3) and the state transition diagram of Fig. 3, including
the street-job and booking-job procedures.
"""

from repro.states.states import (
    TaxiState,
    OCCUPIED_STATES,
    UNOCCUPIED_STATES,
    NON_OPERATIONAL_STATES,
    is_occupied,
    is_unoccupied,
    is_non_operational,
)
from repro.states.machine import (
    ALLOWED_TRANSITIONS,
    is_valid_transition,
    STREET_JOB_SEQUENCE,
    BOOKING_JOB_SEQUENCE,
)

__all__ = [
    "TaxiState",
    "OCCUPIED_STATES",
    "UNOCCUPIED_STATES",
    "NON_OPERATIONAL_STATES",
    "is_occupied",
    "is_unoccupied",
    "is_non_operational",
    "ALLOWED_TRANSITIONS",
    "is_valid_transition",
    "STREET_JOB_SEQUENCE",
    "BOOKING_JOB_SEQUENCE",
]
