"""The 11 taxi states reported by the MDT device (paper Table 1).

The paper groups the states into three sets (Definitions 5.1-5.3):

* occupied          Theta  = { POB, STC, PAYMENT }
* unoccupied        Psi    = { FREE, ONCALL, ARRIVED, NOSHOW }
* non-operational   Lambda = { BREAK, OFFLINE, POWEROFF }

BUSY is deliberately left out of all three sets; the paper treats it as a
special state (it is used by drivers to signal temporary unavailability, and
section 7.2 reports drivers abusing it to cherry-pick passengers).
"""

from __future__ import annotations

import enum
from typing import Iterable

import numpy as np


class TaxiState(enum.Enum):
    """One of the 11 MDT taxi states (paper Table 1)."""

    FREE = "FREE"
    """Taxi unoccupied and ready for taking new passengers or bookings."""

    POB = "POB"
    """Passenger on board and taximeter running."""

    STC = "STC"
    """Taxi soon to clear the current job and ready for new bookings."""

    PAYMENT = "PAYMENT"
    """Passenger making payment and taximeter paused."""

    ONCALL = "ONCALL"
    """Taxi unoccupied, but accepted a new booking job."""

    ARRIVED = "ARRIVED"
    """Taxi arrived at the booking pickup location, waiting for passenger."""

    NOSHOW = "NOSHOW"
    """No passenger showing up; the booking is cancelled soon after."""

    BUSY = "BUSY"
    """Taxi driver temporarily unavailable due to a personal reason."""

    BREAK = "BREAK"
    """Taxi on a break with the driver still logged on the MDT."""

    OFFLINE = "OFFLINE"
    """Taxi on a break with the driver logged off from the MDT."""

    POWEROFF = "POWEROFF"
    """MDT shut down and not working."""

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Every state in enum declaration order; index == integer state code.
#: The columnar data plane (``repro.columnar``) and every layer that
#: reads its state column share this one coding.
STATES_BY_CODE = tuple(TaxiState)

#: ``state -> integer code`` (the inverse of :data:`STATES_BY_CODE`).
STATE_CODES = {state: code for code, state in enumerate(STATES_BY_CODE)}


def state_code(state: TaxiState) -> int:
    """The stable integer code of a state (see :data:`STATES_BY_CODE`)."""
    return STATE_CODES[state]


#: Theta (Definition 5.1): a passenger is on board or just finishing a trip.
OCCUPIED_STATES = frozenset({TaxiState.POB, TaxiState.STC, TaxiState.PAYMENT})

#: Psi (Definition 5.2): the taxi carries no passenger and is in service.
UNOCCUPIED_STATES = frozenset(
    {TaxiState.FREE, TaxiState.ONCALL, TaxiState.ARRIVED, TaxiState.NOSHOW}
)

#: Lambda (Definition 5.3): the taxi is not operating.
NON_OPERATIONAL_STATES = frozenset(
    {TaxiState.BREAK, TaxiState.OFFLINE, TaxiState.POWEROFF}
)

#: The three Definition-5 sets as integer codes, for code over state
#: columns that never materializes :class:`TaxiState` objects.
OCCUPIED_CODES = frozenset(STATE_CODES[s] for s in OCCUPIED_STATES)
UNOCCUPIED_CODES = frozenset(STATE_CODES[s] for s in UNOCCUPIED_STATES)
NON_OPERATIONAL_CODES = frozenset(
    STATE_CODES[s] for s in NON_OPERATIONAL_STATES
)


def code_mask(states: Iterable[TaxiState]) -> np.ndarray:
    """A boolean table over state codes, True at the codes of
    ``states``: ``code_mask(S)[state_column]`` marks the rows in ``S``."""
    mask = np.zeros(len(STATES_BY_CODE), dtype=bool)
    mask[[STATE_CODES[state] for state in states]] = True
    return mask


def is_occupied(state: TaxiState) -> bool:
    """Return True when ``state`` belongs to the occupied set Theta."""
    return state in OCCUPIED_STATES


def is_unoccupied(state: TaxiState) -> bool:
    """Return True when ``state`` belongs to the unoccupied set Psi."""
    return state in UNOCCUPIED_STATES


def is_non_operational(state: TaxiState) -> bool:
    """Return True when ``state`` belongs to the non-operational set Lambda."""
    return state in NON_OPERATIONAL_STATES


def parse_state(text: str) -> TaxiState:
    """Parse a state name as found in an MDT log field.

    The match is case-insensitive and tolerates surrounding whitespace,
    mirroring what a log-ingestion layer has to accept from real feeds.

    Raises:
        ValueError: if the text names no known taxi state.
    """
    try:
        return TaxiState(text.strip().upper())
    except ValueError:
        raise ValueError(f"unknown taxi state: {text!r}") from None
