"""The taxi state transition diagram (paper Fig. 3).

The diagram covers both job procedures described in section 2.2:

* street job:   FREE -> POB -> STC -> PAYMENT -> FREE
* booking job:  FREE/STC -> ... -> ONCALL -> ARRIVED -> POB (or NOSHOW -> FREE)

plus the non-operational branch (BREAK / OFFLINE / POWEROFF) and the special
BUSY state.  The transition table below is the *canonical* diagram; real logs
(and our noise injector) contain violations, which the preprocessing module
detects and removes (section 6.1.1 error class 1).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from repro.states.states import STATES_BY_CODE, TaxiState


def _table() -> Dict[TaxiState, FrozenSet[TaxiState]]:
    s = TaxiState
    edges = {
        # FREE taxis take street jobs, accept bookings, or go off duty.
        s.FREE: {s.POB, s.ONCALL, s.BUSY, s.BREAK},
        # A trip ends through STC and/or PAYMENT.  Some drivers do not press
        # the STC button, so POB -> PAYMENT is part of the diagram as well.
        s.POB: {s.STC, s.PAYMENT},
        s.STC: {s.PAYMENT},
        # After payment the taxi is FREE again, or proceeds straight to a
        # booking it accepted while STC (section 2.2, booking job step a).
        s.PAYMENT: {s.FREE, s.ONCALL},
        # Drivers frequently skip pressing the ARRIVED button (section
        # 6.1.1 lists missing intermediate states as routine), so the
        # observable diagram tolerates ONCALL -> POB directly.
        s.ONCALL: {s.ARRIVED, s.POB},
        s.ARRIVED: {s.POB, s.NOSHOW},
        # NOSHOW reverts to FREE within ~10 seconds (booking job step d).
        s.NOSHOW: {s.FREE},
        # BUSY -> POB covers the cherry-picking behaviour of section 7.2.
        s.BUSY: {s.FREE, s.POB},
        s.BREAK: {s.FREE, s.OFFLINE},
        s.OFFLINE: {s.BREAK, s.POWEROFF},
        s.POWEROFF: {s.OFFLINE},
    }
    return {state: frozenset(nexts) for state, nexts in edges.items()}


#: Canonical adjacency of Fig. 3: state -> set of legal successor states.
ALLOWED_TRANSITIONS: Dict[TaxiState, FrozenSet[TaxiState]] = _table()

#: The typical street-job state sequence (section 2.2, steps a-f).
STREET_JOB_SEQUENCE: Tuple[TaxiState, ...] = (
    TaxiState.FREE,
    TaxiState.POB,
    TaxiState.STC,
    TaxiState.PAYMENT,
    TaxiState.FREE,
)

#: The typical booking-job state sequence (section 2.2, steps a-f).
BOOKING_JOB_SEQUENCE: Tuple[TaxiState, ...] = (
    TaxiState.FREE,
    TaxiState.ONCALL,
    TaxiState.ARRIVED,
    TaxiState.POB,
    TaxiState.STC,
    TaxiState.PAYMENT,
    TaxiState.FREE,
)


def is_valid_transition(current: TaxiState, nxt: TaxiState) -> bool:
    """Return True if ``current -> nxt`` is an edge of the diagram.

    A self-transition is always valid: consecutive MDT records frequently
    repeat the same state (periodic GPS updates during a POB trip, crawl
    records while queueing, ...).
    """
    if current is nxt:
        return True
    return nxt in ALLOWED_TRANSITIONS[current]


def _code_matrix() -> Tuple[bytes, ...]:
    rows = []
    for current in STATES_BY_CODE:
        row = bytearray(len(STATES_BY_CODE))
        for code, nxt in enumerate(STATES_BY_CODE):
            row[code] = 1 if is_valid_transition(current, nxt) else 0
        rows.append(bytes(row))
    return tuple(rows)


#: :func:`is_valid_transition` over integer state codes, as a dense
#: ``matrix[current][nxt]`` byte table (self-transitions included).  The
#: cleaning kernel checks chain validity through this table, gathered
#: over whole state columns, so it never materializes
#: :class:`TaxiState` objects.
TRANSITION_CODE_MATRIX: Tuple[bytes, ...] = _code_matrix()
