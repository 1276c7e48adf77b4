"""Walks of state sequences over the canonical transition diagram, for
tests (paper Fig. 3).

The cleaning kernel checks chains through
:data:`repro.states.machine.TRANSITION_CODE_MATRIX` over whole state
columns; these row-at-a-time checks state the diagram's properties in
the tests that pin it.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Sequence, Tuple

from repro.states.machine import ALLOWED_TRANSITIONS, is_valid_transition
from repro.states.states import TaxiState


class TransitionError(ValueError):
    """Raised when a state sequence violates the canonical diagram."""


def validate_sequence(states: Sequence[TaxiState]) -> None:
    """Assert that a state sequence walks the canonical diagram.

    Raises:
        TransitionError: on the first illegal transition, reporting its
            position and the offending pair of states.
    """
    for i in range(1, len(states)):
        if not is_valid_transition(states[i - 1], states[i]):
            raise TransitionError(
                f"illegal transition {states[i - 1]} -> {states[i]} "
                f"at position {i}"
            )


def transition_violations(
    states: Iterable[TaxiState],
) -> List[Tuple[int, TaxiState, TaxiState]]:
    """Every illegal transition in a state sequence, as ``(index,
    previous_state, state)`` where ``index`` is the position of the
    *second* state of the pair: error class 1 of section 6.1.1
    (improper/missing taxi states)."""
    violations: List[Tuple[int, TaxiState, TaxiState]] = []
    prev: TaxiState | None = None
    for i, state in enumerate(states):
        if prev is not None and not is_valid_transition(prev, state):
            violations.append((i, prev, state))
        prev = state
    return violations


def reachable_states(start: TaxiState) -> FrozenSet[TaxiState]:
    """All states reachable from ``start`` along diagram edges."""
    seen = {start}
    frontier = [start]
    while frontier:
        state = frontier.pop()
        for nxt in ALLOWED_TRANSITIONS[state]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)
