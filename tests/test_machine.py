"""Tests for the state transition diagram (paper Fig. 3)."""

import pytest

from repro.states.machine import (
    ALLOWED_TRANSITIONS,
    BOOKING_JOB_SEQUENCE,
    STREET_JOB_SEQUENCE,
    is_valid_transition,
)
from repro.states.states import TaxiState
from tests._machine import (
    TransitionError,
    reachable_states,
    transition_violations,
    validate_sequence,
)


class TestDiagramStructure:
    def test_every_state_has_an_entry(self):
        assert set(ALLOWED_TRANSITIONS) == set(TaxiState)

    def test_street_job_sequence_is_valid(self):
        validate_sequence(STREET_JOB_SEQUENCE)

    def test_booking_job_sequence_is_valid(self):
        validate_sequence(BOOKING_JOB_SEQUENCE)

    def test_noshow_sequence_is_valid(self):
        validate_sequence(
            [
                TaxiState.FREE,
                TaxiState.ONCALL,
                TaxiState.ARRIVED,
                TaxiState.NOSHOW,
                TaxiState.FREE,
            ]
        )

    def test_power_cycle_is_valid(self):
        validate_sequence(
            [
                TaxiState.FREE,
                TaxiState.BREAK,
                TaxiState.OFFLINE,
                TaxiState.POWEROFF,
                TaxiState.OFFLINE,
                TaxiState.BREAK,
                TaxiState.FREE,
            ]
        )

    def test_busy_cherry_picking_is_representable(self):
        # Section 7.2: drivers enter BUSY and leave with POB.
        validate_sequence([TaxiState.FREE, TaxiState.BUSY, TaxiState.POB])

    def test_operational_core_is_mutually_reachable(self):
        for state in (TaxiState.FREE, TaxiState.POB, TaxiState.ONCALL):
            assert reachable_states(state) == set(TaxiState)


class TestIsValidTransition:
    def test_self_transition_always_valid(self):
        for state in TaxiState:
            assert is_valid_transition(state, state)

    @pytest.mark.parametrize(
        "pair",
        [
            (TaxiState.FREE, TaxiState.PAYMENT),
            (TaxiState.PAYMENT, TaxiState.POB),
            (TaxiState.POWEROFF, TaxiState.FREE),
            (TaxiState.NOSHOW, TaxiState.POB),
            (TaxiState.STC, TaxiState.FREE),
        ],
    )
    def test_known_illegal_pairs(self, pair):
        assert not is_valid_transition(*pair)

    def test_oncall_to_pob_tolerated(self):
        # Drivers may skip pressing ARRIVED (section 6.1.1).
        assert is_valid_transition(TaxiState.ONCALL, TaxiState.POB)

    def test_pob_skipping_stc_tolerated(self):
        assert is_valid_transition(TaxiState.POB, TaxiState.PAYMENT)


class TestValidateSequence:
    def test_empty_sequence_valid(self):
        validate_sequence([])

    def test_single_state_valid(self):
        validate_sequence([TaxiState.BUSY])

    def test_reports_position_of_violation(self):
        with pytest.raises(TransitionError, match="position 2"):
            validate_sequence(
                [TaxiState.FREE, TaxiState.POB, TaxiState.ONCALL]
            )


class TestTransitionViolations:
    def test_no_violations_in_valid_stream(self):
        assert transition_violations(BOOKING_JOB_SEQUENCE) == []

    def test_finds_spurious_free_between_payments(self):
        # The clock-sync MDT bug of section 6.1.1.
        stream = [
            TaxiState.POB,
            TaxiState.PAYMENT,
            TaxiState.FREE,
            TaxiState.PAYMENT,
            TaxiState.FREE,
        ]
        violations = transition_violations(stream)
        assert len(violations) == 1
        index, prev, state = violations[0]
        assert (prev, state) == (TaxiState.FREE, TaxiState.PAYMENT)
        assert index == 3

    def test_counts_every_violation(self):
        stream = [TaxiState.FREE, TaxiState.PAYMENT] * 3
        assert len(transition_violations(stream)) >= 2
