"""Tests for Algorithm 1 — the Pickup Extraction Algorithm."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pea import (
    extract_all_pickup_events,
    extract_pickup_events,
    extract_pickup_events_with_stats,
)
from repro.states.states import (
    NON_OPERATIONAL_STATES,
    TaxiState,
)
from repro.trace.log_store import MdtLogStore
from repro.trace.record import MdtRecord
from repro.trace.trajectory import Trajectory

S = TaxiState
LOW, HIGH = 5.0, 40.0


def traj(*pairs, taxi="SH0001A"):
    """Build a trajectory from (speed, state) pairs, 30 s apart."""
    records = [
        MdtRecord(30.0 * i, taxi, 103.8, 1.33, speed, state)
        for i, (speed, state) in enumerate(pairs)
    ]
    return Trajectory(taxi, records)


class TestSlowPickupDetection:
    def test_canonical_slow_pickup(self):
        t = traj(
            (HIGH, S.FREE),
            (LOW, S.FREE),
            (LOW, S.FREE),
            (LOW, S.POB),
            (HIGH, S.POB),
        )
        events = extract_pickup_events(t)
        assert len(events) == 1
        sub = events[0]
        assert sub.first.state is S.FREE
        assert sub.last.state is S.POB
        assert len(sub) == 3

    def test_two_low_records_suffice(self):
        t = traj((HIGH, S.FREE), (LOW, S.FREE), (LOW, S.POB), (HIGH, S.POB))
        assert len(extract_pickup_events(t)) == 1

    def test_single_low_record_is_not_enough(self):
        t = traj((HIGH, S.FREE), (LOW, S.POB), (HIGH, S.POB))
        assert extract_pickup_events(t) == []

    def test_speed_exactly_at_threshold_counts_as_low(self):
        t = traj((HIGH, S.FREE), (10.0, S.FREE), (10.0, S.POB), (HIGH, S.POB))
        assert len(extract_pickup_events(t, speed_threshold_kmh=10.0)) == 1

    def test_candidate_open_at_end_of_trajectory_is_finalized(self):
        t = traj((HIGH, S.FREE), (LOW, S.FREE), (LOW, S.POB))
        assert len(extract_pickup_events(t)) == 1

    def test_booking_pickup_kept(self):
        t = traj(
            (HIGH, S.ONCALL),
            (LOW, S.ARRIVED),
            (LOW, S.ARRIVED),
            (LOW, S.POB),
            (HIGH, S.POB),
        )
        assert len(extract_pickup_events(t)) == 1

    def test_busy_cherry_pick_kept(self):
        # Section 7.2: BUSY crawl ending in POB is a pickup event.
        t = traj((HIGH, S.FREE), (LOW, S.BUSY), (LOW, S.BUSY), (LOW, S.POB), (HIGH, S.POB))
        assert len(extract_pickup_events(t)) == 1


class TestStateConstraints:
    def test_alight_event_rejected(self):
        # Constraint 1: starts occupied, ends unoccupied.
        t = traj(
            (HIGH, S.POB),
            (LOW, S.POB),
            (LOW, S.PAYMENT),
            (LOW, S.FREE),
            (HIGH, S.FREE),
        )
        events, stats = extract_pickup_events_with_stats(t)
        assert events == []
        assert stats.rejected_alight == 1

    def test_leave_for_booking_rejected(self):
        # Constraint 2: starts FREE, ends ONCALL.
        t = traj(
            (HIGH, S.FREE),
            (LOW, S.FREE),
            (LOW, S.FREE),
            (LOW, S.ONCALL),
            (HIGH, S.ONCALL),
        )
        events, stats = extract_pickup_events_with_stats(t)
        assert events == []
        assert stats.rejected_oncall_leave == 1

    def test_traffic_jam_rejected(self):
        # Constraint 3: states never change.
        t = traj(
            (HIGH, S.POB),
            (LOW, S.POB),
            (LOW, S.POB),
            (LOW, S.POB),
            (HIGH, S.POB),
        )
        events, stats = extract_pickup_events_with_stats(t)
        assert events == []
        assert stats.rejected_no_transition == 1

    def test_non_operational_state_resets_scan(self):
        # A BREAK in the middle discards the open candidate (TAG1).
        t = traj(
            (HIGH, S.FREE),
            (LOW, S.FREE),
            (LOW, S.FREE),
            (0.0, S.BREAK),
            (LOW, S.FREE),
            (LOW, S.POB),
            (HIGH, S.POB),
        )
        events = extract_pickup_events(t)
        assert len(events) == 1
        assert events[0].first.ts == 120.0  # the post-BREAK candidate only

    def test_filters_can_be_disabled(self):
        t = traj(
            (HIGH, S.POB),
            (LOW, S.POB),
            (LOW, S.PAYMENT),
            (LOW, S.FREE),
            (HIGH, S.FREE),
        )
        assert extract_pickup_events(t, apply_state_filters=False) != []


class TestMultipleEvents:
    def test_two_pickups_in_one_day(self):
        t = traj(
            (HIGH, S.FREE), (LOW, S.FREE), (LOW, S.POB), (HIGH, S.POB),
            (HIGH, S.PAYMENT), (HIGH, S.FREE),
            (HIGH, S.FREE), (LOW, S.FREE), (LOW, S.POB), (HIGH, S.POB),
        )
        assert len(extract_pickup_events(t)) == 2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            extract_pickup_events(traj((LOW, S.FREE)), speed_threshold_kmh=0)

    def test_store_level_extraction(self):
        store = MdtLogStore(
            MdtRecord(30.0 * i, taxi, 103.8, 1.33, speed, state)
            for taxi in ("A", "B")
            for i, (speed, state) in enumerate(
                [(HIGH, S.FREE), (LOW, S.FREE), (LOW, S.POB), (HIGH, S.POB)]
            )
        )
        events = extract_all_pickup_events(store)
        assert len(events) == 2
        assert {e.taxi_id for e in events} == {"A", "B"}


speeds = st.floats(min_value=0.0, max_value=80.0)
states = st.sampled_from(list(TaxiState))


class TestProperties:
    @given(st.lists(st.tuples(speeds, states), min_size=0, max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_invariants_on_random_streams(self, pairs):
        t = traj(*pairs) if pairs else Trajectory("SH0001A", [])
        events = extract_pickup_events(t)
        for sub in events:
            # At least two records, all low-speed.
            assert len(sub) >= 2
            assert all(r.speed <= 10.0 for r in sub)
            # Never contains a non-operational state.
            assert all(
                r.state not in NON_OPERATIONAL_STATES for r in sub
            )
            # At least one state transition inside.
            sub_states = sub.states()
            assert any(b is not a for a, b in zip(sub_states, sub_states[1:]))
            # Constraint 1 and 2 hold.
            assert not (
                sub.first.state in (S.POB, S.STC, S.PAYMENT)
                and sub.last.state in (S.FREE, S.ONCALL, S.ARRIVED, S.NOSHOW)
            )
            assert not (
                sub.first.state is S.FREE and sub.last.state is S.ONCALL
            )

    @given(st.lists(st.tuples(speeds, states), min_size=0, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_events_are_disjoint_and_ordered(self, pairs):
        t = traj(*pairs) if pairs else Trajectory("SH0001A", [])
        events = extract_pickup_events(t)
        for a, b in zip(events, events[1:]):
            assert a.end < b.start
