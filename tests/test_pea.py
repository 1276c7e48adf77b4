"""Tests for Algorithm 1 — the Pickup Extraction Algorithm.

Every case runs on the oracle's row reference
(:func:`repro.conformance.oracles.row_pickup_events`, its own copy of
the section-4.2 constraints) and on both callers of the one scan
(:func:`repro.core.pea.pea_scan`): the engine's whole-day kernel
(:func:`repro.core.pea.extract_pickup_events_batch`) and the live
monitor, which absorbs after every row here and so holds and resumes
each run at every step.  Events are compared as record lists, and
:class:`PeaStats` on the two that count.  The monitor has no
``apply_state_filters`` option, so cases with the filters off run on
the other two.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.columnar import RecordBatch
from repro.conformance.oracles import row_pickup_events
from repro.core.pea import extract_pickup_events_batch
from repro.states.states import (
    NON_OPERATIONAL_STATES,
    TaxiState,
)
from repro.trace.log_store import MdtLogStore
from repro.trace.record import MdtRecord
from repro.trace.trajectory import Trajectory

from tests._rows import event_rows
from tests._stream import stream_events

S = TaxiState
LOW, HIGH = 5.0, 40.0
TAXI = "SH0001A"


def recs(*pairs):
    """One taxi's records from (speed, state) pairs, 30 s apart."""
    return [
        MdtRecord(30.0 * i, TAXI, 103.8, 1.33, speed, state)
        for i, (speed, state) in enumerate(pairs)
    ]


def row_scan(records, apply_state_filters=True):
    events, stats = row_pickup_events(
        Trajectory(TAXI, records), apply_state_filters
    )
    return [event_rows(e) for e in events], stats


def column_scan(records, apply_state_filters=True):
    events, stats = extract_pickup_events_batch(
        RecordBatch.from_rows(records), apply_state_filters
    )
    return [event_rows(e) for e in events], stats


def stream_scan(records):
    return [event_rows(e) for e in stream_events(records)]


def extract(*pairs, apply_state_filters=True):
    """Run the three scans on one taxi's (speed, state) pairs.

    Asserts that they agree and returns ``(events, stats)``: events as
    record lists, stats as the two counting scans report them.
    """
    records = recs(*pairs)
    row_events, row_stats = row_scan(records, apply_state_filters)
    col_events, col_stats = column_scan(records, apply_state_filters)
    assert col_events == row_events
    assert col_stats == row_stats
    if apply_state_filters:
        assert stream_scan(records) == col_events
    return row_events, row_stats


class TestSlowPickupDetection:
    def test_canonical_slow_pickup(self):
        events, _ = extract(
            (HIGH, S.FREE),
            (LOW, S.FREE),
            (LOW, S.FREE),
            (LOW, S.POB),
            (HIGH, S.POB),
        )
        assert len(events) == 1
        event = events[0]
        assert event[0].state is S.FREE
        assert event[-1].state is S.POB
        assert len(event) == 3

    def test_two_low_records_suffice(self):
        events, _ = extract(
            (HIGH, S.FREE), (LOW, S.FREE), (LOW, S.POB), (HIGH, S.POB)
        )
        assert len(events) == 1

    def test_single_low_record_is_not_enough(self):
        events, _ = extract((HIGH, S.FREE), (LOW, S.POB), (HIGH, S.POB))
        assert events == []

    def test_speed_exactly_at_threshold_counts_as_low(self):
        events, _ = extract(
            (HIGH, S.FREE), (10.0, S.FREE), (10.0, S.POB), (HIGH, S.POB)
        )
        assert len(events) == 1

    def test_candidate_open_at_end_of_trajectory_is_finalized(self):
        events, _ = extract((HIGH, S.FREE), (LOW, S.FREE), (LOW, S.POB))
        assert len(events) == 1

    def test_booking_pickup_kept(self):
        events, _ = extract(
            (HIGH, S.ONCALL),
            (LOW, S.ARRIVED),
            (LOW, S.ARRIVED),
            (LOW, S.POB),
            (HIGH, S.POB),
        )
        assert len(events) == 1

    def test_busy_cherry_pick_kept(self):
        # Section 7.2: BUSY crawl ending in POB is a pickup event.
        events, _ = extract(
            (HIGH, S.FREE), (LOW, S.BUSY), (LOW, S.BUSY), (LOW, S.POB),
            (HIGH, S.POB),
        )
        assert len(events) == 1


class TestStateConstraints:
    def test_alight_event_rejected(self):
        # Constraint 1: starts occupied, ends unoccupied.
        events, stats = extract(
            (HIGH, S.POB),
            (LOW, S.POB),
            (LOW, S.PAYMENT),
            (LOW, S.FREE),
            (HIGH, S.FREE),
        )
        assert events == []
        assert stats.rejected_alight == 1

    def test_leave_for_booking_rejected(self):
        # Constraint 2: starts FREE, ends ONCALL.
        events, stats = extract(
            (HIGH, S.FREE),
            (LOW, S.FREE),
            (LOW, S.FREE),
            (LOW, S.ONCALL),
            (HIGH, S.ONCALL),
        )
        assert events == []
        assert stats.rejected_oncall_leave == 1

    def test_traffic_jam_rejected(self):
        # Constraint 3: states never change.
        events, stats = extract(
            (HIGH, S.POB),
            (LOW, S.POB),
            (LOW, S.POB),
            (LOW, S.POB),
            (HIGH, S.POB),
        )
        assert events == []
        assert stats.rejected_no_transition == 1

    def test_non_operational_state_resets_scan(self):
        # A BREAK in the middle discards the open candidate (TAG1).
        events, _ = extract(
            (HIGH, S.FREE),
            (LOW, S.FREE),
            (LOW, S.FREE),
            (0.0, S.BREAK),
            (LOW, S.FREE),
            (LOW, S.POB),
            (HIGH, S.POB),
        )
        assert len(events) == 1
        assert events[0][0].ts == 120.0  # the post-BREAK candidate only

    def test_filters_can_be_disabled(self):
        pairs = (
            (HIGH, S.POB),
            (LOW, S.POB),
            (LOW, S.PAYMENT),
            (LOW, S.FREE),
            (HIGH, S.FREE),
        )
        events, stats = extract(*pairs, apply_state_filters=False)
        assert len(events) == 1
        assert stats.rejected_alight == 0


class TestMultipleEvents:
    def test_two_pickups_in_one_day(self):
        events, stats = extract(
            (HIGH, S.FREE), (LOW, S.FREE), (LOW, S.POB), (HIGH, S.POB),
            (HIGH, S.PAYMENT), (HIGH, S.FREE),
            (HIGH, S.FREE), (LOW, S.FREE), (LOW, S.POB), (HIGH, S.POB),
        )
        assert len(events) == 2
        assert stats.candidates == stats.kept == 2

    def test_store_level_extraction(self):
        store = MdtLogStore(
            MdtRecord(30.0 * i, taxi, 103.8, 1.33, speed, state)
            for taxi in ("A", "B")
            for i, (speed, state) in enumerate(
                [(HIGH, S.FREE), (LOW, S.FREE), (LOW, S.POB), (HIGH, S.POB)]
            )
        )
        events, stats = extract_pickup_events_batch(store.to_batch())
        assert len(events) == 2
        assert stats.candidates == stats.kept == 2
        assert {e.taxi_id for e in events} == {"A", "B"}
        assert [event_rows(e) for e in events] == [
            event_rows(e)
            for trajectory in store.iter_trajectories()
            for e in row_pickup_events(trajectory)[0]
        ]


#: Speeds that often sit at, just above and well below eta_sp, so random
#: sequences open many candidates.
speeds = st.one_of(
    st.sampled_from([0.0, LOW, 10.0, 10.000000000000002, HIGH]),
    st.floats(min_value=0.0, max_value=80.0),
)
#: States weighted toward the ones the section-4.2 constraints test.
states = st.one_of(
    st.sampled_from([S.FREE, S.ONCALL, S.POB, S.PAYMENT]),
    st.sampled_from(list(TaxiState)),
)
streams = st.lists(st.tuples(speeds, states), min_size=0, max_size=60)


class TestProperties:
    @given(streams, st.booleans())
    @example([(LOW, S.FREE), (LOW, S.ONCALL)], True)
    @example([(LOW, S.POB), (LOW, S.FREE), (HIGH, S.FREE)], True)
    @example([(LOW, S.BUSY), (LOW, S.BUSY)], True)
    @settings(max_examples=1000, deadline=None)
    def test_three_scans_agree(self, pairs, apply_state_filters):
        """The batch kernel's events and stats equal the row
        reference's, and the streaming scan's events equal the batch
        kernel's, on random (speed, state) sequences."""
        extract(*pairs, apply_state_filters=apply_state_filters)

    @given(streams)
    @settings(max_examples=80, deadline=None)
    def test_invariants_on_random_streams(self, pairs):
        events, _ = extract(*pairs)
        for event in events:
            # At least two records, all low-speed.
            assert len(event) >= 2
            assert all(r.speed <= 10.0 for r in event)
            # Never contains a non-operational state.
            assert all(
                r.state not in NON_OPERATIONAL_STATES for r in event
            )
            # At least one state transition inside.
            event_states = [r.state for r in event]
            assert any(
                b is not a for a, b in zip(event_states, event_states[1:])
            )
            # Constraint 1 and 2 hold.
            assert not (
                event[0].state in (S.POB, S.STC, S.PAYMENT)
                and event[-1].state in (S.FREE, S.ONCALL, S.ARRIVED, S.NOSHOW)
            )
            assert not (
                event[0].state is S.FREE and event[-1].state is S.ONCALL
            )

    @given(streams)
    @settings(max_examples=40, deadline=None)
    def test_events_are_disjoint_and_ordered(self, pairs):
        events, _ = extract(*pairs)
        for a, b in zip(events, events[1:]):
            assert a[-1].ts < b[0].ts
