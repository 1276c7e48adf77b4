"""Tests for Algorithm 2 — the Wait Time Extraction algorithm."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pea import PickupEvent
from repro.core.wte import extract_wait_event, extract_wait_times
from repro.states.states import TaxiState
from repro.trace.record import MdtRecord

from tests._rows import event_rows

S = TaxiState


def pickup(*states, taxi="SH0001A", step=30.0):
    """A pickup event with one synthetic record per state."""
    return PickupEvent.from_records(
        taxi,
        (
            MdtRecord(step * i, taxi, 103.8, 1.33, 5.0, state)
            for i, state in enumerate(states)
        ),
    )


class TestWaitExtraction:
    def test_street_wait(self):
        event = extract_wait_event(pickup(S.FREE, S.FREE, S.POB))
        assert event is not None
        assert event.start_ts == 0.0
        assert event.end_ts == 60.0
        assert event.wait_s == 60.0
        assert event.is_street

    def test_booking_wait_starts_at_oncall(self):
        event = extract_wait_event(pickup(S.ONCALL, S.ARRIVED, S.POB))
        assert event.start_state is S.ONCALL
        assert not event.is_street

    def test_arrived_can_open_wait(self):
        event = extract_wait_event(pickup(S.ARRIVED, S.POB))
        assert event.start_state is S.ARRIVED

    def test_payment_resets_wait_start(self):
        # The taxi was still finishing the previous job: the wait restarts
        # at the FREE after PAYMENT.
        event = extract_wait_event(
            pickup(S.FREE, S.PAYMENT, S.FREE, S.FREE, S.POB)
        )
        assert event is not None
        assert event.start_ts == 60.0
        assert event.end_ts == 120.0

    def test_no_pob_gives_no_event(self):
        assert extract_wait_event(pickup(S.FREE, S.FREE, S.NOSHOW)) is None

    def test_no_start_state_gives_no_event(self):
        # BUSY cherry-picking: BUSY records then POB; no FREE/ONCALL/ARRIVED.
        assert extract_wait_event(pickup(S.BUSY, S.BUSY, S.POB)) is None

    def test_first_pob_wins(self):
        event = extract_wait_event(pickup(S.FREE, S.POB, S.POB, S.POB))
        assert event.end_ts == 30.0

    def test_payment_after_pob_does_not_clear_event(self):
        # Wait already completed; a later PAYMENT resets the start but the
        # extracted event keeps the first complete interval... the WTE
        # pseudocode resets both on PAYMENT; with the POB already recorded
        # the reset produces no second event unless another POB follows.
        event = extract_wait_event(pickup(S.FREE, S.POB, S.PAYMENT))
        assert event is None or event.end_ts == 30.0


class TestBatchExtraction:
    def test_ordered_by_start(self):
        s1 = pickup(S.FREE, S.POB)
        records = [
            MdtRecord(1000.0 + 30.0 * i, "B", 103.8, 1.33, 5.0, state)
            for i, state in enumerate([S.FREE, S.POB])
        ]
        s2 = PickupEvent.from_records("B", records)
        events = extract_wait_times([s2, s1])
        assert [e.taxi_id for e in events] == ["SH0001A", "B"]

    def test_incomplete_events_dropped(self):
        events = extract_wait_times(
            [pickup(S.FREE, S.POB), pickup(S.BUSY, S.POB)]
        )
        assert len(events) == 1

    def test_empty_input(self):
        assert extract_wait_times([]) == []


class TestProperties:
    @given(
        st.lists(st.sampled_from(list(TaxiState)), min_size=1, max_size=25)
    )
    @settings(max_examples=80, deadline=None)
    def test_wait_invariants(self, states):
        event = extract_wait_event(pickup(*states))
        if event is not None:
            assert event.wait_s >= 0.0
            assert event.start_state in (S.FREE, S.ONCALL, S.ARRIVED)
            # The end is a POB timestamp that exists in the stream.
            index = int(event.end_ts // 30.0)
            assert states[index] is S.POB
            # No PAYMENT between start and end (it would have reset).
            start_index = int(event.start_ts // 30.0)
            assert S.PAYMENT not in states[start_index:index]


DAY0 = 1_200_000_000.0  # an arbitrary fixed day origin


@st.composite
def segments(draw) -> PickupEvent:
    """One taxi's contiguous record segment with increasing timestamps."""
    n = draw(st.integers(min_value=1, max_value=30))
    ts = DAY0
    records = []
    for _ in range(n):
        ts += draw(st.floats(min_value=0.5, max_value=600.0))
        records.append(
            MdtRecord(
                ts=ts,
                taxi_id="W",
                lon=103.8,
                lat=1.35,
                speed=draw(st.floats(min_value=0, max_value=90)),
                state=draw(st.sampled_from(list(TaxiState))),
            )
        )
    return PickupEvent.from_records("W", records)


class TestWteInvariants:
    """Wait intervals over irregular sampling: never negative, never
    spanning a PAYMENT reset, endpoints taken from the segment."""

    @given(segments())
    @settings(max_examples=150, deadline=None)
    def test_wait_never_negative(self, segment):
        event = extract_wait_event(segment)
        if event is not None:
            assert event.wait_s >= 0
            assert event.start_state in (
                TaxiState.FREE,
                TaxiState.ONCALL,
                TaxiState.ARRIVED,
            )

    @given(segments())
    @settings(max_examples=150, deadline=None)
    def test_wait_never_spans_payment_reset(self, segment):
        # A PAYMENT record resets the wait-start; a returned interval
        # must therefore contain no PAYMENT strictly inside it.
        event = extract_wait_event(segment)
        if event is None:
            return
        inside = [
            r
            for r in event_rows(segment)
            if event.start_ts < r.ts < event.end_ts
            and r.state is TaxiState.PAYMENT
        ]
        assert inside == []

    @given(segments())
    @settings(max_examples=100, deadline=None)
    def test_endpoints_come_from_the_segment(self, segment):
        event = extract_wait_event(segment)
        if event is None:
            return
        timestamps = {r.ts for r in event_rows(segment)}
        assert event.start_ts in timestamps
        assert event.end_ts in timestamps
