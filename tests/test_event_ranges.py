"""Pickup events as row ranges over an immutable columnar day.

A :class:`~repro.core.pea.PickupEvent` is ``(taxi_id, day, lo, hi)``:
rows ``[lo, hi)`` of a :class:`~repro.columnar.RecordBatch` in
canonical order, with its fields as views of the day's columns.  That
is only sound because a built batch never changes, so these properties
pin both halves, on the random multi-taxi days of
``tests/test_day_kernels.py`` (grouped by taxi or shuffled):

* the kernel's range events equal the oracle's row PEA
  (:func:`~repro.conformance.oracles.row_pickup_events`) by value;
* the WTE kernel equals the row loop of ``tests/_row_wte.py`` on every
  event, and on arbitrary ranges of a day;
* :func:`~repro.core.spots.pickup_centroids` is ``repr``-equal to the
  mean of a row ``sum``, for kernel and streaming events alike;
* a built batch refuses writes, an event outlives the raw day it was
  cleaned from, and a pickled event carries only its own rows;
* rows built from the columns hold Python values, not NumPy scalars.
"""

from __future__ import annotations

import gc
import pickle
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.columnar import BatchBuilder, RecordBatch
from repro.conformance.oracles import row_pickup_events
from repro.core.pea import PickupEvent, extract_pickup_events_batch
from repro.core.spots import pickup_centroids
from repro.core.wte import extract_wait_event, extract_wait_times
from repro.service.replay import replay_order
from repro.states.states import TaxiState
from repro.trace.cleaning import clean_batch
from repro.trace.log_store import MdtLogStore
from repro.trace.partition import canonical_order
from repro.trace.record import MdtRecord
from repro.trace.trajectory import Trajectory

from tests._golden import golden_engine
from tests._row_wte import row_wait_event
from tests._rows import event_rows
from tests._stream import stream_events
from tests.test_day_kernels import CITY, by_taxi, days, exact, rec

S = TaxiState
GOLDEN_CSV = Path(__file__).parent / "data" / "golden_day.csv"


def kernel_events(rows, apply_state_filters=True):
    events, _ = extract_pickup_events_batch(
        RecordBatch.from_rows(rows), apply_state_filters
    )
    return events


def row_events(rows, apply_state_filters=True):
    """The oracle's row PEA over each taxi in canonical order."""
    return [
        event
        for taxi_id, taxi in by_taxi(rows)
        for event in row_pickup_events(
            Trajectory(taxi_id, taxi), apply_state_filters
        )[0]
    ]


def row_mean(records):
    n = len(records)
    return (
        sum(r.lon for r in records) / n,
        sum(r.lat for r in records) / n,
    )


class TestRangeEvents:
    @settings(max_examples=200, deadline=None)
    @given(days(), st.booleans())
    def test_equal_the_row_reference_by_value(self, rows, filters):
        events = kernel_events(rows, filters)
        expected = row_events(rows, filters)
        assert events == expected
        assert [exact(event_rows(e)) for e in events] == [
            exact(event_rows(e)) for e in expected
        ]
        for event in events:
            day = event.day
            # A range of one taxi's rows of a day in canonical order.
            assert canonical_order(day) is None
            assert 0 <= event.lo < event.hi <= len(day)
            assert {day.taxi_id_at(i) for i in range(event.lo, event.hi)} \
                == {event.taxi_id}

    @settings(max_examples=100, deadline=None)
    @given(days(), st.booleans())
    def test_a_canonical_day_is_not_copied(self, rows, filters):
        """Events over a day already in canonical order (the cleaned
        day always is) are ranges of that very batch."""
        cleaned, _ = clean_batch(RecordBatch.from_rows(rows))
        events, _ = extract_pickup_events_batch(cleaned, filters)
        assert all(event.day is cleaned for event in events)


#: States weighted toward the ones WTE reads.
_wte_states = st.one_of(
    st.sampled_from([S.FREE, S.ONCALL, S.ARRIVED, S.POB, S.PAYMENT]),
    st.sampled_from(list(TaxiState)),
)


@st.composite
def ranged_days(draw):
    """A one-taxi day of random states and random row ranges over it
    (empty ranges, overlaps and the whole day included)."""
    states = draw(st.lists(_wte_states, max_size=40))
    rows = [rec(30 * i, state, "W") for i, state in enumerate(states)]
    bounds = st.integers(0, len(rows))
    ranges = draw(
        st.lists(st.tuples(bounds, bounds).map(sorted), max_size=12)
    )
    return rows, [(0, len(rows))] + ranges


def _states_day(*states):
    rows = [rec(30 * i, state, "W") for i, state in enumerate(states)]
    return rows, [(0, len(rows))]


class TestWaitKernel:
    @settings(max_examples=200, deadline=None)
    @given(days(), st.booleans())
    def test_equals_row_loop_on_kernel_events(self, rows, filters):
        events = kernel_events(rows, filters)
        expected = [row_wait_event(e.taxi_id, event_rows(e)) for e in events]
        assert [extract_wait_event(e) for e in events] == expected
        assert extract_wait_times(events) == sorted(
            (w for w in expected if w is not None),
            key=lambda w: w.start_ts,
        )

    @settings(max_examples=300, deadline=None)
    @given(ranged_days())
    # PAYMENT before a start, and after one (both before the POB).
    @example(_states_day(S.PAYMENT, S.FREE, S.POB))
    @example(_states_day(S.FREE, S.PAYMENT, S.FREE, S.FREE, S.POB))
    @example(_states_day(S.FREE, S.POB, S.PAYMENT))
    @example(_states_day(S.FREE, S.POB, S.PAYMENT, S.ONCALL, S.POB))
    # POB before any start; no start at all; a lone POB.
    @example(_states_day(S.POB, S.FREE, S.POB))
    @example(_states_day(S.POB, S.BUSY, S.POB))
    @example(_states_day(S.POB))
    @example(_states_day())
    def test_equals_row_loop_on_any_range(self, day_ranges):
        rows, ranges = day_ranges
        day = RecordBatch.from_rows(rows)
        events = [PickupEvent("W", day, lo, hi) for lo, hi in ranges]
        expected = [row_wait_event("W", rows[lo:hi]) for lo, hi in ranges]
        assert [extract_wait_event(e) for e in events] == expected
        assert extract_wait_times(events) == sorted(
            (w for w in expected if w is not None),
            key=lambda w: w.start_ts,
        )
        for wait in expected:
            if wait is not None:
                assert type(wait.start_ts) is float
                assert type(wait.end_ts) is float


class TestCentroids:
    @settings(max_examples=200, deadline=None)
    @given(days(), st.booleans())
    def test_kernel_events_are_the_row_mean(self, rows, filters):
        events = kernel_events(rows, filters)
        got = [tuple(c) for c in pickup_centroids(events).tolist()]
        assert repr(got) == repr(
            [row_mean(event_rows(e)) for e in events]
        )

    @settings(max_examples=200, deadline=None)
    @given(days(), st.sampled_from([1, 7, 4096]))
    def test_stream_events_are_the_row_mean(self, rows, absorb_every):
        events = stream_events(
            sorted(rows, key=lambda r: r.ts), absorb_every
        )
        # Each stream event is one taxi's range of the batch its absorb
        # scanned.
        for event in events:
            codes = event.day.taxi[event.lo:event.hi].tolist()
            table = event.day.taxi_table
            assert {table[code] for code in codes} == {event.taxi_id}
        got = [tuple(c) for c in pickup_centroids(events).tolist()]
        assert repr(got) == repr(
            [row_mean(event_rows(e)) for e in events]
        )


def _columns(batch):
    return [batch.ts, batch.lon, batch.lat, batch.speed, batch.state,
            batch.taxi]


class TestImmutableDay:
    @settings(max_examples=100, deadline=None)
    @given(days().filter(bool))
    def test_built_columns_refuse_writes(self, rows):
        built = RecordBatch.from_rows(rows)
        cleaned, _ = clean_batch(built)
        clone = pickle.loads(pickle.dumps(built))
        for batch in (built, built.take([0]), clone,
                      RecordBatch.concat([built, built])):
            for column in _columns(batch):
                assert not column.flags.writeable
                with pytest.raises(ValueError):
                    column[0] = column[0]
            with pytest.raises(AttributeError):
                batch.ts = np.zeros(len(batch))
            with pytest.raises(AttributeError):
                batch.skipped_lines = 1
        for column in _columns(cleaned):
            assert not column.flags.writeable

    def test_csv_ingest_columns_refuse_writes(self):
        batch = RecordBatch.from_csv(GOLDEN_CSV)
        for column in _columns(batch):
            with pytest.raises(ValueError):
                column[:1] = 0

    def test_builder_starts_over_after_build(self):
        builder = BatchBuilder()
        builder.append_record(rec(0, S.FREE))
        first = builder.build()
        builder.append_record(rec(1, S.POB, "B"))
        second = builder.build()
        assert [r.taxi_id for r in first.to_rows()] == ["A"]
        assert [r.taxi_id for r in second.to_rows()] == ["B"]
        assert second.taxi_table == ("B",)
        assert len(builder.build()) == 0

    @settings(max_examples=100, deadline=None)
    @given(days())
    def test_events_outlive_their_raw_day(self, rows):
        raw = RecordBatch.from_rows(rows)
        raw_ref = weakref.ref(raw)
        cleaned, _ = clean_batch(raw, CITY)
        events, _ = extract_pickup_events_batch(cleaned)
        before = [exact(event_rows(e)) for e in events]
        del raw
        gc.collect()
        assert raw_ref() is None
        # Reuse the freed memory before reading the events again.
        RecordBatch.from_rows(rows)
        assert [exact(event_rows(e)) for e in events] == before

    @settings(max_examples=100, deadline=None)
    @given(days(), st.integers(1, 3))
    def test_pickled_event_holds_only_its_rows(self, rows, copies):
        """The same event, from its day and from that day padded with
        other taxis' rows, pickles to the same bytes."""
        padding = [
            MdtRecord(float(i), f"PAD{i % 7}", 103.85, 1.35, 0.0, S.FREE)
            for i in range(500 * copies)
        ]
        events = kernel_events(rows)
        padded = [
            e for e in kernel_events(rows + padding)
            if not e.taxi_id.startswith("PAD")
        ]
        assert padded == events
        for event, twin in zip(events, padded):
            assert len(twin.day) > len(event.day)
            blob = pickle.dumps(event)
            assert pickle.dumps(twin) == blob
            clone = pickle.loads(blob)
            assert clone == event
            assert len(clone.day) == len(event)


class TestPlainRows:
    @settings(max_examples=50, deadline=None)
    @given(days().filter(bool))
    def test_rows_hold_python_values(self, rows):
        batch = RecordBatch.from_rows(rows)
        for feed in (replay_order(batch), batch.iter_rows()):
            for record in feed:
                assert type(record.ts) is float
                assert type(record.lon) is float
                assert type(record.lat) is float
                assert type(record.speed) is float
                assert type(record.taxi_id) is str
                assert type(record.state) is TaxiState
        assert type(batch.time_span[0]) is float


class TestDetectionHoldsTheCleanedDay:
    def test_events_are_views_of_the_cleaned_day(self):
        store = MdtLogStore.from_csv(GOLDEN_CSV)
        detection = golden_engine(store).detect_spots(store)
        cleaned = detection.cleaned_for(store)
        assert detection.pickup_events
        for event in detection.pickup_events:
            assert event.day is cleaned
            assert np.shares_memory(event.lon, cleaned.lon)
