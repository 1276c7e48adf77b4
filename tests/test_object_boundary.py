"""Rows only where they are read: the replay feed and the column-tuple
pickup events against the row code they replace.

On random multi-taxi days (the strategies of
``tests/test_day_kernels.py``: rows grouped by taxi or shuffled, ts ties
across taxis and within a taxi, ``-0.0`` speeds), each property writes
its reference out here:

* :func:`~repro.service.replay.replay_order` yields ``sorted(rows,
  key=ts)`` on every ``iter()``, over a batch and over a store;
* :meth:`PickupEvent.from_records` keeps the rows it is given, and
  :meth:`PickupEvent.centroid` is the mean of the rows' lon and lat;
* WTE over an event's ``ts`` and ``state`` tuples equals the row loop
  of Algorithm 2 kept in ``tests/_row_wte.py``;
* W(r) given tier 1's centroids equals W(r) computing its own.

Rows are compared by ``repr``, so ``-0.0`` and ``0.0`` count as
different values even where ``==`` calls them equal.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import RecordBatch
from repro.core.pea import PickupEvent, extract_pickup_events_batch
from repro.core.spots import assign_events_to_spots, pickup_centroids
from repro.core.types import QueueSpot
from repro.core.wte import extract_wait_event
from repro.geo.point import LocalProjection
from repro.service.replay import replay_order
from repro.trace.log_store import MdtLogStore

from tests._row_wte import row_wait_event
from tests.test_day_kernels import (
    CITY,
    CITY_POINTS,
    IDS,
    days,
    exact,
    taxi_rows,
)

PROJECTION = LocalProjection(*CITY.center)
#: The city points inside the city rectangle: spot locations.
SPOT_POINTS = [p for p in CITY_POINTS if CITY.contains(*p)]


def by_ts(rows):
    """Python's stable sort on ts, the order every replay feeds."""
    return sorted(rows, key=lambda r: r.ts)


@st.composite
def one_taxi(draw):
    """``(taxi_id, rows)``: one taxi's rows in time order."""
    taxi_id = draw(st.sampled_from(IDS))
    return taxi_id, draw(taxi_rows(taxi_id, CITY_POINTS))


@st.composite
def spot_sets(draw):
    points = draw(st.lists(st.sampled_from(SPOT_POINTS), max_size=4))
    return [
        QueueSpot(f"QS{i + 1:03d}", lon, lat, "Central", 50, 5.0)
        for i, (lon, lat) in enumerate(points)
    ]


def day_events(rows, apply_state_filters):
    events, _ = extract_pickup_events_batch(
        RecordBatch.from_rows(rows), apply_state_filters
    )
    return events


class TestReplayFeed:
    @settings(max_examples=200, deadline=None)
    @given(days())
    def test_yields_stable_ts_order_on_every_iter(self, rows):
        feed = replay_order(RecordBatch.from_rows(rows))
        assert len(feed) == len(rows)
        expected = exact(by_ts(rows))
        assert exact(feed) == expected
        assert exact(feed) == expected  # a second iter() starts over

    @settings(max_examples=100, deadline=None)
    @given(days())
    def test_store_feeds_its_own_rows(self, rows):
        store = MdtLogStore(rows)
        feed = replay_order(store)
        assert exact(feed) == exact(by_ts(store.iter_records()))


class TestPickupEvent:
    @settings(max_examples=200, deadline=None)
    @given(one_taxi())
    def test_from_records_keeps_the_rows(self, taxi):
        taxi_id, rows = taxi
        event = PickupEvent.from_records(taxi_id, rows)
        assert event.records == tuple(rows)
        assert exact(event.records) == exact(rows)
        assert exact(event) == exact(rows)
        assert len(event) == len(rows)
        assert event.states() == [r.state for r in rows]
        if rows:
            assert repr(event.first) == repr(rows[0])
            assert repr(event.last) == repr(rows[-1])
        twin = PickupEvent.from_records(taxi_id, iter(rows))
        assert twin == event
        assert hash(twin) == hash(event)

    @settings(max_examples=200, deadline=None)
    @given(one_taxi().filter(lambda taxi: taxi[1]))
    def test_centroid_is_the_row_mean(self, taxi):
        taxi_id, rows = taxi
        n = len(rows)
        mean = (sum(r.lon for r in rows) / n, sum(r.lat for r in rows) / n)
        centroid = PickupEvent.from_records(taxi_id, rows).centroid()
        assert repr(centroid) == repr(mean)

    @settings(max_examples=150, deadline=None)
    @given(days(), st.booleans())
    def test_kernel_events_hold_their_rows(self, rows, filters):
        for event in day_events(rows, filters):
            records = event.records
            assert PickupEvent.from_records(event.taxi_id, records) == event
            assert {r.taxi_id for r in records} == {event.taxi_id}
            n = len(records)
            mean = (
                sum(r.lon for r in records) / n,
                sum(r.lat for r in records) / n,
            )
            assert repr(event.centroid()) == repr(mean)


class TestWaitExtraction:
    @settings(max_examples=300, deadline=None)
    @given(one_taxi())
    def test_equals_row_loop(self, taxi):
        taxi_id, rows = taxi
        event = PickupEvent.from_records(taxi_id, rows)
        assert extract_wait_event(event) == row_wait_event(taxi_id, rows)

    @settings(max_examples=150, deadline=None)
    @given(days(), st.booleans())
    def test_kernel_events_equal_row_loop(self, rows, filters):
        for event in day_events(rows, filters):
            assert extract_wait_event(event) == row_wait_event(
                event.taxi_id, event.records
            )


class TestAssignment:
    @settings(max_examples=200, deadline=None)
    @given(
        days(), st.booleans(), spot_sets(), st.sampled_from([0.0, 30.0, 5e3])
    )
    def test_tier1_centroids_change_nothing(
        self, rows, filters, spots, radius
    ):
        events = day_events(rows, filters)
        reused = assign_events_to_spots(
            events, spots, PROJECTION, radius,
            centroids=pickup_centroids(events),
        )
        assert reused == assign_events_to_spots(
            events, spots, PROJECTION, radius
        )
