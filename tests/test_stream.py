"""Tests for the streaming engine (incremental PEA + live monitor)."""

import pytest

from repro.conformance.oracles import row_pickup_events
from repro.core.features import AmplificationPolicy
from repro.core.qcd import label_slot
from repro.core.spots import assign_events_to_spots
from repro.core.thresholds import QcdThresholds
from repro.core.types import QueueSpot, QueueType, TimeSlotGrid
from repro.geo.point import LocalProjection
from repro.states.states import TaxiState
from repro.stream import StreamingPea, StreamingQueueMonitor
from repro.trace.log_store import MdtLogStore
from repro.trace.record import MdtRecord

S = TaxiState
LON, LAT = 103.8, 1.33
PROJ = LocalProjection(LON, LAT)


def recs(*pairs, taxi="A", step=30.0):
    return [
        MdtRecord(step * i, taxi, LON, LAT, speed, state)
        for i, (speed, state) in enumerate(pairs)
    ]


class TestStreamingPea:
    def test_simple_pickup(self):
        pea = StreamingPea()
        events = []
        for r in recs((40, S.FREE), (5, S.FREE), (5, S.POB), (40, S.POB)):
            event = pea.feed(r)
            if event:
                events.append(event)
        assert len(events) == 1
        assert events[0].taxi_id == "A"
        assert len(events[0]) == 2

    def test_flush_emits_open_candidate(self):
        pea = StreamingPea()
        for r in recs((40, S.FREE), (5, S.FREE), (5, S.POB)):
            assert pea.feed(r) is None
        flushed = pea.flush()
        assert len(flushed) == 1

    def test_flush_is_idempotent(self):
        pea = StreamingPea()
        for r in recs((40, S.FREE), (5, S.FREE), (5, S.POB)):
            pea.feed(r)
        assert len(pea.flush()) == 1
        assert pea.flush() == []

    def test_interleaved_taxis(self):
        pea = StreamingPea()
        a = recs((40, S.FREE), (5, S.FREE), (5, S.POB), (40, S.POB), taxi="A")
        b = recs((40, S.FREE), (5, S.FREE), (5, S.POB), (40, S.POB), taxi="B")
        events = []
        for ra, rb in zip(a, b):
            for r in (ra, rb):
                event = pea.feed(r)
                if event:
                    events.append(event)
        assert {e.taxi_id for e in events} == {"A", "B"}

    def test_pickup_event_duck_type(self):
        pea = StreamingPea()
        event = None
        for r in recs((40, S.FREE), (5, S.FREE), (5, S.POB), (40, S.POB)):
            event = pea.feed(r) or event
        lon, lat = event.centroid()
        assert lon == pytest.approx(LON)
        assert event.first.state is S.FREE
        assert event.last.state is S.POB
        assert event.states() == [S.FREE, S.POB]


def _thresholds():
    return QcdThresholds(
        eta_wait=120.0, eta_dep=90.0, tau_arr=15.0, tau_dep=20.0,
        eta_dur=1620.0, tau_ratio=0.84,
    )


def _spot():
    return QueueSpot("QS001", LON, LAT, "Central", 100, 5.0)


def _monitor(grid, grace_s=900.0):
    return StreamingQueueMonitor(
        spots=[_spot()],
        thresholds={"QS001": _thresholds()},
        grid=grid,
        projection=PROJ,
        amplification=AmplificationPolicy(),
        grace_s=grace_s,
    )


def pickup_stream(start_ts, n, spacing=60.0, wait=60.0, taxi_prefix="T"):
    """n quick pickups at the spot, spaced ``spacing`` apart."""
    records = []
    for k in range(n):
        t0 = start_ts + k * spacing
        taxi = f"{taxi_prefix}{k:03d}"
        records.extend(
            [
                MdtRecord(t0, taxi, LON, LAT, 40.0, S.FREE),
                MdtRecord(t0 + 1, taxi, LON, LAT, 5.0, S.FREE),
                MdtRecord(t0 + 1 + wait, taxi, LON, LAT, 5.0, S.POB),
                MdtRecord(t0 + 2 + wait, taxi, LON, LAT, 40.0, S.POB),
            ]
        )
    records.sort(key=lambda r: r.ts)
    return records


class TestStreamingQueueMonitor:
    def test_slot_finalized_after_grace(self):
        grid = TimeSlotGrid(0.0, 7200.0, 1800.0)
        monitor = _monitor(grid)
        results = []
        for r in pickup_stream(100.0, 20, spacing=60.0):
            results.extend(monitor.feed(r))
        # Stream ends around t=1400; slot 0 not yet finalized.
        assert results == []
        # A late heartbeat record pushes the clock past slot 0 + grace.
        results.extend(
            monitor.feed(MdtRecord(2800.0, "Z", LON + 0.1, LAT, 40.0, S.FREE))
        )
        slot0 = [r for r in results if r.slot == 0]
        assert len(slot0) == 1
        assert slot0[0].spot_id == "QS001"
        assert slot0[0].features.n_arrivals == 20

    def test_labels_match_batch_qcd(self):
        grid = TimeSlotGrid(0.0, 3600.0, 1800.0)
        monitor = _monitor(grid)
        for r in pickup_stream(10.0, 25, spacing=60.0, wait=40.0):
            monitor.feed(r)
        results = monitor.finish()
        slot0 = next(r for r in results if r.slot == 0)
        assert slot0.label.label is label_slot(
            slot0.features, _thresholds()
        ).label
        # 25 arrivals with 40 s waits: the C2 pattern.
        assert slot0.label.label is QueueType.C2

    def test_finish_covers_all_slots(self):
        grid = TimeSlotGrid(0.0, 7200.0, 1800.0)
        monitor = _monitor(grid)
        results = monitor.finish()
        assert len(results) == grid.n_slots  # one spot, all slots
        assert all(r.label.label is QueueType.UNIDENTIFIED for r in results)

    def test_events_far_from_spot_ignored(self):
        grid = TimeSlotGrid(0.0, 1800.0, 1800.0)
        monitor = _monitor(grid)
        far = [
            MdtRecord(10.0, "X", LON + 0.1, LAT, 40.0, S.FREE),
            MdtRecord(11.0, "X", LON + 0.1, LAT, 5.0, S.FREE),
            MdtRecord(40.0, "X", LON + 0.1, LAT, 5.0, S.POB),
            MdtRecord(41.0, "X", LON + 0.1, LAT, 40.0, S.POB),
        ]
        for r in far:
            monitor.feed(r)
        results = monitor.finish()
        assert results[0].features.n_arrivals == 0

    def test_missing_thresholds_give_unidentified(self):
        grid = TimeSlotGrid(0.0, 1800.0, 1800.0)
        monitor = StreamingQueueMonitor(
            spots=[_spot()],
            thresholds={},
            grid=grid,
            projection=PROJ,
        )
        for r in pickup_stream(10.0, 5):
            monitor.feed(r)
        results = monitor.finish()
        assert results[0].label.label is QueueType.UNIDENTIFIED

    def test_wait_spanning_slot_boundary_counted_in_start_slot(self):
        """A pickup whose wait starts in slot j but completes (POB) in
        slot j+1 belongs to slot j, and slot j is only finalized once the
        stream clock passes ``slot_end + grace``."""
        grid = TimeSlotGrid(0.0, 3600.0, 1800.0)
        monitor = _monitor(grid, grace_s=900.0)
        # Wait starts at t=1750 (slot 0), POB at t=1850 (slot 1).
        spanning = [
            MdtRecord(1740.0, "A", LON, LAT, 40.0, S.FREE),
            MdtRecord(1750.0, "A", LON, LAT, 5.0, S.FREE),
            MdtRecord(1850.0, "A", LON, LAT, 5.0, S.POB),
            MdtRecord(1860.0, "A", LON, LAT, 40.0, S.POB),
        ]
        results = []
        for r in spanning:
            results.extend(monitor.feed(r))
        assert results == []
        # Just before slot_end + grace = 2700: still pending.
        results.extend(
            monitor.feed(MdtRecord(2699.0, "Z", LON + 0.1, LAT, 40.0, S.FREE))
        )
        assert results == []
        # At slot_end + grace: slot 0 finalizes, carrying the wait.
        results.extend(
            monitor.feed(MdtRecord(2700.0, "Z", LON + 0.1, LAT, 40.0, S.FREE))
        )
        assert [r.slot for r in results] == [0]
        assert results[0].features.n_arrivals == 1
        assert results[0].features.mean_wait_s == pytest.approx(100.0)
        # Slot 1 gets nothing from the spanning pickup.
        tail = monitor.finish()
        slot1 = next(r for r in tail if r.slot == 1)
        assert slot1.features.n_arrivals == 0

    def test_subscribers_receive_finalized_batches(self):
        grid = TimeSlotGrid(0.0, 3600.0, 1800.0)
        monitor = _monitor(grid)
        seen = []
        monitor.subscribe(seen.append)
        returned = []
        for r in pickup_stream(10.0, 5):
            returned.extend(monitor.feed(r))
        returned.extend(monitor.finish())
        assert [r for batch in seen for r in batch] == returned
        assert all(batch for batch in seen)  # only non-empty batches

    def test_amplification_applied(self):
        grid = TimeSlotGrid(0.0, 1800.0, 1800.0)
        monitor = StreamingQueueMonitor(
            spots=[_spot()],
            thresholds={"QS001": _thresholds()},
            grid=grid,
            projection=PROJ,
            amplification=AmplificationPolicy.for_coverage(0.5),
        )
        for r in pickup_stream(10.0, 10):
            monitor.feed(r)
        results = monitor.finish()
        assert results[0].features.n_arrivals == 20  # 10 observed x 2


class TestStreamAgainstBatchOnSimData:
    def test_stream_reproduces_batch_wait_counts(self, small_day, small_engine, small_detection):
        """Feeding the whole day through the monitor matches the batch
        engine's per-spot wait-event totals."""
        cleaned = small_detection.cleaned_for(small_day.store)
        grid = small_day.ground_truth.grid
        monitor = StreamingQueueMonitor(
            spots=small_detection.spots,
            thresholds={},
            grid=grid,
            projection=small_day.city.projection,
            assign_radius_m=30.0,
        )
        all_records = sorted(cleaned.iter_rows(), key=lambda r: r.ts)
        results = []
        for r in all_records:
            results.extend(monitor.feed(r))
        results.extend(monitor.finish())

        stream_total = sum(
            r.features.n_arrivals + 0 for r in results
        )
        batch = small_engine.disambiguate(
            small_day.store, small_detection, grid
        )
        batch_total = sum(
            f.n_arrivals / small_engine.amplification.factor
            for a in batch.values()
            for f in a.features
        )
        assert stream_total == pytest.approx(batch_total, rel=0.05)

    def test_stream_events_and_assignment_match_batch(
        self, small_day, small_engine, small_detection
    ):
        """Over a whole day, the streaming scan emits the row
        reference's events, and the monitor puts each event in the spot
        of its batch W(r) bucket."""
        cleaned = small_detection.cleaned_for(small_day.store)
        store = MdtLogStore.from_batch(cleaned)
        reference = [
            event
            for trajectory in store.iter_trajectories()
            for event in row_pickup_events(trajectory)[0]
        ]
        pea = StreamingPea()
        stream = sorted(cleaned.iter_rows(), key=lambda r: r.ts)
        streamed = [e for e in map(pea.feed, stream) if e is not None]
        streamed.extend(pea.flush())

        def order(event):
            return event.taxi_id, event.first.ts

        assert sorted(streamed, key=order) == sorted(reference, key=order)

        radius = small_engine.config.assign_radius_m
        monitor = StreamingQueueMonitor(
            spots=small_detection.spots,
            thresholds={},
            grid=small_day.ground_truth.grid,
            projection=small_day.city.projection,
            assign_radius_m=radius,
        )
        buckets = assign_events_to_spots(
            reference, small_detection.spots, small_day.city.projection, radius
        )
        batch_spot = {
            id(event): spot_id
            for spot_id, events in buckets.items()
            for event in events
        }
        assert batch_spot  # the day has W(r) members
        assert [monitor._assign(e) for e in reference] == [
            batch_spot.get(id(e)) for e in reference
        ]
