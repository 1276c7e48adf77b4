"""Tests for the section-7.2 driver-behaviour mining."""

import pytest

from repro.analysis.insights import (
    cherry_pick_report,
    find_busy_cherry_picks,
)
from repro.states.states import TaxiState
from repro.trace.log_store import MdtLogStore
from repro.trace.record import MdtRecord

S = TaxiState
LON, LAT = 103.8, 1.33


def store_with(*state_ts_pairs, taxi="A", lon=LON, lat=LAT):
    return MdtLogStore(
        MdtRecord(float(ts), taxi, lon, lat, 3.0, state)
        for ts, state in state_ts_pairs
    )


class TestFindCherryPicks:
    def test_basic_pattern(self):
        store = store_with(
            (0, S.FREE), (60, S.BUSY), (120, S.BUSY), (180, S.POB),
            (240, S.PAYMENT), (300, S.FREE),
        )
        events = find_busy_cherry_picks(store)
        assert len(events) == 1
        event = events[0]
        assert event.taxi_id == "A"
        assert event.dwell_s == 60.0
        assert event.ts == 180.0
        assert event.lon == pytest.approx(LON)

    def test_busy_without_pob_ignored(self):
        store = store_with((0, S.BUSY), (120, S.BUSY), (200, S.FREE))
        assert find_busy_cherry_picks(store) == []

    def test_momentary_busy_blip_ignored(self):
        store = store_with((0, S.BUSY), (5, S.BUSY), (10, S.POB))
        assert find_busy_cherry_picks(store, min_dwell_s=30.0) == []

    def test_all_day_busy_ignored(self):
        store = store_with((0, S.BUSY), (5000, S.BUSY), (9000, S.POB))
        assert find_busy_cherry_picks(store, max_dwell_s=3600.0) == []

    def test_multiple_events_per_taxi(self):
        store = store_with(
            (0, S.BUSY), (60, S.BUSY), (100, S.POB), (200, S.FREE),
            (300, S.BUSY), (400, S.BUSY), (450, S.POB),
        )
        assert len(find_busy_cherry_picks(store)) == 2

    def test_present_in_simulated_logs(self, small_day):
        events = find_busy_cherry_picks(small_day.store)
        assert len(events) > 0


class TestCherryPickReport:
    def test_report_on_simulated_day(self, small_day, small_analyses):
        events = find_busy_cherry_picks(small_day.store)
        report = cherry_pick_report(
            events, small_analyses.values(), small_day.ground_truth.grid
        )
        assert report.events_total == len(events)
        assert report.events_at_spots <= report.events_total
        assert sum(report.by_label.values()) == report.events_at_spots
        # Most cherry-picks happen at queue spots (that's where the
        # simulator plants the behaviour).
        assert report.events_at_spots > 0

    def test_rates_normalised(self, small_day, small_analyses):
        events = find_busy_cherry_picks(small_day.store)
        report = cherry_pick_report(
            events, small_analyses.values(), small_day.ground_truth.grid
        )
        for rate in report.per_label_rate.values():
            assert rate >= 0.0

    def test_empty_events(self, small_analyses, small_day):
        report = cherry_pick_report(
            [], small_analyses.values(), small_day.ground_truth.grid
        )
        assert report.events_total == 0
        assert report.repeat_offenders == []
