"""Tests for section-6.1.1 preprocessing (the three error classes).

The rules are checked on the production cleaner: ``clean_taxi_batch``
for one taxi's rows and ``clean_batch`` for a whole day, both over
``RecordBatch.from_rows``.
"""

import pytest

from repro.columnar import RecordBatch
from repro.geo.bbox import BBox
from repro.states.states import TaxiState
from repro.trace.cleaning import CleaningReport, clean_batch, clean_taxi_batch
from repro.trace.log_store import MdtLogStore
from repro.trace.record import MdtRecord

CITY = BBox(103.6, 1.24, 104.0, 1.47)
WATER = [BBox(103.60, 1.24, 103.70, 1.26)]


def rec(ts, state=TaxiState.FREE, lon=103.8, lat=1.33, speed=0.0, taxi="A"):
    return MdtRecord(ts, taxi, lon, lat, speed, state)


def clean_taxi(records, **kwargs):
    """One taxi's time-ordered records through ``clean_taxi_batch``."""
    return clean_taxi_batch(RecordBatch.from_rows(records), **kwargs).to_rows()


def power_up_with_gps_outlier():
    """A power-up sequence whose bridging BREAK is a GPS outlier."""
    return [
        rec(0.0, TaxiState.POWEROFF),
        rec(4.0, TaxiState.OFFLINE),
        rec(8.0, TaxiState.BREAK, lon=150.0),  # GPS outlier
        rec(12.0, TaxiState.FREE),
        rec(100.0, TaxiState.POB),
    ]


class TestDuplicates:
    def test_exact_retransmission_removed(self):
        a = rec(10.0, TaxiState.POB)
        survivors = clean_taxi([a, a, rec(20.0, TaxiState.PAYMENT)])
        assert len(survivors) == 2

    def test_same_ts_different_state_kept(self):
        # An event-driven logger may emit two records at the same second.
        out = clean_taxi([rec(10.0, TaxiState.FREE), rec(10.0, TaxiState.POB)])
        assert len(out) == 2

    def test_duplicate_counted_once(self):
        a = rec(10.0)
        report = CleaningReport()
        clean_taxi([a, a, a], report=report)
        assert report.duplicate == 2


class TestGpsErrors:
    def test_outside_city_removed(self):
        report = CleaningReport()
        out = clean_taxi(
            [rec(0.0), rec(10.0, lon=120.0)], city_bbox=CITY, report=report
        )
        assert len(out) == 1
        assert report.gps_error == 1

    def test_water_point_removed(self):
        report = CleaningReport()
        out = clean_taxi(
            [rec(0.0), rec(10.0, lon=103.65, lat=1.25)],
            city_bbox=CITY,
            inaccessible=WATER,
            report=report,
        )
        assert len(out) == 1
        assert report.gps_error == 1

    def test_no_bbox_means_no_gps_filter(self):
        out = clean_taxi([rec(0.0, lon=200.0)])
        assert len(out) == 1


class TestImproperStates:
    def test_spurious_free_between_payments(self):
        # The clock-sync bug: POB, PAYMENT, FREE, PAYMENT, FREE.
        records = [
            rec(0.0, TaxiState.POB),
            rec(10.0, TaxiState.PAYMENT),
            rec(12.0, TaxiState.FREE),
            rec(14.0, TaxiState.PAYMENT),
            rec(60.0, TaxiState.FREE),
        ]
        report = CleaningReport()
        out = clean_taxi(records, report=report)
        assert report.improper_state == 1
        states = [r.state for r in out]
        assert states == [
            TaxiState.POB,
            TaxiState.PAYMENT,
            TaxiState.FREE,
            TaxiState.FREE,
        ]

    def test_gps_removal_does_not_cascade(self):
        # A GPS-outlier BREAK inside a power-up sequence must not make the
        # rest of the day look mis-ordered.
        report = CleaningReport()
        out = clean_taxi(
            power_up_with_gps_outlier(), city_bbox=CITY, report=report
        )
        assert report.gps_error == 1
        assert report.improper_state == 0
        assert [r.state for r in out] == [
            TaxiState.POWEROFF,
            TaxiState.OFFLINE,
            TaxiState.FREE,
            TaxiState.POB,
        ]

    def test_cleaning_the_output_again_cascades(self):
        """Why a day is cleaned once: a second pass no longer sees the
        GPS-removed BREAK that bridged OFFLINE -> FREE, so it drops the
        FREE and the POB after it as improper states."""
        once = clean_taxi(power_up_with_gps_outlier(), city_bbox=CITY)
        report = CleaningReport()
        twice = clean_taxi(once, city_bbox=CITY, report=report)
        assert report.improper_state == 2
        assert [r.state for r in twice] == [
            TaxiState.POWEROFF,
            TaxiState.OFFLINE,
        ]

    def test_valid_stream_untouched(self):
        records = [
            rec(0.0, TaxiState.FREE),
            rec(10.0, TaxiState.POB),
            rec(20.0, TaxiState.STC),
            rec(30.0, TaxiState.PAYMENT),
            rec(40.0, TaxiState.FREE),
        ]
        report = CleaningReport()
        out = clean_taxi(records, city_bbox=CITY, report=report)
        assert len(out) == 5
        assert report.total_removed == 0

    def test_cleaning_is_idempotent(self):
        """Holds only when no removed record bridges a state change.

        Here the improper PAYMENT never entered the state chain and the
        GPS-removed FREE is the taxi's last record, so a second pass sees
        the same chain (the counter-case is
        ``test_cleaning_the_output_again_cascades``).
        """
        records = [
            rec(0.0, TaxiState.POB),
            rec(10.0, TaxiState.PAYMENT),
            rec(12.0, TaxiState.FREE),
            rec(14.0, TaxiState.PAYMENT),
            rec(60.0, TaxiState.FREE),
            rec(70.0, TaxiState.FREE, lon=150.0),
        ]
        once = clean_taxi(records, city_bbox=CITY)
        twice = clean_taxi(once, city_bbox=CITY)
        assert once == twice


class TestCleanStore:
    """Whole-day cleaning (``clean_batch``)."""

    def test_store_level_report(self):
        batch = RecordBatch.from_rows(
            [
                rec(0.0, TaxiState.FREE, taxi="A"),
                rec(10.0, TaxiState.POB, taxi="A"),
                rec(0.0, TaxiState.FREE, taxi="B", lon=200.0),
            ]
        )
        cleaned, report = clean_batch(batch, city_bbox=CITY)
        assert len(cleaned) == 2
        assert report.total_in == 3
        assert report.gps_error == 1
        assert report.removed_fraction == pytest.approx(1 / 3)

    def test_empty_store(self):
        cleaned, report = clean_batch(RecordBatch())
        assert len(cleaned) == 0
        assert report.removed_fraction == 0.0

    def test_report_merge(self):
        a = CleaningReport(total_in=10, improper_state=1)
        b = CleaningReport(total_in=5, duplicate=2)
        a.merge(b)
        assert a.total_in == 15
        assert a.total_removed == 3


class TestOnSimulatedData:
    def test_error_fraction_near_paper(self, small_day):
        """The injected noise must clean up to roughly the paper's 2.8%."""
        city = small_day.city
        _, report = clean_batch(
            small_day.store.to_batch(),
            city_bbox=city.bbox,
            inaccessible=city.water,
        )
        assert 0.01 < report.removed_fraction < 0.05

    def test_cleaning_reduces_transition_violations(self, small_day):
        """Cleaning removes nearly all violations.

        Not strictly all: dropping a GPS-bad record whose *state* was a
        genuine bridge (e.g. the BREAK of a power-up sequence) leaves a
        missing-state gap in the kept stream, which is exactly how real
        MDT logs look after preprocessing.
        """
        from repro.states.machine import transition_violations

        city = small_day.city
        batch, _ = clean_batch(
            small_day.store.to_batch(),
            city_bbox=city.bbox,
            inaccessible=city.water,
        )
        cleaned = MdtLogStore.from_batch(batch)
        raw_violations = sum(
            len(transition_violations([r.state for r in t]))
            for t in small_day.store.iter_trajectories()
        )
        remaining = sum(
            len(transition_violations([r.state for r in t]))
            for t in cleaned.iter_trajectories()
        )
        assert remaining < raw_violations * 0.2
        assert remaining / max(1, len(cleaned)) < 0.001
